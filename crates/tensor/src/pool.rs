//! Deterministic worker pool for the train/eval hot path.
//!
//! Design goals, in priority order:
//!
//! 1. **Bit-identical results at any thread count.** Work is split into
//!    chunks with boundaries that depend only on the input length — never on
//!    thread count or scheduling — and results land in caller-provided slots
//!    indexed by chunk, so reductions run in a fixed order. Running with
//!    `BENCHTEMP_THREADS=1` and `=64` must produce the same bytes.
//! 2. **Zero dependencies.** Plain `std::thread` workers behind a
//!    `Mutex<VecDeque>` + `Condvar` queue.
//! 3. **One pool per process.** Workers are spawned once (lazily) and
//!    reused; per-call overhead is one lock + one wakeup per chunk.
//!
//! The pool size comes from `BENCHTEMP_THREADS` (clamped to ≥ 1), defaulting
//! to `std::thread::available_parallelism()`. With one thread the helpers
//! run inline on the caller — no queue traffic at all — which keeps the
//! single-core path as fast as the pre-pool code.
//!
//! # Safety model
//!
//! `scope_run` erases closure lifetimes to `'static` so borrowed work can be
//! shipped to long-lived workers. This is sound because the submitting call
//! blocks until every submitted closure has finished (a counter + condvar
//! barrier), so no borrow outlives the call. Panics inside workers are
//! caught, carried back, and re-raised on the caller thread.
//!
//! That argument says nothing about *which* memory the tasks of one batch
//! write; the type system does. Every dispatch hands each task its own
//! `&mut` slab from `chunks_mut` / `split_at_mut`, so two tasks writing one
//! slot do not compile (E0499/E0524), and the workspace lint
//! `unsafe_code = "deny"` rejects a raw-pointer split anywhere outside
//! `scope_run` and the AVX2 kernel dispatch.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use benchtemp_util::env::{self, Knob};

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Queue {
    jobs: Mutex<VecDeque<Job>>,
    available: Condvar,
}

/// A fixed-size worker pool. Obtain the process-wide instance via [`pool`].
pub struct ThreadPool {
    queue: Arc<Queue>,
    /// Configured size: drives chunk arithmetic (the determinism contract).
    threads: usize,
    /// Actually spawned workers: `threads` capped at the machine's available
    /// parallelism, so an oversubscribed `BENCHTEMP_THREADS` never pays
    /// dispatch overhead for cores that don't exist.
    workers: usize,
}

/// Tracks one batch of submitted jobs so the caller can block on completion.
struct Batch {
    pending: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Batch {
    fn new(n: usize) -> Arc<Self> {
        Arc::new(Self {
            pending: Mutex::new(n),
            done: Condvar::new(),
            panic: Mutex::new(None),
        })
    }

    fn finish_one(&self) {
        let mut left = self.pending.lock().unwrap();
        *left -= 1;
        if *left == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut left = self.pending.lock().unwrap();
        while *left > 0 {
            left = self.done.wait(left).unwrap();
        }
    }
}

fn worker_loop(queue: Arc<Queue>) {
    loop {
        let job = {
            let mut jobs = queue.jobs.lock().unwrap();
            loop {
                match jobs.pop_front() {
                    Some(j) => break j,
                    None => jobs = queue.available.wait(jobs).unwrap(),
                }
            }
        };
        job();
    }
}

/// Resolve the configured pool size: `BENCHTEMP_THREADS` if set and ≥ 1,
/// else the machine's available parallelism.
pub fn configured_threads() -> usize {
    match env::var(Knob::Threads) {
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => 1,
        },
        None => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

impl ThreadPool {
    fn new(threads: usize) -> Self {
        // Cap spawned workers at the machine's parallelism: configuring 4
        // threads on a 1-core host must behave like 1 thread (run inline),
        // not pay queue traffic for negative speedup. Chunk arithmetic still
        // uses the configured `threads`, so results are unchanged.
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_workers(threads, threads.min(cores))
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "the pool is the one place that spawns threads"
    )]
    fn with_workers(threads: usize, workers: usize) -> Self {
        let queue = Arc::new(Queue {
            jobs: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
        });
        // With 1 effective worker everything runs inline; spawn no threads.
        // Otherwise spawn exactly `workers`: the caller blocks while a batch
        // runs, so the workers own all the compute. Return only once every
        // worker is running: the runtime's per-thread start-up allocates on
        // the new thread, and left asynchronous it would land inside
        // whatever the caller measures next (the zero-allocation window of
        // `tests/alloc_free_forward.rs`).
        if workers > 1 {
            let started = Arc::new(std::sync::Barrier::new(workers + 1));
            for i in 0..workers {
                let q = Arc::clone(&queue);
                let started = Arc::clone(&started);
                std::thread::Builder::new()
                    .name(format!("benchtemp-pool-{i}"))
                    .spawn(move || {
                        started.wait();
                        worker_loop(q)
                    })
                    .expect("spawn pool worker");
            }
            started.wait();
        }
        Self {
            queue,
            threads,
            workers,
        }
    }

    /// Number of worker threads this pool schedules across (≥ 1). Chunk
    /// boundaries are derived from this, never from [`ThreadPool::workers`],
    /// so results stay identical however many workers actually exist.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of OS worker threads actually spawned (≥ 1 meaning "inline").
    /// Use this to decide whether parallel dispatch can possibly pay off.
    pub fn workers(&self) -> usize {
        self.workers.max(1)
    }

    /// Run the given closures, blocking until all complete. Closures may
    /// borrow from the caller's stack. Panics are propagated.
    ///
    /// One of the two library sites allowed `unsafe` under the workspace's
    /// `unsafe_code = "deny"`; `par_map` and every row-slab dispatch are
    /// built on it. Callers split their output with safe `chunks_mut` /
    /// `split_at_mut`, so the borrow checker proves the tasks write disjoint
    /// memory.
    #[expect(unsafe_code, reason = "lifetime erasure; waits for every task")]
    pub fn scope_run<'env>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        if tasks.is_empty() {
            return;
        }
        if self.workers() == 1 || tasks.len() == 1 {
            for t in tasks {
                t();
            }
            return;
        }
        let batch = Batch::new(tasks.len());
        // Spans closed on workers must attribute to the job that dispatched
        // them, so carry the submitting thread's recorder into each task.
        let recorder = benchtemp_obs::current();
        benchtemp_obs::counters::POOL_TASKS_DISPATCHED.add(tasks.len() as u64);
        {
            let mut jobs = self.queue.jobs.lock().unwrap();
            for task in tasks {
                // SAFETY: `wait()` below blocks until every job has run, so
                // the 'env borrows inside `task` outlive its execution.
                let task: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(task) };
                let b = Arc::clone(&batch);
                let rec = recorder.clone();
                jobs.push_back(Box::new(move || {
                    let _obs = rec.as_ref().map(|r| r.install());
                    let result = catch_unwind(AssertUnwindSafe(task));
                    if let Err(p) = result {
                        *b.panic.lock().unwrap() = Some(p);
                    }
                    b.finish_one();
                }));
            }
            self.queue.available.notify_all();
        }
        batch.wait();
        let panicked = batch.panic.lock().unwrap().take();
        if let Some(p) = panicked {
            resume_unwind(p);
        }
    }

    /// Apply `f` to every element of `items`, returning outputs in input
    /// order. Chunk boundaries depend only on `items.len()` and the pool
    /// size cap, so the output is identical at any thread count.
    pub fn par_map<T: Sync, U: Send, F: Fn(&T) -> U + Sync>(&self, items: &[T], f: F) -> Vec<U> {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        if self.workers() == 1 || n == 1 {
            return items.iter().map(f).collect();
        }
        let mut out: Vec<Option<U>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        {
            let chunk = n.div_ceil(self.threads).max(1);
            let f = &f;
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = items
                .chunks(chunk)
                .zip(out.chunks_mut(chunk))
                .map(|(src, dst)| {
                    let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                        for (s, d) in src.iter().zip(dst.iter_mut()) {
                            *d = Some(f(s));
                        }
                    });
                    task
                })
                .collect();
            self.scope_run(tasks);
        }
        out.into_iter()
            .map(|v| v.expect("pool task completed"))
            .collect()
    }
}

static POOL: OnceLock<ThreadPool> = OnceLock::new();
static POOL_SIZE: AtomicUsize = AtomicUsize::new(0);

/// The process-wide pool, created on first use with [`configured_threads`].
///
/// `BENCHTEMP_THREADS` is read once, at first call; changing it afterwards
/// has no effect on an already-built pool (tests that need both settings
/// spawn subprocesses).
pub fn pool() -> &'static ThreadPool {
    let p = POOL.get_or_init(|| ThreadPool::new(configured_threads()));
    POOL_SIZE.store(p.threads(), Ordering::Relaxed);
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    // Force real workers even on single-core hosts so the queue machinery
    // (not just the inline path) is exercised by these tests.
    fn test_pool(threads: usize) -> ThreadPool {
        ThreadPool::with_workers(threads, threads)
    }

    #[test]
    fn oversubscribed_pool_runs_inline() {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let p = ThreadPool::new(cores * 4);
        assert_eq!(p.threads(), cores * 4);
        assert!(p.workers() <= cores);
        // Results are identical to an uncapped pool of the same size.
        let items: Vec<u64> = (0..257).collect();
        let capped = p.par_map(&items, |&x| x * 3 + 1);
        let full = test_pool(cores * 4).par_map(&items, |&x| x * 3 + 1);
        assert_eq!(capped, full);
    }

    #[test]
    fn par_map_matches_sequential_any_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 3, 4, 7] {
            let p = test_pool(threads);
            let got = p.par_map(&items, |&x| x * x + 1);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn empty_inputs_are_noops() {
        let p = test_pool(4);
        let out: Vec<u8> = p.par_map(&[] as &[u8], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn worker_panics_propagate() {
        let p = test_pool(4);
        let items: Vec<usize> = (0..64).collect();
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            p.par_map(&items, |&x| {
                if x == 13 {
                    panic!("boom");
                }
                x
            })
        }));
        assert!(r.is_err());
        // Pool stays usable after a propagated panic.
        let ok = p.par_map(&items, |&x| x + 1);
        assert_eq!(ok[0], 1);
    }

    #[test]
    fn middle_chunk_panic_propagates_with_other_slots_intact() {
        let p = test_pool(4);
        let mut slots = [0usize; 4];
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = slots
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| {
                let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    if i == 2 {
                        panic!("chunk 2 goes down");
                    }
                    *slot = i + 1;
                });
                task
            })
            .collect();
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| p.scope_run(tasks)));
        let err = r.expect_err("the middle chunk's panic must re-raise on the caller");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("chunk 2"), "panic payload carried: {msg:?}");
        // scope_run blocks on the whole batch before re-raising, so every
        // other chunk's slot write has landed.
        assert_eq!(slots, [1, 2, 0, 4]);
        // The pool survives a propagated panic and runs the next batch.
        let items: Vec<usize> = (0..64).collect();
        assert_eq!(p.par_map(&items, |&x| x * 2)[63], 126);
    }

    #[test]
    fn configured_threads_parses_env_shapes() {
        // Only checks the parse logic with the process env left untouched.
        assert!(configured_threads() >= 1);
    }
}
