//! Exhaustive-interleaving model checker for the pool's `Queue`/`Batch`
//! protocol (`src/pool.rs`).
//!
//! The protocol's soundness argument ("`wait()` blocks until every job has
//! finished, so `'env` borrows cannot dangle") rests on the counter+condvar
//! batch barrier never losing a wakeup and never losing a job. Those are
//! exactly the properties a few hundred lines of test code cannot establish
//! by running threads — the schedules that break barriers show up once per
//! million runs. So this module checks them the loom way, hand-rolled:
//! model every lock-protected critical section as one atomic step, model
//! condvars faithfully (a sleeper wakes only when notified — no spurious
//! wakeups, which is *stricter* than std's contract, so absence of lost
//! wakeups here implies absence under std), and enumerate every schedule
//! for a small instance by DFS over the state graph.
//!
//! A deliberately broken variant ([`Mode::NotifyBeforeDecrement`] — the
//! classic "signal outside the predicate update" bug) must deadlock in at
//! least one schedule, proving the checker can actually see the failures
//! it claims to rule out.
//!
//! The model covers the barrier only. On the real pool, `src/pool.rs`'s
//! unit test `middle_chunk_panic_propagates_with_other_slots_intact` checks
//! that a panicking task is re-raised after every other task's write has
//! landed. Which memory the tasks write is outside the model: each task
//! owns a `chunks_mut` / `split_at_mut` slab, so the borrow checker proves
//! the writes disjoint, and `unsafe_code = "deny"` keeps raw-pointer splits
//! out of the workspace.

use std::collections::BTreeSet;

/// Which variant of the protocol to explore.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// The protocol as implemented in `pool.rs`.
    Correct,
    /// The middle job panics; its panic must be carried to the submitter in
    /// every schedule while all other jobs still run (`catch_unwind`
    /// isolation).
    PanicMiddleJob,
    /// Bug seed: `finish_one` signals `done` *before* decrementing the
    /// counter, in a separate critical section. Must deadlock somewhere.
    NotifyBeforeDecrement,
}

/// Aggregate results of one exhaustive exploration.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Exploration {
    /// Distinct protocol states reached.
    pub states: usize,
    /// States with no enabled step.
    pub terminals: usize,
    /// Terminals where the submitter is still blocked — lost wakeup.
    pub deadlocks: usize,
    /// Terminals where the submitter returned from `wait()`.
    pub completions: usize,
    /// Completions that observed a carried panic.
    pub panics_observed: usize,
    /// Completions where some job never executed.
    pub lost_jobs: usize,
}

#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Worker {
    /// About to lock the queue and pop (top of `worker_loop`).
    Idle,
    /// Asleep on `Queue::available`; runnable only after a notify.
    SleepAvail,
    /// Executing job *n* (the `job()` call, outside both locks).
    Run(u8),
    /// About to run `finish_one` for job *n*.
    Finish(u8),
    /// Buggy mode only: notified already, decrement still pending.
    FinishDec(u8),
}

#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Submitter {
    /// About to push all jobs and `notify_all` under the queue lock.
    Submit,
    /// Top of the `wait()` loop: lock `pending`, check, sleep or return.
    WaitCheck,
    /// Asleep on `Batch::done`; runnable only after a notify.
    SleepDone,
    /// Returned from `wait()`; panic slot has been inspected.
    Finished,
}

#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct State {
    queue: Vec<u8>,
    pending: u8,
    workers: Vec<Worker>,
    sub: Submitter,
    panicked: bool,
    /// Bitmask of executed jobs (caps the instance at 8 jobs).
    jobs_run: u8,
}

#[derive(Clone, Copy, Debug)]
enum Step {
    Sub,
    Worker(usize),
}

fn enabled(st: &State) -> Vec<Step> {
    let mut steps = Vec::new();
    match st.sub {
        Submitter::Submit | Submitter::WaitCheck => steps.push(Step::Sub),
        Submitter::SleepDone | Submitter::Finished => {}
    }
    for (i, w) in st.workers.iter().enumerate() {
        match w {
            Worker::SleepAvail => {}
            _ => steps.push(Step::Worker(i)),
        }
    }
    steps
}

/// Apply one atomic step. Each arm is one critical section of the real
/// protocol; waking a sleeper is folded into the notifier's step, which is
/// how a condvar notify behaves (the sleeper still re-acquires the lock,
/// i.e. takes its own next step, before acting).
fn apply(st: &State, step: Step, mode: Mode, jobs: u8) -> State {
    let mut s = st.clone();
    match step {
        Step::Sub => match s.sub {
            Submitter::Submit => {
                // Push every job and notify_all(available), all under the
                // queue lock — one atomic step.
                s.queue.extend(0..jobs);
                for w in &mut s.workers {
                    if *w == Worker::SleepAvail {
                        *w = Worker::Idle;
                    }
                }
                s.sub = Submitter::WaitCheck;
            }
            Submitter::WaitCheck => {
                // wait(): lock pending, check, atomically release+sleep if
                // still positive.
                s.sub = if s.pending == 0 {
                    Submitter::Finished
                } else {
                    Submitter::SleepDone
                };
            }
            Submitter::SleepDone | Submitter::Finished => unreachable!("not enabled"),
        },
        Step::Worker(i) => match s.workers[i] {
            Worker::SleepAvail => unreachable!("not enabled"),
            Worker::Idle => {
                // Lock queue; pop a job or atomically release+sleep.
                s.workers[i] = if s.queue.is_empty() {
                    Worker::SleepAvail
                } else {
                    Worker::Run(s.queue.remove(0))
                };
            }
            Worker::Run(j) => {
                s.jobs_run |= 1 << j;
                if mode == Mode::PanicMiddleJob && j == jobs / 2 {
                    // catch_unwind stores the payload; worker survives.
                    s.panicked = true;
                }
                s.workers[i] = Worker::Finish(j);
            }
            Worker::Finish(_) => match mode {
                Mode::Correct | Mode::PanicMiddleJob => {
                    // finish_one(): decrement and (if zero) notify, all
                    // under the pending lock.
                    s.pending -= 1;
                    if s.pending == 0 && s.sub == Submitter::SleepDone {
                        s.sub = Submitter::WaitCheck;
                    }
                    s.workers[i] = Worker::Idle;
                }
                Mode::NotifyBeforeDecrement => {
                    // Bug: signal first (own critical section)…
                    if s.pending == 1 && s.sub == Submitter::SleepDone {
                        s.sub = Submitter::WaitCheck;
                    }
                    let Worker::Finish(j) = s.workers[i] else {
                        unreachable!()
                    };
                    s.workers[i] = Worker::FinishDec(j);
                }
            },
            Worker::FinishDec(_) => {
                // …then decrement in a second one. A submitter that went to
                // sleep between the two steps never hears about zero.
                s.pending -= 1;
                s.workers[i] = Worker::Idle;
            }
        },
    }
    s
}

/// Exhaustively explore every schedule of `workers` workers draining
/// `jobs` jobs through one batch. Panics on an internal inconsistency
/// (a completion with `pending != 0`); protocol *bugs* are reported in the
/// returned counts, not panicked on, so negative tests can assert on them.
pub fn explore(workers: usize, jobs: u8, mode: Mode) -> Exploration {
    assert!(jobs as usize <= 8, "jobs_run bitmask holds at most 8 jobs");
    assert!(workers >= 1 && jobs >= 1);
    let init = State {
        queue: Vec::new(),
        pending: jobs,
        workers: vec![Worker::Idle; workers],
        sub: Submitter::Submit,
        panicked: false,
        jobs_run: 0,
    };
    let mut report = Exploration::default();
    let mut seen: BTreeSet<State> = BTreeSet::new();
    let mut stack = vec![init.clone()];
    seen.insert(init);
    while let Some(st) = stack.pop() {
        report.states += 1;
        let steps = enabled(&st);
        if steps.is_empty() {
            report.terminals += 1;
            if st.sub == Submitter::Finished {
                report.completions += 1;
                assert_eq!(st.pending, 0, "wait() returned with jobs still pending");
                if st.panicked {
                    report.panics_observed += 1;
                }
                if st.jobs_run != ((1u16 << jobs) - 1) as u8 {
                    report.lost_jobs += 1;
                }
            } else {
                report.deadlocks += 1;
            }
            continue;
        }
        for step in steps {
            let next = apply(&st, step, mode, jobs);
            if seen.insert(next.clone()) {
                stack.push(next);
            }
        }
    }
    report
}

/// Model-check results for the three standard instances (2 workers × 3
/// jobs, the size named in the determinism docs).
#[derive(Clone, Copy, Debug)]
pub struct ProtocolReport {
    pub correct: Exploration,
    pub panic: Exploration,
    pub buggy: Exploration,
}

impl ProtocolReport {
    /// `Ok(())` when the real protocol is clean in every schedule *and*
    /// the seeded bug is caught — both directions must hold for the check
    /// to mean anything.
    pub fn verify(&self) -> Result<(), String> {
        if self.correct.deadlocks != 0 {
            return Err(format!(
                "pool protocol model: {} deadlocking schedule(s) found",
                self.correct.deadlocks
            ));
        }
        if self.correct.lost_jobs != 0 || self.panic.lost_jobs != 0 {
            return Err("pool protocol model: schedule with a lost job found".to_string());
        }
        if self.panic.deadlocks != 0 {
            return Err("pool protocol model: panic variant deadlocks".to_string());
        }
        if self.panic.panics_observed != self.panic.completions {
            return Err(format!(
                "pool protocol model: panic reached the submitter in only {}/{} schedules",
                self.panic.panics_observed, self.panic.completions
            ));
        }
        if self.buggy.deadlocks == 0 {
            return Err(
                "pool protocol model: seeded notify-before-decrement bug was NOT caught — \
                 the checker is blind"
                    .to_string(),
            );
        }
        Ok(())
    }
}

/// Run the standard 2×3 explorations.
pub fn check_pool_protocol() -> ProtocolReport {
    ProtocolReport {
        correct: explore(2, 3, Mode::Correct),
        panic: explore(2, 3, Mode::PanicMiddleJob),
        buggy: explore(2, 3, Mode::NotifyBeforeDecrement),
    }
}

#[test]
fn correct_protocol_is_clean_in_every_schedule() {
    for (w, j) in [(2, 3), (3, 3), (2, 4), (1, 2)] {
        let r = explore(w, j, Mode::Correct);
        assert!(r.states > 0 && r.completions > 0, "{w}x{j}: {r:?}");
        assert_eq!(r.deadlocks, 0, "{w}x{j}: {r:?}");
        assert_eq!(r.lost_jobs, 0, "{w}x{j}: {r:?}");
        assert_eq!(r.panics_observed, 0, "{w}x{j}: {r:?}");
        // Every terminal is a completion: no stuck schedules at all.
        assert_eq!(r.terminals, r.completions, "{w}x{j}: {r:?}");
    }
}

#[test]
fn panic_in_middle_job_reaches_submitter_in_every_schedule() {
    let r = explore(2, 3, Mode::PanicMiddleJob);
    assert_eq!(r.deadlocks, 0, "{r:?}");
    assert_eq!(r.lost_jobs, 0, "catch_unwind must isolate the panic: {r:?}");
    assert_eq!(r.panics_observed, r.completions, "{r:?}");
    assert!(r.completions > 0);
}

#[test]
fn notify_before_decrement_bug_is_caught() {
    let r = explore(2, 3, Mode::NotifyBeforeDecrement);
    assert!(
        r.deadlocks > 0,
        "seeded lost-wakeup bug must deadlock in some schedule: {r:?}"
    );
}

#[test]
fn exploration_is_deterministic() {
    let a = explore(2, 3, Mode::Correct);
    let b = explore(2, 3, Mode::Correct);
    assert_eq!(a, b);
}

#[test]
fn standard_report_verifies() {
    check_pool_protocol().verify().unwrap();
}
