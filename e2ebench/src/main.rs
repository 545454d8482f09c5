//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload's job and prints two JSON lines: the run manifest,
//! then `{correct, attempted, failed, metrics}` carrying the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). Run it
//! from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload wiki-tgn --seed 1 --seconds 25 --trace 0
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use benchtemp_core::efficiency::peak_rss_bytes;
use benchtemp_obs::counters::{self, Counter};
use benchtemp_util::{json, Json};
use e2ebench::{
    best_of, check_outputs, fnv1a, run_job, setup, workloads, EpochTimes, JobConfig, JobOutput,
    SetupTimes, Workload,
};

/// Everything a run writes goes under this directory of the checkout: the
/// running job's paged stores, and the output digests earlier runs recorded.
const STATE_DIR: &str = ".e2ebench-state";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 25, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::by_name(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().ok().filter(|&s| s > 0).ok_or_else(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let names: Vec<&str> = workloads().iter().map(|w| w.name).collect();
    let workload =
        workload.ok_or_else(|| format!("--workload is required: one of {}", names.join(", ")))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One measured run: the set-up repeats and the job.
struct Run {
    setups: Vec<SetupTimes>,
    events_digest: u64,
    events: usize,
    nodes: usize,
    train_events: usize,
    val_events: usize,
    test_events: usize,
    out: JobOutput,
    failures: Vec<String>,
}

impl Run {
    fn eval_events(&self) -> usize {
        self.val_events + self.test_events
    }
}

fn measure(args: &Args, epochs: usize, store_root: &Path) -> Run {
    let w = &args.workload;
    let mut setups = Vec::with_capacity(w.setup_repeats);
    let mut digests = Vec::with_capacity(w.setup_repeats);
    let mut kept = None;
    for repeat in 0..w.setup_repeats {
        // The previous repeat's graph and stores go before the next is built.
        drop(kept.take());
        let dir = store_root.join(format!("setup-{repeat}"));
        let (inputs, model, times) = setup(&w.job, args.seed, &dir);
        digests.push(inputs.setup_digest());
        setups.push(times);
        kept = Some((inputs, model));
    }
    let (inputs, mut model) = kept.expect("at least one set-up repeat");
    let cfg = JobConfig {
        epochs,
        batch_size: w.job.batch_size,
        seed: args.seed,
        trace: args.trace,
    };
    let out = run_job(&inputs, model.as_mut(), &cfg);
    let mut failures = check_outputs(&inputs, &out);
    if digests.iter().any(|&d| d != digests[0]) {
        failures.push("set-up repeats built different inputs".to_string());
    }
    Run {
        setups,
        events_digest: inputs.events_digest(),
        events: inputs.graph.num_events(),
        nodes: inputs.graph.num_nodes,
        train_events: inputs.split.train.len(),
        val_events: inputs.split.val.len(),
        test_events: inputs.split.test.len(),
        out,
        failures,
    }
}

/// Output metrics in print order.
#[derive(Default)]
struct Metrics(Vec<(String, Json)>);

impl Metrics {
    fn put(&mut self, name: &str, value: impl Into<Option<f64>>, unit: &str) {
        let value: Option<f64> = value.into();
        self.0
            .push((name.to_string(), json!({ "value": value, "unit": unit })));
    }
}

fn mean(values: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = values.len() as f64;
    values.sum::<f64>() / n
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn end_to_end(run: &Run) -> Metrics {
    let warm = run.out.warm();
    let best = |series: fn(&EpochTimes) -> &[f64]| best_of(warm.iter().map(series));
    let mut m = Metrics::default();
    m.put("setup_s", SetupTimes::best(&run.setups).total(), "s");
    m.put(
        "train_events_per_s",
        run.train_events as f64 / best(|e| e.train.as_slice()),
        "events/s",
    );
    m.put(
        "eval_events_per_s",
        run.eval_events() as f64 / best(|e| e.eval.as_slice()),
        "events/s",
    );
    m.put(
        "rank_queries_per_s",
        run.test_events as f64 / best(|e| e.rank.as_slice()),
        "queries/s",
    );
    m.put(
        "peak_rss_mib",
        peak_rss_bytes().map(|b| b as f64 / (1u64 << 20) as f64),
        "MiB",
    );
    m
}

fn per_layer(run: &Run, wall: f64) -> Metrics {
    let out = &run.out;
    let warm = out.warm();
    let n_warm = warm.len() as f64;
    let best = |series: fn(&EpochTimes) -> &[f64], traced: Option<bool>| {
        best_of(
            warm.iter()
                .filter(|e| traced.is_none_or(|t| e.traced == t))
                .map(series),
        )
    };
    let setup = SetupTimes::best(&run.setups);
    let delta = |c: &Counter| out.warm_counters.counter(c.name()) as f64;
    let traced_epochs = warm.iter().filter(|e| e.traced).count() as f64;
    let span_secs = |name: &str| out.profile.total_secs(name) / traced_epochs;
    let train_events = run.train_events as f64 * n_warm;
    let events = (run.train_events + run.eval_events()) as f64 * n_warm;

    let mut m = Metrics::default();
    // Set-up calls, fastest repeat; they sum to `setup_s`.
    m.put("graph.generate_s", setup.generate, "s");
    m.put("core.split_s", setup.split, "s");
    m.put("graph.backend_build_s", setup.backend, "s");
    m.put(
        "graph.backend_events_per_s",
        (run.train_events + run.events) as f64 / setup.backend,
        "events/s",
    );
    m.put("core.candidates_build_s", setup.candidates, "s");
    m.put("models.build_s", setup.model, "s");

    // Per-call latency over the warm epochs, and per-epoch seconds.
    let calls = |series: fn(&EpochTimes) -> &[f64]| warm.iter().flat_map(series).copied();
    batch_stats(
        &mut m,
        "models.train_batch",
        calls(|e| e.train_batch.as_slice()),
    );
    batch_stats(
        &mut m,
        "models.eval_batch",
        calls(|e| e.eval_batch.as_slice()),
    );
    batch_stats(
        &mut m,
        "models.score_candidates",
        calls(|e| e.rank.as_slice()),
    );
    m.put(
        "core.neg_sample_s",
        mean(warm.iter().map(|e| e.neg_sample)),
        "s",
    );
    m.put(
        "core.evaluator_s",
        mean(warm.iter().map(|e| e.evaluator)),
        "s",
    );
    m.put("models.cold_epoch_s", out.epochs[0].wall, "s");

    // Spans of the traced warm epochs, per epoch.
    m.put(
        "tensor.dense_self_s",
        out.profile.self_secs("dense") / traced_epochs,
        "s",
    );
    m.put("tensor.attention_s", span_secs("attention"), "s");
    m.put("tensor.gather_s", span_secs("gather"), "s");
    m.put("models.sampling_s", span_secs("sampling"), "s");

    // Counters of the warm epochs.
    m.put(
        "tensor.matmul_flops_per_event",
        out.train_flops as f64 / train_events,
        "flop",
    );
    m.put(
        "tensor.matmul_gflops",
        out.train_flops as f64 / n_warm / best(|e| e.train_batch.as_slice(), None) / 1e9,
        "GFLOP/s",
    );
    m.put(
        "tensor.tape_nodes_per_event",
        out.train_tape_nodes as f64 / train_events,
        "count",
    );
    let (hits, misses) = (
        delta(&counters::TAPE_POOL_HITS),
        delta(&counters::TAPE_POOL_MISSES),
    );
    m.put(
        "tensor.tape_pool_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
    let batches: usize = warm
        .iter()
        .map(|e| e.train.len() + e.eval.len() + e.rank.len())
        .sum();
    m.put(
        "tensor.pool_tasks_per_batch",
        delta(&counters::POOL_TASKS_DISPATCHED) / batches as f64,
        "count",
    );
    m.put(
        "proc.minor_faults_per_event",
        out.warm_proc
            .map(|(a, b)| (b.minor_faults - a.minor_faults) as f64 / events),
        "count",
    );
    m.put(
        "proc.sys_cpu_share",
        out.warm_proc.map(|(a, b)| {
            let sys = (b.system_ticks - a.system_ticks) as f64;
            ratio(sys, sys + (b.user_ticks - a.user_ticks) as f64)
        }),
        "ratio",
    );
    m.put(
        "graph.frontier_slots_per_event",
        delta(&counters::FRONTIER_NODES_EXPANDED) / events,
        "count",
    );
    let (hits, misses) = (
        delta(&counters::STORE_PAGE_HITS),
        delta(&counters::STORE_PAGE_MISSES),
    );
    m.put("store.page_hit_ratio", ratio(hits, hits + misses), "ratio");
    m.put("store.page_misses", misses, "count");
    m.put(
        "store.page_evictions",
        delta(&counters::STORE_PAGE_EVICTIONS),
        "count",
    );
    m.put(
        "store.cache_high_water_bytes",
        counters::STORE_CACHE_RESIDENT_BYTES.get() as f64,
        "bytes",
    );

    // The benchmark itself.
    let timed = run.setups.iter().map(SetupTimes::total).sum::<f64>()
        + out.epochs.iter().map(EpochTimes::timed).sum::<f64>();
    m.put("bench.coverage", timed / wall, "ratio");
    m.put(
        "bench.trace_overhead",
        best(|e| e.train.as_slice(), Some(true)) / best(|e| e.train.as_slice(), Some(false)),
        "ratio",
    );
    m.put("run.wall_s", wall, "s");
    m
}

/// Median and tail latency of one call over the warm epochs, and the sample
/// count. The tail is the highest of p99.9, p99 and p90 with at least ten
/// samples beyond it, or the median when none has.
fn batch_stats(m: &mut Metrics, call: &str, secs: impl Iterator<Item = f64>) {
    let mut ms: Vec<f64> = secs.map(|s| s * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    let n = ms.len();
    // Nearest-rank position (1-based) of percentile `p`.
    let rank = |p: f64| ((p / 100.0 * n as f64).ceil() as usize).max(1);
    let tail = [99.9, 99.0, 90.0]
        .into_iter()
        .find(|&p| n.saturating_sub(rank(p)) >= 10)
        .unwrap_or(50.0);
    m.put(
        &format!("{call}.p50_ms"),
        ms.get(rank(50.0) - 1).copied(),
        "ms",
    );
    m.put(
        &format!("{call}.tail_ms"),
        ms.get(rank(tail) - 1).copied(),
        "ms",
    );
    m.put(&format!("{call}.count"), n as f64, "count");
}

fn run_facts(run: &Run) -> Json {
    let out = &run.out;
    json!({
        "events": run.events,
        "nodes": run.nodes,
        "train_events": run.train_events,
        "val_events": run.val_events,
        "test_events": run.test_events,
        "events_digest": format!("{:016x}", run.events_digest),
        "output_digest": format!("{:016x}", out.digest()),
        "best_epoch": out.best_epoch,
        "transductive_auc": out.metrics[0].auc,
        "transductive_mrr": out.metrics[0].ranking.map(|r| r.mrr),
        "warm_epoch_s": mean(out.warm().iter().map(|e| e.wall)),
    })
}

/// The `BENCHTEMP_*` variables as the run found them.
fn benchtemp_env() -> Json {
    let mut vars: Vec<(String, Json)> = std::env::vars_os()
        .filter_map(|(k, v)| Some((k.into_string().ok()?, Json::Str(v.into_string().ok()?))))
        .filter(|(k, _)| k.starts_with("BENCHTEMP_"))
        .collect();
    vars.sort_by(|a, b| a.0.cmp(&b.0));
    Json::Obj(vars)
}

/// The checkout's commit, when it is a git work tree.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(name)) {
        return Some(rev.trim().to_string());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|line| Some(line.strip_suffix(name)?.strip_suffix(' ')?.to_string()))
}

/// FNV-1a digest of this executable: it names the build in checkouts that
/// are not git work trees, and keys the recorded output digests.
fn build_digest() -> u64 {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    fnv1a(bytes.chunks(8).map(|c| {
        let mut word = [0u8; 8];
        word[..c.len()].copy_from_slice(c);
        u64::from_le_bytes(word)
    }))
}

/// Compare the output digest with the one an earlier run of the same build,
/// workload, seed and length recorded in this checkout, or record it.
fn check_recorded_digest(key: &str, digest: u64) -> Result<(), String> {
    let dir = Path::new(STATE_DIR).join("digests");
    let path = dir.join(key);
    let hex = format!("{digest:016x}");
    match std::fs::read_to_string(&path) {
        Ok(recorded) if recorded == hex => Ok(()),
        Ok(recorded) => Err(format!(
            "output digest {hex} differs from {recorded}, recorded by an earlier run"
        )),
        Err(_) => std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, &hex))
            .map_err(|e| format!("recording the output digest: {e}")),
    }
}

fn main() {
    let start = Instant::now();
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("e2ebench: {e}");
        std::process::exit(2)
    });
    let env_found = benchtemp_env();
    // One worker thread and no trace sink, set before the worker pool and
    // the trace switch first read them.
    std::env::set_var("BENCHTEMP_THREADS", "1");
    std::env::remove_var("BENCHTEMP_TRACE");

    let w = &args.workload;
    let epochs = w.epochs(args.seconds);
    let store_root = Path::new(STATE_DIR).join(format!("store-{}", std::process::id()));
    let run = catch_unwind(AssertUnwindSafe(|| measure(&args, epochs, &store_root)));
    let _ = std::fs::remove_dir_all(&store_root);
    let wall = start.elapsed().as_secs_f64();

    let build = build_digest();
    let (failures, metrics, facts) = match &run {
        Ok(run) => {
            let mut failures = run.failures.clone();
            let key = format!(
                "{}-seed{}-sec{}-{build:016x}",
                w.name, args.seed, args.seconds
            );
            if let Err(e) = check_recorded_digest(&key, run.out.digest()) {
                failures.push(e);
            }
            let metrics = if args.trace {
                per_layer(run, wall)
            } else {
                end_to_end(run)
            };
            (failures, metrics, run_facts(run))
        }
        Err(_) => (
            vec!["the job panicked".to_string()],
            Metrics::default(),
            Json::Null,
        ),
    };
    let correct = failures.is_empty();
    for failure in &failures {
        eprintln!("e2ebench: check failed: {failure}");
    }
    let model_config = format!("{:?}", w.job.model_config(args.seed));
    let params = json!({
        "dataset": w.job.dataset.name(),
        "scale": w.job.scale,
        "model": w.job.model,
        "model_config": model_config,
        "batch_size": w.job.batch_size,
        "rank_negatives": w.job.rank_negatives,
        "page_cache_bytes": w.job.page_cache_bytes,
        "setup_repeats": w.setup_repeats,
        "epochs": epochs,
    });
    let threads = benchtemp_tensor::pool().threads();
    let nproc = std::thread::available_parallelism().map(|n| n.get()).ok();
    let manifest = json!({
        "workload": w.name,
        "params": params,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": threads,
        "nproc": nproc,
        "env": env_found,
        "git_rev": git_rev(),
        "build_digest": format!("{build:016x}"),
        "run": facts,
        "failures": failures,
    });
    println!("{}", json!({ "manifest": manifest }));
    // A failed run contributes no timing.
    let metrics = if correct { metrics.0 } else { Vec::new() };
    println!(
        "{}",
        json!({
            "correct": correct,
            "attempted": 1,
            "failed": usize::from(!correct),
            "metrics": Json::Obj(metrics),
        })
    );
    if !correct {
        std::process::exit(1);
    }
}
