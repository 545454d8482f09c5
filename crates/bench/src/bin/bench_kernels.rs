//! Overhead gate for the runtime switch that ships off, and the eval
//! bit-identity check across thread counts and the sanitizer:
//!
//! - `tracing` (DESIGN.md §9): a TemporalSafe neighbor-sampling pass in
//!   batch-size chunks, timed bare, with inert spans (no recorder, no sink
//!   — the shipping default), under a recorder, and with the JSONL sink
//!   live;
//! - eval bits: an MLP eval pass (batched feature gather, parallel matmul
//!   forward) scored in every arm. The sanitizer (DESIGN.md §10) checks
//!   only the tape, and an eval pass runs no check that costs anything, so
//!   it is not timed.
//!
//! Kernel and pipeline throughput is measured end to end by `e2ebench`
//! (`BENCHMARK.json`); bit-identity of sampling, gather, ranking, the paged
//! store and training is held by the child test suites.
//!
//! The pool reads `BENCHTEMP_THREADS` once per process, so the run happens
//! in the three child processes of the `benchtemp_util::child` harness
//! (1 thread, 4 threads, 4 threads + sanitize). Every child scores the
//! eval pass with the sanitizer forced on and asserts no score bit moves;
//! the parent asserts the eval AUC/AP bits agree across the arms. The
//! 1-thread child times `tracing`; the parent copies that section into the
//! report, prints it and writes it to `BENCH_kernels.json`; `--smoke`
//! (used by `ci.sh`) prints without writing the file.

use benchtemp_bench::{save_json, timing};
use benchtemp_core::efficiency::stage;
use benchtemp_core::evaluator::auc_ap_pos_neg;
use benchtemp_graph::generators::GeneratorConfig;
use benchtemp_graph::neighbors::{NeighborEvent, NeighborFinder, SampleScratch, SamplingStrategy};
use benchtemp_graph::paged::NeighborBackend;
use benchtemp_obs as obs;
use benchtemp_tensor::nn::Mlp;
use benchtemp_tensor::{init, kernel_isa, pool, sanitize, Graph, Matrix, ParamStore};
use benchtemp_util::{child, json, Json};

const NODE_DIM: usize = 32;
const HIDDEN: usize = 96;
const BATCH: usize = 200;
const SAMPLE_K: usize = 10;

/// Tracing workload: one TemporalSafe query per event endpoint at the
/// event's own timestamp (the train/eval access pattern).
struct SamplingWorkload {
    nf: NeighborFinder,
    queries: Vec<(usize, f64)>,
}

impl SamplingWorkload {
    fn new() -> Self {
        let mut cfg = GeneratorConfig::small("sampling", 17);
        cfg.num_edges = 20_000;
        let g = cfg.generate();
        let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
        let queries = g
            .events
            .iter()
            .flat_map(|e| [(e.src, e.t), (e.dst, e.t)])
            .collect();
        SamplingWorkload { nf, queries }
    }

    /// The pass in batch-size chunks, optionally instrumented exactly like
    /// a model batch (a `dense` span wrapping a nested `sampling` span per
    /// chunk).
    fn chunked_pass(
        &self,
        instrument: bool,
        scratch: &mut SampleScratch,
        out: &mut Vec<NeighborEvent>,
    ) -> usize {
        let mut rng = init::rng(9);
        let nb = NeighborBackend::Resident(&self.nf);
        let mut total = 0usize;
        for chunk in self.queries.chunks(BATCH) {
            let _dense = instrument.then(|| obs::span(stage::DENSE));
            let _sampling = instrument.then(|| obs::span(stage::SAMPLING));
            for &(node, t) in chunk {
                nb.sample_into(
                    node,
                    t,
                    SAMPLE_K,
                    SamplingStrategy::TemporalSafe,
                    &mut rng,
                    scratch,
                    out,
                );
                total += out.len();
            }
        }
        total
    }
}

/// Eval workload: score every (src, dst) pair through a fixed MLP —
/// the eval hot path: batched feature gather, parallel matmul forward,
/// sigmoid.
struct EvalWorkload {
    graph: benchtemp_graph::TemporalGraph,
    store: ParamStore,
    mlp: Mlp,
}

impl EvalWorkload {
    fn new() -> Self {
        let mut cfg = GeneratorConfig::small("kernels", 11);
        cfg.num_edges = 6_000;
        cfg.node_dim = NODE_DIM;
        let graph = cfg.generate();
        let mut store = ParamStore::new();
        let mut rng = init::rng(5);
        let mlp = Mlp::new(&mut store, &mut rng, "edge", 2 * NODE_DIM, HIDDEN, 1);
        EvalWorkload { graph, store, mlp }
    }

    fn score_batch(&self, srcs: &[usize], dsts: &[usize]) -> Vec<f32> {
        let mut x = Matrix::zeros(srcs.len(), 2 * NODE_DIM);
        for (r, (&s, &d)) in srcs.iter().zip(dsts).enumerate() {
            x.row_mut(r)[..NODE_DIM].copy_from_slice(self.graph.node_features.row(s));
            x.row_mut(r)[NODE_DIM..].copy_from_slice(self.graph.node_features.row(d));
        }
        let mut g = Graph::new(&self.store);
        let xv = g.input(x);
        let logits = self.mlp.forward(&mut g, xv);
        let probs = g.sigmoid(logits);
        let m = g.value(probs);
        (0..m.rows()).map(|r| m.get(r, 0)).collect()
    }

    /// One full eval pass: every event scored against its positive and a
    /// deterministic negative destination. Returns (pos, neg) scores.
    fn eval_pass(&self) -> (Vec<f32>, Vec<f32>) {
        let g = &self.graph;
        let items = g.num_nodes - g.num_users;
        let mut pos = Vec::with_capacity(g.events.len());
        let mut neg = Vec::with_capacity(g.events.len());
        for batch in g.events.chunks(BATCH) {
            let srcs: Vec<usize> = batch.iter().map(|e| e.src).collect();
            let dsts: Vec<usize> = batch.iter().map(|e| e.dst).collect();
            let negs: Vec<usize> = batch
                .iter()
                .enumerate()
                .map(|(i, _)| g.num_users + (i * 7) % items)
                .collect();
            pos.extend(self.score_batch(&srcs, &dsts));
            neg.extend(self.score_batch(&srcs, &negs));
        }
        (pos, neg)
    }
}

/// Rounds of the `tracing` section. Each round times one pass of every
/// variant, so host noise during a round lands on all four alike.
const TRACING_ROUNDS: usize = 15;

/// The `tracing` section: the sampling pass bare, with inert spans, under a
/// recorder and with the JSONL sink live. Timed at one thread — the pass
/// is serial. Each round times one pass per variant, rotating which goes
/// first; a time is the median over rounds and a ratio the median of the
/// per-round ratios to the bare pass.
fn tracing_section() -> Json {
    let sw = SamplingWorkload::new();
    let (mut scratch, mut out) = (SampleScratch::new(), Vec::new());
    let rec = obs::Recorder::new();
    let path = std::env::temp_dir().join(format!(
        "benchtemp-kernels-trace-{}.jsonl",
        std::process::id()
    ));
    // Variants 0–3: plain, inert spans, recorder, recorder + JSONL sink
    // (as in a traced harness job).
    let mut ns: [Vec<f64>; 4] = Default::default();
    sw.chunked_pass(false, &mut scratch, &mut out); // warm-up
    for round in 0..TRACING_ROUNDS {
        for v in (0..4).map(|i| (round + i) % 4) {
            let _recorded = (v >= 2).then(|| rec.install());
            if v == 3 {
                obs::trace::set_path(Some(&path));
            }
            ns[v].push(timing::once_ns(|| {
                sw.chunked_pass(v >= 1, &mut scratch, &mut out)
            }));
            if v == 3 {
                obs::trace::set_path(None);
            }
        }
    }
    let _ = std::fs::remove_file(&path);
    let median = |mut xs: Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let time = |v: usize| median(ns[v].clone());
    let ratio = |v: usize| median(ns[v].iter().zip(&ns[0]).map(|(x, p)| x / p).collect());
    // Targets from the obs acceptance criteria: inert ≈ 1.00x, JSONL
    // tracing ≤ 1.03x.
    json!({
        "workload": "TemporalSafe sampling pass with a dense+sampling span pair per batch",
        "threads": 1,
        "plain_ns": time(0),
        "inert_span_ns": time(1),
        "recorder_ns": time(2),
        "jsonl_trace_ns": time(3),
        "inert_overhead_ratio": ratio(1),
        "inert_overhead_target": 1.0,
        "recorder_overhead_ratio": ratio(2),
        "jsonl_trace_overhead_ratio": ratio(3),
        "jsonl_trace_overhead_target": 1.03,
    })
}

/// Child-process body: the eval metrics as one JSON object, plus the
/// `tracing` section from the 1-thread arm.
fn run_child() {
    let w = EvalWorkload::new();
    let (pos, neg) = w.eval_pass();
    // The checks observe the tape, never the data: forcing them on must not
    // change a single score bit.
    sanitize::set_forced(Some(true));
    let (pos_s, neg_s) = w.eval_pass();
    sanitize::set_forced(None);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert!(
        bits(&pos_s) == bits(&pos) && bits(&neg_s) == bits(&neg),
        "sanitize mode must not change a single score bit"
    );
    let (auc, ap) = auc_ap_pos_neg(&pos, &neg);
    let tracing = (pool().threads() == 1).then(tracing_section);
    child::report(json!({
        "auc": format!("{:016x}", auc.to_bits()),
        "ap": format!("{:016x}", ap.to_bits()),
        "tracing": tracing,
    }));
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if child::is_child() {
        run_child();
        return;
    }

    let reports: Vec<Json> = child::run_arms(&[])
        .iter()
        .map(|p| json::parse(p).expect("child report is JSON"))
        .collect();
    // The runtime contract: no metric may depend on the thread count, the
    // process, or the sanitizer.
    for key in ["auc", "ap"] {
        let values: Vec<&Json> = reports
            .iter()
            .map(|r| {
                r.get(key)
                    .unwrap_or_else(|| panic!("child report lacks `{key}`"))
            })
            .collect();
        child::assert_arms_agree(key, &values);
    }
    let tracing = reports[0]
        .get("tracing")
        .filter(|s| !s.is_null())
        .cloned()
        .unwrap_or_else(|| panic!("arm `{}` reports no `tracing`", child::ARMS[0].name));

    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Overhead ratios are reported, not asserted: wall-clock ratios this
    // small are noisy on shared machines.
    let report = json!({
        "host_cores": host_cores,
        "kernel_isa": kernel_isa(),
        "tracing": tracing,
    });
    println!("{}", report.to_string_pretty());
    if !smoke {
        save_json(std::path::Path::new("."), "BENCH_kernels.json", &report);
    }
}
