//! Kernel-throughput benchmark: compares the register-blocked matmul
//! against the seed's branchy kernel (reproduced inline below as the
//! baseline), measures pipeline-eval throughput at one vs four worker
//! threads, and benchmarks the CSR neighbor-sampling engine against the
//! seed's `Vec<Vec<_>>` layout — asserting the runtime's determinism
//! contracts along the way: eval metrics and frontier samples must be
//! bit-identical at any thread count.
//!
//! The pool reads `BENCHTEMP_THREADS` once per process, so every
//! measurement runs in the three child processes of the
//! `benchtemp_util::child` harness (1 thread, 4 threads, 4 threads +
//! sanitize). Each child reports one JSON object; the parent asserts the
//! [`DIGEST_KEYS`] agree across the arms, prints the merged report, and
//! writes it to `BENCH_kernels.json`. Pass `--smoke` for a reduced-size run
//! (used by `ci.sh`) that executes every kernel and assertion but skips
//! writing the file.

// The flat child report is one `json!` literal; its token muncher recurses
// once per token.
#![recursion_limit = "512"]

use benchtemp_bench::{save_json, timing};
use benchtemp_core::dataloader::LinkPredSplit;
use benchtemp_core::efficiency::stage;
use benchtemp_core::evaluator::auc_ap_pos_neg;
use benchtemp_core::pipeline::{StreamContext, TgnnModel};
use benchtemp_core::{ranking_metrics_flat, FilteredNegativeSet, NegativeStrategy};
use benchtemp_graph::generators::GeneratorConfig;
use benchtemp_graph::neighbors::{
    BackendScratch, Frontier, NeighborEvent, NeighborFinder, SampleScratch, SamplingStrategy,
};
use benchtemp_graph::paged::{NeighborBackend, PagedNeighborFinder, StoreOptions};
use benchtemp_graph::temporal_graph::TemporalGraph;
use benchtemp_graph::Interaction;
use benchtemp_models::common::ModelConfig;
use benchtemp_models::zoo;
use benchtemp_obs as obs;
use benchtemp_tensor::init::SeededRng;
use benchtemp_tensor::nn::Mlp;
use benchtemp_tensor::{init, pool, Graph, Matrix, ParamStore};
use benchtemp_util::child::{self, Fnv1a};
use benchtemp_util::{json, Json};

const NODE_DIM: usize = 32;
const HIDDEN: usize = 96;
const BATCH: usize = 200;
const SAMPLE_K: usize = 10;
const SAMPLE_STRATS: [SamplingStrategy; 4] = [
    SamplingStrategy::MostRecent,
    SamplingStrategy::Uniform,
    SamplingStrategy::TemporalExp { alpha: 0.05 },
    SamplingStrategy::TemporalSafe,
];

/// The seed repository's matmul, verbatim: row-major accumulation with a
/// zero-skip branch in the k loop and no register blocking. The baseline
/// the ≥2× single-thread target is measured against.
fn seed_matmul(lhs: &Matrix, rhs: &Matrix) -> Matrix {
    assert_eq!(lhs.cols(), rhs.rows());
    let n = rhs.cols();
    let mut out = Matrix::zeros(lhs.rows(), n);
    for i in 0..lhs.rows() {
        let a_row = lhs.row(i);
        let out_row = &mut out.row_mut(i)[..];
        for (k, &a) in a_row.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            let b_row = rhs.row(k);
            for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                *o += a * b;
            }
        }
    }
    out
}

/// The seed repository's neighbor store, verbatim: one `Vec<NeighborEvent>`
/// per node (array-of-structs), with per-query weight/cumulative/result
/// allocations in `sample_before`. The baseline the CSR engine's ≥2×
/// single-thread samples/sec target is measured against.
struct SeedLayoutFinder {
    adj: Vec<Vec<NeighborEvent>>,
}

impl SeedLayoutFinder {
    fn from_graph(g: &TemporalGraph) -> Self {
        let mut adj: Vec<Vec<NeighborEvent>> = vec![Vec::new(); g.num_nodes];
        for (idx, ev) in g.events.iter().enumerate() {
            adj[ev.src].push(NeighborEvent {
                neighbor: ev.dst,
                t: ev.t,
                event_idx: idx,
            });
            adj[ev.dst].push(NeighborEvent {
                neighbor: ev.src,
                t: ev.t,
                event_idx: idx,
            });
        }
        SeedLayoutFinder { adj }
    }

    fn sample_before(
        &self,
        node: usize,
        t: f64,
        k: usize,
        strategy: SamplingStrategy,
        rng: &mut SeededRng,
    ) -> Vec<NeighborEvent> {
        let list = &self.adj[node];
        let hist = &list[..list.partition_point(|e| e.t < t)];
        if hist.is_empty() || k == 0 {
            return Vec::new();
        }
        match strategy {
            SamplingStrategy::MostRecent => hist[hist.len().saturating_sub(k)..].to_vec(),
            SamplingStrategy::Uniform => {
                (0..k).map(|_| hist[rng.gen_range(0..hist.len())]).collect()
            }
            SamplingStrategy::TemporalExp { alpha } => {
                let weights: Vec<f64> = hist.iter().map(|e| (alpha * (e.t - t)).exp()).collect();
                seed_weighted_sample(hist, &weights, k, rng)
            }
            SamplingStrategy::TemporalSafe => {
                let weights: Vec<f64> = hist
                    .iter()
                    .map(|e| {
                        let d = t - e.t;
                        if d <= 0.0 {
                            1.0
                        } else {
                            1.0 / d
                        }
                    })
                    .collect();
                seed_weighted_sample(hist, &weights, k, rng)
            }
        }
    }
}

fn seed_weighted_sample(
    hist: &[NeighborEvent],
    weights: &[f64],
    k: usize,
    rng: &mut SeededRng,
) -> Vec<NeighborEvent> {
    let mut cumulative = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for &w in weights {
        acc += if w.is_finite() { w } else { 0.0 };
        cumulative.push(acc);
    }
    if acc <= 0.0 {
        return (0..k).map(|_| hist[rng.gen_range(0..hist.len())]).collect();
    }
    (0..k)
        .map(|_| {
            let x = rng.gen_range(0.0..acc);
            let idx = cumulative.partition_point(|&c| c <= x);
            hist[idx.min(hist.len() - 1)]
        })
        .collect()
}

/// Temporal-sampling workload: one query per event endpoint at the event's
/// own timestamp (the train/eval access pattern), cycling through all four
/// strategies; plus a root set for the batched multi-hop frontier.
struct SamplingWorkload {
    graph: TemporalGraph,
    nf: NeighborFinder,
    seed_nf: SeedLayoutFinder,
    queries: Vec<(usize, f64)>,
    roots: Vec<usize>,
    root_times: Vec<f64>,
}

impl SamplingWorkload {
    fn new(smoke: bool) -> Self {
        let mut cfg = GeneratorConfig::small("sampling", 17);
        cfg.num_edges = if smoke { 2_000 } else { 20_000 };
        let g = cfg.generate();
        let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
        let seed_nf = SeedLayoutFinder::from_graph(&g);
        let queries: Vec<(usize, f64)> = g
            .events
            .iter()
            .flat_map(|e| [(e.src, e.t), (e.dst, e.t)])
            .collect();
        let n_roots = if smoke { 512 } else { 4_096 };
        let stride = (g.events.len() / n_roots).max(1);
        let picked: Vec<&benchtemp_graph::Interaction> =
            g.events.iter().step_by(stride).take(n_roots).collect();
        let roots: Vec<usize> = picked.iter().map(|e| e.src).collect();
        let root_times: Vec<f64> = picked.iter().map(|e| e.t).collect();
        SamplingWorkload {
            graph: g,
            nf,
            seed_nf,
            queries,
            roots,
            root_times,
        }
    }

    /// One pass over every query with the seed layout, cycling through
    /// `strats`. Returns the number of samples drawn (identical across
    /// layouts: same RNG seed, and the CSR engine is bit-compatible with
    /// the seed sampler).
    fn seed_pass(&self, strats: &[SamplingStrategy]) -> usize {
        let mut rng = init::rng(9);
        let mut total = 0usize;
        for (i, &(node, t)) in self.queries.iter().enumerate() {
            let strategy = strats[i % strats.len()];
            total += self
                .seed_nf
                .sample_before(node, t, SAMPLE_K, strategy, &mut rng)
                .len();
        }
        total
    }

    /// The same pass through the CSR engine's allocation-free path.
    fn csr_pass(
        &self,
        strats: &[SamplingStrategy],
        scratch: &mut SampleScratch,
        out: &mut Vec<NeighborEvent>,
    ) -> usize {
        let mut rng = init::rng(9);
        let mut total = 0usize;
        for (i, &(node, t)) in self.queries.iter().enumerate() {
            let strategy = strats[i % strats.len()];
            self.nf
                .sample_into(node, t, SAMPLE_K, strategy, &mut rng, scratch, out);
            total += out.len();
        }
        total
    }

    /// The TemporalSafe pass in batch-size chunks, optionally instrumented
    /// exactly like a model batch (a `dense` span wrapping a nested
    /// `sampling` span per chunk) — the workload for measuring span
    /// overhead in its inert, recording, and tracing configurations.
    fn chunked_pass(
        &self,
        instrument: bool,
        scratch: &mut SampleScratch,
        out: &mut Vec<NeighborEvent>,
    ) -> usize {
        let mut rng = init::rng(9);
        let mut total = 0usize;
        for chunk in self.queries.chunks(BATCH) {
            let _dense = instrument.then(|| obs::span(stage::DENSE));
            let _sampling = instrument.then(|| obs::span(stage::SAMPLING));
            for &(node, t) in chunk {
                self.nf.sample_into(
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

    /// The two-hop Uniform frontier over the root set through `nb`: the
    /// same roots, depth, strategy and seed on every backend.
    fn frontier_pass(&self, nb: NeighborBackend) -> Frontier {
        nb.sample_frontier(
            &self.roots,
            &self.root_times,
            SAMPLE_K,
            2,
            SamplingStrategy::Uniform,
            77,
        )
    }

    /// The pass over every query through `nb`, cycling through `strats`
    /// and handing each query's samples to `visit`. Same queries, same RNG
    /// seed on every backend, so the samples must match bit for bit no
    /// matter how small the page-cache budget is.
    fn backend_pass(
        &self,
        nb: NeighborBackend,
        strats: &[SamplingStrategy],
        scratch: &mut BackendScratch,
        out: &mut Vec<NeighborEvent>,
        mut visit: impl FnMut(&[NeighborEvent]),
    ) -> usize {
        let mut rng = init::rng(9);
        let mut total = 0usize;
        for (i, &(node, t)) in self.queries.iter().enumerate() {
            let strategy = strats[i % strats.len()];
            nb.sample_into(node, t, SAMPLE_K, strategy, &mut rng, scratch, out);
            visit(out);
            total += out.len();
        }
        total
    }

    /// FNV-1a over every sample the mixed pass draws through `nb`:
    /// neighbor, timestamp bits, event index.
    fn digest(&self, nb: NeighborBackend, strats: &[SamplingStrategy]) -> u64 {
        let mut h = Fnv1a::new();
        let (mut scratch, mut out) = (BackendScratch::new(), Vec::new());
        self.backend_pass(nb, strats, &mut scratch, &mut out, |samples| {
            for e in samples {
                h.write_u64(e.neighbor as u64);
                h.write_f64(e.t);
                h.write_u64(e.event_idx as u64);
            }
        });
        h.finish()
    }
}

/// Training-step workload for the fused tape engine: TGAT and TGN — the
/// attention-heavy and memory-family configs. One "step" is a 100-event
/// `train_batch` (forward + backward + Adam) on a model whose temporal
/// state was warmed by streaming the graph prefix.
struct TrainStepWorkload {
    graph: TemporalGraph,
    nf: NeighborFinder,
    /// Events streamed through `eval_batch` before the first training step.
    warm: usize,
    /// Consecutive training steps recorded for the loss trajectory.
    steps: usize,
}

impl TrainStepWorkload {
    fn new(smoke: bool) -> Self {
        let mut cfg = GeneratorConfig::small("step", 11);
        cfg.num_edges = if smoke { 1_500 } else { 5_000 };
        let graph = cfg.generate();
        let nf = NeighborFinder::from_events(graph.num_nodes, &graph.events);
        TrainStepWorkload {
            graph,
            nf,
            warm: if smoke { 300 } else { 1_000 },
            steps: if smoke { 3 } else { 5 },
        }
    }

    fn negs_for(&self, batch: &[Interaction]) -> Vec<usize> {
        let items = self.graph.num_nodes - self.graph.num_users;
        batch
            .iter()
            .enumerate()
            .map(|(i, _)| self.graph.num_users + (i * 7) % items)
            .collect()
    }

    /// Build + warm a model, run `steps` consecutive 100-event training
    /// steps, and return the per-step loss bits plus the warmed model
    /// (reused by the timing measurement).
    fn trajectory(&self, name: &str) -> (Vec<u32>, Box<dyn TgnnModel>) {
        let ctx = StreamContext {
            graph: &self.graph,
            neighbors: NeighborBackend::Resident(&self.nf),
        };
        let mut model = zoo::build(
            name,
            ModelConfig {
                seed: 1,
                ..Default::default()
            },
            &self.graph,
        );
        let warm_negs: Vec<usize> = self.graph.events[..self.warm]
            .iter()
            .map(|e| e.dst)
            .collect();
        for (chunk, negs) in self.graph.events[..self.warm]
            .chunks(100)
            .zip(warm_negs.chunks(100))
        {
            let _ = model.eval_batch(&ctx, chunk, negs);
        }
        let bits = (0..self.steps)
            .map(|s| {
                let b = &self.graph.events[self.warm + s * 100..self.warm + (s + 1) * 100];
                model.train_batch(&ctx, b, &self.negs_for(b)).to_bits()
            })
            .collect();
        (bits, model)
    }

    /// Median ns of one more training step on an already-warmed model.
    fn step_ns(&self, model: &mut Box<dyn TgnnModel>) -> f64 {
        let ctx = StreamContext {
            graph: &self.graph,
            neighbors: NeighborBackend::Resident(&self.nf),
        };
        let batch = &self.graph.events[self.warm..self.warm + 100];
        let negs = self.negs_for(batch);
        timing::measure(&mut || std::hint::black_box(model.train_batch(&ctx, batch, &negs)))
    }

    /// Fraction of one training step's dense time spent inside the
    /// attention kernel span — the Amdahl attribution for the train_step
    /// gate, measured by running one instrumented step under a recorder.
    fn attention_share(&self, model: &mut Box<dyn TgnnModel>) -> f64 {
        let ctx = StreamContext {
            graph: &self.graph,
            neighbors: NeighborBackend::Resident(&self.nf),
        };
        let batch = &self.graph.events[self.warm..self.warm + 100];
        let negs = self.negs_for(batch);
        let rec = obs::Recorder::new();
        {
            let _g = rec.install();
            let _ = std::hint::black_box(model.train_batch(&ctx, batch, &negs));
        }
        let prof = rec.profile();
        let dense = prof.total_secs(stage::DENSE);
        if dense > 0.0 {
            prof.total_secs("attention") / dense
        } else {
            0.0
        }
    }
}

/// FNV-1a over every column of every hop level: any divergence in the
/// sampled nodes, times, deltas, event indices, feature rows, or masks
/// changes the digest.
fn frontier_digest(f: &Frontier) -> u64 {
    let mut h = Fnv1a::new();
    for hop in &f.hops {
        for &n in &hop.nodes {
            h.write_u64(n as u64);
        }
        for &t in &hop.times {
            h.write_f64(t);
        }
        for &d in &hop.dts {
            h.write_f32(d);
        }
        for &e in &hop.event_idx {
            h.write_u64(e as u64);
        }
        for &fi in &hop.feat_idx {
            h.write_u64(fi as u64);
        }
        for &m in &hop.mask {
            h.write(&[m as u8]);
        }
    }
    h.finish()
}

/// The seed repository's frontier feature gather, verbatim in spirit: a
/// fresh zeroed output and one per-element indexed copy loop — the pattern
/// the models used before the SoA gather path.
fn seed_scalar_gather(src: &Matrix, indices: &[usize], out: &mut Matrix) {
    for (r, &i) in indices.iter().enumerate() {
        for c in 0..src.cols() {
            out.set(r, c, src.get(i, c));
        }
    }
}

fn matrix_digest(m: &Matrix) -> u64 {
    let mut h = Fnv1a::new();
    for r in 0..m.rows() {
        for &x in m.row(r) {
            h.write_f32(x);
        }
    }
    h.finish()
}

/// Score every (src, dst) pair through a fixed MLP — the eval hot path:
/// batched feature gather, parallel matmul forward, sigmoid.
struct EvalWorkload {
    graph: TemporalGraph,
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

/// Child-process body: report every measurement as one JSON object.
fn run_child(smoke: bool) {
    let mm = if smoke { 128 } else { 256 };
    let mut rng = init::rng(1);
    let a = init::randn(mm, mm, 1.0, &mut rng);
    let b = init::randn(mm, mm, 1.0, &mut rng);
    let seed_ns = timing::measure(&mut || std::hint::black_box(seed_matmul(&a, &b)));
    let kernel_ns = timing::measure(&mut || std::hint::black_box(a.matmul(&b)));

    let w = EvalWorkload::new();
    let events = w.graph.events.len();
    let pass_ns = timing::measure(&mut || std::hint::black_box(w.eval_pass()));
    let events_per_sec = events as f64 / (pass_ns / 1e9);

    let (pos, neg) = w.eval_pass();
    let (auc, ap) = auc_ap_pos_neg(&pos, &neg);

    // Headline workload: the weighted TemporalSafe strategy — the path the
    // CSR engine targets (per-query allocations and the weight fill are
    // the layout-sensitive costs). The all-strategies mix is reported
    // alongside; it is bounded by work both layouts share bit-for-bit
    // (libm `exp`, the RNG draws).
    let sw = SamplingWorkload::new(smoke);
    let resident = NeighborBackend::Resident(&sw.nf);
    let safe = [SamplingStrategy::TemporalSafe];
    let samples_per_pass = sw.seed_pass(&safe);
    let mixed_samples = sw.seed_pass(&SAMPLE_STRATS);
    let sample_seed_ns = timing::measure(&mut || std::hint::black_box(sw.seed_pass(&safe)));
    let mut scratch = SampleScratch::new();
    let mut out = Vec::new();
    assert_eq!(
        sw.csr_pass(&SAMPLE_STRATS, &mut scratch, &mut out),
        mixed_samples,
        "CSR pass must draw the same samples as the seed layout"
    );
    let sample_csr_ns =
        timing::measure(&mut || std::hint::black_box(sw.csr_pass(&safe, &mut scratch, &mut out)));
    let mixed_seed_ns = timing::measure(&mut || std::hint::black_box(sw.seed_pass(&SAMPLE_STRATS)));
    let mixed_csr_ns = timing::measure(&mut || {
        std::hint::black_box(sw.csr_pass(&SAMPLE_STRATS, &mut scratch, &mut out))
    });
    let fhash = frontier_digest(&sw.frontier_pass(resident));
    let frontier_ns = timing::measure(&mut || std::hint::black_box(sw.frontier_pass(resident)));
    let f = sw.frontier_pass(resident);
    let frontier_slots: usize = f.hops.iter().map(|h| h.len()).sum();

    // SoA frontier gather (DESIGN.md §13): materialize the hop-1 slot
    // features three ways on the exact index list `sample_frontier` emits
    // (duplicates and padding zeros included) — the seed's per-element
    // scalar loop, the per-row `gather_rows`, and the run-length-coalesced
    // `gather_rows_into` — asserting all three produce the same bytes.
    let gather_idx: &[usize] = &f.hops[0].nodes;
    let gather_dim = 64;
    let gather_src = {
        let n = gather_idx.iter().copied().max().unwrap_or(0) + 1;
        let mut grng = init::rng(23);
        init::randn(n, gather_dim, 1.0, &mut grng)
    };
    let scalar_out = {
        let mut out = Matrix::zeros(gather_idx.len(), gather_dim);
        seed_scalar_gather(&gather_src, gather_idx, &mut out);
        out
    };
    let perrow_out = gather_src.gather_rows(gather_idx);
    let mut coalesced_out = Matrix::zeros(gather_idx.len(), gather_dim);
    let gather_runs = gather_src.gather_rows_into(gather_idx, &mut coalesced_out);
    let ghash = matrix_digest(&coalesced_out);
    assert_eq!(
        matrix_digest(&scalar_out),
        ghash,
        "coalesced gather must match the scalar loop byte-for-byte"
    );
    assert_eq!(
        matrix_digest(&perrow_out),
        ghash,
        "coalesced gather must match the per-row gather byte-for-byte"
    );
    let gather_scalar_ns = timing::measure(&mut || {
        let mut out = Matrix::zeros(gather_idx.len(), gather_dim);
        seed_scalar_gather(&gather_src, gather_idx, &mut out);
        std::hint::black_box(out);
    });
    let gather_perrow_ns =
        timing::measure(&mut || std::hint::black_box(gather_src.gather_rows(gather_idx)));
    let gather_coalesced_ns = timing::measure(&mut || {
        std::hint::black_box(gather_src.gather_rows_into(gather_idx, &mut coalesced_out))
    });

    // Tracing overhead (DESIGN.md §9): the same chunked sampling pass
    // measured bare, with inert spans (no recorder, no sink — the shipping
    // default), with a recorder aggregating, and with the JSONL sink live.
    let trace_plain_ns = timing::measure(&mut || {
        std::hint::black_box(sw.chunked_pass(false, &mut scratch, &mut out))
    });
    let trace_inert_ns = timing::measure(&mut || {
        std::hint::black_box(sw.chunked_pass(true, &mut scratch, &mut out))
    });
    let (trace_rec_ns, trace_on_ns) = {
        let rec = obs::Recorder::new();
        let _g = rec.install();
        let rec_ns = timing::measure(&mut || {
            std::hint::black_box(sw.chunked_pass(true, &mut scratch, &mut out))
        });
        let path = std::env::temp_dir().join(format!(
            "benchtemp-kernels-trace-{}.jsonl",
            std::process::id()
        ));
        obs::trace::set_path(Some(&path));
        let on_ns = timing::measure(&mut || {
            std::hint::black_box(sw.chunked_pass(true, &mut scratch, &mut out))
        });
        obs::trace::set_path(None);
        let _ = std::fs::remove_file(&path);
        (rec_ns, on_ns)
    };

    // Sanitizer overhead (DESIGN.md §10): the same eval pass with the
    // slot-claim checks forced off vs on. Off is the shipping default — the
    // gate is one relaxed atomic load per dispatch — so the off ratio pins
    // "no measurable overhead when unset". The on pass must also not change
    // a single result bit: the checks observe claims, never the data.
    let (san_off_ns, san_on_ns) = {
        benchtemp_tensor::sanitize::set_forced(Some(false));
        let off = timing::measure(&mut || std::hint::black_box(w.eval_pass()));
        benchtemp_tensor::sanitize::set_forced(Some(true));
        let on = timing::measure(&mut || std::hint::black_box(w.eval_pass()));
        let (pos_s, neg_s) = w.eval_pass();
        benchtemp_tensor::sanitize::set_forced(None);
        assert!(
            pos_s
                .iter()
                .zip(&pos)
                .all(|(a, b)| a.to_bits() == b.to_bits())
                && neg_s
                    .iter()
                    .zip(&neg)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
            "sanitize mode must not change a single score bit"
        );
        (off, on)
    };

    // Fused tape engine (DESIGN.md §11): `train_batch` on TGAT and TGN. The
    // per-step loss trajectory is digested so the parent can assert it
    // does not depend on the thread count (the fused backward runs on the
    // slab-parallel claims protocol). Timing only in the single-thread
    // child.
    let ts = TrainStepWorkload::new(smoke);
    let mut ts_traj = Fnv1a::new();
    let mut ts_ns = [0.0f64; 2]; // [tgat, tgn]
    let mut ts_att_share = 0.0f64; // TGAT attention share of dense
    for (mi, name) in ["TGAT", "TGN"].iter().enumerate() {
        let (traj, mut model) = ts.trajectory(name);
        if pool().threads() == 1 {
            ts_ns[mi] = ts.step_ns(&mut model);
            if mi == 0 {
                ts_att_share = ts.attention_share(&mut model);
            }
        }
        for &b in &traj {
            ts_traj.write(&b.to_le_bytes());
        }
    }

    // Filtered-negative ranking (DESIGN.md §14): candidate-set construction
    // throughput plus the metric kernel over deterministic scores. The
    // digest and MRR bits ride along in the report so the parent can
    // assert the cross-thread / cross-process determinism contract on the
    // exact artifacts the leaderboard consumes.
    let rank_k = if smoke { 10 } else { 20 };
    let rank_split = LinkPredSplit::new(&w.graph, 7);
    let rank_build = || {
        FilteredNegativeSet::build(
            &w.graph,
            &rank_split.train,
            &rank_split.test,
            NegativeStrategy::Random,
            rank_k,
            0xf117,
        )
    };
    let rank_set = rank_build();
    let rank_queries = rank_set.len();
    let rank_build_ns = timing::measure(&mut || std::hint::black_box(rank_build()));
    let rank_pos: Vec<f32> = (0..rank_queries)
        .map(|i| ((i * 37) % 101) as f32 / 101.0)
        .collect();
    let rank_cands: Vec<f32> = (0..rank_queries * rank_k)
        .map(|i| ((i * 53) % 97) as f32 / 97.0)
        .collect();
    let rank_metrics = ranking_metrics_flat(&rank_pos, &rank_cands, rank_k, None);
    let rank_metric_ns = timing::measure(&mut || {
        std::hint::black_box(ranking_metrics_flat(&rank_pos, &rank_cands, rank_k, None))
    });

    // Paged store (DESIGN.md §16): bulk-load the sampling graph into an
    // on-disk store, then rerun the mixed-strategy pass and the frontier
    // expansion through the paged backend. The 64 KiB budget is far below
    // the graph's column footprint, so the pass churns the CLOCK cache
    // mid-stream; the bit-identity asserts here are the acceptance gate —
    // they run in every child before the parent writes BENCH_kernels.json.
    let store_base =
        std::env::temp_dir().join(format!("benchtemp-kernels-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_base);
    let tiny_opts = StoreOptions {
        cache_budget_bytes: Some(64 * 1024),
        run_events: 4096,
    };
    // One wall-clock run for the bulk load: timing::measure's adaptive
    // iteration would re-create the store directory thousands of times.
    // audit-allow(no-wallclock-outside-obs): timing the bulk load itself; reported, not fed back
    let bulk_start = std::time::Instant::now();
    let paged_tiny = PagedNeighborFinder::bulk_load_graph(&store_base, &sw.graph, &tiny_opts)
        .expect("bulk-load sampling graph");
    let store_bulk_ns = bulk_start.elapsed().as_secs_f64() * 1e9;
    let tiny = NeighborBackend::Paged(&paged_tiny);

    let ev0 = obs::counters::STORE_PAGE_EVICTIONS.get();
    let paged_digest = sw.digest(tiny, &SAMPLE_STRATS);
    let store_evictions = obs::counters::STORE_PAGE_EVICTIONS.get() - ev0;
    assert!(
        store_evictions > 0,
        "the 64 KiB page-cache budget must evict during the mixed pass"
    );
    assert_eq!(
        sw.digest(resident, &SAMPLE_STRATS),
        paged_digest,
        "paged mixed-strategy samples must be bit-identical to the resident CSR engine"
    );
    let paged_fhash = frontier_digest(&sw.frontier_pass(tiny));
    assert_eq!(
        fhash, paged_fhash,
        "paged frontier must be bit-identical to the resident frontier"
    );
    let mut bscratch = BackendScratch::default();
    let store_tiny_ns = timing::measure(&mut || {
        std::hint::black_box(sw.backend_pass(tiny, &safe, &mut bscratch, &mut out, |_| ()))
    });
    // Reopen the same files with an effectively-unbounded budget: the
    // cold pass faults every page once, then serves from memory — the
    // upper end of the budget/throughput trade the store exposes.
    let big_opts = StoreOptions {
        cache_budget_bytes: Some(64 << 20),
        run_events: 4096,
    };
    let paged_big = PagedNeighborFinder::open(&store_base, &big_opts).expect("reopen store");
    let big = NeighborBackend::Paged(&paged_big);
    let store_big_ns = timing::measure(&mut || {
        std::hint::black_box(sw.backend_pass(big, &safe, &mut bscratch, &mut out, |_| ()))
    });
    let store_cache_bytes = paged_tiny.cache_resident_bytes();
    drop((paged_tiny, paged_big));
    let _ = std::fs::remove_dir_all(&store_base);

    let hex = |x: u64| format!("{x:016x}");
    child::report(json!({
        "threads": pool().threads(),
        "seed_ns": seed_ns,
        "kernel_ns": kernel_ns,
        "events_per_sec": events_per_sec,
        "auc": hex(auc.to_bits()),
        "ap": hex(ap.to_bits()),
        "rank_queries": rank_queries,
        "rank_k": rank_k,
        "rank_build_ns": rank_build_ns,
        "rank_metric_ns": rank_metric_ns,
        "rank_digest": hex(rank_set.digest()),
        "rank_mrr": hex(rank_metrics.mrr.to_bits()),
        "sample_seed_ns": sample_seed_ns,
        "sample_csr_ns": sample_csr_ns,
        "samples_per_pass": samples_per_pass,
        "mixed_seed_ns": mixed_seed_ns,
        "mixed_csr_ns": mixed_csr_ns,
        "mixed_samples": mixed_samples,
        "frontier_ns": frontier_ns,
        "frontier_slots": frontier_slots,
        "frontier_hash": hex(fhash),
        "gather_rows": gather_idx.len(),
        "gather_runs": gather_runs,
        "gather_scalar_ns": gather_scalar_ns,
        "gather_perrow_ns": gather_perrow_ns,
        "gather_coalesced_ns": gather_coalesced_ns,
        "gather_hash": hex(ghash),
        "trace_plain_ns": trace_plain_ns,
        "trace_inert_ns": trace_inert_ns,
        "trace_rec_ns": trace_rec_ns,
        "trace_on_ns": trace_on_ns,
        "pass_ns": pass_ns,
        "san_off_ns": san_off_ns,
        "san_on_ns": san_on_ns,
        "ts_tgat_ns": ts_ns[0],
        "ts_tgn_ns": ts_ns[1],
        "ts_tgat_att_share": ts_att_share,
        "ts_traj_hash": hex(ts_traj.finish()),
        "store_bulk_ns": store_bulk_ns,
        "store_events": sw.graph.events.len(),
        "store_tiny_ns": store_tiny_ns,
        "store_big_ns": store_big_ns,
        "store_evictions": store_evictions,
        "store_cache_bytes": store_cache_bytes,
        "store_digest": hex(paged_digest),
        "store_frontier_hash": hex(paged_fhash),
    }));
}

/// Child-report keys that must be bit-identical in every arm: eval
/// metrics, ranking artifacts, frontier and gather output (and the
/// gather's run count, a pure function of the index list), the paged
/// backend's samples and frontier under independent eviction schedules,
/// and the training loss trajectory.
const DIGEST_KEYS: [&str; 10] = [
    "auc",
    "ap",
    "rank_digest",
    "rank_mrr",
    "frontier_hash",
    "gather_hash",
    "gather_runs",
    "store_digest",
    "store_frontier_hash",
    "ts_traj_hash",
];

/// Record a speedup target under `key` with whether it binds on this run
/// (`{key}_applies`) and, when it does not, why (`{key}_skip_reason`) — a
/// skipped target is reported with its reason, never as a vacuous miss.
fn gate(section: &mut Json, key: &str, target: f64, skip_reason: Option<String>) {
    let Json::Obj(pairs) = section else {
        panic!("gate on a non-object section")
    };
    pairs.push((key.to_string(), json!(target)));
    pairs.push((format!("{key}_applies"), json!(skip_reason.is_none())));
    pairs.push((format!("{key}_skip_reason"), json!(skip_reason)));
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if child::is_child() {
        run_child(smoke);
        return;
    }

    let args: &[&str] = if smoke { &["--smoke"] } else { &[] };
    let reports: Vec<Json> = child::run_arms(args)
        .iter()
        .map(|p| json::parse(p).expect("child report is JSON"))
        .collect();
    // The runtime contract: nothing a leaderboard consumes may depend on
    // the thread count, the process, or the sanitizer.
    for key in DIGEST_KEYS {
        let values: Vec<&Json> = reports
            .iter()
            .map(|r| {
                r.get(key)
                    .unwrap_or_else(|| panic!("child report lacks `{key}`"))
            })
            .collect();
        child::assert_arms_agree(key, &values);
    }
    let field = |arm: usize, key: &str| {
        reports[arm]
            .get(key)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("child report lacks numeric `{key}`"))
    };
    let single = |key: &str| field(0, key);
    let multi = |key: &str| field(1, key);

    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads = [single("threads"), multi("threads")];
    // The 4-thread eval throughput target only binds when the host can
    // actually run 4 workers in parallel; on a smaller machine the ratio
    // measures oversubscription, not the runtime.
    let mut eval = json!({
        "events_per_sec_1_thread": single("events_per_sec"),
        "events_per_sec_4_threads": multi("events_per_sec"),
        "speedup": multi("events_per_sec") / single("events_per_sec"),
        "threads": threads.as_slice(),
        "metrics_bit_identical": true,
    });
    gate(
        &mut eval,
        "speedup_target",
        1.5,
        (host_cores < threads[1] as usize).then(|| {
            format!(
                "host has {host_cores} core(s) < {} benchmark threads; \
                 multi-thread speedup not meaningful",
                threads[1]
            )
        }),
    );

    let samples_per_pass = single("samples_per_pass");
    let resident_sps = samples_per_pass / (single("sample_csr_ns") / 1e9);

    // The 2.0x coalesced-vs-scalar target assumes the hop-1 slot list
    // actually coalesces into multi-row runs (average run length >= 2 —
    // the regime DESIGN.md §13 calibrated the target in). The sampling
    // workload here spreads slots across distinct sources (~1.3 rows per
    // run), where the coalesced kernel degenerates to per-row copies plus
    // run bookkeeping and 2.0x is unreachable by construction.
    let gather_rows = single("gather_rows");
    let gather_avg_run = gather_rows / single("gather_runs").max(1.0);
    let mut gather = json!({
        "workload": "hop-1 frontier slot features (duplicates + padding zeros), 64 cols: allocating per-element scalar loop vs allocating per-row gather_rows vs run-length-coalesced gather_rows_into reusing its output buffer",
        "rows_per_pass": gather_rows,
        "coalesced_runs": single("gather_runs"),
        "scalar_rows_per_sec_single_thread": gather_rows / (single("gather_scalar_ns") / 1e9),
        "per_row_rows_per_sec_single_thread": gather_rows / (single("gather_perrow_ns") / 1e9),
        "coalesced_rows_per_sec_single_thread": gather_rows / (single("gather_coalesced_ns") / 1e9),
        "single_thread_speedup": single("gather_scalar_ns") / single("gather_coalesced_ns"),
        "average_run_length": gather_avg_run,
        "rows_bit_identical": true,
    });
    gate(
        &mut gather,
        "single_thread_target",
        2.0,
        (gather_avg_run < 2.0).then(|| {
            format!(
                "average coalesced run length {gather_avg_run:.2} < 2 rows: \
                 workload is per-row-bound, coalescing target cannot bind"
            )
        }),
    );

    // Audit engine timing: the full-workspace interprocedural analysis
    // (walk + lex + parse + call graph + taint) gates CI ahead of tier-1,
    // so it must stay cheap — the budget is 5 s single-threaded.
    let audit_root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    // audit-allow(no-wallclock-outside-obs): timing the audit analysis itself; reported, not fed back
    let audit_start = std::time::Instant::now();
    let audit = benchtemp_audit::run_audit(&audit_root).expect("walk workspace");
    let audit_ms = audit_start.elapsed().as_secs_f64() * 1e3;
    const AUDIT_BUDGET_MS: f64 = 5000.0;
    assert!(audit.ok(), "workspace audit must pass under timing");
    assert!(
        audit_ms <= AUDIT_BUDGET_MS,
        "full-workspace audit took {audit_ms:.0} ms, budget {AUDIT_BUDGET_MS:.0} ms"
    );

    // Span-instrumentation overhead (targets from the obs acceptance
    // criteria: inert ≈ 1.00x, JSONL tracing ≤ 1.03x) and sanitizer
    // overhead (off is the shipping default and must cost nothing
    // measurable; on is a debug mode, reported for scale) are reported,
    // not asserted — wall-clock ratios this small are noisy on shared
    // machines; the JSON records them for trend tracking.
    let report = json!({
        "host_cores": host_cores,
        "matmul_256": {
            "seed_ns_single_thread": single("seed_ns"),
            "kernel_ns_single_thread": single("kernel_ns"),
            "kernel_ns_multi_thread": multi("kernel_ns"),
            "single_thread_speedup": single("seed_ns") / single("kernel_ns"),
            "single_thread_target": 2.0,
        },
        "eval": eval,
        "ranking": {
            "workload": "filtered-negative candidate-set build (Random pool, collision filtering) over the test split, plus the pessimistic-tie MRR/Hits kernel on deterministic scores",
            "rank_negatives": single("rank_k"),
            "queries": single("rank_queries"),
            "build_queries_per_sec_single_thread": single("rank_queries") / (single("rank_build_ns") / 1e9),
            "metric_queries_per_sec_single_thread": single("rank_queries") / (single("rank_metric_ns") / 1e9),
            "candidate_sets_bit_identical": true,
            "mrr_bit_identical": true,
        },
        "neighbor_sampling": {
            "workload": "TemporalSafe k=10 over every event endpoint at its own timestamp",
            "seed_samples_per_sec_single_thread": samples_per_pass / (single("sample_seed_ns") / 1e9),
            "csr_samples_per_sec_single_thread": resident_sps,
            "single_thread_speedup": single("sample_seed_ns") / single("sample_csr_ns"),
            "single_thread_target": 2.0,
            "mixed_strategy_csr_samples_per_sec": single("mixed_samples") / (single("mixed_csr_ns") / 1e9),
            "mixed_strategy_speedup": single("mixed_seed_ns") / single("mixed_csr_ns"),
            "frontier_slots_per_sec_1_thread": single("frontier_slots") / (single("frontier_ns") / 1e9),
            "frontier_slots_per_sec_4_threads": multi("frontier_slots") / (multi("frontier_ns") / 1e9),
            "samples_bit_identical": true,
        },
        "gather": gather,
        "store": {
            "workload": "sampling graph bulk-loaded into the paged on-disk store; mixed-strategy and TemporalSafe passes re-run through the paged backend at a 64 KiB page-cache budget (evicting) and a 64 MiB budget (fully cached)",
            "bulk_load_events_per_sec": single("store_events") / (single("store_bulk_ns") / 1e9),
            "paged_samples_per_sec_64kib_budget": samples_per_pass / (single("store_tiny_ns") / 1e9),
            "paged_samples_per_sec_64mib_budget": samples_per_pass / (single("store_big_ns") / 1e9),
            "resident_samples_per_sec": resident_sps,
            "evictions_at_64kib_budget": single("store_evictions"),
            "cache_resident_bytes_at_64kib_budget": single("store_cache_bytes"),
            "paged_bit_identical_to_resident": true,
            "paged_bit_identical_across_threads": true,
        },
        "tracing": {
            "workload": "TemporalSafe sampling pass with a dense+sampling span pair per batch",
            "plain_ns_single_thread": single("trace_plain_ns"),
            "inert_span_ns_single_thread": single("trace_inert_ns"),
            "recorder_ns_single_thread": single("trace_rec_ns"),
            "jsonl_trace_ns_single_thread": single("trace_on_ns"),
            "inert_overhead_ratio": single("trace_inert_ns") / single("trace_plain_ns"),
            "inert_overhead_target": 1.0,
            "recorder_overhead_ratio": single("trace_rec_ns") / single("trace_plain_ns"),
            "jsonl_trace_overhead_ratio": single("trace_on_ns") / single("trace_plain_ns"),
            "jsonl_trace_overhead_target": 1.03,
        },
        "train_step": {
            "workload": "100-event train_batch (forward + backward + Adam) after warming temporal state on the graph prefix",
            "tgat_fused_ns_single_thread": single("ts_tgat_ns"),
            "tgat_attention_share_of_dense_fused": single("ts_tgat_att_share"),
            "tgat_attention_ns_single_thread": single("ts_tgat_ns") * single("ts_tgat_att_share"),
            "tgn_fused_ns_single_thread": single("ts_tgn_ns"),
            "loss_bit_identical": true,
        },
        "audit": {
            "workload": "full-workspace static analysis: walk + lex + token rules + item parse + call-graph resolution + interprocedural taint, single thread",
            "full_workspace_ms": audit_ms,
            "budget_ms": AUDIT_BUDGET_MS,
            "within_budget": audit_ms <= AUDIT_BUDGET_MS,
            "files_parsed": audit.graph.files_parsed,
            "functions": audit.graph.functions,
            "edges": audit.graph.edges,
            "resolved_call_ratio": audit.graph.resolved_ratio(),
        },
        "sanitizer": {
            "workload": "full eval pass (batched gather + parallel matmul forward)",
            "plain_ns_single_thread": single("pass_ns"),
            "sanitize_off_ns_single_thread": single("san_off_ns"),
            "sanitize_on_ns_single_thread": single("san_on_ns"),
            "off_overhead_ratio": single("san_off_ns") / single("pass_ns"),
            "off_overhead_target": 1.0,
            "on_overhead_ratio": single("san_on_ns") / single("san_off_ns"),
            "scores_bit_identical": true,
        },
    });
    println!("{}", report.to_string_pretty());
    if !smoke {
        save_json(std::path::Path::new("."), "BENCH_kernels.json", &report);
    }
}
