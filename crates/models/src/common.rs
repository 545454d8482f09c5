//! Shared model plumbing: optimizer/parameter bundle, detached node-memory
//! store (the truncated-gradient memory scheme of the TGN family), neighbor
//! batch assembly for attention models, and the shared hyperparameters.

use benchtemp_core::pipeline::StreamContext;
use benchtemp_graph::neighbors::{FrontierHop, SamplingStrategy};
use benchtemp_graph::temporal_graph::Interaction;
use benchtemp_tensor::init::{self, SeededRng};
use benchtemp_tensor::{Adam, Graph, Matrix, ParamStore, Var};
use benchtemp_util::Fnv1a;

/// Hyperparameters shared across the zoo. Defaults are sized for the CPU
/// substrate; the paper's 172-dim attention stacks are available by raising
/// `embed_dim`/`neighbors`/`layers`.
#[derive(Clone, Debug)]
pub struct ModelConfig {
    /// Node-embedding width.
    pub embed_dim: usize,
    /// Time-encoding width.
    pub time_dim: usize,
    /// Attention heads (must divide the attention model dim; Eq. 1).
    pub heads: usize,
    /// Temporal neighbors sampled per hop (k).
    pub neighbors: usize,
    /// Attention layers (TGAT depth).
    pub layers: usize,
    /// Walks per node (M) for CAWN/NeurTW.
    pub walks: usize,
    /// Walk length (L) for CAWN/NeurTW.
    pub walk_len: usize,
    /// Adam learning rate. The paper trains at 1e-4 over many epochs on
    /// full-size data; the scaled default compensates for far fewer steps.
    pub lr: f32,
    pub seed: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            embed_dim: 48,
            time_dim: 16,
            heads: 2,
            neighbors: 6,
            layers: 2,
            walks: 4,
            walk_len: 2,
            lr: 3e-3,
            seed: 0,
        }
    }
}

impl ModelConfig {
    /// The paper's §4.1 protocol values where they are model-agnostic.
    pub fn paper_protocol(mut self) -> Self {
        self.lr = 1e-4;
        self
    }
}

/// Parameter store + optimizer + RNG: the bundle every model owns.
/// Delegation target for the `TgnnModel` boilerplate. Dense/sampling time
/// is attributed by `benchtemp-obs` spans, not carried here.
pub struct ModelCore {
    pub store: ParamStore,
    pub adam: Adam,
    pub rng: SeededRng,
}

impl ModelCore {
    pub fn new(lr: f32, seed: u64) -> Self {
        ModelCore {
            store: ParamStore::new(),
            adam: Adam::new(lr),
            rng: init::rng(seed),
        }
    }

    pub fn snapshot(&self) -> Vec<Matrix> {
        self.store.snapshot()
    }

    pub fn restore(&mut self, snap: &[Matrix]) {
        self.store.restore(snap);
    }

    pub fn param_bytes(&self) -> usize {
        self.store.heap_bytes()
    }
}

/// Detached per-node memory (TGN's Memory module). Values are raw matrices;
/// gradients flow through the *current batch's* computation only — the
/// truncated-gradient scheme the reference implementations use.
pub struct NodeMemory {
    mem: Matrix,
    last_update: Vec<f64>,
    dim: usize,
}

impl NodeMemory {
    pub fn new(num_nodes: usize, dim: usize) -> Self {
        NodeMemory {
            mem: Matrix::zeros(num_nodes, dim),
            last_update: vec![0.0; num_nodes],
            dim,
        }
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    pub fn reset(&mut self) {
        self.mem.fill_zero();
        self.last_update.iter_mut().for_each(|t| *t = 0.0);
    }

    /// Memory rows for a node list as a pooled tape leaf (detached): one
    /// run-length-coalesced SoA gather straight into recycled tape storage,
    /// bit-identical to `Matrix::gather_rows` without the per-row copy loop
    /// or the intermediate allocation.
    pub fn rows_var(&self, g: &mut Graph, nodes: &[usize]) -> Var {
        g.gather_rows_from(&self.mem, nodes)
    }

    pub fn row(&self, node: usize) -> &[f32] {
        self.mem.row(node)
    }

    /// Δt since each node's last memory update.
    pub fn deltas(&self, nodes: &[usize], now: &[f64]) -> Vec<f32> {
        nodes
            .iter()
            .zip(now)
            .map(|(&n, &t)| (t - self.last_update[n]).max(0.0) as f32)
            .collect()
    }

    /// Write updated memory rows (last write wins within a batch) and stamp
    /// update times.
    pub fn write(&mut self, nodes: &[usize], values: &Matrix, now: &[f64]) {
        debug_assert_eq!(values.rows(), nodes.len());
        debug_assert_eq!(values.cols(), self.dim);
        for (r, (&n, &t)) in nodes.iter().zip(now).enumerate() {
            self.mem.set_row(n, values.row(r));
            self.last_update[n] = t;
        }
    }

    pub fn heap_bytes(&self) -> usize {
        self.mem.heap_bytes() + self.last_update.capacity() * std::mem::size_of::<f64>()
    }
}

/// Assembled temporal-neighbor block for grouped attention: for each of `n`
/// (node, time) queries, `k` sampled neighbors flattened to `n·k` rows.
pub struct NeighborBatch {
    /// Neighbor node ids, padded with 0 where invalid.
    pub ids: Vec<usize>,
    /// Originating event feature rows, padded with 0.
    pub feat_idx: Vec<usize>,
    /// Query time minus edge time, 0.0 where invalid.
    pub dts: Vec<f32>,
    /// Validity per slot.
    pub mask: Vec<bool>,
    pub k: usize,
}

impl NeighborBatch {
    /// Sample `k` temporal neighbors per (node, time) query.
    ///
    /// One RNG draw seeds the batched frontier engine, which then expands
    /// every query under its own deterministic per-root stream — the whole
    /// batch is sampled in one `sample_frontier` call that parallelises over
    /// the worker pool with bit-identical results at any thread count.
    pub fn sample(
        ctx: &StreamContext,
        nodes: &[usize],
        times: &[f64],
        k: usize,
        strategy: SamplingStrategy,
        rng: &mut SeededRng,
    ) -> Self {
        let f = ctx
            .neighbors
            .sample_frontier(nodes, times, k, 1, strategy, rng.next_u64());
        Self::from_hop(f.hops.into_iter().next().expect("one hop level"), k)
    }

    /// Wrap one expanded frontier hop as an attention block. The hop's SoA
    /// columns move in wholesale — the frontier engine already resolved
    /// event indices to edge-feature rows (padded slots keep row 0), so no
    /// per-slot resolution loop runs here.
    pub fn from_hop(hop: FrontierHop, k: usize) -> Self {
        NeighborBatch {
            ids: hop.nodes,
            feat_idx: hop.feat_idx,
            dts: hop.dts,
            mask: hop.mask,
            k,
        }
    }

    /// Node features of the neighbor slots ((n·k) × node_dim) as a pooled
    /// tape leaf (coalesced SoA gather).
    pub fn node_feats_var(&self, g: &mut Graph, ctx: &StreamContext) -> Var {
        g.gather_rows_from(&ctx.graph.node_features, &self.ids)
    }

    /// Edge features of the originating events ((n·k) × edge_dim) as a
    /// pooled tape leaf (coalesced SoA gather).
    pub fn edge_feats_var(&self, g: &mut Graph, ctx: &StreamContext) -> Var {
        g.gather_rows_from(&ctx.graph.edge_features, &self.feat_idx)
    }

    /// Times per (node,time) pair of the sampled events (for recursion).
    pub fn event_times(&self, times: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.ids.len());
        for (i, &t) in times.iter().enumerate() {
            for j in 0..self.k {
                out.push(t - self.dts[i * self.k + j] as f64);
            }
        }
        out
    }
}

/// Batch views used by every model: source, destination and negative
/// destination ids plus event times.
pub struct BatchView {
    pub srcs: Vec<usize>,
    pub dsts: Vec<usize>,
    pub negs: Vec<usize>,
    pub times: Vec<f64>,
    pub feat_idx: Vec<usize>,
}

impl BatchView {
    pub fn new(batch: &[Interaction], neg_dsts: &[usize]) -> Self {
        assert_eq!(
            batch.len(),
            neg_dsts.len(),
            "one negative per positive edge"
        );
        BatchView {
            srcs: batch.iter().map(|e| e.src).collect(),
            dsts: batch.iter().map(|e| e.dst).collect(),
            negs: neg_dsts.to_vec(),
            times: batch.iter().map(|e| e.t).collect(),
            feat_idx: batch.iter().map(|e| e.feat_idx).collect(),
        }
    }

    /// Edge features of the batch's events as a pooled tape leaf
    /// (coalesced SoA gather).
    pub fn edge_feats_var(&self, g: &mut Graph, ctx: &StreamContext) -> Var {
        g.gather_rows_from(&ctx.graph.edge_features, &self.feat_idx)
    }

    pub fn len(&self) -> usize {
        self.srcs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.srcs.is_empty()
    }
}

/// BCE targets for a pos+neg score stack: `[1…1, 0…0]`.
pub fn pos_neg_targets(n: usize) -> Vec<f32> {
    let mut t = vec![1.0f32; n];
    t.extend(std::iter::repeat_n(0.0, n));
    t
}

/// Private RNG for the filtered-negative ranking path
/// (`TgnnModel::score_candidates`): an FNV-1a hash of the batch content and
/// candidate ids seeds a fresh stream, so candidate scoring never draws
/// from the model's own RNG — enabling ranking cannot perturb training or
/// AUC/AP sampling — and the stream is identical at any thread count and
/// across processes.
pub fn ranking_rng(batch: &[Interaction], cand_dsts: &[usize]) -> SeededRng {
    let mut h = Fnv1a::new();
    h.write_u64(batch.len() as u64);
    for e in batch {
        h.write_u64(e.src as u64);
        h.write_u64(e.dst as u64);
        h.write_f64(e.t);
    }
    for &c in cand_dsts {
        h.write_u64(c as u64);
    }
    init::rng(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchtemp_graph::generators::GeneratorConfig;
    use benchtemp_graph::paged::NeighborBackend;
    use benchtemp_graph::NeighborFinder;

    #[test]
    fn memory_roundtrip_and_deltas() {
        let mut m = NodeMemory::new(5, 3);
        let vals = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        m.write(&[1, 3], &vals, &[10.0, 20.0]);
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(3), &[4.0, 5.0, 6.0]);
        assert_eq!(
            m.deltas(&[1, 3, 0], &[15.0, 25.0, 5.0]),
            vec![5.0, 5.0, 5.0]
        );
        m.reset();
        assert_eq!(m.row(1), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn memory_last_write_wins() {
        let mut m = NodeMemory::new(3, 2);
        let vals = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0]]);
        m.write(&[0, 0], &vals, &[1.0, 2.0]);
        assert_eq!(m.row(0), &[2.0, 2.0]);
    }

    #[test]
    fn neighbor_batch_pads_and_masks() {
        let g = GeneratorConfig::small("nb", 41).generate();
        let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
        let ctx = StreamContext {
            graph: &g,
            neighbors: NeighborBackend::Resident(&nf),
        };
        let mut rng = init::rng(1);
        // One query at t=0 (no history) and one late query (some history).
        let nodes = [g.events[0].src, g.events.last().unwrap().src];
        let times = [0.0, 999.0];
        let nb =
            NeighborBatch::sample(&ctx, &nodes, &times, 4, SamplingStrategy::Uniform, &mut rng);
        assert_eq!(nb.mask.len(), 8);
        assert!(
            nb.mask[..4].iter().all(|&m| !m),
            "t=0 query must be fully masked"
        );
        assert!(
            nb.mask[4..].iter().any(|&m| m),
            "late query should have neighbors"
        );
        let store = ParamStore::new();
        let mut gr = Graph::new(&store);
        let nv = nb.node_feats_var(&mut gr, &ctx);
        let ev = nb.edge_feats_var(&mut gr, &ctx);
        assert_eq!(gr.shape(nv), (8, g.node_dim()));
        assert_eq!(gr.shape(ev), (8, g.edge_dim()));
    }

    #[test]
    fn batch_view_aligns() {
        let g = GeneratorConfig::small("bv", 43).generate();
        let negs: Vec<usize> = g.events[..5].iter().map(|_| g.num_users).collect();
        let v = BatchView::new(&g.events[..5], &negs);
        assert_eq!(v.len(), 5);
        assert_eq!(v.srcs[0], g.events[0].src);
        assert_eq!(v.times[4], g.events[4].t);
    }

    #[test]
    fn targets_layout() {
        assert_eq!(pos_neg_targets(2), vec![1.0, 1.0, 0.0, 0.0]);
    }
}
