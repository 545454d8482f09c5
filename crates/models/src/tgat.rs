//! TGAT (Xu et al., ICLR 2020): multi-layer temporal self-attention over
//! uniformly sampled temporal neighbors with functional (Bochner)
//! continuous-time encoding. No memory module — the embedding is recomputed
//! from the L-hop temporal neighborhood at query time, which is why TGAT's
//! per-epoch runtime and "GPU memory" exceed the memory-based family
//! (Table 4) while it trains in fewer epochs.
//!
//! The layer stack respects the Appendix-C dimension constraint (Eq. 1):
//! the attention model dim is divisible by the head count by construction.

use benchtemp_core::efficiency::stage;
use benchtemp_core::pipeline::{Anatomy, StreamContext, TgnnModel};
use benchtemp_graph::neighbors::SamplingStrategy;
use benchtemp_graph::temporal_graph::{Interaction, TemporalGraph};
use benchtemp_obs as obs;
use benchtemp_tensor::init::SeededRng;
use benchtemp_tensor::nn::{Linear, MergeLayer, MultiHeadAttention, TimeEncode};
use benchtemp_tensor::{Graph, Matrix, Var};

use crate::common::{
    pos_neg_targets, ranking_rng, BatchView, ModelConfig, ModelCore, NeighborBatch,
};

struct Weights {
    feat_proj: Linear,
    edge_proj: Linear,
    time_enc: TimeEncode,
    /// One attention layer per hop (layer 0 is the deepest hop).
    layers: Vec<MultiHeadAttention>,
    decoder: MergeLayer,
    neighbors: usize,
}

impl Weights {
    /// TGAT's L-layer temporal attention embedding.
    ///
    /// The whole L-hop neighborhood is drawn up front with one batched
    /// `sample_frontier` call (which parallelises over the worker pool with
    /// deterministic per-root RNG streams), then the attention stack folds
    /// the frontier from the deepest hop back up to the query nodes — the
    /// same computation the old per-level recursion performed, without
    /// re-entering the sampler at every level.
    fn embed(
        &self,
        g: &mut Graph,
        ctx: &StreamContext,
        nodes: &[usize],
        times: &[f64],
        depth: usize,
        rng: &mut SeededRng,
    ) -> Var {
        let base = |g: &mut Graph, ids: &[usize]| -> Var {
            self.feat_proj
                .forward_gathered(g, &ctx.graph.node_features, ids)
        };
        if depth == 0 {
            return base(g, nodes);
        }
        let k = self.neighbors;
        let frontier = obs::timed(stage::SAMPLING, || {
            ctx.neighbors.sample_frontier(
                nodes,
                times,
                k,
                depth,
                SamplingStrategy::Uniform,
                rng.next_u64(),
            )
        });
        // Deepest hop: plain projected features, then fold upward. Hop `l`
        // supplies the keys for query level `l` (level 0 = input nodes),
        // attended by layer `depth-1-l` — identical layer assignment to the
        // old recursion.
        let mut hops = frontier.hops;
        let mut rep = base(g, &hops[depth - 1].nodes);
        while let Some(hop) = hops.pop() {
            let l = hops.len();
            let nb = NeighborBatch::from_hop(hop, k);
            let level_ids: &[usize] = if l == 0 { nodes } else { &hops[l - 1].nodes };
            let base_l = base(g, level_ids);
            let nb_edge =
                self.edge_proj
                    .forward_gathered(g, &ctx.graph.edge_features, &nb.feat_idx);
            let nb_te = self.time_enc.forward_slice(g, &nb.dts);
            let keys = g.concat_cols_many(&[rep, nb_edge, nb_te]);
            let zero_te = self.time_enc.forward_slice(g, &vec![0.0; level_ids.len()]);
            let query = g.concat_cols(base_l, zero_te);
            let out = self.layers[depth - 1 - l].forward(g, query, keys, k, &nb.mask);
            rep = g.add(out, base_l); // residual
        }
        rep
    }
}

/// The TGAT model.
pub struct Tgat {
    weights: Weights,
    core: ModelCore,
    layers: usize,
    embed_dim: usize,
}

impl Tgat {
    pub fn new(cfg: ModelConfig, graph: &TemporalGraph) -> Self {
        let mut core = ModelCore::new(cfg.lr, cfg.seed);
        let d = cfg.embed_dim;
        let td = cfg.time_dim;
        let ed = 16.min(graph.edge_dim().max(4));
        let (store, rng) = (&mut core.store, &mut core.rng);
        let layers = (0..cfg.layers.max(1))
            .map(|l| {
                MultiHeadAttention::new(
                    store,
                    rng,
                    &format!("attn{l}"),
                    d + td,
                    d + ed + td,
                    d,
                    cfg.heads,
                    d,
                )
            })
            .collect();
        let weights = Weights {
            feat_proj: Linear::new(store, rng, "feat_proj", graph.node_dim(), d),
            edge_proj: Linear::new(store, rng, "edge_proj", graph.edge_dim(), ed),
            time_enc: TimeEncode::new(store, "time_enc", td),
            layers,
            decoder: MergeLayer::new(store, rng, "decoder", d, d, d, 1),
            neighbors: cfg.neighbors,
        };
        Tgat {
            weights,
            core,
            layers: cfg.layers.max(1),
            embed_dim: d,
        }
    }

    /// One forward (and optional backward) pass over a batch.
    ///
    /// The src/dst/neg embedding towers are tri-batched: one `embed` over
    /// the concatenated node list, so the L-hop frontier is sampled once
    /// and every projection matmul and attention node is 3× taller, then
    /// the result is split back with `slice_rows`. `want_embeddings` gates
    /// the src-embedding clone — only [`TgnnModel::embed_events`] consumes
    /// it, so train/eval batches skip that per-batch allocation.
    fn run_batch(
        &mut self,
        ctx: &StreamContext,
        batch: &[Interaction],
        neg_dsts: &[usize],
        train: bool,
        want_embeddings: bool,
    ) -> (f32, Vec<f32>, Vec<f32>, Matrix) {
        let view = BatchView::new(batch, neg_dsts);
        let Tgat {
            weights,
            core,
            layers,
            ..
        } = self;
        let depth = *layers;
        let ModelCore { store, adam, rng } = core;
        // Whole-batch dense span; nested sampling spans subtract themselves
        // from its exclusive time, so "dense" self-time = batch − sampling.
        let _dense = obs::span(stage::DENSE);

        let n = view.len();
        let mut all_nodes = Vec::with_capacity(3 * n);
        all_nodes.extend_from_slice(&view.srcs);
        all_nodes.extend_from_slice(&view.dsts);
        all_nodes.extend_from_slice(&view.negs);
        let mut all_times = Vec::with_capacity(3 * n);
        for _ in 0..3 {
            all_times.extend_from_slice(&view.times);
        }
        let mut g = Graph::new(store);
        let all = weights.embed(&mut g, ctx, &all_nodes, &all_times, depth, rng);
        let src = g.slice_rows(all, 0, n);
        let dst = g.slice_rows(all, n, 2 * n);
        let neg = g.slice_rows(all, 2 * n, 3 * n);
        let pos_logit = weights.decoder.forward(&mut g, src, dst);
        let neg_logit = weights.decoder.forward(&mut g, src, neg);
        let logits = g.concat_rows(pos_logit, neg_logit);
        let targets = pos_neg_targets(n);
        let loss = g.bce_with_logits(logits, &targets);
        let loss_val = g.value(loss).scalar();
        let lm = g.value(logits).clone();
        let pos: Vec<f32> = (0..n).map(|r| lm.get(r, 0)).collect();
        let negs: Vec<f32> = (0..n).map(|r| lm.get(n + r, 0)).collect();
        let src_mat = if want_embeddings {
            g.value(src).clone()
        } else {
            Matrix::zeros(0, 0)
        };
        let grads = if train { Some(g.backward(loss)) } else { None };
        drop(g);
        if let Some(grads) = grads {
            adam.step(store, &grads);
        }
        (loss_val, pos, negs, src_mat)
    }
}

impl TgnnModel for Tgat {
    fn name(&self) -> &'static str {
        "TGAT"
    }

    fn anatomy(&self) -> Anatomy {
        Anatomy {
            memory: false,
            attention: true,
            rnn: false,
            temp_walk: false,
            scalability: false,
            supervision: "self (semi)-supervised",
        }
    }

    fn reset_state(&mut self) {
        // TGAT is stateless: the temporal neighborhood *is* the state.
    }

    fn train_batch(&mut self, ctx: &StreamContext, batch: &[Interaction], neg: &[usize]) -> f32 {
        self.run_batch(ctx, batch, neg, true, false).0
    }

    fn eval_batch(
        &mut self,
        ctx: &StreamContext,
        batch: &[Interaction],
        neg: &[usize],
    ) -> (Vec<f32>, Vec<f32>) {
        let (_, pos, negs, _) = self.run_batch(ctx, batch, neg, false, false);
        (pos, negs)
    }

    fn score_candidates(
        &mut self,
        ctx: &StreamContext,
        batch: &[Interaction],
        cand_dsts: &[usize],
        k: usize,
    ) -> (Vec<f32>, Vec<f32>) {
        // TGAT is stateless, so ranking shares `run_batch`'s tri-batch idea
        // with a (2+k)-way concatenation: one frontier sample and one
        // attention stack over [srcs ++ dsts ++ k candidate blocks], sliced
        // back per role. The RNG is derived from the query content
        // (`ranking_rng`) so the model's own stream is untouched and AUC/AP
        // stay bit-identical whether or not ranking is enabled.
        let n = batch.len();
        let Tgat {
            weights,
            core,
            layers,
            ..
        } = self;
        let depth = *layers;
        let mut rng = ranking_rng(batch, cand_dsts);
        let times: Vec<f64> = batch.iter().map(|e| e.t).collect();
        let mut all_nodes = Vec::with_capacity((2 + k) * n);
        all_nodes.extend(batch.iter().map(|e| e.src));
        all_nodes.extend(batch.iter().map(|e| e.dst));
        all_nodes.extend_from_slice(cand_dsts);
        let mut all_times = Vec::with_capacity((2 + k) * n);
        for _ in 0..2 + k {
            all_times.extend_from_slice(&times);
        }
        let mut g = Graph::new(&core.store);
        let all = weights.embed(&mut g, ctx, &all_nodes, &all_times, depth, &mut rng);
        let src = g.slice_rows(all, 0, n);
        let dst = g.slice_rows(all, n, 2 * n);
        let pos_logit = weights.decoder.forward(&mut g, src, dst);
        let pos: Vec<f32> = {
            let m = g.value(pos_logit);
            (0..n).map(|r| m.get(r, 0)).collect()
        };
        let mut cands = Vec::with_capacity(n * k);
        for j in 0..k {
            let cand = g.slice_rows(all, (2 + j) * n, (3 + j) * n);
            let logit = weights.decoder.forward(&mut g, src, cand);
            let m = g.value(logit);
            cands.extend((0..n).map(|r| m.get(r, 0)));
        }
        (pos, cands)
    }

    fn embed_events(&mut self, ctx: &StreamContext, batch: &[Interaction]) -> Matrix {
        let negs: Vec<usize> = batch.iter().map(|e| e.dst).collect();
        self.run_batch(ctx, batch, &negs, false, true).3
    }

    fn embed_dim(&self) -> usize {
        self.embed_dim
    }

    fn snapshot(&self) -> Vec<Matrix> {
        self.core.snapshot()
    }

    fn restore(&mut self, snapshot: &[Matrix]) {
        self.core.restore(snapshot);
    }

    fn state_bytes(&self) -> usize {
        self.core.param_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchtemp_graph::generators::GeneratorConfig;
    use benchtemp_graph::paged::NeighborBackend;
    use benchtemp_graph::NeighborFinder;

    #[test]
    fn stateless_eval_is_deterministic_given_same_rng_state() {
        let g = GeneratorConfig::small("tgat", 61).generate();
        let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
        let ctx = StreamContext {
            graph: &g,
            neighbors: NeighborBackend::Resident(&nf),
        };
        let cfg = ModelConfig {
            embed_dim: 16,
            time_dim: 8,
            neighbors: 3,
            layers: 2,
            ..Default::default()
        };
        let negs: Vec<usize> = g.events[..20].iter().map(|_| g.num_users).collect();
        let mut m1 = Tgat::new(cfg.clone(), &g);
        let mut m2 = Tgat::new(cfg, &g);
        let (p1, n1) = m1.eval_batch(&ctx, &g.events[..20], &negs);
        let (p2, n2) = m2.eval_batch(&ctx, &g.events[..20], &negs);
        assert_eq!(p1, p2);
        assert_eq!(n1, n2);
    }

    #[test]
    fn respects_eq1_divisibility() {
        // heads must divide the attention model dim; the constructor of the
        // attention layer enforces Eq. 1.
        let g = GeneratorConfig::small("tgat2", 62).generate();
        let cfg = ModelConfig {
            embed_dim: 48,
            heads: 2,
            ..Default::default()
        };
        let _ = Tgat::new(cfg, &g); // must not panic
    }

    #[test]
    fn embed_events_has_model_dim() {
        let g = GeneratorConfig::small("tgat3", 63).generate();
        let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
        let ctx = StreamContext {
            graph: &g,
            neighbors: NeighborBackend::Resident(&nf),
        };
        let mut m = Tgat::new(
            ModelConfig {
                embed_dim: 24,
                layers: 1,
                neighbors: 3,
                ..Default::default()
            },
            &g,
        );
        let emb = m.embed_events(&ctx, &g.events[..7]);
        assert_eq!(emb.shape(), (7, 24));
    }

    #[test]
    fn depth_zero_nodes_without_history_still_score() {
        // The very first batch has no temporal neighbors anywhere: masks are
        // all false, attention returns base reps, scores stay finite.
        let g = GeneratorConfig::small("tgat4", 64).generate();
        let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
        let ctx = StreamContext {
            graph: &g,
            neighbors: NeighborBackend::Resident(&nf),
        };
        let mut m = Tgat::new(
            ModelConfig {
                embed_dim: 16,
                layers: 2,
                neighbors: 3,
                ..Default::default()
            },
            &g,
        );
        let negs: Vec<usize> = g.events[..5].iter().map(|_| g.num_users + 1).collect();
        let (pos, neg) = m.eval_batch(&ctx, &g.events[..5], &negs);
        assert!(pos.iter().chain(neg.iter()).all(|s| s.is_finite()));
    }
}
