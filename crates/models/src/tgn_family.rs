//! The TGN framework and its three instantiations — TGN, JODIE, DyRep.
//!
//! Appendix C: *"We implement JODIE, DyRep, and TGN based on the TGN
//! framework"* — as does the TGN paper itself, which presents JODIE and
//! DyRep as special cases. The shared skeleton is: per-node **memory**, a
//! **message function** over each interaction, a **GRU memory updater**,
//! and a variant-specific **embedding module**:
//!
//! * **JODIE** — time-projection embedding `(1 + Δt·w) ⊙ memory` driven by
//!   coupled user/item RNN updates;
//! * **DyRep** — identity embedding; the *message* aggregates the other
//!   endpoint's temporal neighborhood with attention;
//! * **TGN** — one layer of multi-head temporal graph attention over the
//!   memory+features of sampled neighbors, residual on the node state.
//!
//! Memory gradients are truncated at batch boundaries (the reference
//! implementations' scheme): each batch backpropagates through its own
//! computation, then writes detached memory values.

use benchtemp_core::efficiency::stage;
use benchtemp_core::pipeline::{Anatomy, StreamContext, TgnnModel};
use benchtemp_graph::neighbors::SamplingStrategy;
use benchtemp_graph::temporal_graph::{Interaction, TemporalGraph};
use benchtemp_obs as obs;
use benchtemp_tensor::init::SeededRng;
use benchtemp_tensor::nn::{Linear, MergeLayer, MultiHeadAttention, TimeEncode};
use benchtemp_tensor::{Graph, Matrix, ParamId, Var};

use crate::common::{
    pos_neg_targets, ranking_rng, BatchView, ModelConfig, ModelCore, NeighborBatch, NodeMemory,
};

/// Which member of the family this instance is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TgnVariant {
    Jodie,
    DyRep,
    Tgn,
}

/// Layer handles (ParamIds only — no borrow of the store), so forward
/// helpers can run while a [`Graph`] borrows the parameter store.
struct Weights {
    variant: TgnVariant,
    neighbors: usize,
    feat_proj: Linear,
    edge_proj: Linear,
    time_enc: TimeEncode,
    msg_fn: Linear,
    gru_wz: Linear,
    gru_uz: Linear,
    gru_wr: Linear,
    gru_ur: Linear,
    gru_wh: Linear,
    gru_uh: Linear,
    decoder: MergeLayer,
    jodie_proj: Option<ParamId>,
    attention: Option<MultiHeadAttention>,
}

impl Weights {
    /// Node state: memory + projected static features.
    fn node_state(
        &self,
        g: &mut Graph,
        ctx: &StreamContext,
        memory: &NodeMemory,
        nodes: &[usize],
    ) -> Var {
        let mem = memory.rows_var(g, nodes);
        let proj = self
            .feat_proj
            .forward_gathered(g, &ctx.graph.node_features, nodes);
        g.add(mem, proj)
    }

    /// GRU memory-updater step.
    fn gru(&self, g: &mut Graph, x: Var, h: Var) -> Var {
        let z = {
            let a = self.gru_wz.forward(g, x);
            let b = self.gru_uz.forward(g, h);
            let s = g.add(a, b);
            g.sigmoid(s)
        };
        let r = {
            let a = self.gru_wr.forward(g, x);
            let b = self.gru_ur.forward(g, h);
            let s = g.add(a, b);
            g.sigmoid(s)
        };
        let h_tilde = {
            let a = self.gru_wh.forward(g, x);
            let rh = g.mul(r, h);
            let b = self.gru_uh.forward(g, rh);
            let s = g.add(a, b);
            g.tanh(s)
        };
        let nz = g.neg(z);
        let omz = g.add_scalar(nz, 1.0);
        let keep = g.mul(omz, h);
        let upd = g.mul(z, h_tilde);
        g.add(keep, upd)
    }

    /// One temporal-attention layer over sampled neighbors.
    #[allow(clippy::too_many_arguments)]
    fn attend(
        &self,
        g: &mut Graph,
        ctx: &StreamContext,
        memory: &NodeMemory,
        state: Var,
        nodes: &[usize],
        times: &[f64],
        rng: &mut SeededRng,
    ) -> Var {
        let k = self.neighbors;
        let nb = obs::timed(stage::SAMPLING, || {
            NeighborBatch::sample(ctx, nodes, times, k, SamplingStrategy::MostRecent, rng)
        });
        let nb_state = {
            let mem = memory.rows_var(g, &nb.ids);
            let fp = self
                .feat_proj
                .forward_gathered(g, &ctx.graph.node_features, &nb.ids);
            g.add(mem, fp)
        };
        let nb_edge = self
            .edge_proj
            .forward_gathered(g, &ctx.graph.edge_features, &nb.feat_idx);
        let nb_te = self.time_enc.forward_slice(g, &nb.dts);
        let keys = g.concat_cols_many(&[nb_state, nb_edge, nb_te]);
        let zero_te = self.time_enc.forward_slice(g, &vec![0.0; nodes.len()]);
        let query = g.concat_cols(state, zero_te);
        self.attention
            .as_ref()
            .expect("attention present")
            .forward(g, query, keys, k, &nb.mask)
    }

    /// Variant embedding of nodes at the given times.
    fn embed(
        &self,
        g: &mut Graph,
        ctx: &StreamContext,
        memory: &NodeMemory,
        nodes: &[usize],
        times: &[f64],
        rng: &mut SeededRng,
    ) -> Var {
        match self.variant {
            TgnVariant::Jodie => {
                let mem = memory.rows_var(g, nodes);
                let dts = memory.deltas(nodes, times);
                let dt_col = g.input(Matrix::column(&dts));
                let w = g.param(self.jodie_proj.expect("jodie proj"));
                let dtw = g.matmul(dt_col, w);
                let scale = g.add_scalar(dtw, 1.0);
                let projected = g.mul(scale, mem);
                let fp = self
                    .feat_proj
                    .forward_gathered(g, &ctx.graph.node_features, nodes);
                g.add(projected, fp)
            }
            TgnVariant::DyRep => self.node_state(g, ctx, memory, nodes),
            TgnVariant::Tgn => {
                let state = self.node_state(g, ctx, memory, nodes);
                let attn = self.attend(g, ctx, memory, state, nodes, times, rng);
                g.add(attn, state)
            }
        }
    }

    /// Messages + GRU update for the batch's endpoints; returns new memory
    /// values (on tape → current-batch gradients flow).
    fn new_memories(
        &self,
        g: &mut Graph,
        ctx: &StreamContext,
        memory: &NodeMemory,
        view: &BatchView,
        rng: &mut SeededRng,
    ) -> (Var, Var) {
        let edge = self
            .edge_proj
            .forward_gathered(g, &ctx.graph.edge_features, &view.feat_idx);
        let src_mem = memory.rows_var(g, &view.srcs);
        let dst_mem = memory.rows_var(g, &view.dsts);
        let src_te = {
            let dt = memory.deltas(&view.srcs, &view.times);
            self.time_enc.forward_slice(g, &dt)
        };
        let dst_te = {
            let dt = memory.deltas(&view.dsts, &view.times);
            self.time_enc.forward_slice(g, &dt)
        };
        // DyRep: messages carry the other endpoint's attention-aggregated
        // neighborhood; JODIE/TGN: the other endpoint's raw memory.
        let (other_for_src, other_for_dst) = if self.variant == TgnVariant::DyRep {
            let dst_state = self.node_state(g, ctx, memory, &view.dsts);
            let src_state = self.node_state(g, ctx, memory, &view.srcs);
            let dst_agg = self.attend(g, ctx, memory, dst_state, &view.dsts, &view.times, rng);
            let src_agg = self.attend(g, ctx, memory, src_state, &view.srcs, &view.times, rng);
            (g.add(dst_agg, dst_state), g.add(src_agg, src_state))
        } else {
            (dst_mem, src_mem)
        };
        let src_in = g.concat_cols_many(&[src_mem, other_for_src, src_te, edge]);
        let dst_in = g.concat_cols_many(&[dst_mem, other_for_dst, dst_te, edge]);
        let src_msg = {
            let m = self.msg_fn.forward(g, src_in);
            g.relu(m)
        };
        let dst_msg = {
            let m = self.msg_fn.forward(g, dst_in);
            g.relu(m)
        };
        (self.gru(g, src_msg, src_mem), self.gru(g, dst_msg, dst_mem))
    }
}

/// The TGN-framework model (JODIE / DyRep / TGN).
pub struct TgnFamily {
    weights: Weights,
    core: ModelCore,
    memory: NodeMemory,
    embed_dim: usize,
}

impl TgnFamily {
    pub fn jodie(cfg: ModelConfig, graph: &TemporalGraph) -> Self {
        Self::new(TgnVariant::Jodie, cfg, graph)
    }

    pub fn dyrep(cfg: ModelConfig, graph: &TemporalGraph) -> Self {
        Self::new(TgnVariant::DyRep, cfg, graph)
    }

    pub fn tgn(cfg: ModelConfig, graph: &TemporalGraph) -> Self {
        Self::new(TgnVariant::Tgn, cfg, graph)
    }

    pub fn new(variant: TgnVariant, cfg: ModelConfig, graph: &TemporalGraph) -> Self {
        let mut core = ModelCore::new(cfg.lr, cfg.seed);
        let d = cfg.embed_dim;
        let td = cfg.time_dim;
        let ed = 16.min(graph.edge_dim().max(4));
        let (store, rng) = (&mut core.store, &mut core.rng);
        let weights = Weights {
            variant,
            neighbors: cfg.neighbors,
            feat_proj: Linear::new(store, rng, "feat_proj", graph.node_dim(), d),
            edge_proj: Linear::new(store, rng, "edge_proj", graph.edge_dim(), ed),
            time_enc: TimeEncode::new(store, "time_enc", td),
            msg_fn: Linear::new(store, rng, "msg_fn", d + d + td + ed, d),
            gru_wz: Linear::new(store, rng, "gru.wz", d, d),
            gru_uz: Linear::new(store, rng, "gru.uz", d, d),
            gru_wr: Linear::new(store, rng, "gru.wr", d, d),
            gru_ur: Linear::new(store, rng, "gru.ur", d, d),
            gru_wh: Linear::new(store, rng, "gru.wh", d, d),
            gru_uh: Linear::new(store, rng, "gru.uh", d, d),
            decoder: MergeLayer::new(store, rng, "decoder", d, d, d, 1),
            jodie_proj: (variant == TgnVariant::Jodie)
                .then(|| store.add("jodie_proj", Matrix::zeros(1, d))),
            attention: matches!(variant, TgnVariant::Tgn | TgnVariant::DyRep).then(|| {
                MultiHeadAttention::new(store, rng, "attn", d + td, d + ed + td, d, cfg.heads, d)
            }),
        };
        TgnFamily {
            weights,
            core,
            memory: NodeMemory::new(graph.num_nodes, d),
            embed_dim: d,
        }
    }

    /// Forward pass shared by train/eval: returns (logits pos+neg stacked,
    /// src-embedding var, new src/dst memory vars) still on the graph.
    fn forward(
        g: &mut Graph,
        weights: &Weights,
        memory: &NodeMemory,
        ctx: &StreamContext,
        view: &BatchView,
        rng: &mut SeededRng,
    ) -> (Var, Var, Var, Var) {
        let src = weights.embed(g, ctx, memory, &view.srcs, &view.times, rng);
        let dst = weights.embed(g, ctx, memory, &view.dsts, &view.times, rng);
        let neg = weights.embed(g, ctx, memory, &view.negs, &view.times, rng);
        let pos_logit = weights.decoder.forward(g, src, dst);
        let neg_logit = weights.decoder.forward(g, src, neg);
        let logits = g.concat_rows(pos_logit, neg_logit);
        let (new_src, new_dst) = weights.new_memories(g, ctx, memory, view, rng);
        (logits, src, new_src, new_dst)
    }

    /// Run one batch; when `train` is set, backprop + Adam step. Returns
    /// (loss, pos_scores, neg_scores, src_embeddings). `want_embeddings`
    /// gates the src-embedding clone — only `embed_events` consumes it,
    /// so train/eval batches skip that per-batch allocation (the memory
    /// updates `new_src`/`new_dst` are still materialized every batch).
    fn run_batch(
        &mut self,
        ctx: &StreamContext,
        batch: &[Interaction],
        neg_dsts: &[usize],
        train: bool,
        want_embeddings: bool,
    ) -> (f32, Vec<f32>, Vec<f32>, Matrix) {
        let view = BatchView::new(batch, neg_dsts);
        let TgnFamily {
            weights,
            core,
            memory,
            ..
        } = self;
        let ModelCore { store, adam, rng } = core;
        // Whole-batch dense span; nested sampling spans subtract themselves
        // from its exclusive time, so "dense" self-time = batch − sampling.
        let _dense = obs::span(stage::DENSE);

        let mut g = Graph::new(store);
        let (logits, src_emb, new_src, new_dst) =
            Self::forward(&mut g, weights, memory, ctx, &view, rng);
        let targets = pos_neg_targets(view.len());
        let loss = g.bce_with_logits(logits, &targets);
        let loss_val = g.value(loss).scalar();

        let probs = g.value(logits).clone(); // raw logits as scores
        let n = view.len();
        let pos: Vec<f32> = (0..n).map(|r| probs.get(r, 0)).collect();
        let neg: Vec<f32> = (0..n).map(|r| probs.get(n + r, 0)).collect();
        let src_mat = if want_embeddings {
            g.value(src_emb).clone()
        } else {
            Matrix::zeros(0, 0)
        };
        let new_src_mat = g.value(new_src).clone();
        let new_dst_mat = g.value(new_dst).clone();

        let grads = if train { Some(g.backward(loss)) } else { None };
        drop(g);
        if let Some(grads) = grads {
            adam.step(store, &grads);
        }

        memory.write(&view.srcs, &new_src_mat, &view.times);
        memory.write(&view.dsts, &new_dst_mat, &view.times);
        (loss_val, pos, neg, src_mat)
    }
}

impl TgnnModel for TgnFamily {
    fn name(&self) -> &'static str {
        match self.weights.variant {
            TgnVariant::Jodie => "JODIE",
            TgnVariant::DyRep => "DyRep",
            TgnVariant::Tgn => "TGN",
        }
    }

    fn anatomy(&self) -> Anatomy {
        match self.weights.variant {
            TgnVariant::Jodie => Anatomy {
                memory: true,
                attention: true,
                rnn: true,
                temp_walk: false,
                scalability: true,
                supervision: "self (semi)-supervised",
            },
            TgnVariant::DyRep => Anatomy {
                memory: false,
                attention: true,
                rnn: false,
                temp_walk: false,
                scalability: true,
                supervision: "unsupervised",
            },
            TgnVariant::Tgn => Anatomy {
                memory: true,
                attention: true,
                rnn: true,
                temp_walk: false,
                scalability: false,
                supervision: "self (semi)-supervised",
            },
        }
    }

    fn reset_state(&mut self) {
        self.memory.reset();
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
        let (_, pos, neg_scores, _) = self.run_batch(ctx, batch, neg, false, false);
        (pos, neg_scores)
    }

    fn score_candidates(
        &mut self,
        ctx: &StreamContext,
        batch: &[Interaction],
        cand_dsts: &[usize],
        k: usize,
    ) -> (Vec<f32>, Vec<f32>) {
        // Ranking is a pure read of the pre-batch memory: embed + decode only
        // — no messages, no GRU step, no `memory.write` — so the model's
        // stream state is exactly what `eval_batch` will see next. The RNG is
        // derived from the query content (`ranking_rng`), leaving the model's
        // own stream untouched.
        let n = batch.len();
        let TgnFamily {
            weights,
            core,
            memory,
            ..
        } = self;
        let mut rng = ranking_rng(batch, cand_dsts);
        let srcs: Vec<usize> = batch.iter().map(|e| e.src).collect();
        let dsts: Vec<usize> = batch.iter().map(|e| e.dst).collect();
        let times: Vec<f64> = batch.iter().map(|e| e.t).collect();
        let mut g = Graph::new(&core.store);
        let src = weights.embed(&mut g, ctx, memory, &srcs, &times, &mut rng);
        let dst = weights.embed(&mut g, ctx, memory, &dsts, &times, &mut rng);
        let pos_logit = weights.decoder.forward(&mut g, src, dst);
        let pos: Vec<f32> = {
            let m = g.value(pos_logit);
            (0..n).map(|r| m.get(r, 0)).collect()
        };
        let mut cands = Vec::with_capacity(n * k);
        for j in 0..k {
            let block = &cand_dsts[j * n..(j + 1) * n];
            let cand = weights.embed(&mut g, ctx, memory, block, &times, &mut rng);
            let logit = weights.decoder.forward(&mut g, src, cand);
            let m = g.value(logit);
            cands.extend((0..n).map(|r| m.get(r, 0)));
        }
        (pos, cands)
    }

    fn embed_events(&mut self, ctx: &StreamContext, batch: &[Interaction]) -> Matrix {
        // Use the true destinations as "negatives" — scores are discarded.
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
        self.core.param_bytes() + self.memory.heap_bytes()
    }
}
