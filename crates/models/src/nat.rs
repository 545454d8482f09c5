//! NAT (Luo & Li, LoG 2022): neighborhood-aware temporal network
//! representation learning. NAT replaces neighbor *sampling* with **N-caches**
//! — fixed-size, hash-slotted per-node dictionaries of 1-hop and 2-hop
//! neighborhood occupants that are updated in O(1) per event and support
//! parallel access (the property behind NAT's GPU-utilization lead in
//! Table 11). Link scores combine each endpoint's recurrent self
//! representation with **joint-neighborhood structural features**: the
//! overlap counts between the two endpoints' caches at every hop
//! combination. Those counts are computable for never-seen nodes as soon as
//! their first events stream in — the mechanism behind NAT's strength on
//! inductive New-New (Table 3) and its weakness on node classification
//! (Table 5), which doesn't reward joint structure.

use benchtemp_core::efficiency::stage;
use benchtemp_core::pipeline::{Anatomy, StreamContext, TgnnModel};
use benchtemp_graph::temporal_graph::{Interaction, TemporalGraph};
use benchtemp_obs as obs;
use benchtemp_tensor::nn::{GruCell, Linear, Mlp, TimeEncode};
use benchtemp_tensor::{Graph, Matrix, Var};

use crate::common::{pos_neg_targets, BatchView, ModelConfig, ModelCore, NodeMemory};

/// Fixed-size hash-slotted cache of node ids (one per node per hop level).
/// Slot index is `id % size`; collisions replace — NAT's "dictionary-type"
/// structure with position-deterministic parallel updates.
#[derive(Clone, Debug)]
struct NCache {
    /// `id + 1`, 0 = empty.
    slots: Vec<u32>,
}

impl NCache {
    fn new(size: usize) -> Self {
        NCache {
            slots: vec![0; size],
        }
    }

    #[inline]
    fn insert(&mut self, node: usize) {
        let i = node % self.slots.len();
        self.slots[i] = node as u32 + 1;
    }

    #[inline]
    fn contains(&self, node: usize) -> bool {
        self.slots[node % self.slots.len()] == node as u32 + 1
    }

    fn occupancy(&self) -> usize {
        self.slots.iter().filter(|&&s| s != 0).count()
    }

    /// Count of this cache's occupants present in `other`.
    fn overlap(&self, other: &NCache) -> usize {
        self.slots
            .iter()
            .filter(|&&s| s != 0 && other.contains((s - 1) as usize))
            .count()
    }

    fn iter_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots
            .iter()
            .filter(|&&s| s != 0)
            .map(|&s| (s - 1) as usize)
    }

    fn clear(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = 0);
    }
}

/// Number of structural count features per pair.
const N_STRUCT: usize = 9;

struct Weights {
    edge_proj: Linear,
    time_enc: TimeEncode,
    rep_gru: GruCell,
    rep_proj: Linear,
    struct_proj: Linear,
    head: Mlp,
}

/// The NAT model.
pub struct Nat {
    weights: Weights,
    core: ModelCore,
    reps: NodeMemory,
    hop1: Vec<NCache>,
    hop2: Vec<NCache>,
    embed_dim: usize,
}

impl Nat {
    pub fn new(cfg: ModelConfig, graph: &TemporalGraph) -> Self {
        let mut core = ModelCore::new(cfg.lr, cfg.seed);
        let d = cfg.embed_dim;
        let td = cfg.time_dim;
        let ed = 16.min(graph.edge_dim().max(4));
        let ds = 16;
        let (store, rng) = (&mut core.store, &mut core.rng);
        let weights = Weights {
            edge_proj: Linear::new(store, rng, "edge_proj", graph.edge_dim(), ed),
            time_enc: TimeEncode::new(store, "time_enc", td),
            rep_gru: GruCell::new(store, rng, "rep_gru", ed + td, d),
            rep_proj: Linear::new(store, rng, "rep_proj", d, d),
            struct_proj: Linear::new(store, rng, "struct_proj", N_STRUCT, ds),
            head: Mlp::new(store, rng, "head", d + d + ds + td, d, 1),
        };
        // Cache sizes: ~2× the neighbor budget at hop 1, 4× at hop 2.
        let s1 = (cfg.neighbors * 2).max(4);
        let s2 = (cfg.neighbors * 4).max(8);
        Nat {
            weights,
            core,
            reps: NodeMemory::new(graph.num_nodes, d),
            hop1: vec![NCache::new(s1); graph.num_nodes],
            hop2: vec![NCache::new(s2); graph.num_nodes],
            embed_dim: d,
        }
    }

    /// Joint-neighborhood structural features for one pair, normalized by
    /// cache capacity.
    fn pair_struct(&self, u: usize, v: usize) -> [f32; N_STRUCT] {
        let (h1u, h1v) = (&self.hop1[u], &self.hop1[v]);
        let (h2u, h2v) = (&self.hop2[u], &self.hop2[v]);
        let c1 = h1u.slots.len() as f32;
        let c2 = h2u.slots.len() as f32;
        [
            // Direct containment (edge recurrence signal).
            h1u.contains(v) as u8 as f32,
            h1v.contains(u) as u8 as f32,
            // Hop-combination overlaps (joint neighborhood).
            h1u.overlap(h1v) as f32 / c1,
            h1u.overlap(h2v) as f32 / c1,
            h2u.overlap(h1v) as f32 / c2,
            h2u.overlap(h2v) as f32 / c2,
            // Occupancies (degree proxies).
            h1u.occupancy() as f32 / c1,
            h1v.occupancy() as f32 / c1,
            (h2u.occupancy() + h2v.occupancy()) as f32 / (2.0 * c2),
        ]
    }

    /// Non-learned cache bookkeeping after the batch's events.
    fn update_caches(&mut self, view: &BatchView) {
        // Fixed-size staging buffers: at most 4 occupants propagate per
        // endpoint, so no per-event heap allocation is needed.
        let mut from_v = [0usize; 4];
        let mut from_u = [0usize; 4];
        for i in 0..view.len() {
            let (u, v) = (view.srcs[i], view.dsts[i]);
            // Propagate the *other* endpoint's 1-hop occupants into own
            // 2-hop cache (before inserting the new direct neighbor).
            let mut nv = 0;
            for x in self.hop1[v].iter_nodes().take(4) {
                from_v[nv] = x;
                nv += 1;
            }
            let mut nu = 0;
            for x in self.hop1[u].iter_nodes().take(4) {
                from_u[nu] = x;
                nu += 1;
            }
            for &x in &from_v[..nv] {
                self.hop2[u].insert(x);
            }
            for &x in &from_u[..nu] {
                self.hop2[v].insert(x);
            }
            self.hop1[u].insert(v);
            self.hop1[v].insert(u);
        }
    }

    fn run_batch(
        &mut self,
        ctx: &StreamContext,
        batch: &[Interaction],
        neg_dsts: &[usize],
        train: bool,
    ) -> (f32, Vec<f32>, Vec<f32>, Matrix) {
        let view = BatchView::new(batch, neg_dsts);
        let n = view.len();
        // Whole-batch dense span; the nested sampling span below subtracts
        // itself from its exclusive time.
        let _dense = obs::span(stage::DENSE);

        // Structural features (cache reads are the "sampling" phase — they
        // are what NAT made fast).
        let (pos_struct, neg_struct) = obs::timed(stage::SAMPLING, || {
            let mut ps = Matrix::zeros(n, N_STRUCT);
            let mut ns = Matrix::zeros(n, N_STRUCT);
            for i in 0..n {
                ps.set_row(i, &self.pair_struct(view.srcs[i], view.dsts[i]));
                ns.set_row(i, &self.pair_struct(view.srcs[i], view.negs[i]));
            }
            (ps, ns)
        });

        let src_dt = self.reps.deltas(&view.srcs, &view.times);
        let dst_dt = self.reps.deltas(&view.dsts, &view.times);
        let neg_dt = self.reps.deltas(&view.negs, &view.times);

        let mut g = Graph::new(&self.core.store);
        let w = &self.weights;
        let src_rep = {
            let p = w
                .rep_proj
                .forward_gathered(&mut g, self.reps.table(), &view.srcs);
            g.relu(p)
        };
        let dst_rep = {
            let p = w
                .rep_proj
                .forward_gathered(&mut g, self.reps.table(), &view.dsts);
            g.relu(p)
        };
        let neg_rep = {
            let p = w
                .rep_proj
                .forward_gathered(&mut g, self.reps.table(), &view.negs);
            g.relu(p)
        };
        let score = |g: &mut Graph, a: Var, b: Var, st: Matrix, dt: &[f32]| -> Var {
            let sp = {
                let s = g.input(st);
                w.struct_proj.forward(g, s)
            };
            let te = w.time_enc.forward_slice(g, dt);
            let cat = g.concat_cols_many(&[a, b, sp, te]);
            w.head.forward(g, cat)
        };
        let pos_logit = score(&mut g, src_rep, dst_rep, pos_struct, &src_dt);
        let neg_logit = score(&mut g, src_rep, neg_rep, neg_struct, &neg_dt);
        let logits = g.concat_rows(pos_logit, neg_logit);
        let targets = pos_neg_targets(n);
        let loss = g.bce_with_logits(logits, &targets);
        let loss_val = g.value(loss).scalar();
        let lm = g.value(logits).clone();
        let pos: Vec<f32> = (0..n).map(|r| lm.get(r, 0)).collect();
        let negs: Vec<f32> = (0..n).map(|r| lm.get(n + r, 0)).collect();

        // Recurrent self-representation update for both endpoints.
        let (new_src, new_dst) = {
            let ep = w
                .edge_proj
                .forward_gathered(&mut g, &ctx.graph.edge_features, &view.feat_idx);
            let ste = w.time_enc.forward_slice(&mut g, &src_dt);
            let dte = w.time_enc.forward_slice(&mut g, &dst_dt);
            let sx = g.concat_cols(ep, ste);
            let dx = g.concat_cols(ep, dte);
            let sm = self.reps.rows_var(&mut g, &view.srcs);
            let dm = self.reps.rows_var(&mut g, &view.dsts);
            (
                w.rep_gru.forward(&mut g, sx, sm),
                w.rep_gru.forward(&mut g, dx, dm),
            )
        };
        let src_emb = g.value(src_rep).clone();
        let new_src_m = g.value(new_src).clone();
        let new_dst_m = g.value(new_dst).clone();

        let grads = if train { Some(g.backward(loss)) } else { None };
        drop(g);
        if let Some(grads) = grads {
            self.core.adam.step(&mut self.core.store, &grads);
        }

        self.reps.write(&view.srcs, &new_src_m, &view.times);
        self.reps.write(&view.dsts, &new_dst_m, &view.times);
        self.update_caches(&view);
        (loss_val, pos, negs, src_emb)
    }
}

impl TgnnModel for Nat {
    fn name(&self) -> &'static str {
        "NAT"
    }

    fn anatomy(&self) -> Anatomy {
        Anatomy {
            memory: true,
            attention: true,
            rnn: true,
            temp_walk: false,
            scalability: true,
            supervision: "self-supervised",
        }
    }

    fn reset_state(&mut self) {
        self.reps.reset();
        self.hop1.iter_mut().for_each(NCache::clear);
        self.hop2.iter_mut().for_each(NCache::clear);
    }

    fn train_batch(&mut self, ctx: &StreamContext, batch: &[Interaction], neg: &[usize]) -> f32 {
        self.run_batch(ctx, batch, neg, true).0
    }

    fn eval_batch(
        &mut self,
        ctx: &StreamContext,
        batch: &[Interaction],
        neg: &[usize],
    ) -> (Vec<f32>, Vec<f32>) {
        let (_, pos, negs, _) = self.run_batch(ctx, batch, neg, false);
        (pos, negs)
    }

    fn score_candidates(
        &mut self,
        _ctx: &StreamContext,
        batch: &[Interaction],
        cand_dsts: &[usize],
        k: usize,
    ) -> (Vec<f32>, Vec<f32>) {
        // Pure reads of reps + N-caches: no GRU step, no `reps.write`, no
        // cache bookkeeping — `eval_batch` observes exactly the pre-batch
        // state. NAT needs no RNG here (cache reads are deterministic).
        let n = batch.len();
        let srcs: Vec<usize> = batch.iter().map(|e| e.src).collect();
        let dsts: Vec<usize> = batch.iter().map(|e| e.dst).collect();
        let times: Vec<f64> = batch.iter().map(|e| e.t).collect();
        let src_dt = self.reps.deltas(&srcs, &times);
        let mut g = Graph::new(&self.core.store);
        let w = &self.weights;
        let src_rep = {
            let p = w
                .rep_proj
                .forward_gathered(&mut g, self.reps.table(), &srcs);
            g.relu(p)
        };
        // Mirrors `run_batch`'s scoring: the pair's structural features, the
        // other endpoint's rep, and the *other endpoint's* time delta.
        let score_block = |g: &mut Graph, block: &[usize], dt: &[f32]| -> Vec<f32> {
            let mut st = Matrix::zeros(n, N_STRUCT);
            for i in 0..n {
                st.set_row(i, &self.pair_struct(srcs[i], block[i]));
            }
            let b_rep = {
                let p = w.rep_proj.forward_gathered(g, self.reps.table(), block);
                g.relu(p)
            };
            let sp = {
                let s = g.input(st);
                w.struct_proj.forward(g, s)
            };
            let te = w.time_enc.forward_slice(g, dt);
            let cat = g.concat_cols_many(&[src_rep, b_rep, sp, te]);
            let logit = w.head.forward(g, cat);
            let m = g.value(logit);
            (0..n).map(|r| m.get(r, 0)).collect()
        };
        let pos = score_block(&mut g, &dsts, &src_dt);
        let mut cands = Vec::with_capacity(n * k);
        for j in 0..k {
            let block = &cand_dsts[j * n..(j + 1) * n];
            let dt = self.reps.deltas(block, &times);
            cands.extend(score_block(&mut g, block, &dt));
        }
        (pos, cands)
    }

    fn embed_events(&mut self, ctx: &StreamContext, batch: &[Interaction]) -> Matrix {
        let negs: Vec<usize> = batch.iter().map(|e| e.dst).collect();
        self.run_batch(ctx, batch, &negs, false).3
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
        let cache_bytes: usize = self
            .hop1
            .iter()
            .chain(self.hop2.iter())
            .map(|c| c.slots.capacity() * std::mem::size_of::<u32>())
            .sum();
        self.core.param_bytes() + self.reps.heap_bytes() + cache_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchtemp_graph::generators::GeneratorConfig;
    use benchtemp_graph::paged::NeighborBackend;
    use benchtemp_graph::NeighborFinder;

    #[test]
    fn ncache_insert_contains_overlap() {
        let mut a = NCache::new(8);
        let mut b = NCache::new(8);
        a.insert(3);
        a.insert(11); // collides with 3 (11 % 8 = 3) → replaces
        assert!(!a.contains(3));
        assert!(a.contains(11));
        a.insert(5);
        b.insert(5);
        b.insert(11);
        assert_eq!(a.overlap(&b), 2);
        assert_eq!(a.occupancy(), 2);
        a.clear();
        assert_eq!(a.occupancy(), 0);
    }

    #[test]
    fn struct_features_detect_joint_neighborhood() {
        let g = GeneratorConfig::small("nat", 91).generate();
        let mut nat = Nat::new(ModelConfig::default(), &g);
        // u and v share neighbor 7 after these inserts.
        let (u, v, w) = (0, 1, g.num_users + 7);
        nat.hop1[u].insert(w);
        nat.hop1[v].insert(w);
        let f = nat.pair_struct(u, v);
        assert!(f[2] > 0.0, "1-hop∩1-hop overlap must fire: {f:?}");
        // A pair with empty caches scores zero structure.
        let f0 = nat.pair_struct(2, 3);
        assert!(f0.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn caches_populate_from_stream() {
        let g = GeneratorConfig::small("nat2", 92).generate();
        let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
        let ctx = StreamContext {
            graph: &g,
            neighbors: NeighborBackend::Resident(&nf),
        };
        let mut nat = Nat::new(
            ModelConfig {
                embed_dim: 16,
                ..Default::default()
            },
            &g,
        );
        let negs: Vec<usize> = g.events[..100].iter().map(|_| g.num_users).collect();
        nat.eval_batch(&ctx, &g.events[..100], &negs);
        let occupied: usize = nat.hop1.iter().map(|c| c.occupancy()).sum();
        assert!(occupied > 0, "1-hop caches must populate from events");
        let ev = &g.events[0];
        assert!(nat.hop1[ev.src].contains(ev.dst) || nat.hop1[ev.src].occupancy() > 0);
    }

    #[test]
    fn repeated_edge_scores_rise_with_cache_hit() {
        // After observing (u,v), the pair's structural features include the
        // direct-containment bit — training should quickly exploit it.
        let g = GeneratorConfig::small("nat3", 93).generate();
        let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
        let ctx = StreamContext {
            graph: &g,
            neighbors: NeighborBackend::Resident(&nf),
        };
        let mut nat = Nat::new(
            ModelConfig {
                embed_dim: 16,
                lr: 1e-2,
                ..Default::default()
            },
            &g,
        );
        let batch = &g.events[..60];
        let negs: Vec<usize> = batch
            .iter()
            .enumerate()
            .map(|(i, _)| g.num_users + (i * 3) % (g.num_nodes - g.num_users))
            .collect();
        let first = nat.train_batch(&ctx, batch, &negs);
        let mut last = first;
        for _ in 0..20 {
            last = nat.train_batch(&ctx, batch, &negs);
        }
        assert!(last < first, "NAT loss went {first} → {last}");
    }

    #[test]
    fn state_bytes_include_caches() {
        let g = GeneratorConfig::small("nat4", 94).generate();
        let nat = Nat::new(ModelConfig::default(), &g);
        // Caches + reps must make NAT's state exceed its bare parameters.
        assert!(nat.state_bytes() > nat.core.param_bytes());
    }
}
