//! EdgeBank (Poursafaei et al., reference \[8\] of the paper) — the pure-memorization baseline that
//! motivated BenchTemp's negative-sampling appendix: score 1 if the edge has
//! been observed before, 0 otherwise. Non-learned, so it bounds how much of
//! a dataset's signal is pure recurrence.

use std::collections::HashMap;

use benchtemp_core::pipeline::{Anatomy, StreamContext, TgnnModel};
use benchtemp_graph::temporal_graph::Interaction;
use benchtemp_tensor::Matrix;

/// Memory policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EdgeBankVariant {
    /// Remember every edge ever seen ("EdgeBank∞").
    Unlimited,
    /// Remember edges whose last occurrence is within the trailing window
    /// (fraction of the stream's observed span) ("EdgeBank_tw").
    TimeWindow { window: f64 },
}

/// The EdgeBank baseline.
pub struct EdgeBank {
    variant: EdgeBankVariant,
    /// (src,dst) → last-seen timestamp.
    seen: HashMap<(usize, usize), f64>,
}

impl EdgeBank {
    pub fn new(variant: EdgeBankVariant) -> Self {
        EdgeBank {
            variant,
            seen: HashMap::new(),
        }
    }

    pub fn unlimited() -> Self {
        Self::new(EdgeBankVariant::Unlimited)
    }

    fn score(&self, src: usize, dst: usize, now: f64) -> f32 {
        match (self.seen.get(&(src, dst)), self.variant) {
            (None, _) => 0.0,
            (Some(_), EdgeBankVariant::Unlimited) => 1.0,
            (Some(&t), EdgeBankVariant::TimeWindow { window }) => {
                if now - t <= window {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    fn observe(&mut self, batch: &[Interaction]) {
        for ev in batch {
            self.seen.insert((ev.src, ev.dst), ev.t);
        }
    }
}

impl TgnnModel for EdgeBank {
    fn name(&self) -> &'static str {
        "EdgeBank"
    }

    fn anatomy(&self) -> Anatomy {
        Anatomy {
            memory: true,
            attention: false,
            rnn: false,
            temp_walk: false,
            scalability: true,
            supervision: "none (memorization)",
        }
    }

    fn reset_state(&mut self) {
        self.seen.clear();
    }

    fn train_batch(&mut self, _ctx: &StreamContext, batch: &[Interaction], _neg: &[usize]) -> f32 {
        self.observe(batch);
        0.0
    }

    fn eval_batch(
        &mut self,
        _ctx: &StreamContext,
        batch: &[Interaction],
        neg_dsts: &[usize],
    ) -> (Vec<f32>, Vec<f32>) {
        let pos = batch
            .iter()
            .map(|e| self.score(e.src, e.dst, e.t))
            .collect();
        let neg = batch
            .iter()
            .zip(neg_dsts)
            .map(|(e, &d)| self.score(e.src, d, e.t))
            .collect();
        self.observe(batch);
        (pos, neg)
    }

    fn score_candidates(
        &mut self,
        _ctx: &StreamContext,
        batch: &[Interaction],
        cand_dsts: &[usize],
        k: usize,
    ) -> (Vec<f32>, Vec<f32>) {
        // Pure reads of the bank — no `observe`, so ranking never advances
        // the memory ahead of `eval_batch`.
        let n = batch.len();
        let pos = batch
            .iter()
            .map(|e| self.score(e.src, e.dst, e.t))
            .collect();
        let cands = (0..n * k)
            .map(|i| {
                let ev = &batch[i % n];
                self.score(ev.src, cand_dsts[i], ev.t)
            })
            .collect();
        (pos, cands)
    }

    fn embed_events(&mut self, _ctx: &StreamContext, batch: &[Interaction]) -> Matrix {
        // EdgeBank has no node representation; expose the source's current
        // out-degree as a 1-dim "embedding" so the NC pipeline still runs.
        let mut m = Matrix::zeros(batch.len(), 1);
        for (r, ev) in batch.iter().enumerate() {
            #[expect(
                clippy::disallowed_methods,
                reason = "a count over keys is order-independent"
            )]
            let deg = self.seen.keys().filter(|(s, _)| *s == ev.src).count();
            m.set(r, 0, deg as f32);
        }
        self.observe(batch);
        m
    }

    fn embed_dim(&self) -> usize {
        1
    }

    fn snapshot(&self) -> Vec<Matrix> {
        Vec::new()
    }

    fn restore(&mut self, _snapshot: &[Matrix]) {}

    fn state_bytes(&self) -> usize {
        self.seen.capacity() * std::mem::size_of::<((usize, usize), f64)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchtemp_graph::generators::GeneratorConfig;
    use benchtemp_graph::paged::NeighborBackend;
    use benchtemp_graph::NeighborFinder;

    fn ctx_graph() -> benchtemp_graph::TemporalGraph {
        GeneratorConfig::small("eb", 51).generate()
    }

    #[test]
    fn scores_repeat_edges_positively() {
        let g = ctx_graph();
        let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
        let ctx = StreamContext {
            graph: &g,
            neighbors: NeighborBackend::Resident(&nf),
        };
        let mut eb = EdgeBank::unlimited();
        // First pass: observe.
        eb.train_batch(&ctx, &g.events[..500], &[]);
        // Second pass over the same events: positives all remembered.
        let negs: Vec<usize> = vec![g.num_nodes - 1; 100];
        let (pos, _) = eb.eval_batch(&ctx, &g.events[..100], &negs);
        assert!(pos.iter().all(|&s| s == 1.0));
    }

    #[test]
    fn unseen_edges_score_zero() {
        let g = ctx_graph();
        let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
        let ctx = StreamContext {
            graph: &g,
            neighbors: NeighborBackend::Resident(&nf),
        };
        let mut eb = EdgeBank::unlimited();
        let negs: Vec<usize> = vec![g.num_nodes - 1; 10];
        let (pos, _) = eb.eval_batch(&ctx, &g.events[..10], &negs);
        // First batch ever: nothing seen before the batch.
        assert_eq!(pos[0], 0.0);
    }

    #[test]
    fn time_window_forgets() {
        let mut eb = EdgeBank::new(EdgeBankVariant::TimeWindow { window: 5.0 });
        eb.seen.insert((1, 2), 10.0);
        assert_eq!(eb.score(1, 2, 12.0), 1.0);
        assert_eq!(eb.score(1, 2, 100.0), 0.0);
    }

    #[test]
    fn reset_clears_memory() {
        let mut eb = EdgeBank::unlimited();
        eb.seen.insert((1, 2), 1.0);
        eb.reset_state();
        assert_eq!(eb.score(1, 2, 5.0), 0.0);
    }

    #[test]
    fn beats_chance_on_recurrent_stream() {
        // On a high-recurrence dataset EdgeBank's AUC must clear 0.5 by a
        // wide margin — the signal the Appendix-J samplers remove.
        let mut cfg = GeneratorConfig::small("eb2", 53);
        cfg.recurrence = 0.8;
        let g = cfg.generate();
        let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
        let ctx = StreamContext {
            graph: &g,
            neighbors: NeighborBackend::Resident(&nf),
        };
        let mut eb = EdgeBank::unlimited();
        let half = g.num_events() / 2;
        eb.train_batch(&ctx, &g.events[..half], &[]);
        let rest = &g.events[half..];
        let negs: Vec<usize> = (0..rest.len())
            .map(|i| g.num_users + (i * 7) % (g.num_nodes - g.num_users))
            .collect();
        let (pos, neg) = eb.eval_batch(&ctx, rest, &negs);
        let auc = benchtemp_core::evaluator::roc_auc_pos_neg(&pos, &neg);
        assert!(auc > 0.65, "EdgeBank AUC {auc} on recurrent stream");
    }
}
