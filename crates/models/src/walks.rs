//! Temporal-walk machinery shared by CAWN and NeurTW: backward temporal
//! walk sampling and the set-based *index anonymization* of causal
//! anonymous walks (Wang et al., ICLR 2021 §3.2).
//!
//! A walk starts at a node at query time and repeatedly steps to a temporal
//! neighbor strictly earlier in time. Anonymization replaces node identity
//! with *position-hit counts* relative to the walk sets of the two endpoint
//! nodes of the candidate edge — the correlation between those count
//! vectors is the motif signal that makes walk-based models strong on
//! inductive (New-New) link prediction.

use std::collections::BTreeMap;

use benchtemp_core::pipeline::StreamContext;
use benchtemp_graph::neighbors::{SampleScratch, SamplingStrategy};
use benchtemp_tensor::init::SeededRng;

/// One backward temporal walk of fixed budget `L` steps; dead ends are
/// padded and masked.
#[derive(Clone, Debug)]
pub struct TemporalWalk {
    /// Visited nodes: `nodes[0]` is the start; length `L+1` (padded).
    pub nodes: Vec<usize>,
    /// Edge times of each hop (`L` entries; padded with the previous time).
    pub hop_times: Vec<f64>,
    /// Edge-feature row of each hop (`L` entries, padded 0).
    pub feat_idx: Vec<usize>,
    /// Validity of each hop.
    pub valid: Vec<bool>,
}

impl TemporalWalk {
    pub fn len_budget(&self) -> usize {
        self.valid.len()
    }

    /// Number of valid hops actually taken.
    pub fn valid_hops(&self) -> usize {
        self.valid.iter().filter(|&&v| v).count()
    }
}

/// Sample `m` backward walks of `l` hops from `start` at time `t`, reusing
/// the caller's scratch. Each hop goes through the scalar `sample_one` fast
/// path, so no per-hop `Vec` is allocated and the RNG stream is identical
/// to a `sample_into(.., k = 1, ..)` loop.
#[allow(clippy::too_many_arguments)]
pub fn sample_walks(
    ctx: &StreamContext,
    start: usize,
    t: f64,
    m: usize,
    l: usize,
    strategy: SamplingStrategy,
    rng: &mut SeededRng,
    scratch: &mut SampleScratch,
) -> Vec<TemporalWalk> {
    (0..m)
        .map(|_| {
            let mut nodes = Vec::with_capacity(l + 1);
            let mut hop_times = Vec::with_capacity(l);
            let mut feat_idx = Vec::with_capacity(l);
            let mut valid = Vec::with_capacity(l);
            nodes.push(start);
            let mut cur = start;
            let mut cur_t = t;
            for _ in 0..l {
                let step = ctx.neighbors.sample_one(cur, cur_t, strategy, rng, scratch);
                match step {
                    Some(ev) => {
                        cur = ev.neighbor;
                        cur_t = ev.t;
                        nodes.push(cur);
                        hop_times.push(ev.t);
                        feat_idx.push(ctx.graph.events[ev.event_idx].feat_idx);
                        valid.push(true);
                    }
                    None => {
                        nodes.push(cur);
                        hop_times.push(cur_t);
                        feat_idx.push(0);
                        valid.push(false);
                    }
                }
            }
            TemporalWalk {
                nodes,
                hop_times,
                feat_idx,
                valid,
            }
        })
        .collect()
}

/// Position-hit counts of a walk set: node → (L+1)-vector of how many walks
/// visit the node at each position. This is the `g(w, S)` function of CAW.
///
/// Returns a `BTreeMap` so iteration emits position features in sorted
/// node order — a `HashMap` here would feed `RandomState`-dependent order
/// into anything that drains it, breaking cross-process bit-identity (the
/// hash-iteration rule in `clippy.toml`; see DESIGN.md §10).
pub fn position_counts(walks: &[TemporalWalk]) -> BTreeMap<usize, Vec<f32>> {
    let mut counts: BTreeMap<usize, Vec<f32>> = BTreeMap::new();
    let budget = walks.first().map(|w| w.len_budget() + 1).unwrap_or(0);
    for w in walks {
        for (pos, &node) in w.nodes.iter().enumerate() {
            // Padded tail repeats the last valid node; only count real hops.
            if pos > 0 && !w.valid[pos - 1] {
                continue;
            }
            counts.entry(node).or_insert_with(|| vec![0.0; budget])[pos] += 1.0;
        }
    }
    counts
}

/// Anonymized encoding of one node occurrence relative to a pair of walk
/// sets: `[g(w, S_a) ; g(w, S_b)] / m` — dimension `2(L+1)`.
pub fn anonymize(
    node: usize,
    counts_a: &BTreeMap<usize, Vec<f32>>,
    counts_b: &BTreeMap<usize, Vec<f32>>,
    l: usize,
    m: usize,
) -> Vec<f32> {
    let mut enc = Vec::with_capacity(2 * (l + 1));
    let inv = 1.0 / m.max(1) as f32;
    for counts in [counts_a, counts_b] {
        match counts.get(&node) {
            Some(v) => enc.extend(v.iter().map(|&c| c * inv)),
            None => enc.extend(std::iter::repeat_n(0.0, l + 1)),
        }
    }
    enc
}

/// The anonymized-walk encoding dimension for walk length `l`.
pub fn anon_dim(l: usize) -> usize {
    2 * (l + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchtemp_graph::generators::GeneratorConfig;
    use benchtemp_graph::paged::NeighborBackend;
    use benchtemp_graph::NeighborFinder;
    use benchtemp_tensor::init;

    fn setup() -> (benchtemp_graph::TemporalGraph, NeighborFinder) {
        let g = GeneratorConfig::small("walks", 71).generate();
        let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
        (g, nf)
    }

    #[test]
    fn walks_go_backward_in_time() {
        let (g, nf) = setup();
        let ctx = StreamContext {
            graph: &g,
            neighbors: NeighborBackend::Resident(&nf),
        };
        let mut rng = init::rng(1);
        let mut scratch = SampleScratch::new();
        let start = g.events.last().unwrap().src;
        let walks = sample_walks(
            &ctx,
            start,
            900.0,
            8,
            3,
            SamplingStrategy::Uniform,
            &mut rng,
            &mut scratch,
        );
        assert_eq!(walks.len(), 8);
        for w in &walks {
            assert_eq!(w.nodes[0], start);
            let mut prev = 900.0;
            for (i, &ht) in w.hop_times.iter().enumerate() {
                if w.valid[i] {
                    assert!(ht < prev, "hop times must strictly decrease");
                    prev = ht;
                }
            }
        }
    }

    #[test]
    fn dead_end_walks_are_masked() {
        let (g, nf) = setup();
        let ctx = StreamContext {
            graph: &g,
            neighbors: NeighborBackend::Resident(&nf),
        };
        let mut rng = init::rng(2);
        let mut scratch = SampleScratch::new();
        // t=0: no history anywhere → every hop invalid.
        let walks = sample_walks(
            &ctx,
            0,
            0.0,
            3,
            2,
            SamplingStrategy::Uniform,
            &mut rng,
            &mut scratch,
        );
        for w in &walks {
            assert!(w.valid.iter().all(|&v| !v));
            assert_eq!(w.valid_hops(), 0);
        }
    }

    #[test]
    fn position_counts_sum_to_walk_count_at_position_zero() {
        let (g, nf) = setup();
        let ctx = StreamContext {
            graph: &g,
            neighbors: NeighborBackend::Resident(&nf),
        };
        let mut rng = init::rng(3);
        let mut scratch = SampleScratch::new();
        let start = g.events.last().unwrap().src;
        let walks = sample_walks(
            &ctx,
            start,
            900.0,
            6,
            2,
            SamplingStrategy::Uniform,
            &mut rng,
            &mut scratch,
        );
        let counts = position_counts(&walks);
        // The start node is at position 0 of every walk.
        assert_eq!(counts[&start][0], 6.0);
        // Total hits at position 1 equals the number of walks with a valid first hop.
        let hits_p1: f32 = counts.values().map(|v| v[1]).sum();
        let valid1 = walks.iter().filter(|w| w.valid[0]).count();
        assert_eq!(hits_p1, valid1 as f32);
    }

    #[test]
    fn anonymize_is_identity_blind() {
        // Two different start nodes with identical walk shapes produce the
        // same encodings — the whole point of anonymization.
        let mut w1 = TemporalWalk {
            nodes: vec![5, 7, 5],
            hop_times: vec![2.0, 1.0],
            feat_idx: vec![0, 0],
            valid: vec![true, true],
        };
        let w2 = TemporalWalk {
            nodes: vec![100, 200, 100],
            hop_times: vec![2.0, 1.0],
            feat_idx: vec![0, 0],
            valid: vec![true, true],
        };
        let c1 = position_counts(std::slice::from_ref(&w1));
        let c2 = position_counts(std::slice::from_ref(&w2));
        let e1 = anonymize(5, &c1, &c1, 2, 1);
        let e2 = anonymize(100, &c2, &c2, 2, 1);
        assert_eq!(e1, e2);
        w1.nodes[1] = 5; // different shape now
        let c1b = position_counts(&[w1]);
        assert_ne!(anonymize(5, &c1b, &c1b, 2, 1), e1);
    }

    #[test]
    fn anonymize_unknown_node_is_zero_vector() {
        let counts = BTreeMap::new();
        let enc = anonymize(42, &counts, &counts, 2, 4);
        assert_eq!(enc, vec![0.0; 6]);
        assert_eq!(enc.len(), anon_dim(2));
    }

    #[test]
    fn joint_neighborhood_signal_exists() {
        // For a true edge (u, v), u should appear in v's walk-set counts (or
        // vice versa) far more often than for a random negative — the motif
        // signal CAWN exploits. Statistical check over many events.
        let (g, nf) = setup();
        let ctx = StreamContext {
            graph: &g,
            neighbors: NeighborBackend::Resident(&nf),
        };
        let mut rng = init::rng(4);
        let mut scratch = SampleScratch::new();
        let mut pos_overlap = 0usize;
        let mut neg_overlap = 0usize;
        let events = &g.events[g.num_events() - 300..];
        for ev in events {
            let wu = sample_walks(
                &ctx,
                ev.src,
                ev.t,
                6,
                2,
                SamplingStrategy::Uniform,
                &mut rng,
                &mut scratch,
            );
            let wv = sample_walks(
                &ctx,
                ev.dst,
                ev.t,
                6,
                2,
                SamplingStrategy::Uniform,
                &mut rng,
                &mut scratch,
            );
            let cu = position_counts(&wu);
            let cv = position_counts(&wv);
            let joint = cu.keys().filter(|k| cv.contains_key(k)).count();
            if joint > 0 {
                pos_overlap += 1;
            }
            let neg = (ev.dst + 13) % (g.num_nodes - g.num_users) + g.num_users;
            let wn = sample_walks(
                &ctx,
                neg,
                ev.t,
                6,
                2,
                SamplingStrategy::Uniform,
                &mut rng,
                &mut scratch,
            );
            let cn = position_counts(&wn);
            if cu.keys().any(|k| cn.contains_key(k)) {
                neg_overlap += 1;
            }
        }
        assert!(
            pos_overlap > neg_overlap,
            "walk overlap should separate positives ({pos_overlap}) from negatives ({neg_overlap})"
        );
    }
}
