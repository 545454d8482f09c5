//! Filtered negative candidate sets for ranking evaluation (DESIGN.md §14).
//!
//! TGB-style MRR/Hits@K evaluation ranks each positive edge against K
//! negative destinations. The candidate sets are *filtered* — a sampled
//! destination that forms a true edge with the query's source at the
//! query's exact timestamp is a collision, not a negative, and is rejected
//! — and *precomputed once per split*, so every model ranks against the
//! identical candidates and results are comparable across the zoo.
//!
//! Small datasets cannot always supply K valid negatives per query. Then
//! every query gets `k_effective` candidates, the smallest valid pool over
//! the queries — the per-dataset clamp TGB (arxiv 2307.01026) permits —
//! and ranking reports `k_effective` beside MRR so results stay comparable.
//!
//! Determinism: each query draws from its own RNG stream seeded by a pure
//! function of `(builder seed, query index, src, dst, t)` — the same
//! per-root stream-seed pattern the neighbor sampler uses — so the sets
//! are bit-identical at any `BENCHTEMP_THREADS` and across processes. The
//! [`FilteredNegativeSet::digest`] FNV-1a hash pins this in tests and in
//! the kernel bench.

use benchtemp_graph::temporal_graph::{Interaction, TemporalGraph};
use benchtemp_tensor::init;
use benchtemp_util::Fnv1a;

use crate::sampler::{candidate_pool, destination_range, NegativeStrategy};

/// Precomputed K-negative candidate sets for one event stream.
#[derive(Clone, Debug)]
pub struct FilteredNegativeSet {
    /// Negatives per query: `k_effective`, the requested k clamped to the
    /// smallest valid pool over the queries.
    pub k: usize,
    /// Number of queries (events) the set covers.
    n: usize,
    /// Row-major candidate ids: `candidates[q * k + j]` is the j-th
    /// negative destination of query `q`.
    candidates: Vec<usize>,
}

/// SplitMix64 finalizer — the per-query seed mixer. Pure function of its
/// inputs, so candidate sets never depend on iteration order or thread
/// count.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn query_seed(seed: u64, q: usize, ev: &Interaction) -> u64 {
    let mut s = mix(seed ^ 0xf117_e4ed_5e75_0001);
    s = mix(s ^ q as u64);
    s = mix(s ^ ev.src as u64);
    s = mix(s ^ ev.dst as u64);
    mix(s ^ ev.t.to_bits())
}

/// Sorted index of true edges keyed by `(src, t)` — the collision filter.
/// A sorted Vec + binary search keeps lookups deterministic and cheap
/// without hashing in the build loop.
struct TrueEdgeIndex {
    /// Sorted `(src, t_bits, dst)` triples over the whole graph.
    edges: Vec<(usize, u64, usize)>,
}

impl TrueEdgeIndex {
    fn build(graph: &TemporalGraph) -> Self {
        let mut edges: Vec<(usize, u64, usize)> = graph
            .events
            .iter()
            .map(|e| (e.src, e.t.to_bits(), e.dst))
            .collect();
        edges.sort_unstable();
        edges.dedup();
        TrueEdgeIndex { edges }
    }

    /// Whether `(src → dst)` is a true edge at exactly time `t`.
    fn collides(&self, src: usize, t_bits: u64, dst: usize) -> bool {
        self.edges.binary_search(&(src, t_bits, dst)).is_ok()
    }
}

/// A ranking pass that cannot run: some query has no valid negative at all
/// after filtering, so `k_effective` would be 0.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankingError {
    pub dataset: String,
    pub query: usize,
    pub strategy: NegativeStrategy,
}

impl std::fmt::Display for RankingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "filtered negatives for '{}': query {} has no valid candidate in the {:?} pool",
            self.dataset, self.query, self.strategy
        )
    }
}

impl std::error::Error for RankingError {}

impl FilteredNegativeSet {
    /// [`Self::try_build`] for callers that treat an empty pool as a
    /// configuration error. Panics with the [`RankingError`].
    pub fn build(
        graph: &TemporalGraph,
        train: &[Interaction],
        events: &[Interaction],
        strategy: NegativeStrategy,
        k: usize,
        seed: u64,
    ) -> Self {
        Self::try_build(graph, train, events, strategy, k, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build candidate sets for `events`. `train` feeds the
    /// Historical/Inductive pools (same pools as [`crate::EdgeSampler`]);
    /// the collision filter always consults the *full* graph.
    ///
    /// Every row is drawn as for the full `k`, then all rows are truncated
    /// to `k_effective`, the fewest valid candidates any query has (at most
    /// `k`). A truncated row is a prefix of its full draw, so it stays
    /// valid, distinct and deterministic, and a set whose pool supplies `k`
    /// to every query is bit-identical to an unclamped one. Fails with
    /// [`RankingError`] when some query has no valid candidate at all.
    pub fn try_build(
        graph: &TemporalGraph,
        train: &[Interaction],
        events: &[Interaction],
        strategy: NegativeStrategy,
        k: usize,
        seed: u64,
    ) -> Result<Self, RankingError> {
        assert!(k > 0, "filtered negative sets need k >= 1");
        let (dst_lo, dst_hi) = destination_range(graph);
        let pool = candidate_pool(graph, train, strategy);
        let index = TrueEdgeIndex::build(graph);
        let domain = dst_hi - dst_lo;
        let pool_len = if pool.is_empty() { domain } else { pool.len() };

        let mut candidates = Vec::with_capacity(events.len() * k);
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        let mut k_effective = k;
        for (q, ev) in events.iter().enumerate() {
            let t_bits = ev.t.to_bits();
            let mut rng = init::rng(query_seed(seed, q, ev));
            chosen.clear();
            let valid = |cand: usize, chosen: &[usize]| {
                cand != ev.dst && !index.collides(ev.src, t_bits, cand) && !chosen.contains(&cand)
            };
            // Rejection sampling: bounded attempts keep pathological pools
            // from spinning; the deterministic sweep below finishes the set.
            let mut attempts = 0usize;
            let max_attempts = 32 * k;
            while chosen.len() < k && attempts < max_attempts {
                attempts += 1;
                let cand = if pool.is_empty() {
                    dst_lo + rng.gen_range(0..domain)
                } else {
                    pool[rng.gen_range(0..pool.len())]
                };
                if valid(cand, &chosen) {
                    chosen.push(cand);
                }
            }
            if chosen.len() < k {
                // Deterministic fallback: sweep the candidate universe from
                // an RNG-derived offset, taking the first valid entries.
                let start = rng.gen_range(0..pool_len);
                for step in 0..pool_len {
                    let idx = (start + step) % pool_len;
                    let cand = if pool.is_empty() {
                        dst_lo + idx
                    } else {
                        pool[idx]
                    };
                    if valid(cand, &chosen) {
                        chosen.push(cand);
                        if chosen.len() == k {
                            break;
                        }
                    }
                }
            }
            if chosen.is_empty() {
                return Err(RankingError {
                    dataset: graph.name.clone(),
                    query: q,
                    strategy,
                });
            }
            k_effective = k_effective.min(chosen.len());
            candidates.extend_from_slice(&chosen);
            candidates.resize((q + 1) * k, 0);
        }
        if k_effective < k {
            candidates = candidates
                .chunks_exact(k)
                .flat_map(|row| &row[..k_effective])
                .copied()
                .collect();
        }
        Ok(FilteredNegativeSet {
            k: k_effective,
            n: events.len(),
            candidates,
        })
    }

    /// Number of queries covered.
    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The K candidate destinations of query `q`.
    pub fn query(&self, q: usize) -> &[usize] {
        &self.candidates[q * self.k..(q + 1) * self.k]
    }

    /// Candidate ids for the query window `[start, start+len)` in *block*
    /// layout: `out[j * len + i]` is the j-th candidate of query
    /// `start + i` — the layout the batched scoring path consumes (source
    /// embeddings are reused across the K candidate blocks).
    pub fn block(&self, start: usize, len: usize) -> Vec<usize> {
        assert!(start + len <= self.n, "block window out of range");
        let mut out = vec![0usize; len * self.k];
        for i in 0..len {
            let row = self.query(start + i);
            for (j, &c) in row.iter().enumerate() {
                out[j * len + i] = c;
            }
        }
        out
    }

    /// FNV-1a digest over the full candidate layout — the cross-thread /
    /// cross-process determinism witness.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.k as u64);
        h.write_u64(self.n as u64);
        for &c in &self.candidates {
            h.write_u64(c as u64);
        }
        h.finish()
    }

    /// Heap bytes held (efficiency accounting).
    pub fn heap_bytes(&self) -> usize {
        self.candidates.capacity() * std::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchtemp_graph::generators::GeneratorConfig;

    fn graph() -> TemporalGraph {
        GeneratorConfig::small("filtneg", 41).generate()
    }

    #[test]
    fn sets_have_k_distinct_valid_candidates() {
        let g = graph();
        let train = &g.events[..g.num_events() / 2];
        let s = FilteredNegativeSet::build(
            &g,
            train,
            &g.events[800..900],
            NegativeStrategy::Random,
            20,
            7,
        );
        assert_eq!(s.len(), 100);
        for (q, ev) in g.events[800..900].iter().enumerate() {
            let cands = s.query(q);
            assert_eq!(cands.len(), 20);
            let mut uniq: Vec<usize> = cands.to_vec();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), 20, "duplicates in query {q}");
            assert!(!cands.contains(&ev.dst), "true dst leaked into query {q}");
        }
    }

    #[test]
    fn collisions_at_query_timestamp_are_filtered() {
        let g = graph();
        // For every query, no candidate may be a true edge of (src, t).
        let s = FilteredNegativeSet::build(
            &g,
            &g.events,
            &g.events[..300],
            NegativeStrategy::Random,
            15,
            3,
        );
        for (q, ev) in g.events[..300].iter().enumerate() {
            for &c in s.query(q) {
                let collides = g
                    .events
                    .iter()
                    .any(|e| e.src == ev.src && e.t == ev.t && e.dst == c);
                assert!(
                    !collides,
                    "query {q}: candidate {c} is a true edge at t={}",
                    ev.t
                );
            }
        }
    }

    #[test]
    fn historical_candidates_come_from_training_pool() {
        let g = graph();
        let train = &g.events[..g.num_events() / 2];
        let pool: std::collections::HashSet<usize> = train.iter().map(|e| e.dst).collect();
        let s = FilteredNegativeSet::build(
            &g,
            train,
            &g.events[900..1000],
            NegativeStrategy::Historical,
            10,
            5,
        );
        for q in 0..s.len() {
            for &c in s.query(q) {
                assert!(pool.contains(&c));
            }
        }
    }

    #[test]
    fn bipartite_candidates_stay_in_item_range() {
        let g = graph();
        assert!(g.bipartite);
        let s = FilteredNegativeSet::build(
            &g,
            &g.events,
            &g.events[..200],
            NegativeStrategy::Random,
            12,
            9,
        );
        for q in 0..s.len() {
            for &c in s.query(q) {
                assert!(c >= g.num_users && c < g.num_nodes);
            }
        }
    }

    #[test]
    fn build_is_seed_deterministic_and_seed_sensitive() {
        let g = graph();
        let a = FilteredNegativeSet::build(
            &g,
            &g.events,
            &g.events[..100],
            NegativeStrategy::Random,
            10,
            1,
        );
        let b = FilteredNegativeSet::build(
            &g,
            &g.events,
            &g.events[..100],
            NegativeStrategy::Random,
            10,
            1,
        );
        let c = FilteredNegativeSet::build(
            &g,
            &g.events,
            &g.events[..100],
            NegativeStrategy::Random,
            10,
            2,
        );
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn per_query_seeding_ignores_window_position() {
        // Building over a window is NOT required to match a sub-window
        // (query index feeds the seed), but the same window twice must
        // match element-wise, and digests must reflect content.
        let g = graph();
        let a = FilteredNegativeSet::build(
            &g,
            &g.events,
            &g.events[50..80],
            NegativeStrategy::Random,
            8,
            11,
        );
        let b = FilteredNegativeSet::build(
            &g,
            &g.events,
            &g.events[50..80],
            NegativeStrategy::Random,
            8,
            11,
        );
        for q in 0..a.len() {
            assert_eq!(a.query(q), b.query(q));
        }
    }

    #[test]
    fn block_layout_transposes_queries() {
        let g = graph();
        let s = FilteredNegativeSet::build(
            &g,
            &g.events,
            &g.events[..10],
            NegativeStrategy::Random,
            4,
            13,
        );
        let block = s.block(2, 5);
        assert_eq!(block.len(), 20);
        for i in 0..5 {
            for j in 0..4 {
                assert_eq!(block[j * 5 + i], s.query(2 + i)[j]);
            }
        }
    }

    #[test]
    fn oversized_k_is_clamped_to_the_smallest_pool() {
        let g = graph();
        // More negatives than the item universe can supply.
        let k = g.num_nodes + 5;
        let events = &g.events[..5];
        let s =
            FilteredNegativeSet::try_build(&g, &g.events, events, NegativeStrategy::Random, k, 1)
                .unwrap();
        // Each query can use every item except its true destination and
        // the true edges at its timestamp; the set keeps the fewest.
        let valid = |ev: &Interaction| {
            (g.num_users..g.num_nodes)
                .filter(|&c| {
                    c != ev.dst
                        && !g
                            .events
                            .iter()
                            .any(|e| e.src == ev.src && e.t == ev.t && e.dst == c)
                })
                .count()
        };
        assert_eq!(s.k, events.iter().map(valid).min().unwrap());
        for (q, ev) in events.iter().enumerate() {
            let mut row = s.query(q).to_vec();
            assert!(!row.contains(&ev.dst));
            row.sort_unstable();
            row.dedup();
            assert_eq!(row.len(), s.k, "duplicates in query {q}");
        }
    }

    #[test]
    fn pool_with_no_valid_candidate_is_a_typed_error() {
        let g = graph();
        // The Historical pool of a one-event train set is that event's
        // destination, which can never be its own negative.
        let one = &g.events[..1];
        let err = FilteredNegativeSet::try_build(&g, one, one, NegativeStrategy::Historical, 5, 1)
            .unwrap_err();
        assert_eq!(err.query, 0);
        assert_eq!(err.strategy, NegativeStrategy::Historical);
    }
}
