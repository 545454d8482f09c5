//! Ranking metrics beyond AUC/AP: MRR and Hits@K against multiple
//! negatives per positive edge.
//!
//! The paper's Evaluator reports AUC and AP; the community benchmarks it
//! discusses in Related Work (TGB-style evaluation, and the EdgeBank paper,
//! reference \[8\]) rank each positive edge against a *set* of negatives. These
//! metrics make saturation visible (Appendix J's motivation) and are used
//! by the filtered-negative ranking harness (DESIGN.md §14).
//!
//! ## Tie policy
//!
//! Ranks are **pessimistic**: `rank = 1 + #better + #tied`, i.e. every
//! negative that exactly ties the positive counts *against* it. The older
//! midpoint convention (`1 + #better + #tied/2`) produced fractional ranks,
//! which made Hits@1 unreachable whenever a single negative tied the
//! positive (rank 1.5) and disagreed with TGB's integer-rank convention.
//! Pessimistic ranks are integers, conservative (a model that scores
//! everything identically — EdgeBank on all-seen candidates — ranks last,
//! not in the middle), and the same policy applies to MRR and every Hits@K.

/// Ranking metrics for one evaluation pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct RankingMetrics {
    /// Mean reciprocal rank of the positive among its negatives.
    pub mrr: f64,
    pub hits_at_1: f64,
    pub hits_at_3: f64,
    pub hits_at_10: f64,
    pub num_queries: usize,
    /// Negatives each positive was ranked against: the requested K, or
    /// fewer where the filtered pool is smaller (the per-dataset clamp).
    pub k_effective: usize,
}

/// Pessimistic rank of `p` against its negatives: `1 + #better + #tied`.
/// NaN scores never compare greater or equal, so a NaN negative can only
/// *improve* the positive's rank — callers are expected to keep scores
/// finite (the pipeline debug-asserts this upstream).
#[inline]
fn pessimistic_rank(p: f32, negs: &[f32]) -> f64 {
    let mut better = 0usize;
    let mut tied = 0usize;
    for &n in negs {
        if n > p {
            better += 1;
        } else if n == p {
            tied += 1;
        }
    }
    1.0 + better as f64 + tied as f64
}

struct Accum {
    mrr: f64,
    h1: usize,
    h3: usize,
    h10: usize,
    n: usize,
}

impl Accum {
    fn new() -> Self {
        Accum {
            mrr: 0.0,
            h1: 0,
            h3: 0,
            h10: 0,
            n: 0,
        }
    }

    fn push(&mut self, rank: f64) {
        self.mrr += 1.0 / rank;
        if rank <= 1.0 {
            self.h1 += 1;
        }
        if rank <= 3.0 {
            self.h3 += 1;
        }
        if rank <= 10.0 {
            self.h10 += 1;
        }
        self.n += 1;
    }

    fn finish(self, k_effective: usize) -> RankingMetrics {
        if self.n == 0 {
            return RankingMetrics {
                k_effective,
                ..RankingMetrics::default()
            };
        }
        let n = self.n as f64;
        RankingMetrics {
            mrr: self.mrr / n,
            hits_at_1: self.h1 as f64 / n,
            hits_at_3: self.h3 as f64 / n,
            hits_at_10: self.h10 as f64 / n,
            num_queries: self.n,
            k_effective,
        }
    }
}

/// Compute MRR / Hits@K. `pos[i]` is the positive edge's score;
/// `negs[i]` are the scores of that query's negative candidates
/// (`k_effective` is the smallest set's size). Ties are pessimistic — see
/// the module docs.
pub fn ranking_metrics(pos: &[f32], negs: &[Vec<f32>]) -> RankingMetrics {
    assert_eq!(pos.len(), negs.len(), "one negative set per positive");
    let mut acc = Accum::new();
    for (&p, neg) in pos.iter().zip(negs) {
        acc.push(pessimistic_rank(p, neg));
    }
    acc.finish(negs.iter().map(Vec::len).min().unwrap_or(0))
}

/// Flat-layout variant used by the scoring pipeline: `cands` holds `k`
/// candidate scores per query in query-major layout (`cands[i * k + j]` is
/// the j-th candidate of query i). `mask[i]` selects which queries
/// participate (pass `None` for all — the four evaluation settings are
/// membership masks over one scored stream). Same pessimistic tie policy
/// as [`ranking_metrics`].
pub fn ranking_metrics_flat(
    pos: &[f32],
    cands: &[f32],
    k: usize,
    mask: Option<&[bool]>,
) -> RankingMetrics {
    let n = pos.len();
    assert_eq!(cands.len(), n * k, "expected k candidate scores per query");
    if let Some(m) = mask {
        assert_eq!(m.len(), n, "mask length must match query count");
    }
    let mut acc = Accum::new();
    for (i, &p) in pos.iter().enumerate() {
        if let Some(m) = mask {
            if !m[i] {
                continue;
            }
        }
        acc.push(pessimistic_rank(p, &cands[i * k..(i + 1) * k]));
    }
    acc.finish(k)
}

impl benchtemp_util::ToJson for RankingMetrics {
    /// With no ranked query the MRR and Hits@K are written as `null`;
    /// `num_queries` and `k_effective` stay.
    fn to_json(&self) -> benchtemp_util::Json {
        let ranked = |v: f64| (self.num_queries > 0).then_some(v);
        benchtemp_util::json!({
            "mrr": ranked(self.mrr),
            "hits_at_1": ranked(self.hits_at_1),
            "hits_at_3": ranked(self.hits_at_3),
            "hits_at_10": ranked(self.hits_at_10),
            "num_queries": self.num_queries,
            "k_effective": self.k_effective,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_ranking() {
        let pos = [0.9f32, 0.8];
        let negs = vec![vec![0.1, 0.2, 0.3], vec![0.0, 0.1]];
        let m = ranking_metrics(&pos, &negs);
        assert_eq!(m.mrr, 1.0);
        assert_eq!(m.hits_at_1, 1.0);
        assert_eq!(m.num_queries, 2);
    }

    #[test]
    fn worst_ranking() {
        let pos = [0.0f32];
        let negs = vec![vec![1.0; 9]];
        let m = ranking_metrics(&pos, &negs);
        assert!((m.mrr - 0.1).abs() < 1e-12); // rank 10
        assert_eq!(m.hits_at_1, 0.0);
        assert_eq!(m.hits_at_3, 0.0);
        assert_eq!(m.hits_at_10, 1.0);
    }

    #[test]
    fn hand_computed_mixed_ranks() {
        // q0: one better, none tied → rank 2 → rr 0.5, hits@3 yes.
        // q1: none better → rank 1 → rr 1.0.
        let pos = [0.5f32, 0.9];
        let negs = vec![vec![0.7, 0.1], vec![0.2, 0.3]];
        let m = ranking_metrics(&pos, &negs);
        assert!((m.mrr - 0.75).abs() < 1e-12);
        assert_eq!(m.hits_at_1, 0.5);
        assert_eq!(m.hits_at_3, 1.0);
    }

    #[test]
    fn ties_are_pessimistic() {
        // Two exact ties → rank = 1 + 0 + 2 = 3 (the midpoint convention
        // would say 2; the pre-fix code returned mrr 0.5 here).
        let pos = [0.5f32];
        let negs = vec![vec![0.5, 0.5]];
        let m = ranking_metrics(&pos, &negs);
        assert!((m.mrr - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.hits_at_1, 0.0);
        assert_eq!(m.hits_at_3, 1.0);
    }

    /// The tie grid that pins the policy: every combination of
    /// (#better, #tied) over a small grid must produce the integer rank
    /// `1 + better + tied`, identically for MRR and Hits@K thresholds.
    #[test]
    fn tie_grid_pins_policy() {
        for better in 0..4usize {
            for tied in 0..4usize {
                let p = 0.5f32;
                let mut negs = vec![0.9f32; better];
                negs.extend(std::iter::repeat_n(0.5f32, tied));
                negs.extend(std::iter::repeat_n(0.1f32, 5)); // worse, irrelevant
                let m = ranking_metrics(&[p], &[negs]);
                let rank = (1 + better + tied) as f64;
                assert!(
                    (m.mrr - 1.0 / rank).abs() < 1e-12,
                    "better={better} tied={tied}: mrr {} != 1/{rank}",
                    m.mrr
                );
                assert_eq!(m.hits_at_1, if rank <= 1.0 { 1.0 } else { 0.0 });
                assert_eq!(m.hits_at_3, if rank <= 3.0 { 1.0 } else { 0.0 });
                assert_eq!(m.hits_at_10, if rank <= 10.0 { 1.0 } else { 0.0 });
            }
        }
    }

    /// A single exact tie must leave Hits@1 reachable-but-missed (rank 2),
    /// not a fractional 1.5 — the bug the pessimistic policy fixes.
    #[test]
    fn single_tie_yields_integer_rank_two() {
        let m = ranking_metrics(&[0.5f32], &[vec![0.5f32]]);
        assert!((m.mrr - 0.5).abs() < 1e-12);
        assert_eq!(m.hits_at_1, 0.0);
        assert_eq!(m.hits_at_3, 1.0);
    }

    #[test]
    fn flat_layout_matches_nested() {
        let pos = [0.5f32, 0.9, 0.2];
        let negs = vec![vec![0.7, 0.1], vec![0.2, 0.3], vec![0.2, 0.2]];
        let nested = ranking_metrics(&pos, &negs);
        // Query-major layout: cands[i * k + j].
        let flat: Vec<f32> = negs.iter().flatten().copied().collect();
        let f = ranking_metrics_flat(&pos, &flat, 2, None);
        assert_eq!(nested.mrr, f.mrr);
        assert_eq!(nested.hits_at_1, f.hits_at_1);
        assert_eq!(nested.hits_at_3, f.hits_at_3);
        assert_eq!(nested.num_queries, f.num_queries);
        assert_eq!((nested.k_effective, f.k_effective), (2, 2));
    }

    #[test]
    fn flat_mask_selects_queries() {
        let pos = [0.9f32, 0.1];
        // Query 0 ranks 1; query 1 ranks 3 (two better negatives).
        let flat = vec![0.2f32, 0.3, 0.5, 0.5];
        let all = ranking_metrics_flat(&pos, &flat, 2, None);
        assert_eq!(all.num_queries, 2);
        let only0 = ranking_metrics_flat(&pos, &flat, 2, Some(&[true, false]));
        assert_eq!(only0.num_queries, 1);
        assert_eq!(only0.mrr, 1.0);
        let only1 = ranking_metrics_flat(&pos, &flat, 2, Some(&[false, true]));
        assert_eq!(only1.num_queries, 1);
        assert!((only1.mrr - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_input_is_default() {
        let m = ranking_metrics(&[], &[]);
        assert_eq!(m.num_queries, 0);
        assert_eq!(m.mrr, 0.0);
    }

    #[test]
    fn json_has_no_metric_without_queries() {
        use benchtemp_util::{Json, ToJson};
        let (pos, flat) = ([0.9f32], [0.2f32, 0.3]);
        let empty = ranking_metrics_flat(&pos, &flat, 2, Some(&[false])).to_json();
        let ranked = ranking_metrics_flat(&pos, &flat, 2, None).to_json();
        for key in ["mrr", "hits_at_1", "hits_at_3", "hits_at_10"] {
            assert!(empty.get(key).is_some_and(Json::is_null), "empty {key}");
            assert_eq!(ranked.get(key).and_then(Json::as_f64), Some(1.0), "{key}");
        }
        for (json, n) in [(&empty, 0), (&ranked, 1)] {
            assert_eq!(json.get("num_queries").and_then(Json::as_usize), Some(n));
            assert_eq!(json.get("k_effective").and_then(Json::as_usize), Some(2));
        }
    }

    #[test]
    #[should_panic(expected = "one negative set per positive")]
    fn mismatched_lengths_panic() {
        let _ = ranking_metrics(&[0.5], &[]);
    }
}
