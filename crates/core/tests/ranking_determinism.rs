//! Determinism suite for the filtered-negative ranking path (DESIGN.md §14).
//!
//! Two contracts, both witnessed by a digest of exact bit patterns from
//! `benchtemp_util::child` processes (1 thread, 4 threads, 4 threads +
//! sanitize — every comparison is therefore also a *cross-process*
//! comparison, the reproducibility bar for published leaderboard numbers):
//!
//! 1. `FilteredNegativeSet` is a pure function of (graph, split, strategy,
//!    k, seed): identical digests at any thread count, in any process.
//! 2. MRR/Hits@K flow through the pipeline without absorbing thread-count
//!    noise: the full ranking metric set is bit-identical in every arm,
//!    and enabling ranking leaves AUC/AP bits untouched.

mod common;

use benchtemp_core::dataloader::LinkPredSplit;
use benchtemp_core::pipeline::{train_link_prediction, TrainConfig};
use benchtemp_core::{FilteredNegativeSet, NegativeStrategy};
use benchtemp_graph::generators::GeneratorConfig;
use benchtemp_util::child::{self, Fnv1a};
use common::{MlpEdgeModel, NODE_DIM};

fn fixture() -> (
    benchtemp_graph::temporal_graph::TemporalGraph,
    LinkPredSplit,
) {
    let mut cfg = GeneratorConfig::small("rank-det", 29);
    cfg.num_edges = 1200;
    cfg.node_dim = NODE_DIM;
    let graph = cfg.generate();
    let split = LinkPredSplit::new(&graph, 7);
    (graph, split)
}

/// Digest of the candidate sets for all three pools, then the full
/// ranking metric bits from a trained pipeline run.
fn ranking_digest() -> u64 {
    let (graph, split) = fixture();

    let mut h = Fnv1a::new();
    for strategy in [
        NegativeStrategy::Random,
        NegativeStrategy::Historical,
        NegativeStrategy::Inductive,
    ] {
        let set = FilteredNegativeSet::build(&graph, &split.train, &split.test, strategy, 10, 99);
        h.write_u64(set.digest());
    }

    let cfg = TrainConfig {
        max_epochs: 3,
        rank_negatives: 10,
        ..TrainConfig::default()
    };
    let mut model = MlpEdgeModel::new(3);
    let run = train_link_prediction(&mut model, &graph, &split, &cfg);
    for m in [run.transductive, run.inductive, run.new_old, run.new_new] {
        h.write_f64(m.auc);
        h.write_f64(m.ap);
        let r = m.ranking.expect("rank_negatives > 0 must produce ranking");
        for v in [r.mrr, r.hits_at_1, r.hits_at_3, r.hits_at_10] {
            h.write_f64(v);
        }
        h.write_u64(m.n_edges as u64);
    }
    h.finish()
}

/// Child-process worker; a no-op unless spawned by the driver below.
#[test]
fn ranking_child_worker() {
    if child::is_child() {
        child::report(format!("{:016x}", ranking_digest()));
    }
}

/// Contracts 1 + 2: digests and ranking metrics are bit-identical across
/// thread counts and the sanitizer, compared across three processes —
/// cross-process stability, not just agreement within one process.
#[test]
fn ranking_bits_identical_across_threads_and_processes() {
    child::assert_bit_identical(&["ranking_child_worker", "--exact", "--nocapture"]);
}

/// Enabling the ranking pass must not perturb AUC/AP: candidate scoring
/// runs on an isolated RNG and mutates no model state, so the paired
/// AUC/AP bits with `rank_negatives = 10` match a run with ranking off.
#[test]
fn enabling_ranking_leaves_auc_ap_bits_untouched() {
    let (graph, split) = fixture();
    let run_with = |rank_negatives: usize| {
        let cfg = TrainConfig {
            max_epochs: 3,
            rank_negatives,
            ..TrainConfig::default()
        };
        let mut model = MlpEdgeModel::new(3);
        train_link_prediction(&mut model, &graph, &split, &cfg)
    };
    let off = run_with(0);
    let on = run_with(10);
    for (a, b) in [
        (&off.transductive, &on.transductive),
        (&off.inductive, &on.inductive),
        (&off.new_old, &on.new_old),
        (&off.new_new, &on.new_new),
    ] {
        assert_eq!(a.auc.to_bits(), b.auc.to_bits(), "ranking perturbed AUC");
        assert_eq!(a.ap.to_bits(), b.ap.to_bits(), "ranking perturbed AP");
        assert!(a.ranking.is_none() && b.ranking.is_some());
    }
    assert_eq!(
        off.epoch_losses, on.epoch_losses,
        "ranking perturbed training"
    );
}
