//! Thread-count determinism suite: the runtime contract says the same seed
//! produces bit-identical metrics at any `BENCHTEMP_THREADS` setting, and
//! arming the sanitizer (`BENCHTEMP_SANITIZE=1`) — which only *checks* slot
//! claims and tape accounting, never reorders work — changes no bit either.
//!
//! The worker trains a small model through the full link-prediction
//! pipeline (big enough to cross the parallel matmul threshold) and digests
//! the exact bit pattern of every metric; `benchtemp_util::child` runs it
//! at 1 thread, 4 threads and 4 threads + sanitize, one process each.

mod common;

use benchtemp_core::dataloader::LinkPredSplit;
use benchtemp_core::pipeline::{train_link_prediction, TrainConfig};
use benchtemp_graph::generators::GeneratorConfig;
use benchtemp_util::child::{self, Fnv1a};
use common::{MlpEdgeModel, NODE_DIM};

/// Digest of every metric's exact bit pattern from one pipeline run.
fn pipeline_digest() -> u64 {
    let mut cfg = GeneratorConfig::small("det", 11);
    cfg.num_edges = 1200;
    cfg.node_dim = NODE_DIM;
    let graph = cfg.generate();
    let split = LinkPredSplit::new(&graph, 7);
    let train_cfg = TrainConfig {
        max_epochs: 3,
        ..TrainConfig::default()
    };
    let mut model = MlpEdgeModel::new(3);
    let run = train_link_prediction(&mut model, &graph, &split, &train_cfg);

    let mut h = Fnv1a::new();
    for m in [run.transductive, run.inductive, run.new_old, run.new_new] {
        h.write_f64(m.auc);
        h.write_f64(m.ap);
        h.write_u64(m.n_edges as u64);
    }
    h.write_f64(run.best_val_ap);
    for &l in &run.epoch_losses {
        h.write_f32(l);
    }
    h.finish()
}

/// Child-process worker; a no-op unless spawned by the driver below.
#[test]
fn determinism_child_worker() {
    if child::is_child() {
        child::report(format!("{:016x}", pipeline_digest()));
    }
}

/// The contract itself: 1 vs 4 threads, and 4 threads with the sanitizer
/// armed, all bit-identical.
#[test]
fn metrics_bit_identical_across_threads_and_sanitize() {
    child::assert_bit_identical(&["determinism_child_worker", "--exact", "--nocapture"]);
}
