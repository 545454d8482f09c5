//! Cross-process, cross-thread-count bit-identity of a TGAT training run
//! through the fused multi-head attention engine.
//!
//! The fused `MultiHeadGroupedAttention` node fans its row-slab kernel
//! across the worker pool, so the properties under test are (a) the slab
//! decomposition preserves element-wise FP operation order at any thread
//! count, and (b) a fresh process reproduces the exact trajectory. Each
//! child process trains the same model and digests the per-batch loss bits
//! and the final eval scores; `benchtemp_util::child` requires 1-thread and
//! 4-thread children to agree, and `BENCHTEMP_SANITIZE=1` (which activates
//! the `grouped_attention_rows` slab-claim checking) must not perturb it.

use benchtemp_core::pipeline::{StreamContext, TgnnModel};
use benchtemp_graph::generators::GeneratorConfig;
use benchtemp_graph::paged::NeighborBackend;
use benchtemp_graph::NeighborFinder;
use benchtemp_models::common::ModelConfig;
use benchtemp_models::tgat::Tgat;
use benchtemp_util::child::{self, Fnv1a};

/// Train a small TGAT for a few batches and digest the trajectory:
/// every train loss bit pattern plus the final eval scores.
fn tgat_trajectory_digest() -> u64 {
    let g = GeneratorConfig::small("attdet", 31).generate();
    let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
    let ctx = StreamContext {
        graph: &g,
        neighbors: NeighborBackend::Resident(&nf),
    };
    let cfg = ModelConfig {
        embed_dim: 16,
        time_dim: 8,
        heads: 2,
        neighbors: 3,
        layers: 2,
        ..Default::default()
    };
    let mut model = Tgat::new(cfg, &g);
    let mut h = Fnv1a::new();
    let batch_size = 20;
    for (i, batch) in g.events.chunks(batch_size).take(6).enumerate() {
        let negs: Vec<usize> = batch
            .iter()
            .enumerate()
            .map(|(j, _)| g.num_users + (i * batch_size + j) % (g.num_nodes - g.num_users))
            .collect();
        h.write_f32(model.train_batch(&ctx, batch, &negs));
    }
    let eval = &g.events[g.num_events() - batch_size..];
    let negs: Vec<usize> = eval.iter().map(|_| g.num_users).collect();
    let (pos, neg) = model.eval_batch(&ctx, eval, &negs);
    for &s in pos.iter().chain(neg.iter()) {
        h.write_f32(s);
    }
    h.finish()
}

/// Child-process worker; a no-op unless spawned by the driver below.
#[test]
fn attention_child_worker() {
    if child::is_child() {
        child::report(format!("{:016x}", tgat_trajectory_digest()));
    }
}

/// 1-thread vs 4-thread children, with and without the sanitizer: one bit
/// pattern for the whole TGAT train/eval trajectory.
#[test]
fn tgat_trajectory_bit_identical_across_processes_and_threads() {
    child::assert_bit_identical(&["attention_child_worker", "--exact", "--nocapture"]);
}
