//! Cross-process, cross-thread-count bit-identity of the paged store
//! backend (DESIGN.md §15).
//!
//! Each child process bulk-loads the same generated graph into an on-disk
//! store with a 64 KiB page-cache budget — small enough that sampling and
//! training continually evict pages — and then asserts, in-process, that
//! (a) a multi-hop frontier expanded through the paged backend matches the
//! resident CSR engine bit for bit, and (b) a short TGAT training
//! trajectory driven through a paged `StreamContext` matches the same
//! model trained resident. The child reports an FNV-1a digest over both;
//! `benchtemp_util::child` requires its 1-thread, 4-thread and sanitized
//! children to report the same bits, which also witnesses that eviction
//! scheduling never leaks into results.

use benchtemp_core::pipeline::{StreamContext, TgnnModel};
use benchtemp_graph::generators::GeneratorConfig;
use benchtemp_graph::paged::{NeighborBackend, PagedNeighborFinder, StoreOptions};
use benchtemp_graph::{NeighborFinder, SamplingStrategy};
use benchtemp_models::common::ModelConfig;
use benchtemp_models::tgat::Tgat;
use benchtemp_obs::counters::STORE_PAGE_EVICTIONS;
use benchtemp_util::child::{self, Fnv1a};

const CACHE_BUDGET: usize = 64 * 1024;

/// Digest every column of every hop of a frontier.
fn frontier_digest(f: &benchtemp_graph::Frontier) -> u64 {
    let mut h = Fnv1a::new();
    for hop in &f.hops {
        for &n in &hop.nodes {
            h.write_u64(n as u64);
        }
        for &t in &hop.times {
            h.write_f64(t);
        }
        for &e in &hop.event_idx {
            h.write_u64(e as u64);
        }
        for &d in &hop.dts {
            h.write_f32(d);
        }
        for &m in &hop.mask {
            h.write(&[m as u8]);
        }
    }
    h.finish()
}

/// Train a small TGAT for a few batches through `ctx`, digesting every
/// loss bit and the final eval scores.
fn trajectory_digest(g: &benchtemp_graph::TemporalGraph, ctx: &StreamContext) -> u64 {
    let cfg = ModelConfig {
        embed_dim: 16,
        time_dim: 8,
        heads: 2,
        neighbors: 3,
        layers: 2,
        ..Default::default()
    };
    let mut model = Tgat::new(cfg, g);
    let mut h = Fnv1a::new();
    let batch_size = 20;
    for (i, batch) in g.events.chunks(batch_size).take(6).enumerate() {
        let negs: Vec<usize> = batch
            .iter()
            .enumerate()
            .map(|(j, _)| g.num_users + (i * batch_size + j) % (g.num_nodes - g.num_users))
            .collect();
        h.write_f32(model.train_batch(ctx, batch, &negs));
    }
    let eval = &g.events[g.num_events() - batch_size..];
    let negs: Vec<usize> = eval.iter().map(|_| g.num_users).collect();
    let (pos, neg) = model.eval_batch(ctx, eval, &negs);
    for &s in pos.iter().chain(neg.iter()) {
        h.write_f32(s);
    }
    h.finish()
}

/// Full paged-vs-resident witness for one process; returns the digest.
fn paged_digest() -> u64 {
    let mut cfg = GeneratorConfig::small("pageddet", 37);
    cfg.num_edges = 3_000; // ≫ 64 KiB of store columns → guaranteed evictions
    let g = cfg.generate();
    let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
    let dir = std::env::temp_dir().join(format!("benchtemp-paged-det-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = StoreOptions {
        cache_budget_bytes: Some(CACHE_BUDGET),
        run_events: 512,
    };
    let paged = PagedNeighborFinder::bulk_load_graph(&dir, &g, &opts).expect("bulk load");

    let ev0 = STORE_PAGE_EVICTIONS.get();
    // (a) Frontier bit-identity under eviction pressure.
    let roots: Vec<usize> = g.events.iter().step_by(7).map(|e| e.src).collect();
    let times: Vec<f64> = g.events.iter().step_by(7).map(|e| e.t).collect();
    let resident_f = nf.sample_frontier(&roots, &times, 8, 2, SamplingStrategy::TemporalSafe, 55);
    let paged_f = paged.sample_frontier(&roots, &times, 8, 2, SamplingStrategy::TemporalSafe, 55);
    let paged_frontier = frontier_digest(&paged_f);
    assert_eq!(
        frontier_digest(&resident_f),
        paged_frontier,
        "paged frontier must be bit-identical to resident"
    );

    // (b) Training-trajectory bit-identity through a paged StreamContext.
    let resident_traj = trajectory_digest(
        &g,
        &StreamContext {
            graph: &g,
            neighbors: NeighborBackend::Resident(&nf),
        },
    );
    let paged_traj = trajectory_digest(
        &g,
        &StreamContext {
            graph: &g,
            neighbors: NeighborBackend::Paged(&paged),
        },
    );
    assert_eq!(
        resident_traj, paged_traj,
        "TGAT trajectory through the paged backend must match resident"
    );
    assert!(
        STORE_PAGE_EVICTIONS.get() > ev0,
        "64 KiB budget must evict mid-run for this test to mean anything"
    );

    drop(paged);
    let _ = std::fs::remove_dir_all(&dir);
    let mut h = Fnv1a::new();
    h.write_u64(paged_frontier);
    h.write_u64(paged_traj);
    h.finish()
}

/// Child-process worker; a no-op unless spawned by the driver below.
#[test]
fn paged_child_worker() {
    if child::is_child() {
        child::report(format!("{:016x}", paged_digest()));
    }
}

/// 1-thread vs 4-thread (and sanitized) children: the paged frontier and
/// the paged training trajectory are one bit pattern regardless of worker
/// count or eviction interleaving.
#[test]
fn paged_backend_bit_identical_across_processes_and_threads() {
    child::assert_bit_identical(&["paged_child_worker", "--exact", "--nocapture"]);
}
