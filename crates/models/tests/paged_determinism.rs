//! Cross-process, cross-thread-count bit-identity of the paged store
//! backend (DESIGN.md §15).
//!
//! Each child process bulk-loads the same generated graph into an on-disk
//! store with a 64 KiB page-cache budget — small enough that sampling and
//! training continually evict pages — and then asserts, in-process, that
//! (a) a multi-hop frontier expanded through the paged backend matches the
//! resident CSR engine bit for bit, (b) a model-width feature gather over
//! the frontier's `feat_idx` column, large enough to cross `PAR_FLOPS`,
//! matches the per-row `Matrix::gather_rows` oracle, and (c) short TGAT
//! (attention) and TGN (GRU memory) training trajectories driven through a
//! paged `StreamContext` match the same models trained resident. TGN trains
//! at the default width, where its dense kernels cross `PAR_FLOPS`; a
//! multi-thread child asserts they dispatched pool tasks. The child
//! reports an FNV-1a digest over all three; `benchtemp_util::child`
//! requires its 1-thread, 4-thread and sanitized children to report the
//! same bits, which also witnesses that eviction scheduling never leaks
//! into results and that the gather's run-group fan-out and TGN's slab-
//! parallel training step (both taken only on a multi-thread pool) produce
//! the same bytes as the inline paths.

use benchtemp_core::pipeline::StreamContext;
use benchtemp_graph::generators::GeneratorConfig;
use benchtemp_graph::paged::{NeighborBackend, PagedNeighborFinder, StoreOptions};
use benchtemp_graph::{NeighborFinder, SamplingStrategy};
use benchtemp_models::common::ModelConfig;
use benchtemp_models::zoo;
use benchtemp_obs::counters::{POOL_TASKS_DISPATCHED, STORE_PAGE_EVICTIONS};
use benchtemp_tensor::matrix::PAR_FLOPS;
use benchtemp_tensor::{init, pool, Matrix};
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
        for &fi in &hop.feat_idx {
            h.write_u64(fi as u64);
        }
        for &m in &hop.mask {
            h.write(&[m as u8]);
        }
    }
    h.finish()
}

/// Gather a 64-column feature table through `feat_idx` (duplicates and
/// padded slots included) and digest the output bytes and the coalesced
/// run count.
fn gather_digest(num_rows: usize, feat_idx: &[usize]) -> u64 {
    let src = init::randn(num_rows, 64, 1.0, &mut init::rng(23));
    assert!(
        feat_idx.len() * src.cols() >= PAR_FLOPS,
        "the gather must cross PAR_FLOPS to take the run-group fan-out"
    );
    let mut out = Matrix::full(feat_idx.len(), src.cols(), f32::NAN);
    let runs = src.gather_rows_into(feat_idx, &mut out);
    assert!(
        out == src.gather_rows(feat_idx),
        "coalesced gather must match the per-row gather"
    );
    let mut h = Fnv1a::new();
    for &x in out.as_slice() {
        h.write_f32(x);
    }
    h.write_u64(runs);
    h.finish()
}

/// Train a zoo model for five `batch_size`-event batches through `ctx`,
/// digesting every loss bit and the final eval scores.
fn trajectory_digest(
    model: &str,
    cfg: ModelConfig,
    batch_size: usize,
    g: &benchtemp_graph::TemporalGraph,
    ctx: &StreamContext,
) -> u64 {
    let mut model = zoo::build(model, cfg, g);
    let mut h = Fnv1a::new();
    for (i, batch) in g.events.chunks(batch_size).take(5).enumerate() {
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

    // (b) Above-threshold gather over the deepest hop's feature column.
    let last_hop = paged_f.hops.last().expect("two hops");
    let gather = gather_digest(g.num_events(), &last_hop.feat_idx);

    // (c) Training-trajectory bit-identity through a paged StreamContext.
    let mut h = Fnv1a::new();
    h.write_u64(paged_frontier);
    h.write_u64(gather);
    // TGAT runs narrow (the attention witness across backends). TGN runs
    // at the default width with 100-event batches, so its neighbour
    // projections, attention, GRU updater and their backward products
    // cross `PAR_FLOPS` and fan out on a multi-thread pool. Its one-hop
    // frontiers (100 roots × 6) stay below the frontier engine's own
    // fan-out threshold, so every task it dispatches is a dense kernel's.
    let narrow = ModelConfig {
        embed_dim: 16,
        time_dim: 8,
        heads: 2,
        neighbors: 3,
        layers: 2,
        ..Default::default()
    };
    for (model, cfg, batch_size, must_fan_out) in [
        ("TGAT", narrow, 20, false),
        ("TGN", ModelConfig::default(), 100, true),
    ] {
        let tasks0 = POOL_TASKS_DISPATCHED.get();
        let resident_traj = trajectory_digest(
            model,
            cfg.clone(),
            batch_size,
            &g,
            &StreamContext {
                graph: &g,
                neighbors: NeighborBackend::Resident(&nf),
            },
        );
        let paged_traj = trajectory_digest(
            model,
            cfg,
            batch_size,
            &g,
            &StreamContext {
                graph: &g,
                neighbors: NeighborBackend::Paged(&paged),
            },
        );
        assert_eq!(
            resident_traj, paged_traj,
            "{model} trajectory through the paged backend must match resident"
        );
        if must_fan_out && pool().threads() > 1 {
            assert!(
                POOL_TASKS_DISPATCHED.get() > tasks0,
                "{model} training must fan its dense kernels across the pool"
            );
        }
        h.write_u64(paged_traj);
    }
    assert!(
        STORE_PAGE_EVICTIONS.get() > ev0,
        "64 KiB budget must evict mid-run for this test to mean anything"
    );

    drop(paged);
    let _ = std::fs::remove_dir_all(&dir);
    h.finish()
}

/// Child-process worker; a no-op unless spawned by the driver below.
#[test]
fn paged_child_worker() {
    if child::is_child() {
        child::report(format!("{:016x}", paged_digest()));
    }
}

/// 1-thread vs 4-thread (and sanitized) children: the paged frontier, the
/// gather over it and the paged training trajectories are one bit pattern
/// regardless of worker count or eviction interleaving.
#[test]
fn paged_backend_bit_identical_across_processes_and_threads() {
    child::assert_bit_identical(&["paged_child_worker", "--exact", "--nocapture"]);
}
