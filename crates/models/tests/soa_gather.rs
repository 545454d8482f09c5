//! Byte-equivalence of the SoA frontier gather path against the scalar
//! per-row gather.
//!
//! The frontier engine emits a pre-resolved `feat_idx` column and the
//! models read features through `Tape::gather_rows_from` (pooled,
//! run-length coalesced) or project them through
//! `Linear::forward_gathered` (each distinct row projected once). All are
//! pure layout/execution moves, so this test pins them bitwise over a
//! seeded grid of hop counts × sampling strategies — with the index lists
//! exactly as the frontier produces them, duplicates and masked (padded)
//! slots included — against the per-slot event resolution, the allocating
//! `Matrix::gather_rows`, and `Linear::forward` over the gathered copy.

use benchtemp_core::pipeline::StreamContext;
use benchtemp_graph::generators::GeneratorConfig;
use benchtemp_graph::neighbors::SamplingStrategy;
use benchtemp_graph::paged::NeighborBackend;
use benchtemp_graph::NeighborFinder;
use benchtemp_models::common::{NeighborBatch, NodeMemory};
use benchtemp_tensor::nn::Linear;
use benchtemp_tensor::{init, Graph, Matrix, ParamStore};

const STRATS: [SamplingStrategy; 4] = [
    SamplingStrategy::MostRecent,
    SamplingStrategy::Uniform,
    SamplingStrategy::TemporalExp { alpha: 0.05 },
    SamplingStrategy::TemporalSafe,
];

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn frontier_gathers_match_scalar_baselines_bitwise() {
    let g = GeneratorConfig::small("soa-gather", 4021).generate();
    let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
    let ctx = StreamContext {
        graph: &g,
        neighbors: NeighborBackend::Resident(&nf),
    };
    let mut store = ParamStore::new();
    let mut rng = init::rng(4022);
    let node_proj = Linear::new(&mut store, &mut rng, "node", g.node_dim(), 8);
    let edge_proj = Linear::new(&mut store, &mut rng, "edge", g.edge_dim(), 8);
    // `Linear::forward` over a materialized gather: the pair the fused
    // projection replaces.
    let projected = |lin: &Linear, table: &Matrix, idx: &[usize]| -> Vec<u32> {
        let mut gr = Graph::new(&store);
        let x = gr.input(table.gather_rows(idx));
        let y = lin.forward(&mut gr, x);
        bits(gr.value(y))
    };

    // Roots: well-connected late endpoints plus the same nodes queried just
    // after the stream starts, where they have little or no history — the
    // early queries force padded slots into every hop level.
    let late = &g.events[g.events.len() - 8..];
    let early_t = g.events[1].t;
    let mut roots: Vec<usize> = late.iter().map(|e| e.src).collect();
    let mut times: Vec<f64> = late.iter().map(|e| e.t).collect();
    roots.extend(late.iter().map(|e| e.src));
    times.extend((0..late.len()).map(|_| early_t));

    let k = 5;
    let mut saw_masked = false;
    let mut saw_duplicate = false;
    for hops in [1usize, 2, 3] {
        for (si, strat) in STRATS.into_iter().enumerate() {
            let seed = 9000 + (hops * 10 + si) as u64;
            let f = NeighborBackend::Resident(&nf)
                .sample_frontier(&roots, &times, k, hops, strat, seed);
            assert_eq!(f.hops.len(), hops);
            for hop in f.hops {
                // The pre-resolved feature column must equal the per-slot
                // scalar resolution the models used to run: a real slot
                // points at its event's edge-feature row, a padded slot at
                // row 0.
                for s in 0..hop.len() {
                    let expect = if hop.mask[s] {
                        g.events[hop.event_idx[s]].feat_idx
                    } else {
                        0
                    };
                    assert_eq!(
                        hop.feat_idx[s], expect,
                        "feat_idx diverged at slot {s} (hops={hops}, strat {si})"
                    );
                }
                saw_masked |= hop.mask.iter().any(|&m| !m);
                let mut sorted = hop.nodes.clone();
                sorted.sort_unstable();
                saw_duplicate |= sorted.windows(2).any(|w| w[0] == w[1]);

                let nb = NeighborBatch::from_hop(hop, k);
                // The coalesced tape gathers must reproduce the scalar
                // per-row gather bitwise.
                let mut gr = Graph::new(&store);
                let nv = gr.gather_rows_from(&ctx.graph.node_features, &nb.ids);
                let ev = gr.gather_rows_from(&ctx.graph.edge_features, &nb.feat_idx);
                assert_eq!(
                    bits(gr.value(nv)),
                    bits(&g.node_features.gather_rows(&nb.ids)),
                    "node feature gather diverged (hops={hops}, strat {si})"
                );
                assert_eq!(
                    bits(gr.value(ev)),
                    bits(&g.edge_features.gather_rows(&nb.feat_idx)),
                    "edge feature gather diverged (hops={hops}, strat {si})"
                );
                let np = node_proj.forward_gathered(&mut gr, &g.node_features, &nb.ids);
                let ep = edge_proj.forward_gathered(&mut gr, &g.edge_features, &nb.feat_idx);
                assert_eq!(
                    bits(gr.value(np)),
                    projected(&node_proj, &g.node_features, &nb.ids),
                    "node feature projection diverged (hops={hops}, strat {si})"
                );
                assert_eq!(
                    bits(gr.value(ep)),
                    projected(&edge_proj, &g.edge_features, &nb.feat_idx),
                    "edge feature projection diverged (hops={hops}, strat {si})"
                );
            }
        }
    }
    assert!(saw_masked, "grid must exercise masked (padded) slots");
    assert!(saw_duplicate, "grid must exercise duplicate indices");
}

#[test]
fn memory_rows_var_matches_scalar_rows_bitwise() {
    let n = 64;
    let d = 24;
    let mut mem = NodeMemory::new(n, d);
    let mut rng = init::rng(11);
    let values = init::randn(n, d, 1.0, &mut rng);
    let nodes: Vec<usize> = (0..n).collect();
    mem.write(&nodes, &values, &vec![1.0; n]);

    // Frontier-shaped access: repeats, back-jumps, and an ascending run.
    let mut idx: Vec<usize> = vec![3, 3, 3, 17, 5, 6, 7, 8, 0, 63, 63, 2];
    idx.extend(40..52);
    // Every node was written in order, so the memory table equals `values`.
    let store = ParamStore::new();
    let mut gr = Graph::new(&store);
    let mv = mem.rows_var(&mut gr, &idx);
    assert_eq!(
        bits(gr.value(mv)),
        bits(&values.gather_rows(&idx)),
        "memory row gather diverged"
    );
}
