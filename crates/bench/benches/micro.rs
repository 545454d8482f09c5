//! Micro-benchmarks of the pipeline's hot components: tensor kernels,
//! neighbor lookup/sampling, walk sampling, negative sampling, the
//! chronological split, and the evaluator. Plain `harness = false` timers
//! (see `benchtemp_bench::timing`), so the workspace builds offline.

use std::hint::black_box;

use benchtemp_bench::timing;
use benchtemp_core::dataloader::LinkPredSplit;
use benchtemp_core::evaluator::{auc_ap, average_precision, roc_auc};
use benchtemp_core::pipeline::StreamContext;
use benchtemp_core::sampler::{EdgeSampler, NegativeStrategy};
use benchtemp_graph::generators::GeneratorConfig;
use benchtemp_graph::neighbors::{NeighborFinder, SampleScratch, SamplingStrategy};
use benchtemp_graph::paged::NeighborBackend;
use benchtemp_models::walks::sample_walks;
use benchtemp_tensor::{init, Tape};

fn graph() -> benchtemp_graph::TemporalGraph {
    let mut cfg = GeneratorConfig::small("bench", 7);
    cfg.num_users = 200;
    cfg.num_items = 100;
    cfg.num_edges = 20_000;
    cfg.generate()
}

fn bench_tensor() {
    let mut rng = init::rng(1);
    let a = init::randn(128, 128, 1.0, &mut rng);
    let b = init::randn(128, 128, 1.0, &mut rng);
    timing::run("tensor/matmul_128", || black_box(a.matmul(&b)));

    let x = init::randn(100, 64, 1.0, &mut rng);
    let w1 = init::xavier_uniform(64, 64, &mut rng);
    let w2 = init::xavier_uniform(64, 1, &mut rng);
    let targets = vec![1.0f32; 100];
    timing::run("tensor/forward_backward_mlp", || {
        let mut t = Tape::new();
        let xv = t.leaf(x.clone());
        let w1v = t.leaf(w1.clone());
        let w2v = t.leaf(w2.clone());
        let h = t.matmul(xv, w1v);
        let h = t.relu(h);
        let logits = t.matmul(h, w2v);
        let loss = t.bce_with_logits(logits, &targets);
        black_box(t.backward(loss, &[w1v, w2v]))
    });

    let q = init::randn(100, 32, 1.0, &mut rng);
    let k = init::randn(1000, 32, 1.0, &mut rng);
    let v = init::randn(1000, 32, 1.0, &mut rng);
    let mask = vec![true; 1000];
    timing::run("tensor/grouped_attention_fwd_bwd", || {
        let mut t = Tape::new();
        let qv = t.leaf(q.clone());
        let kv = t.leaf(k.clone());
        let vv = t.leaf(v.clone());
        let out = t.grouped_attention(qv, kv, vv, 10, &mask);
        let loss = t.sum_all(out);
        black_box(t.backward(loss, &[qv, kv, vv]))
    });
}

fn bench_graph() {
    let g = graph();
    let mut gen_cfg = GeneratorConfig::small("gen", 7);
    gen_cfg.num_edges = 20_000;
    timing::run("graph/generate_20k_events", || {
        black_box(gen_cfg.generate())
    });
    timing::run("graph/neighbor_finder_build", || {
        black_box(NeighborFinder::from_events(g.num_nodes, &g.events))
    });

    let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
    let nb = NeighborBackend::Resident(&nf);
    // Allocation-free path: scratch and output buffers reused across calls.
    let mut rng = init::rng(3);
    let mut scratch = SampleScratch::new();
    let mut out = Vec::new();
    timing::run("graph/sample_into_temporal_safe", || {
        nb.sample_into(
            5,
            800.0,
            10,
            SamplingStrategy::TemporalSafe,
            &mut rng,
            &mut scratch,
            &mut out,
        );
        black_box(out.len())
    });
    let mut rng = init::rng(3);
    timing::run("graph/sample_one_temporal_safe", || {
        black_box(nb.sample_one(
            5,
            800.0,
            SamplingStrategy::TemporalSafe,
            &mut rng,
            &mut scratch,
        ))
    });

    // Batched multi-hop frontier over 256 roots, k=10, 2 hops.
    let roots: Vec<usize> = (0..256).map(|i| i % g.num_nodes).collect();
    let times: Vec<f64> = (0..256).map(|i| 400.0 + i as f64).collect();
    timing::run("graph/sample_frontier_256x10x2", || {
        black_box(nb.sample_frontier(&roots, &times, 10, 2, SamplingStrategy::Uniform, 42))
    });

    let ctx = StreamContext {
        graph: &g,
        neighbors: nb,
    };
    let mut rng = init::rng(3);
    timing::run("graph/sample_temporal_walks_m4_l3", || {
        black_box(sample_walks(
            &ctx,
            5,
            800.0,
            4,
            3,
            SamplingStrategy::Uniform,
            &mut rng,
            &mut scratch,
        ))
    });
}

fn bench_pipeline() {
    let g = graph();
    timing::run("pipeline/link_pred_split_20k", || {
        black_box(LinkPredSplit::new(&g, 0))
    });

    let split = LinkPredSplit::new(&g, 0);
    let mut sampler = EdgeSampler::new(&g, &split.train, NegativeStrategy::Random, 1);
    timing::run("pipeline/negative_sampler_batch200", || {
        black_box(sampler.sample_batch(&g.events[..200]))
    });
    timing::run("pipeline/historical_sampler_build", || {
        black_box(EdgeSampler::new(
            &g,
            &split.train,
            NegativeStrategy::Historical,
            1,
        ))
    });

    let mut rng = init::rng(9);
    let scores: Vec<f32> = (0..10_000)
        .map(|_| init::standard_normal(&mut rng))
        .collect();
    let labels: Vec<f32> = (0..10_000).map(|i| (i % 2) as f32).collect();
    timing::run("evaluator/roc_auc_10k", || {
        black_box(roc_auc(&labels, &scores))
    });
    timing::run("evaluator/average_precision_10k", || {
        black_box(average_precision(&labels, &scores))
    });
    timing::run("evaluator/fused_auc_ap_10k", || {
        black_box(auc_ap(&labels, &scores))
    });
}

fn main() {
    bench_tensor();
    bench_graph();
    bench_pipeline();
}
