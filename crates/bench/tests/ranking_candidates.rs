//! Every harness in `run_all_experiments.sh` ranks its test edges against
//! filtered negatives at the default protocol (K = 20, scale 0.002). On
//! small presets the filtered pool of some query holds fewer than 20 valid
//! candidates, and building the sets used to panic before any training
//! started. This builds the candidate sets of every graph those harnesses
//! load, for every default seed, without training, and checks that each
//! one clamps to `1 ≤ k_effective ≤ K`.

use benchtemp_bench::{density_subgraphs, feature_dim_graph, Protocol};
use benchtemp_core::dataloader::LinkPredSplit;
use benchtemp_core::pipeline::{train_link_prediction, TrainConfig};
use benchtemp_core::{FilteredNegativeSet, NegativeStrategy};
use benchtemp_graph::datasets::BenchDataset;
use benchtemp_graph::features::figure2_dims;
use benchtemp_graph::temporal_graph::TemporalGraph;
use benchtemp_models::zoo;

#[test]
fn default_protocol_candidate_sets_build_for_every_harness_dataset() {
    let p = Protocol::default();
    let k = p.rank_negatives;
    assert_eq!(k, 20);
    let mut dense_k = Vec::new();
    for seed in 0..p.seeds as u64 {
        // The test split's sets as `train_link_prediction` builds them. The
        // draw seed does not matter: a query short of K keeps every valid
        // candidate of its pool, whatever the seed.
        let k_effective = |graph: &TemporalGraph, strategy| {
            let split = LinkPredSplit::new(graph, seed);
            let set =
                FilteredNegativeSet::try_build(graph, &split.train, &split.test, strategy, k, seed)
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(
                (1..=k).contains(&set.k),
                "{} seed {seed} {strategy:?}: k_effective {}",
                graph.name,
                set.k
            );
            set.k
        };
        // `run_lp_seed` (same graph seed) and the NC harnesses'
        // pre-training: Tables 3, 5, 13, 17, 19, 22, 23 and 26.
        for d in BenchDataset::all15()
            .into_iter()
            .chain(BenchDataset::new6())
        {
            let graph = d.config(p.scale, seed ^ 0xda7a).generate();
            k_effective(&graph, NegativeStrategy::Random);
            // Table 26 also ranks under its harder samplers.
            if matches!(
                d,
                BenchDataset::Reddit | BenchDataset::Wikipedia | BenchDataset::Flights
            ) {
                k_effective(&graph, NegativeStrategy::Historical);
                k_effective(&graph, NegativeStrategy::Inductive);
            }
        }
        // Fig. 2.
        for dim in figure2_dims() {
            k_effective(
                &feature_dim_graph(p.scale, seed, dim),
                NegativeStrategy::Random,
            );
        }
        // Tables 24 & 25.
        let [dense, sparse] = density_subgraphs(p.scale);
        k_effective(&sparse, NegativeStrategy::Random);
        dense_k.push(k_effective(&dense, NegativeStrategy::Random));
    }
    // G_S1-dense has the smallest pool of all; it must clamp.
    assert!(dense_k.iter().all(|&k_eff| k_eff < k), "{dense_k:?}");
}

/// `Protocol::k_preset` gives every seed of a preset one K. Per-job clamping
/// gives Wikipedia/Historical a different `k_effective` at each default
/// seed; at the preset K every seed's candidate set keeps exactly K, and a
/// trained job reports it as its `k_effective`.
#[test]
fn every_seed_of_a_preset_ranks_at_the_preset_k() {
    let p = Protocol::default();
    let strategy = NegativeStrategy::Historical;
    let graph_of_seed = |seed: u64| {
        BenchDataset::Wikipedia
            .config(p.scale, seed ^ 0xda7a)
            .generate()
    };
    let set_k = |seed: u64, k: usize| {
        let graph = graph_of_seed(seed);
        let split = LinkPredSplit::new(&graph, seed);
        FilteredNegativeSet::try_build(&graph, &split.train, &split.test, strategy, k, seed)
            .expect("Wikipedia has valid historical negatives")
            .k
    };
    let per_job: Vec<usize> = (0..p.seeds as u64)
        .map(|seed| set_k(seed, p.rank_negatives))
        .collect();
    assert!(
        per_job.iter().any(|&k| k != per_job[0]),
        "per-job clamps should differ across seeds here: {per_job:?}"
    );
    let k = p.k_preset(strategy, graph_of_seed);
    assert_eq!(k, *per_job.iter().min().unwrap());
    for seed in 0..p.seeds as u64 {
        assert_eq!(set_k(seed, k), k, "seed {seed} at the preset K");
    }

    // End to end: every seed's job reports the preset K.
    let short = Protocol {
        max_epochs: 1,
        rank_negatives: k,
        ..p.clone()
    };
    for seed in 0..p.seeds as u64 {
        let graph = graph_of_seed(seed);
        let split = LinkPredSplit::new(&graph, seed);
        let mut model = zoo::build("JODIE", short.model_config(seed), &graph);
        let cfg = TrainConfig {
            neg_strategy: strategy,
            ..short.train_config(seed)
        };
        let run = train_link_prediction(model.as_mut(), &graph, &split, &cfg);
        let ranking = run.transductive.ranking.expect("ranking ran");
        assert_eq!(ranking.k_effective, k, "seed {seed}");
    }
}
