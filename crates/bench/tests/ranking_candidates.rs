//! Every harness in `run_all_experiments.sh` ranks its test edges against
//! filtered negatives at the default protocol (K = 20, scale 0.002). On
//! small presets the filtered pool of some query holds fewer than 20 valid
//! candidates, and building the sets used to panic before any training
//! started. This builds the candidate sets of every graph those harnesses
//! load, for every default seed, without training, and checks that each
//! one clamps to `1 ≤ k_effective ≤ K`.

use benchtemp_bench::{density_subgraphs, feature_dim_graph, Protocol};
use benchtemp_core::dataloader::LinkPredSplit;
use benchtemp_core::{FilteredNegativeSet, NegativeStrategy};
use benchtemp_graph::datasets::BenchDataset;
use benchtemp_graph::features::figure2_dims;
use benchtemp_graph::temporal_graph::TemporalGraph;

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
