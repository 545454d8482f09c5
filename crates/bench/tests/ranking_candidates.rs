//! Every link-prediction harness ranks its test edges against filtered
//! negatives at the default protocol (K = 20, scale 0.002). On small
//! presets the filtered pool of some query holds fewer than 20 valid
//! candidates, and building the sets used to panic before any training
//! started. This builds the candidate sets of every preset of every
//! harness in [`HARNESSES`], for every default seed, without training, and
//! checks that each one clamps to `1 ≤ k_effective ≤ K`.

use benchtemp_bench::{run_jobs, Preset, Protocol, Task, HARNESSES};
use benchtemp_core::dataloader::LinkPredSplit;
use benchtemp_core::{FilteredNegativeSet, NegativeStrategy};
use benchtemp_graph::datasets::BenchDataset;

#[test]
fn default_protocol_candidate_sets_build_for_every_harness_preset() {
    let p = Protocol::default();
    let k = p.rank_negatives;
    assert_eq!(k, 20);
    let mut dense_k = Vec::new();
    // Node-classification pre-training ranks nothing.
    for harness in HARNESSES.iter().filter(|h| h.task == Task::LinkPrediction) {
        for preset in (harness.presets)(&p) {
            for seed in 0..p.seeds as u64 {
                // The test split's sets as `train_link_prediction` builds
                // them. The draw seed does not matter: a query short of K
                // keeps every valid candidate of its pool, whatever the seed.
                let graph = preset.graph(seed);
                let split = LinkPredSplit::new(&graph, seed);
                let set = FilteredNegativeSet::try_build(
                    &graph,
                    &split.train,
                    &split.test,
                    preset.strategy,
                    k,
                    seed,
                )
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", preset.name));
                assert!(
                    (1..=k).contains(&set.k),
                    "{} seed {seed}: k_effective {}",
                    preset.name,
                    set.k
                );
                if preset.name == "G_S1-dense" {
                    dense_k.push(set.k);
                }
            }
        }
    }
    // G_S1-dense (Table 25) has the smallest pool of all; it must clamp.
    assert_eq!(dense_k.len(), p.seeds);
    assert!(dense_k.iter().all(|&k_eff| k_eff < k), "{dense_k:?}");
}

/// `Protocol::k_preset` gives every seed of a preset one K. Per-job clamping
/// gives Wikipedia/Historical a different `k_effective` at each default
/// seed; at the preset K every seed's candidate set keeps exactly K, and
/// every job the driver runs reports it as its `k_effective`.
#[test]
fn every_seed_of_a_preset_ranks_at_the_preset_k() {
    let p = Protocol::default();
    let preset = Preset {
        strategy: NegativeStrategy::Historical,
        ..Preset::dataset(BenchDataset::Wikipedia, p.scale)
    };
    let set_k = |seed: u64, k: usize| {
        let graph = preset.graph(seed);
        let split = LinkPredSplit::new(&graph, seed);
        FilteredNegativeSet::try_build(&graph, &split.train, &split.test, preset.strategy, k, seed)
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
    let k = p.k_preset(&preset);
    assert_eq!(k, *per_job.iter().min().unwrap());
    for seed in 0..p.seeds as u64 {
        assert_eq!(set_k(seed, k), k, "seed {seed} at the preset K");
    }

    // End to end: every seed's job reports the preset K.
    let short = Protocol {
        max_epochs: 1,
        ..p.clone()
    };
    let runs = run_jobs(
        &short,
        Task::LinkPrediction,
        &[preset],
        &["JODIE".to_string()],
    );
    assert_eq!(runs.len(), p.seeds);
    for run in &runs {
        let ranking = run.lp.transductive.ranking.expect("ranking ran");
        assert_eq!(ranking.k_effective, k, "seed {}", run.seed);
    }
}
