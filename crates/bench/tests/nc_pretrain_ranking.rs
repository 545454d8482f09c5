//! The driver pre-trains the encoders of node-classification jobs with
//! ranking off, because no table reads the pre-training's MRR. That is only
//! sound if ranking cannot reach the NC result: candidate scoring draws
//! from its own RNG (`ranking_rng`) and leaves parameters and memory as
//! they were. This pins it — the NC AUC bits of a pre-training with
//! ranking on and one with ranking off are equal.

use benchtemp_bench::{run_jobs, Preset, Protocol, Task};
use benchtemp_core::dataloader::LinkPredSplit;
use benchtemp_core::pipeline::{train_link_prediction, train_node_classification};
use benchtemp_graph::datasets::BenchDataset;
use benchtemp_models::zoo;

#[test]
fn nc_auc_bits_do_not_depend_on_pretrain_ranking() {
    let p = Protocol {
        scale: 0.001,
        seeds: 1,
        max_epochs: 2,
        ..Protocol::default()
    };
    let seed = 0;
    let preset = Preset::dataset(BenchDataset::Wikipedia, p.scale);
    let graph = preset.graph(seed);
    for model_name in ["TGN", "NAT"] {
        // Ranking on: the pre-training the harnesses used to run.
        let split = LinkPredSplit::new(&graph, seed);
        let mut model = zoo::build(model_name, p.model_config(seed), &graph);
        let cfg = p.train_config(seed);
        assert!(cfg.rank_negatives > 0);
        let pretrain = train_link_prediction(model.as_mut(), &graph, &split, &cfg);
        assert!(
            pretrain.transductive.ranking.is_some(),
            "{model_name}: the ranking pass must run in the reference"
        );
        let on = train_node_classification(model.as_mut(), &graph, &cfg);

        let runs = run_jobs(
            &p,
            Task::NodeClassification,
            std::slice::from_ref(&preset),
            &[model_name.to_string()],
        );
        assert!(runs[0].lp.transductive.ranking.is_none());
        let off = runs[0].nc();
        assert_eq!(
            on.auc.to_bits(),
            off.auc.to_bits(),
            "{model_name}: NC AUC moved with pre-train ranking ({} vs {})",
            on.auc,
            off.auc
        );
    }
}
