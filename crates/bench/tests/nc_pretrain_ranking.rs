//! The NC harnesses pre-train their encoders with ranking off
//! (`Protocol::pretrain_config`), because no table reads the pre-training's
//! MRR. That is only sound if ranking cannot reach the NC result: candidate
//! scoring draws from its own RNG (`ranking_rng`) and leaves parameters and
//! memory as they were. This pins it — the NC AUC bits of a pre-training
//! with ranking on and one with ranking off are equal.

use benchtemp_bench::{run_nc_seed_on, Protocol};
use benchtemp_core::dataloader::LinkPredSplit;
use benchtemp_core::pipeline::{train_link_prediction, train_node_classification};
use benchtemp_graph::datasets::BenchDataset;
use benchtemp_models::zoo;

#[test]
fn nc_auc_bits_do_not_depend_on_pretrain_ranking() {
    let p = Protocol {
        scale: 0.001,
        max_epochs: 2,
        ..Protocol::default()
    };
    let seed = 0;
    let graph = BenchDataset::Wikipedia
        .config(p.scale, seed ^ 0xda7a)
        .generate();
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

        let (pretrain_off, off) = run_nc_seed_on(model_name, &graph, &p, seed);
        assert!(pretrain_off.transductive.ranking.is_none());
        assert_eq!(
            on.auc.to_bits(),
            off.auc.to_bits(),
            "{model_name}: NC AUC moved with pre-train ranking ({} vs {})",
            on.auc,
            off.auc
        );
    }
}
