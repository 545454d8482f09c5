//! Fig. 2 — link-prediction ROC AUC on a MOOC-style dataset as the initial
//! node-feature dimension sweeps 4 → 172: the experiment behind the paper's
//! decision to standardize on 172 dims (§3.1).

use benchtemp_bench::{feature_dim_graph, save_json, Protocol, TableBuilder};
use benchtemp_core::dataloader::LinkPredSplit;
use benchtemp_core::pipeline::{train_link_prediction, TrainConfig};
use benchtemp_core::sampler::NegativeStrategy;
use benchtemp_graph::features::figure2_dims;
use benchtemp_models::zoo;

fn main() {
    let protocol = Protocol::from_args();
    let models = protocol.select_models(&["JODIE", "TGN", "TGAT", "NAT"]);
    let mut table = TableBuilder::new();
    let mut raw_runs = Vec::new();

    for dim in figure2_dims() {
        let k = protocol.k_preset(NegativeStrategy::Random, |seed| {
            feature_dim_graph(protocol.scale, seed, dim)
        });
        for model_name in &models {
            for seed in 0..protocol.seeds as u64 {
                let graph = feature_dim_graph(protocol.scale, seed, dim);
                let split = LinkPredSplit::new(&graph, seed);
                let mut model = zoo::build(model_name, protocol.model_config(seed), &graph);
                let cfg = TrainConfig {
                    rank_negatives: k,
                    ..protocol.train_config(seed)
                };
                let run = train_link_prediction(model.as_mut(), &graph, &split, &cfg);
                eprintln!(
                    "dim {dim}: {model_name} seed {seed} AUC {:.4}",
                    run.transductive.auc
                );
                table.add(&format!("dim={dim}"), model_name, run.transductive.auc);
                raw_runs.push(run);
            }
        }
    }

    println!(
        "{}",
        table.render(
            "Fig. 2 — MOOC LP ROC AUC vs initial node-feature dimension",
            "Node dim"
        )
    );
    save_json(
        &protocol.out_dir,
        "fig2_feature_dims.json",
        &table.to_entries(),
    );
    save_json(&protocol.out_dir, "fig2_raw_runs.json", &raw_runs);
}
