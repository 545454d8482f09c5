//! Tables 26 & 27 — NAT under *historical* and *inductive* negative
//! sampling (Appendix J): the harder samplers should pull NAT's
//! near-saturated AUC/AP on Reddit/Wikipedia/Flights-style datasets well
//! below the random-sampler numbers.

use benchtemp_bench::{measured, save_json, Protocol, TableBuilder};
use benchtemp_core::dataloader::Setting;
use benchtemp_core::sampler::NegativeStrategy;
use benchtemp_graph::datasets::BenchDataset;
use benchtemp_util::json;

fn main() {
    let protocol = Protocol::from_args();
    let datasets = protocol.select_datasets(&[
        BenchDataset::Reddit,
        BenchDataset::Wikipedia,
        BenchDataset::Flights,
    ]);
    let strategies = [
        ("Random", NegativeStrategy::Random),
        ("Historical", NegativeStrategy::Historical),
        ("Inductive", NegativeStrategy::Inductive),
    ];

    let mut auc = TableBuilder::new();
    let mut ap = TableBuilder::new();
    let mut raw_runs = Vec::new();
    for &dataset in &datasets {
        for (sname, strategy) in strategies {
            let k = protocol.k_preset(strategy, |seed| {
                dataset.config(protocol.scale, seed ^ 0xda7a).generate()
            });
            for seed in 0..protocol.seeds as u64 {
                let graph = dataset.config(protocol.scale, seed ^ 0xda7a).generate();
                let split = benchtemp_core::dataloader::LinkPredSplit::new(&graph, seed);
                let mut model =
                    benchtemp_models::zoo::build("NAT", protocol.model_config(seed), &graph);
                let mut cfg = protocol.train_config(seed);
                cfg.neg_strategy = strategy;
                cfg.rank_negatives = k;
                let run = benchtemp_core::pipeline::train_link_prediction(
                    model.as_mut(),
                    &graph,
                    &split,
                    &cfg,
                );
                eprintln!(
                    "NAT/{sname} on {} seed {seed}: trans AUC {:.4}",
                    dataset.name(),
                    run.transductive.auc
                );
                for setting in Setting::all() {
                    let m = measured(&run, setting);
                    let row = format!("{} / {}", sname, dataset.name());
                    auc.add_opt(&row, setting.name(), m.map(|m| m.auc));
                    ap.add_opt(&row, setting.name(), m.map(|m| m.ap));
                }
                raw_runs.push(run);
            }
        }
    }

    println!(
        "{}",
        auc.render_plain(
            "Table 26 — NAT ROC AUC by negative-sampling strategy",
            "Sampler/Dataset"
        )
    );
    println!(
        "{}",
        ap.render_plain(
            "Table 27 — NAT AP by negative-sampling strategy",
            "Sampler/Dataset"
        )
    );
    save_json(
        &protocol.out_dir,
        "table26_negative_sampling.json",
        &json!({
            "auc": auc.to_entries(),
            "ap": ap.to_entries(),
        }),
    );
    save_json(&protocol.out_dir, "table26_raw_runs.json", &raw_runs);
}
