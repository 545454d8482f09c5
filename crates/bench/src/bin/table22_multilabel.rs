//! Table 22 — dynamic node classification with multiple labels on the
//! DGraphFin-style dataset (4 classes: normal / fraud / two background
//! tiers): Accuracy and support-weighted Precision / Recall / F1
//! (Appendix G formulas).

use benchtemp_bench::{run_nc_seed_on, save_json, Protocol, TableBuilder};
use benchtemp_graph::datasets::BenchDataset;
use benchtemp_models::zoo::PAPER_MODELS;

fn main() {
    let protocol = Protocol::from_args();
    let models = protocol.select_models(&PAPER_MODELS);
    let mut table = TableBuilder::new();

    for model_name in &models {
        for seed in 0..protocol.seeds as u64 {
            let graph = BenchDataset::DGraphFin
                .config(protocol.scale, seed ^ 0xda7a)
                .generate();
            let (_, run) = run_nc_seed_on(model_name, &graph, &protocol, seed);
            let m = run.multiclass.expect("DGraphFin is multi-class");
            eprintln!(
                "{model_name} seed {seed}: acc {:.4} f1w {:.4}",
                m.accuracy, m.f1_weighted
            );
            table.add("Accuracy", model_name, m.accuracy);
            table.add("Precision", model_name, m.precision_weighted);
            table.add("Recall", model_name, m.recall_weighted);
            table.add("F1", model_name, m.f1_weighted);
        }
    }

    println!(
        "{}",
        table.render(
            "Table 22 — multi-label node classification on DGraphFin",
            "Metric"
        )
    );
    save_json(
        &protocol.out_dir,
        "table22_multilabel.json",
        &table.to_entries(),
    );
}
