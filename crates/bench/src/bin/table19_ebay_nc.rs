//! Tables 19 & 21 — dynamic node classification on the eBay datasets:
//! ROC AUC per model with Average Rank (Table 19) and the NC efficiency
//! block for the new datasets (Table 21).

use benchtemp_bench::{run_nc_seed_on, save_json, Protocol, TableBuilder};
use benchtemp_core::leaderboard::Leaderboard;
use benchtemp_graph::datasets::BenchDataset;
use benchtemp_models::zoo::PAPER_MODELS;
use benchtemp_util::json;

fn main() {
    let protocol = Protocol::from_args();
    let models = protocol.select_models(&PAPER_MODELS);
    let datasets = protocol.select_datasets(&[BenchDataset::EbaySmall, BenchDataset::EbayLarge]);

    let mut auc = TableBuilder::new();
    let mut runtime = TableBuilder::new();
    let mut rss = TableBuilder::new();
    let mut state = TableBuilder::new();
    let mut leaderboard = Leaderboard::new();

    for &dataset in &datasets {
        for model_name in &models {
            let mut values = Vec::new();
            for seed in 0..protocol.seeds as u64 {
                let graph = dataset.config(protocol.scale, seed ^ 0xda7a).generate();
                let (_, run) = run_nc_seed_on(model_name, &graph, &protocol, seed);
                eprintln!(
                    "{model_name} on {} seed {seed}: NC AUC {:.4}",
                    dataset.name(),
                    run.auc
                );
                let ds = dataset.name();
                auc.add(ds, model_name, run.auc);
                runtime.add(ds, model_name, run.efficiency.runtime_per_epoch_secs);
                if let Some(b) = run.efficiency.peak_rss_bytes {
                    rss.add(ds, model_name, b as f64 / 1e6);
                }
                state.add(
                    ds,
                    model_name,
                    run.efficiency.model_state_bytes as f64 / 1e6,
                );
                values.push(run.auc);
            }
            leaderboard.push_runs(
                model_name,
                dataset.name(),
                "node_classification",
                "Transductive",
                "AUC",
                &values,
            );
        }
    }

    println!(
        "{}",
        auc.render("Table 19 — eBay node classification ROC AUC", "Dataset")
    );
    let ds_names: Vec<&str> = datasets.iter().map(|d| d.name()).collect();
    let ranks = leaderboard.average_rank(&ds_names, "node_classification", "Transductive", "AUC");
    println!("Average Rank: {ranks:?}");
    println!(
        "{}",
        runtime.render_plain("Table 21 — NC runtime (s/epoch)", "Dataset")
    );
    println!(
        "{}",
        rss.render_plain("Table 21 — NC peak RSS (MB)", "Dataset")
    );
    println!(
        "{}",
        state.render_plain("Table 21 — NC model state (MB)", "Dataset")
    );

    let ranks_json: Vec<_> = ranks
        .iter()
        .map(|(m, r)| json!({ "model": m.as_str(), "rank": *r }))
        .collect();
    save_json(
        &protocol.out_dir,
        "table19_ebay_nc.json",
        &json!({
            "auc": auc.to_entries(),
            "average_rank": ranks_json,
            "table21_runtime": runtime.to_entries(),
            "table21_rss_mb": rss.to_entries(),
            "table21_state_mb": state.to_entries(),
        }),
    );
}
