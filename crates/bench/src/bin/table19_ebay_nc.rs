//! Tables 19 & 21 — dynamic node classification on the eBay datasets:
//! ROC AUC per model with Average Rank (Table 19) and the NC efficiency
//! block for the new datasets (Table 21).

use benchtemp_bench::{save_json, EfficiencyTables, Protocol, TableBuilder, TABLE19_EBAY_NC};
use benchtemp_core::leaderboard::Leaderboard;
use benchtemp_util::json;

fn main() {
    let protocol = Protocol::from_args();
    let runs = TABLE19_EBAY_NC.run(&protocol);
    let mut auc = TableBuilder::new();
    for r in &runs {
        auc.add(&r.preset, &r.model, r.nc().auc);
    }
    let eff = EfficiencyTables::new(&runs);
    let mut leaderboard = Leaderboard::new();
    for job in runs.chunk_by(|a, b| a.preset == b.preset && a.model == b.model) {
        let values: Vec<f64> = job.iter().map(|r| r.nc().auc).collect();
        let (ds, model) = (&job[0].preset, &job[0].model);
        leaderboard.push_runs(
            model,
            ds,
            "node_classification",
            "Transductive",
            "AUC",
            &values,
        );
    }

    println!(
        "{}",
        auc.render("Table 19 — eBay node classification ROC AUC", "Dataset")
    );
    let mut ds_names: Vec<&str> = runs.iter().map(|r| r.preset.as_str()).collect();
    ds_names.dedup();
    let ranks = leaderboard.average_rank(&ds_names, "node_classification", "Transductive", "AUC");
    println!("Average Rank: {ranks:?}");
    for (table, title) in [
        (&eff.runtime, "Table 21 — NC runtime (s/epoch)"),
        (&eff.rss, "Table 21 — NC peak RSS (MB)"),
        (&eff.state, "Table 21 — NC model state (MB)"),
    ] {
        println!("{}", table.render_plain(title, "Dataset"));
    }

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
            "table21_runtime": eff.runtime.to_entries(),
            "table21_rss_mb": eff.rss.to_entries(),
            "table21_state_mb": eff.state.to_entries(),
        }),
    );
}
