//! Tables 17, 18, 20 — the Appendix-F evaluation on the six newly added
//! datasets: ROC AUC (Table 17) and AP (Table 18) per setting with the
//! **Average Rank** metric over the four large-scale datasets, plus the
//! efficiency block (Table 20).

use benchtemp_bench::{
    measured, per_setting_json, save_json, EfficiencyTables, Protocol, SettingTables,
    TABLE17_NEW_DATASETS,
};
use benchtemp_core::dataloader::Setting;
use benchtemp_core::leaderboard::Leaderboard;
use benchtemp_graph::datasets::BenchDataset;
use benchtemp_util::json;

fn main() {
    let protocol = Protocol::from_args();
    let runs = TABLE17_NEW_DATASETS.run(&protocol);
    let t = SettingTables::new(&runs);
    let eff = EfficiencyTables::new(&runs);

    // Per (dataset, model) job: AUC per setting, plus per-stage wall-clock
    // from the obs profile and peak RSS, in the leaderboard JSON.
    let mut leaderboard = Leaderboard::new();
    for job in runs.chunk_by(|a, b| a.preset == b.preset && a.model == b.model) {
        let (ds, model) = (job[0].preset.as_str(), job[0].model.as_str());
        let mut push = |setting: &str, metric: &str, values: &[f64]| {
            leaderboard.push_runs(model, ds, "link_prediction", setting, metric, values);
        };
        for setting in Setting::all() {
            let auc: Vec<f64> = job
                .iter()
                .filter_map(|r| measured(&r.lp, setting).map(|m| m.auc))
                .collect();
            if !auc.is_empty() {
                push(setting.name(), "AUC", &auc);
            }
        }
        let stages: Vec<[f64; 4]> = job
            .iter()
            .map(|r| {
                let s = &r.lp.efficiency.stages;
                [s.train_secs, s.val_secs, s.test_secs, s.job_secs]
            })
            .collect();
        for (i, metric) in ["train_secs", "val_secs", "test_secs", "job_secs"]
            .into_iter()
            .enumerate()
        {
            push(
                "Efficiency",
                metric,
                &stages.iter().map(|s| s[i]).collect::<Vec<_>>(),
            );
        }
        // Seeds where /proc/self/status is unavailable contribute nothing.
        let rss: Vec<f64> = job
            .iter()
            .filter_map(|r| r.lp.efficiency.peak_rss_bytes)
            .map(|b| b as f64 / 1e6)
            .collect();
        if !rss.is_empty() {
            push("Efficiency", "peak_rss_mb", &rss);
        }
    }

    // Average Rank over the large-scale datasets (Table 17's extra metric).
    let large: Vec<&str> = BenchDataset::large4().iter().map(|d| d.name()).collect();
    for (setting, table) in &t.auc {
        let title = format!("Table 17 ({}) — ROC AUC, new datasets", setting.name());
        println!("{}", table.render(&title, "Dataset"));
        let ranks = leaderboard.average_rank(&large, "link_prediction", setting.name(), "AUC");
        println!(
            "Average Rank ({}, large-scale): {:?}",
            setting.name(),
            ranks
        );
    }
    for (setting, table) in &t.ap {
        let title = format!("Table 18 ({}) — AP, new datasets", setting.name());
        println!("{}", table.render(&title, "Dataset"));
    }
    for (table, title) in [
        (&eff.runtime, "Table 20 — Runtime (s/epoch), new datasets"),
        (&eff.rss, "Table 20 — Peak RSS (MB)"),
        (&eff.state, "Table 20 — Model state (MB)"),
    ] {
        println!("{}", table.render_plain(title, "Dataset"));
    }

    leaderboard
        .save(&protocol.out_dir.join("leaderboard_new_datasets.json"))
        .expect("save");
    save_json(
        &protocol.out_dir,
        "table17_new_datasets.json",
        &json!({
            "auc": per_setting_json(&t.auc),
            "ap": per_setting_json(&t.ap),
            "table20_runtime": eff.runtime.to_entries(),
            "table20_rss_mb": eff.rss.to_entries(),
            "table20_state_mb": eff.state.to_entries(),
        }),
    );
}
