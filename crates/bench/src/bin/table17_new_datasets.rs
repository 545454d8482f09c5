//! Tables 17, 18, 20 — the Appendix-F evaluation on the six newly added
//! datasets: ROC AUC (Table 17) and AP (Table 18) per setting with the
//! **Average Rank** metric over the four large-scale datasets, plus the
//! efficiency block (Table 20).

use benchtemp_bench::{measured, run_lp_seed, save_json, Protocol, TableBuilder};
use benchtemp_core::dataloader::Setting;
use benchtemp_core::leaderboard::Leaderboard;
use benchtemp_graph::datasets::BenchDataset;
use benchtemp_models::zoo::PAPER_MODELS;
use benchtemp_util::json;

fn main() {
    let protocol = Protocol::from_args();
    let models = protocol.select_models(&PAPER_MODELS);
    let datasets = protocol.select_datasets(&BenchDataset::new6());

    let mut auc: Vec<(Setting, TableBuilder)> = Setting::all()
        .iter()
        .map(|&s| (s, TableBuilder::new()))
        .collect();
    let mut ap: Vec<(Setting, TableBuilder)> = Setting::all()
        .iter()
        .map(|&s| (s, TableBuilder::new()))
        .collect();
    let mut runtime = TableBuilder::new();
    let mut rss = TableBuilder::new();
    let mut state = TableBuilder::new();
    let mut leaderboard = Leaderboard::new();

    for &dataset in &datasets {
        let preset = protocol.for_preset(dataset);
        for model in &models {
            let mut per_setting: Vec<Vec<f64>> = vec![Vec::new(); 4];
            // Per-stage wall-clock from the obs profile, surfaced in the
            // leaderboard JSON alongside the quality metrics.
            let mut per_stage: [Vec<f64>; 4] = Default::default();
            // Peak RSS per seed (MB); seeds where /proc/self/status is
            // unavailable simply contribute nothing.
            let mut per_rss: Vec<f64> = Vec::new();
            for seed in 0..protocol.seeds as u64 {
                let run = run_lp_seed(model, dataset, &preset, seed);
                eprintln!(
                    "{model} on {} seed {seed}: trans AUC {:.4}",
                    dataset.name(),
                    run.transductive.auc
                );
                let ds = dataset.name();
                for (i, setting) in Setting::all().iter().enumerate() {
                    let m = measured(&run, *setting);
                    auc[i].1.add_opt(ds, model, m.map(|m| m.auc));
                    ap[i].1.add_opt(ds, model, m.map(|m| m.ap));
                    per_setting[i].extend(m.map(|m| m.auc));
                }
                runtime.add(ds, model, run.efficiency.runtime_per_epoch_secs);
                if let Some(b) = run.efficiency.peak_rss_bytes {
                    rss.add(ds, model, b as f64 / 1e6);
                    per_rss.push(b as f64 / 1e6);
                }
                state.add(ds, model, run.efficiency.model_state_bytes as f64 / 1e6);
                let s = &run.efficiency.stages;
                for (acc, v) in
                    per_stage
                        .iter_mut()
                        .zip([s.train_secs, s.val_secs, s.test_secs, s.job_secs])
                {
                    acc.push(v);
                }
            }
            for (i, setting) in Setting::all().iter().enumerate() {
                if per_setting[i].is_empty() {
                    continue;
                }
                leaderboard.push_runs(
                    model,
                    dataset.name(),
                    "link_prediction",
                    setting.name(),
                    "AUC",
                    &per_setting[i],
                );
            }
            for (metric, values) in ["train_secs", "val_secs", "test_secs", "job_secs"]
                .iter()
                .zip(&per_stage)
            {
                leaderboard.push_runs(
                    model,
                    dataset.name(),
                    "link_prediction",
                    "Efficiency",
                    metric,
                    values,
                );
            }
            if !per_rss.is_empty() {
                leaderboard.push_runs(
                    model,
                    dataset.name(),
                    "link_prediction",
                    "Efficiency",
                    "peak_rss_mb",
                    &per_rss,
                );
            }
        }
    }

    // Average Rank over the large-scale datasets (Table 17's extra metric).
    let large: Vec<&str> = BenchDataset::large4().iter().map(|d| d.name()).collect();
    for (setting, table) in &auc {
        println!(
            "{}",
            table.render(
                &format!("Table 17 ({}) — ROC AUC, new datasets", setting.name()),
                "Dataset"
            )
        );
        let ranks = leaderboard.average_rank(&large, "link_prediction", setting.name(), "AUC");
        println!(
            "Average Rank ({}, large-scale): {:?}",
            setting.name(),
            ranks
        );
    }
    for (setting, table) in &ap {
        println!(
            "{}",
            table.render(
                &format!("Table 18 ({}) — AP, new datasets", setting.name()),
                "Dataset"
            )
        );
    }
    println!(
        "{}",
        runtime.render_plain("Table 20 — Runtime (s/epoch), new datasets", "Dataset")
    );
    println!(
        "{}",
        rss.render_plain("Table 20 — Peak RSS (MB)", "Dataset")
    );
    println!(
        "{}",
        state.render_plain("Table 20 — Model state (MB)", "Dataset")
    );

    leaderboard
        .save(&protocol.out_dir.join("leaderboard_new_datasets.json"))
        .expect("save");
    save_json(
        &protocol.out_dir,
        "table17_new_datasets.json",
        &json!({
            "auc": auc.iter().map(|(s, t)| json!({"setting": s.name(), "cells": t.to_entries()})).collect::<Vec<_>>(),
            "ap": ap.iter().map(|(s, t)| json!({"setting": s.name(), "cells": t.to_entries()})).collect::<Vec<_>>(),
            "table20_runtime": runtime.to_entries(),
            "table20_rss_mb": rss.to_entries(),
            "table20_state_mb": state.to_entries(),
        }),
    );
}
