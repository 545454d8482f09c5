//! The main link-prediction benchmark: 7 TGNN models × 15 datasets × 4
//! settings × N seeds. One set of runs regenerates, exactly as in the
//! paper where they come from the same jobs:
//!
//! * **Table 3** — ROC AUC per setting,
//! * **Table 10** — AP per setting,
//! * **Table 4** — runtime/epoch, epochs to convergence, peak RSS, model
//!   state bytes (GPU-memory analogue),
//! * **Table 11** — compute-utilization proxy (GPU-utilization analogue),
//! * **Fig. 7** — inference seconds per 100k edges.
//!
//! Timeouts are marked the way the paper marks them ("x" / "—").

use benchtemp_bench::{measured, run_lp_seed, save_json, Protocol, TableBuilder};
use benchtemp_core::dataloader::Setting;
use benchtemp_graph::datasets::BenchDataset;
use benchtemp_models::zoo::PAPER_MODELS;
use benchtemp_util::json;

fn main() {
    let protocol = Protocol::from_args();
    let models = protocol.select_models(&PAPER_MODELS);
    let datasets = protocol.select_datasets(&BenchDataset::all15());

    // (setting → AUC table), (setting → AP table), efficiency tables.
    let mut auc: Vec<(Setting, TableBuilder)> = Setting::all()
        .iter()
        .map(|&s| (s, TableBuilder::new()))
        .collect();
    let mut ap: Vec<(Setting, TableBuilder)> = Setting::all()
        .iter()
        .map(|&s| (s, TableBuilder::new()))
        .collect();
    // Filtered-negative ranking tables (one per setting per metric),
    // populated only when the protocol runs with `--rank-negs > 0`.
    let per_setting = || -> Vec<(Setting, TableBuilder)> {
        Setting::all()
            .iter()
            .map(|&s| (s, TableBuilder::new()))
            .collect()
    };
    let mut mrr = per_setting();
    let mut hits1 = per_setting();
    let mut hits3 = per_setting();
    let mut hits10 = per_setting();
    let mut runtime = TableBuilder::new();
    let mut epochs = TableBuilder::new();
    let mut rss = TableBuilder::new();
    let mut state = TableBuilder::new();
    let mut util = TableBuilder::new();
    let mut inference = TableBuilder::new();
    let mut raw_runs = Vec::new();

    let total_jobs = models.len() * datasets.len() * protocol.seeds;
    let mut done = 0usize;
    for &dataset in &datasets {
        // One K for every seed of the preset, so MRR means never mix K.
        let preset = protocol.for_preset(dataset);
        for model in &models {
            for seed in 0..protocol.seeds as u64 {
                let run = run_lp_seed(model, dataset, &preset, seed);
                done += 1;
                eprintln!(
                    "[{done}/{total_jobs}] {model} on {} seed {seed}: trans AUC {:.4}{}",
                    dataset.name(),
                    run.transductive.auc,
                    if run.efficiency.timed_out {
                        " (timeout)"
                    } else {
                        ""
                    }
                );
                let ds = dataset.name();
                for (setting, table) in auc.iter_mut() {
                    table.add_opt(ds, model, measured(&run, *setting).map(|m| m.auc));
                }
                for (setting, table) in ap.iter_mut() {
                    table.add_opt(ds, model, measured(&run, *setting).map(|m| m.ap));
                }
                for (tables, pick) in [
                    (
                        &mut mrr,
                        (|r| r.mrr) as fn(&benchtemp_core::RankingMetrics) -> f64,
                    ),
                    (&mut hits1, |r| r.hits_at_1),
                    (&mut hits3, |r| r.hits_at_3),
                    (&mut hits10, |r| r.hits_at_10),
                ] {
                    for (setting, table) in tables.iter_mut() {
                        // Ranking ran for this job; an empty setting
                        // still gets its `n/a` cell.
                        if let Some(r) = run.metrics_for(*setting).ranking {
                            table.add_opt(ds, model, measured(&run, *setting).map(|_| pick(&r)));
                        }
                    }
                }
                runtime.add(ds, model, run.efficiency.runtime_per_epoch_secs);
                epochs.add(ds, model, run.efficiency.epochs_to_converge as f64);
                if let Some(b) = run.efficiency.peak_rss_bytes {
                    rss.add(ds, model, b as f64 / 1e6);
                }
                state.add(ds, model, run.efficiency.model_state_bytes as f64 / 1e6);
                util.add(ds, model, run.efficiency.compute_utilization * 100.0);
                inference.add(ds, model, run.efficiency.inference_secs_per_100k);
                raw_runs.push(run);
            }
        }
    }

    for (setting, table) in &auc {
        println!(
            "{}",
            table.render(
                &format!("Table 3 ({}) — ROC AUC", setting.name()),
                "Dataset"
            )
        );
    }
    for (setting, table) in &ap {
        println!(
            "{}",
            table.render(&format!("Table 10 ({}) — AP", setting.name()), "Dataset")
        );
    }
    for (setting, table) in &mrr {
        if !table.rows().is_empty() {
            println!(
                "{}",
                table.render(
                    &format!(
                        "Ranking ({}) — filtered-negative MRR (K≤{}; k_effective per run in the raw runs)",
                        setting.name(),
                        protocol.rank_negatives
                    ),
                    "Dataset"
                )
            );
        }
    }
    for (setting, table) in &hits10 {
        if !table.rows().is_empty() {
            println!(
                "{}",
                table.render(
                    &format!("Ranking ({}) — Hits@10", setting.name()),
                    "Dataset"
                )
            );
        }
    }
    println!(
        "{}",
        runtime.render_plain("Table 4 — Runtime (s/epoch)", "Dataset")
    );
    println!(
        "{}",
        epochs.render_plain("Table 4 — Epochs to convergence", "Dataset")
    );
    println!("{}", rss.render_plain("Table 4 — Peak RSS (MB)", "Dataset"));
    println!(
        "{}",
        state.render_plain("Table 4 — Model state (MB, GPU-memory analogue)", "Dataset")
    );
    println!(
        "{}",
        util.render("Table 11 — Compute utilization (%)", "Dataset")
    );
    println!(
        "{}",
        inference.render_plain("Fig. 7 — Inference seconds per 100k edges", "Dataset")
    );

    save_json(
        &protocol.out_dir,
        "table3_auc.json",
        &auc.iter()
            .map(|(s, t)| json!({ "setting": s.name(), "cells": t.to_entries() }))
            .collect::<Vec<_>>(),
    );
    save_json(
        &protocol.out_dir,
        "table10_ap.json",
        &ap.iter()
            .map(|(s, t)| json!({ "setting": s.name(), "cells": t.to_entries() }))
            .collect::<Vec<_>>(),
    );
    save_json(
        &protocol.out_dir,
        "table4_efficiency.json",
        &json!({
            "runtime_s_per_epoch": runtime.to_entries(),
            "epochs": epochs.to_entries(),
            "peak_rss_mb": rss.to_entries(),
            "model_state_mb": state.to_entries(),
            "table11_utilization_pct": util.to_entries(),
            "fig7_inference_s_per_100k": inference.to_entries(),
        }),
    );
    save_json(
        &protocol.out_dir,
        "table3_ranking.json",
        &json!({
            "rank_negatives": protocol.rank_negatives,
            "mrr": mrr
                .iter()
                .map(|(s, t)| json!({ "setting": s.name(), "cells": t.to_entries() }))
                .collect::<Vec<_>>(),
            "hits_at_1": hits1
                .iter()
                .map(|(s, t)| json!({ "setting": s.name(), "cells": t.to_entries() }))
                .collect::<Vec<_>>(),
            "hits_at_3": hits3
                .iter()
                .map(|(s, t)| json!({ "setting": s.name(), "cells": t.to_entries() }))
                .collect::<Vec<_>>(),
            "hits_at_10": hits10
                .iter()
                .map(|(s, t)| json!({ "setting": s.name(), "cells": t.to_entries() }))
                .collect::<Vec<_>>(),
        }),
    );
    save_json(&protocol.out_dir, "table3_raw_runs.json", &raw_runs);
}
