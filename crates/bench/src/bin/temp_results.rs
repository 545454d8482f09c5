//! Tables 13, 14, 15 — the TeMP model (Appendix E): link-prediction AUC/AP
//! across the four settings on all fifteen datasets, LP efficiency, and
//! node-classification AUC + efficiency on the labelled datasets.

use benchtemp_bench::{measured, run_lp_seed, run_nc_seed_on, save_json, Protocol, TableBuilder};
use benchtemp_core::dataloader::Setting;
use benchtemp_graph::datasets::BenchDataset;
use benchtemp_util::json;

fn main() {
    let protocol = Protocol::from_args();
    let datasets = protocol.select_datasets(&BenchDataset::all15());

    // ---- Table 13: AUC & AP per setting ----
    let mut auc = TableBuilder::new();
    let mut ap = TableBuilder::new();
    let mut eff = TableBuilder::new();
    let mut raw_runs = Vec::new();
    for &dataset in &datasets {
        let preset = protocol.for_preset(dataset);
        for seed in 0..protocol.seeds as u64 {
            let run = run_lp_seed("TeMP", dataset, &preset, seed);
            eprintln!(
                "TeMP on {} seed {seed}: trans AUC {:.4}",
                dataset.name(),
                run.transductive.auc
            );
            let ds = dataset.name();
            for setting in Setting::all() {
                let m = measured(&run, setting);
                auc.add_opt(ds, setting.name(), m.map(|m| m.auc));
                ap.add_opt(ds, setting.name(), m.map(|m| m.ap));
            }
            eff.add(
                ds,
                "Runtime (s/epoch)",
                run.efficiency.runtime_per_epoch_secs,
            );
            eff.add(ds, "Epoch", run.efficiency.epochs_to_converge as f64);
            if let Some(b) = run.efficiency.peak_rss_bytes {
                eff.add(ds, "RSS (MB)", b as f64 / 1e6);
            }
            eff.add(
                ds,
                "State (MB)",
                run.efficiency.model_state_bytes as f64 / 1e6,
            );
            eff.add(ds, "Util (%)", run.efficiency.compute_utilization * 100.0);
            raw_runs.push(run);
        }
    }
    println!(
        "{}",
        auc.render_plain("Table 13 — TeMP link-prediction ROC AUC", "Dataset")
    );
    println!(
        "{}",
        ap.render_plain("Table 13 — TeMP link-prediction AP", "Dataset")
    );
    println!(
        "{}",
        eff.render_plain("Table 14 — TeMP LP efficiency", "Dataset")
    );

    // ---- Table 15: TeMP node classification ----
    let mut nc = TableBuilder::new();
    for dataset in [
        BenchDataset::Reddit,
        BenchDataset::Wikipedia,
        BenchDataset::Mooc,
    ] {
        for seed in 0..protocol.seeds as u64 {
            let graph = dataset.config(protocol.scale, seed ^ 0xda7a).generate();
            let (_, run) = run_nc_seed_on("TeMP", &graph, &protocol, seed);
            let ds = dataset.name();
            nc.add(ds, "AUC", run.auc);
            nc.add(
                ds,
                "Runtime (s/epoch)",
                run.efficiency.runtime_per_epoch_secs,
            );
            nc.add(ds, "Epoch", run.efficiency.epochs_to_converge as f64);
            nc.add(
                ds,
                "State (MB)",
                run.efficiency.model_state_bytes as f64 / 1e6,
            );
        }
    }
    println!(
        "{}",
        nc.render_plain("Table 15 — TeMP node classification", "Dataset")
    );

    save_json(
        &protocol.out_dir,
        "temp_tables13_15.json",
        &json!({
            "table13_auc": auc.to_entries(),
            "table13_ap": ap.to_entries(),
            "table14_efficiency": eff.to_entries(),
            "table15_nc": nc.to_entries(),
        }),
    );
    save_json(&protocol.out_dir, "temp_raw_runs.json", &raw_runs);
}
