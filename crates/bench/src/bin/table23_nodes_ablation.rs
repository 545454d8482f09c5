//! Table 23 — ablation of NeurTW's neural-ODE component on a
//! large-granularity dataset (CanParl, yearly ticks) vs a tiny-granularity
//! one (USLegis, timestamps 0..11): removing NODEs should hurt CanParl far
//! more than USLegis (Appendix H).

use benchtemp_bench::{measured, run_lp_seed, save_json, Protocol, TableBuilder};
use benchtemp_core::dataloader::Setting;
use benchtemp_graph::datasets::BenchDataset;
use benchtemp_util::json;

fn main() {
    let protocol = Protocol::from_args();
    let mut auc = TableBuilder::new();
    let mut ap = TableBuilder::new();
    let mut raw_runs = Vec::new();

    for dataset in [BenchDataset::CanParl, BenchDataset::UsLegis] {
        let preset = protocol.for_preset(dataset);
        for variant in ["NeurTW", "NeurTW-noNODE"] {
            for seed in 0..protocol.seeds as u64 {
                let run = run_lp_seed(variant, dataset, &preset, seed);
                eprintln!(
                    "{variant} on {} seed {seed}: trans AUC {:.4}",
                    dataset.name(),
                    run.transductive.auc
                );
                for setting in Setting::all() {
                    let m = measured(&run, setting);
                    let row = format!("{} / {}", dataset.name(), setting.name());
                    auc.add_opt(&row, variant, m.map(|m| m.auc));
                    ap.add_opt(&row, variant, m.map(|m| m.ap));
                }
                raw_runs.push(run);
            }
        }
    }

    println!(
        "{}",
        auc.render(
            "Table 23 — NeurTW NODEs ablation, ROC AUC",
            "Dataset/Setting"
        )
    );
    println!(
        "{}",
        ap.render("Table 23 — NeurTW NODEs ablation, AP", "Dataset/Setting")
    );
    save_json(
        &protocol.out_dir,
        "table23_nodes_ablation.json",
        &json!({
            "auc": auc.to_entries(),
            "ap": ap.to_entries(),
        }),
    );
    save_json(&protocol.out_dir, "table23_raw_runs.json", &raw_runs);
}
