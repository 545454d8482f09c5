//! Tables 13, 14, 15 — the TeMP model (Appendix E): link-prediction AUC/AP
//! across the four settings on all fifteen datasets, LP efficiency, and
//! node-classification AUC + efficiency on the labelled datasets.

use benchtemp_bench::{
    auc_ap_tables, save_json, save_raw_runs, Protocol, TableBuilder, TEMP_LP, TEMP_NC,
};
use benchtemp_util::json;

fn main() {
    let protocol = Protocol::from_args();

    // ---- Tables 13 & 14: LP AUC & AP per setting, LP efficiency ----
    let runs = TEMP_LP.run(&protocol);
    let (auc, ap) = auc_ap_tables(&runs, |r, s| (r.preset.clone(), s.name().to_string()));
    let mut eff = TableBuilder::new();
    for r in &runs {
        let (ds, e) = (&r.preset, &r.lp.efficiency);
        eff.add(ds, "Runtime (s/epoch)", e.runtime_per_epoch_secs);
        eff.add(ds, "Epoch", e.epochs_to_converge as f64);
        if let Some(b) = e.peak_rss_bytes {
            eff.add(ds, "RSS (MB)", b as f64 / 1e6);
        }
        eff.add(ds, "State (MB)", e.model_state_bytes as f64 / 1e6);
        eff.add(ds, "Util (%)", e.compute_utilization * 100.0);
    }
    for (table, title) in [
        (&auc, "Table 13 — TeMP link-prediction ROC AUC"),
        (&ap, "Table 13 — TeMP link-prediction AP"),
        (&eff, "Table 14 — TeMP LP efficiency"),
    ] {
        println!("{}", table.render_plain(title, "Dataset"));
    }

    // ---- Table 15: TeMP node classification ----
    let mut nc = TableBuilder::new();
    for r in TEMP_NC.run(&protocol) {
        let (ds, run, e) = (&r.preset, r.nc(), &r.nc().efficiency);
        nc.add(ds, "AUC", run.auc);
        nc.add(ds, "Runtime (s/epoch)", e.runtime_per_epoch_secs);
        nc.add(ds, "Epoch", e.epochs_to_converge as f64);
        nc.add(ds, "State (MB)", e.model_state_bytes as f64 / 1e6);
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
    save_raw_runs(&protocol.out_dir, "temp_raw_runs.json", &runs);
}
