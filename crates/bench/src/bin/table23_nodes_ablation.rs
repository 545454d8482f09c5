//! Table 23 — ablation of NeurTW's neural-ODE component on a
//! large-granularity dataset (CanParl, yearly ticks) vs a tiny-granularity
//! one (USLegis, timestamps 0..11): removing NODEs should hurt CanParl far
//! more than USLegis (Appendix H).

use benchtemp_bench::{auc_ap_tables, save_json, save_raw_runs, Protocol, TABLE23_NODES_ABLATION};
use benchtemp_util::json;

fn main() {
    let protocol = Protocol::from_args();
    let runs = TABLE23_NODES_ABLATION.run(&protocol);
    let (auc, ap) = auc_ap_tables(&runs, |r, s| {
        (format!("{} / {}", r.preset, s.name()), r.model.clone())
    });

    for (table, metric) in [(&auc, "ROC AUC"), (&ap, "AP")] {
        let title = format!("Table 23 — NeurTW NODEs ablation, {metric}");
        println!("{}", table.render(&title, "Dataset/Setting"));
    }
    save_json(
        &protocol.out_dir,
        "table23_nodes_ablation.json",
        &json!({
            "auc": auc.to_entries(),
            "ap": ap.to_entries(),
        }),
    );
    save_raw_runs(&protocol.out_dir, "table23_raw_runs.json", &runs);
}
