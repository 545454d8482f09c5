//! Tables 5 & 12 — node classification on the labelled datasets (Reddit,
//! Wikipedia, MOOC): test ROC AUC per model (Table 5) and the NC efficiency
//! block (Table 12). Protocol: self-supervised LP pre-training, then the
//! frozen-embedding decoder (§3.2.2).

use benchtemp_bench::{
    save_json, save_raw_runs, EfficiencyTables, Protocol, Run, TableBuilder, TABLE5_NC,
};
use benchtemp_util::json;

fn main() {
    let protocol = Protocol::from_args();
    let runs = TABLE5_NC.run(&protocol);
    let mut auc = TableBuilder::new();
    for r in &runs {
        auc.add(&r.preset, &r.model, r.nc().auc);
    }
    let eff = EfficiencyTables::new(&runs);

    let title = "Table 5 — node classification ROC AUC";
    println!("{}", auc.render(title, "Dataset"));
    for (table, title) in [
        (&eff.runtime, "Table 12 — NC runtime (s/epoch)"),
        (&eff.epochs, "Table 12 — NC epochs"),
        (&eff.rss, "Table 12 — NC peak RSS (MB)"),
        (&eff.state, "Table 12 — NC model state (MB)"),
    ] {
        println!("{}", table.render_plain(title, "Dataset"));
    }
    println!(
        "{}",
        eff.util
            .render("Table 12 — NC compute utilization (%)", "Dataset")
    );

    let out = &protocol.out_dir;
    save_json(out, "table5_nc_auc.json", &auc.to_entries());
    save_json(
        out,
        "table12_nc_efficiency.json",
        &json!({
            "runtime_s_per_epoch": eff.runtime.to_entries(),
            "epochs": eff.epochs.to_entries(),
            "peak_rss_mb": eff.rss.to_entries(),
            "model_state_mb": eff.state.to_entries(),
            "utilization_pct": eff.util.to_entries(),
        }),
    );
    save_json(
        out,
        "table5_raw_runs.json",
        &runs.iter().map(Run::nc).collect::<Vec<_>>(),
    );
    save_raw_runs(out, "table5_pretrain_raw_runs.json", &runs);
}
