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

use benchtemp_bench::{
    per_setting_json, save_json, save_raw_runs, EfficiencyTables, Protocol, SettingTables,
    TABLE3_LP,
};
use benchtemp_util::json;

fn main() {
    let protocol = Protocol::from_args();
    let runs = TABLE3_LP.run(&protocol);
    let t = SettingTables::new(&runs);
    let eff = EfficiencyTables::new(&runs);

    for (setting, table) in &t.auc {
        let title = format!("Table 3 ({}) — ROC AUC", setting.name());
        println!("{}", table.render(&title, "Dataset"));
    }
    for (setting, table) in &t.ap {
        let title = format!("Table 10 ({}) — AP", setting.name());
        println!("{}", table.render(&title, "Dataset"));
    }
    // Ranking tables have rows only when the protocol ranks (`--rank-negs > 0`).
    for (setting, table) in t.mrr.iter().filter(|(_, t)| !t.rows().is_empty()) {
        let title = format!(
            "Ranking ({}) — filtered-negative MRR (K≤{}; k_effective per run in the raw runs)",
            setting.name(),
            protocol.rank_negatives
        );
        println!("{}", table.render(&title, "Dataset"));
    }
    for (setting, table) in t.hits_at_10.iter().filter(|(_, t)| !t.rows().is_empty()) {
        let title = format!("Ranking ({}) — Hits@10", setting.name());
        println!("{}", table.render(&title, "Dataset"));
    }
    for (table, title) in [
        (&eff.runtime, "Table 4 — Runtime (s/epoch)"),
        (&eff.epochs, "Table 4 — Epochs to convergence"),
        (&eff.rss, "Table 4 — Peak RSS (MB)"),
        (
            &eff.state,
            "Table 4 — Model state (MB, GPU-memory analogue)",
        ),
    ] {
        println!("{}", table.render_plain(title, "Dataset"));
    }
    println!(
        "{}",
        eff.util
            .render("Table 11 — Compute utilization (%)", "Dataset")
    );
    println!(
        "{}",
        eff.inference
            .render_plain("Fig. 7 — Inference seconds per 100k edges", "Dataset")
    );

    let out = &protocol.out_dir;
    save_json(out, "table3_auc.json", &per_setting_json(&t.auc));
    save_json(out, "table10_ap.json", &per_setting_json(&t.ap));
    save_json(
        out,
        "table4_efficiency.json",
        &json!({
            "runtime_s_per_epoch": eff.runtime.to_entries(),
            "epochs": eff.epochs.to_entries(),
            "peak_rss_mb": eff.rss.to_entries(),
            "model_state_mb": eff.state.to_entries(),
            "table11_utilization_pct": eff.util.to_entries(),
            "fig7_inference_s_per_100k": eff.inference.to_entries(),
        }),
    );
    save_json(
        out,
        "table3_ranking.json",
        &json!({
            "rank_negatives": protocol.rank_negatives,
            "mrr": per_setting_json(&t.mrr),
            "hits_at_1": per_setting_json(&t.hits_at_1),
            "hits_at_3": per_setting_json(&t.hits_at_3),
            "hits_at_10": per_setting_json(&t.hits_at_10),
        }),
    );
    save_raw_runs(out, "table3_raw_runs.json", &runs);
}
