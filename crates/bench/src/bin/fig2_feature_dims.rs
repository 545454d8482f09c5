//! Fig. 2 — link-prediction ROC AUC on a MOOC-style dataset as the initial
//! node-feature dimension sweeps 4 → 172: the experiment behind the paper's
//! decision to standardize on 172 dims (§3.1).

use benchtemp_bench::{save_json, save_raw_runs, Protocol, TableBuilder, FIG2_FEATURE_DIMS};

fn main() {
    let protocol = Protocol::from_args();
    let runs = FIG2_FEATURE_DIMS.run(&protocol);
    let mut table = TableBuilder::new();
    for r in &runs {
        table.add(&r.preset, &r.model, r.lp.transductive.auc);
    }

    println!(
        "{}",
        table.render(
            "Fig. 2 — MOOC LP ROC AUC vs initial node-feature dimension",
            "Node dim"
        )
    );
    save_json(
        &protocol.out_dir,
        "fig2_feature_dims.json",
        &table.to_entries(),
    );
    save_raw_runs(&protocol.out_dir, "fig2_raw_runs.json", &runs);
}
