//! Tables 24 & 25 — graph density vs CAWN quality (Appendix I): sample two
//! random subgraphs of the MOOC-style dataset with a constant edge count
//! N_e but different temporal densities σ = N_e / (N_u · N_i); the temporal
//! walk mechanism should do visibly better on the denser subgraph.

use benchtemp_bench::{
    density, density_subgraphs, measured, render_table, run_lp_seed_on, save_json, Protocol,
    TableBuilder,
};
use benchtemp_core::dataloader::Setting;
use benchtemp_core::sampler::NegativeStrategy;
use benchtemp_util::{json, Json, ToJson};

fn main() {
    let protocol = Protocol::from_args();
    let [g_s1, g_s2] = density_subgraphs(protocol.scale);

    let headers: Vec<String> = ["Subgraph", "N_e", "N_u", "N_i", "σ (density)"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let rows = [&g_s1, &g_s2]
        .iter()
        .map(|g| {
            vec![
                g.name.clone(),
                g.num_events().to_string(),
                g.num_users.to_string(),
                (g.num_nodes - g.num_users).to_string(),
                format!("{:.4}", density(g)),
            ]
        })
        .collect::<Vec<_>>();
    println!(
        "{}",
        render_table("Table 24 — sampled subgraph parameters", &headers, &rows)
    );
    assert!(
        density(&g_s1) > density(&g_s2),
        "G_S1 must be denser than G_S2"
    );

    let mut auc = TableBuilder::new();
    let mut ap = TableBuilder::new();
    let mut raw_runs = Vec::new();
    for g in [&g_s1, &g_s2] {
        let preset = Protocol {
            rank_negatives: protocol.k_preset(NegativeStrategy::Random, |_| (*g).clone()),
            ..protocol.clone()
        };
        for seed in 0..protocol.seeds as u64 {
            let run = run_lp_seed_on("CAWN", g, &preset, seed);
            eprintln!(
                "CAWN on {} seed {seed}: trans AUC {:.4}",
                g.name, run.transductive.auc
            );
            for setting in Setting::all() {
                let m = measured(&run, setting);
                auc.add_opt(&g.name, setting.name(), m.map(|m| m.auc));
                ap.add_opt(&g.name, setting.name(), m.map(|m| m.ap));
            }
            raw_runs.push(run);
        }
    }
    println!(
        "{}",
        auc.render_plain("Table 25 — CAWN ROC AUC vs subgraph density", "Subgraph")
    );
    println!(
        "{}",
        ap.render_plain("Table 25 — CAWN AP vs subgraph density", "Subgraph")
    );
    // Dataset names are dynamic keys, so this object is built directly.
    let densities = Json::Obj(vec![
        (g_s1.name.clone(), density(&g_s1).to_json()),
        (g_s2.name.clone(), density(&g_s2).to_json()),
    ]);
    save_json(
        &protocol.out_dir,
        "table25_density.json",
        &json!({
            "densities": densities,
            "auc": auc.to_entries(),
            "ap": ap.to_entries(),
        }),
    );
    save_json(&protocol.out_dir, "table25_raw_runs.json", &raw_runs);
}
