//! Tables 24 & 25 — graph density vs CAWN quality (Appendix I): sample two
//! random subgraphs of the MOOC-style dataset with a constant edge count
//! N_e but different temporal densities σ = N_e / (N_u · N_i); the temporal
//! walk mechanism should do visibly better on the denser subgraph.

use benchtemp_bench::{
    auc_ap_tables, density, density_subgraphs, render_table, save_json, save_raw_runs, Protocol,
    TABLE25_DENSITY,
};
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

    // Its presets are these two subgraphs, one graph for every seed.
    let runs = TABLE25_DENSITY.run(&protocol);
    let (auc, ap) = auc_ap_tables(&runs, |r, s| (r.preset.clone(), s.name().to_string()));
    for (table, metric) in [(&auc, "ROC AUC"), (&ap, "AP")] {
        let title = format!("Table 25 — CAWN {metric} vs subgraph density");
        println!("{}", table.render_plain(&title, "Subgraph"));
    }
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
    save_raw_runs(&protocol.out_dir, "table25_raw_runs.json", &runs);
}
