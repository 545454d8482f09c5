//! Table 1 — anatomy of the TGNN models, derived from each model's
//! `Anatomy` implementation; plus the Table 8/9 dimension parameters
//! (node/edge/time/positional dims per dataset under Eq. 1).

use benchtemp_bench::{render_table, save_json, Protocol};
use benchtemp_graph::datasets::BenchDataset;
use benchtemp_models::common::ModelConfig;
use benchtemp_models::zoo;
use benchtemp_util::json;

fn main() {
    let protocol = Protocol::from_args();
    let demo = BenchDataset::Wikipedia.config(0.005, 1).generate();

    // ---- Table 1 ----
    let headers: Vec<String> = [
        "Model",
        "Memory",
        "Attention",
        "RNN",
        "TempWalk",
        "Scalability",
        "Supervised",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let tick = |b: bool| if b { "✓" } else { "" }.to_string();
    let mut rows = Vec::new();
    for name in zoo::PAPER_MODELS.iter().chain(["TeMP", "EdgeBank"].iter()) {
        let model = zoo::build(
            name,
            ModelConfig {
                embed_dim: 8,
                ..Default::default()
            },
            &demo,
        );
        let a = model.anatomy();
        rows.push(vec![
            name.to_string(),
            tick(a.memory),
            tick(a.attention),
            tick(a.rnn),
            tick(a.temp_walk),
            tick(a.scalability),
            a.supervision.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table("Table 1: anatomy of TGNN models", &headers, &rows)
    );

    // ---- Tables 8/9: per-dataset dimension parameters ----
    // d_n = d_time = 172 everywhere; d_e per Table 8; n_head chosen so that
    // Eq. 1 ((d_n + d_e + d_time + d_pos) % n_head == 0) holds; CAWN fixes
    // n_head = 2 and adjusts d_pos.
    let headers: Vec<String> = [
        "Dataset",
        "d_n",
        "d_e",
        "d_time",
        "TGAT d_pos",
        "TGAT heads",
        "CAWN d_pos",
        "CAWN heads",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    let mut dim_report = Vec::new();
    for d in BenchDataset::all15() {
        let (dn, dtime) = (172usize, 172usize);
        let de = d.edge_dim();
        // TGAT: d_pos = 172; heads = 2 if the sum divides, else 1.
        let tgat_pos = 172usize;
        let tgat_heads = if (dn + de + dtime + tgat_pos).is_multiple_of(2) {
            2
        } else {
            1
        };
        // CAWN: heads fixed at 2; pick the d_pos that makes the sum even.
        let cawn_heads = 2usize;
        let base = dn + de + dtime;
        let cawn_pos = if (base + 100).is_multiple_of(cawn_heads) {
            100
        } else {
            103
        };
        assert_eq!(
            (dn + de + dtime + cawn_pos) % cawn_heads,
            0,
            "Eq. 1 violated"
        );
        rows.push(vec![
            d.name().to_string(),
            dn.to_string(),
            de.to_string(),
            dtime.to_string(),
            tgat_pos.to_string(),
            tgat_heads.to_string(),
            cawn_pos.to_string(),
            cawn_heads.to_string(),
        ]);
        dim_report.push(json!({
            "dataset": d.name(), "d_n": dn, "d_e": de, "d_time": dtime,
            "tgat_heads": tgat_heads, "cawn_d_pos": cawn_pos,
        }));
    }
    println!(
        "{}",
        render_table(
            "Tables 8/9: attention dimension parameters (Eq. 1)",
            &headers,
            &rows
        )
    );
    save_json(&protocol.out_dir, "anatomy_dims.json", &dim_report);
}
