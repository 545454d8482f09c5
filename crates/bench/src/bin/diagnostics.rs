//! Diagnostic workloads: the model zoo on T-GRAB-style synthetic streams,
//! each of which isolates ONE temporal-reasoning skill (see
//! `benchtemp_graph::generators::DiagnosticSkill`):
//!
//! * **periodicity** — decode the active phase from the timestamp,
//! * **delayed-effect** — carry a pending cause across a fixed lag,
//! * **long-range-memory** — recall a partner buried under a long
//!   distractor phase.
//!
//! Each stream runs through the *full* link-prediction pipeline with
//! filtered-negative ranking enabled, so the headline number per skill is
//! transductive MRR: by construction the temporal rule is the only signal
//! (edge features are pure noise), so MRR directly measures the skill.
//! Prints per-skill tables plus a per-skill zoo ranking, and saves
//! `diagnostics.json` with the recorded rankings.

use benchtemp_bench::{save_json, save_raw_runs, Protocol, TableBuilder, DIAGNOSTICS};
use benchtemp_graph::generators::DiagnosticConfig;
use benchtemp_util::json;

fn main() {
    let mut protocol = Protocol::from_args();
    if protocol.rank_negatives == 0 {
        // Ranking is the whole point of the diagnostics; keep it on even if
        // the shared flag default was overridden to 0.
        eprintln!("diagnostics: --rank-negs 0 requested; forcing 20");
        protocol.rank_negatives = 20;
    }
    let models = (DIAGNOSTICS.models)(&protocol);
    let skills = DiagnosticConfig::suite(protocol.scale, 0);
    let runs = DIAGNOSTICS.run(&protocol);

    let mut mrr = TableBuilder::new();
    let mut hits10 = TableBuilder::new();
    let mut auc = TableBuilder::new();
    for r in &runs {
        let t = &r.lp.transductive;
        let rank = t.ranking.as_ref().expect("ranking pass disabled");
        mrr.add(&r.preset, &r.model, rank.mrr);
        hits10.add(&r.preset, &r.model, rank.hits_at_10);
        auc.add(&r.preset, &r.model, t.auc);
    }

    println!(
        "{}",
        mrr.render(
            &format!(
                "Diagnostics — transductive filtered-negative MRR (K={})",
                protocol.rank_negatives
            ),
            "Skill"
        )
    );
    println!("{}", hits10.render("Diagnostics — Hits@10", "Skill"));
    println!("{}", auc.render("Diagnostics — ROC AUC", "Skill"));

    // Per-skill zoo ranking by mean MRR (ties broken by name for a stable
    // record), printed and saved so regressions in a single skill are
    // visible as a rank flip, not just a metric drift.
    let mut skill_reports = Vec::new();
    for base in &skills {
        let mut ranked: Vec<(String, f64, f64)> = models
            .iter()
            .filter_map(|m| {
                let cell = mrr.cell(&base.name, m)?;
                Some((m.clone(), cell.mean, cell.std))
            })
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let line = ranked
            .iter()
            .map(|(m, mean, _)| format!("{m} {mean:.4}"))
            .collect::<Vec<_>>()
            .join("  >  ");
        println!("{} ranking: {line}", base.name);
        skill_reports.push(json!({
            "skill": base.skill.name(),
            "dataset": base.name,
            "num_edges": base.num_edges as u64,
            "ranking": ranked
                .iter()
                .map(|(m, mean, std)| json!({
                    "model": m,
                    "mrr_mean": *mean,
                    "mrr_std": *std,
                }))
                .collect::<Vec<_>>(),
        }));
    }

    save_json(
        &protocol.out_dir,
        "diagnostics.json",
        &json!({
            "rank_negatives": protocol.rank_negatives,
            "seeds": protocol.seeds,
            "mrr": mrr.to_entries(),
            "hits_at_10": hits10.to_entries(),
            "auc": auc.to_entries(),
            "skills": skill_reports,
        }),
    );
    save_raw_runs(&protocol.out_dir, "diagnostics_raw_runs.json", &runs);
}
