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

use benchtemp_bench::{run_lp_seed_on, save_json, Protocol, TableBuilder};
use benchtemp_core::evaluator::mean_std;
use benchtemp_core::sampler::NegativeStrategy;
use benchtemp_graph::generators::DiagnosticConfig;
use benchtemp_models::zoo::PAPER_MODELS;
use benchtemp_util::json;

fn main() {
    let mut protocol = Protocol::from_args();
    if protocol.rank_negatives == 0 {
        // Ranking is the whole point of the diagnostics; keep it on even if
        // the shared flag default was overridden to 0.
        eprintln!("diagnostics: --rank-negs 0 requested; forcing 20");
        protocol.rank_negatives = 20;
    }
    let models = protocol.select_models(&PAPER_MODELS);
    let skills = DiagnosticConfig::suite(protocol.scale, 0);

    let mut mrr = TableBuilder::new();
    let mut hits10 = TableBuilder::new();
    let mut auc = TableBuilder::new();
    // (skill, model) → per-seed transductive MRR, for the recorded ranking.
    let mut by_cell: std::collections::HashMap<(String, String), Vec<f64>> = Default::default();
    let mut raw_runs = Vec::new();

    let total_jobs = models.len() * skills.len() * protocol.seeds;
    let mut done = 0usize;
    for base in &skills {
        // Fresh stream per seed, same skill: the rule is fixed, the partner
        // tables and event order vary.
        let graph_of_seed = |seed: u64| {
            DiagnosticConfig {
                seed: seed ^ 0xd1a6,
                ..base.clone()
            }
            .generate()
        };
        let preset = Protocol {
            rank_negatives: protocol.k_preset(NegativeStrategy::Random, graph_of_seed),
            ..protocol.clone()
        };
        for model in &models {
            for seed in 0..protocol.seeds as u64 {
                let graph = graph_of_seed(seed);
                let run = run_lp_seed_on(model, &graph, &preset, seed);
                done += 1;
                let t = &run.transductive;
                let r = t.ranking.as_ref().expect("ranking pass disabled");
                eprintln!(
                    "[{done}/{total_jobs}] {model} on {}: MRR {:.4}  AUC {:.4}",
                    base.name, r.mrr, t.auc
                );
                mrr.add(&base.name, model, r.mrr);
                hits10.add(&base.name, model, r.hits_at_10);
                auc.add(&base.name, model, t.auc);
                by_cell
                    .entry((base.name.clone(), model.clone()))
                    .or_default()
                    .push(r.mrr);
                raw_runs.push(run);
            }
        }
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
                let vals = by_cell.get(&(base.name.clone(), m.clone()))?;
                let (mean, std) = mean_std(vals);
                Some((m.clone(), mean, std))
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
            "rank_negatives": protocol.rank_negatives as u64,
            "seeds": protocol.seeds as u64,
            "mrr": mrr.to_entries(),
            "hits_at_10": hits10.to_entries(),
            "auc": auc.to_entries(),
            "skills": skill_reports,
        }),
    );
    save_json(&protocol.out_dir, "diagnostics_raw_runs.json", &raw_runs);
}
