//! `benchtemp` — command-line front end to the benchmark suite.
//!
//! ```text
//! benchtemp generate --dataset MOOC --scale 0.01 --seed 42 --out data/mooc
//! benchtemp stats    --dir data/mooc            # or --dataset MOOC
//! benchtemp train    --dataset MOOC --model TGN --task lp
//! benchtemp train    --dir data/mooc --model CAWN --task lp
//! benchtemp leaderboard --file results/leaderboard.json
//! ```

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use benchtemp_core::dataloader::{LinkPredSplit, Setting};
use benchtemp_core::leaderboard::Leaderboard;
use benchtemp_core::pipeline::{train_link_prediction, train_node_classification, TrainConfig};
use benchtemp_graph::datasets::BenchDataset;
use benchtemp_graph::io::{load_dataset, save_dataset};
use benchtemp_graph::stats::{sparkline, temporal_histogram, DatasetStats};
use benchtemp_graph::TemporalGraph;
use benchtemp_models::common::ModelConfig;
use benchtemp_models::zoo;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = parse_flags(&args[1..]);
    let result = match command.as_str() {
        "generate" => cmd_generate(&flags),
        "stats" => cmd_stats(&flags),
        "train" => cmd_train(&flags),
        "leaderboard" => cmd_leaderboard(&flags),
        "models" => {
            println!("available models: {}", zoo::ALL_MODELS.join(", "));
            Ok(())
        }
        "datasets" => {
            for d in BenchDataset::all15()
                .into_iter()
                .chain(BenchDataset::new6())
            {
                let p = d.paper_stats();
                println!(
                    "{:<22} {:<12} paper: {} nodes / {} edges{}",
                    d.name(),
                    p.domain,
                    p.nodes,
                    p.edges,
                    if d.label_classes().is_some() {
                        "  [labelled]"
                    } else {
                        ""
                    }
                );
            }
            Ok(())
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "benchtemp — a general benchmark for temporal graph neural networks

USAGE:
  benchtemp generate  --dataset NAME [--scale F] [--seed N] --out DIR
  benchtemp stats     (--dataset NAME [--scale F] | --dir DIR)
  benchtemp train     (--dataset NAME [--scale F] | --dir DIR) --model NAME
                      [--task lp|nc] [--seed N] [--epochs N] [--batch N]
                      [--timeout-secs N] [--rank-negs K] [--leaderboard FILE]
  benchtemp leaderboard --file FILE [--dataset NAME] [--setting NAME]
                      [--metric AUC|AP|MRR|Hits@1|Hits@3|Hits@10]
  benchtemp models | datasets | help";

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            let value = args.get(i + 1).cloned().unwrap_or_default();
            flags.insert(key.to_string(), value);
            i += 2;
        } else {
            i += 1;
        }
    }
    flags
}

fn flag<'a>(flags: &'a HashMap<String, String>, key: &str) -> Option<&'a str> {
    flags.get(key).map(String::as_str).filter(|s| !s.is_empty())
}

fn find_dataset(name: &str) -> Result<BenchDataset, String> {
    BenchDataset::all15()
        .into_iter()
        .chain(BenchDataset::new6())
        .find(|d| d.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown dataset {name:?}; run `benchtemp datasets`"))
}

/// Resolve a graph from `--dataset` (generated) or `--dir` (loaded).
fn resolve_graph(flags: &HashMap<String, String>) -> Result<TemporalGraph, String> {
    match (flag(flags, "dataset"), flag(flags, "dir")) {
        (Some(name), None) => {
            let scale: f64 = flag(flags, "scale")
                .unwrap_or("0.005")
                .parse()
                .map_err(|_| "--scale")?;
            let seed: u64 = flag(flags, "seed")
                .unwrap_or("42")
                .parse()
                .map_err(|_| "--seed")?;
            Ok(find_dataset(name)?.config(scale, seed).generate())
        }
        (None, Some(dir)) => load_dataset(Path::new(dir)).map_err(|e| e.to_string()),
        _ => Err("pass exactly one of --dataset NAME or --dir DIR".into()),
    }
}

fn cmd_generate(flags: &HashMap<String, String>) -> Result<(), String> {
    let out = flag(flags, "out").ok_or("--out DIR is required")?;
    let graph = resolve_graph(flags)?;
    save_dataset(&graph, Path::new(out)).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} nodes, {} events) to {out}",
        graph.name,
        graph.num_nodes,
        graph.num_events()
    );
    Ok(())
}

fn cmd_stats(flags: &HashMap<String, String>) -> Result<(), String> {
    let graph = resolve_graph(flags)?;
    let s = DatasetStats::compute(&graph);
    println!("dataset          {}", s.name);
    println!(
        "kind             {}",
        if s.bipartite {
            "heterogeneous (bipartite)"
        } else {
            "homogeneous"
        }
    );
    println!("nodes            {}", s.num_nodes);
    println!("edges            {}", s.num_edges);
    println!("avg degree       {:.2}", s.avg_degree);
    println!("edge density     {:.4}", s.edge_density);
    println!("distinct edges   {}", s.distinct_edges);
    println!("recurrence       {:.3}", s.recurrence_ratio);
    println!(
        "time span        {:.1} ({} distinct timestamps)",
        s.time_span, s.distinct_timestamps
    );
    if let Some(labels) = &graph.labels {
        println!(
            "labels           {} classes, rates {:?}",
            labels.num_classes,
            labels
                .class_rates()
                .iter()
                .map(|r| format!("{r:.3}"))
                .collect::<Vec<_>>()
        );
    }
    println!(
        "temporal profile {}",
        sparkline(&temporal_histogram(&graph, 60))
    );
    Ok(())
}

fn cmd_train(flags: &HashMap<String, String>) -> Result<(), String> {
    let graph = resolve_graph(flags)?;
    let model_name = flag(flags, "model").ok_or("--model NAME is required")?;
    if !zoo::ALL_MODELS.contains(&model_name) {
        return Err(format!(
            "unknown model {model_name:?}; run `benchtemp models`"
        ));
    }
    let seed: u64 = flag(flags, "seed")
        .unwrap_or("0")
        .parse()
        .map_err(|_| "--seed")?;
    let cfg = TrainConfig {
        batch_size: flag(flags, "batch")
            .unwrap_or("100")
            .parse()
            .map_err(|_| "--batch")?,
        max_epochs: flag(flags, "epochs")
            .unwrap_or("10")
            .parse()
            .map_err(|_| "--epochs")?,
        timeout: Duration::from_secs(
            flag(flags, "timeout-secs")
                .unwrap_or("600")
                .parse()
                .map_err(|_| "--timeout-secs")?,
        ),
        seed,
        rank_negatives: flag(flags, "rank-negs")
            .unwrap_or("20")
            .parse()
            .map_err(|_| "--rank-negs")?,
        ..Default::default()
    };
    let mut model = zoo::build(
        model_name,
        ModelConfig {
            seed,
            ..Default::default()
        },
        &graph,
    );

    match flag(flags, "task").unwrap_or("lp") {
        "lp" => {
            let split = LinkPredSplit::new(&graph, seed);
            let run = train_link_prediction(model.as_mut(), &graph, &split, &cfg);
            println!("{model_name} on {} (link prediction):", graph.name);
            for setting in Setting::all() {
                let m = run.metrics_for(setting);
                match &m.ranking {
                    Some(r) => println!(
                        "  {:<20} AUC {:.4}  AP {:.4}  MRR {:.4} (K={})  Hits@1/3/10 {:.3}/{:.3}/{:.3}  ({} edges)",
                        setting.name(),
                        m.auc,
                        m.ap,
                        r.mrr,
                        r.k_effective,
                        r.hits_at_1,
                        r.hits_at_3,
                        r.hits_at_10,
                        m.n_edges
                    ),
                    None => println!(
                        "  {:<20} AUC {:.4}  AP {:.4}  ({} edges)",
                        setting.name(),
                        m.auc,
                        m.ap,
                        m.n_edges
                    ),
                }
            }
            if let Some(e) = &run.ranking_error {
                println!("  ranking skipped: {e}");
            }
            println!(
                "  {:.2}s/epoch, {} epochs, state {:.2} MB, util {:.0}%",
                run.efficiency.runtime_per_epoch_secs,
                run.efficiency.epochs_to_converge,
                run.efficiency.model_state_bytes as f64 / 1e6,
                run.efficiency.compute_utilization * 100.0
            );
            if let Some(file) = flag(flags, "leaderboard") {
                let path = PathBuf::from(file);
                let mut lb = Leaderboard::load(&path).map_err(|e| e.to_string())?;
                for setting in Setting::all() {
                    let m = run.metrics_for(setting);
                    let mut metrics = vec![("AUC", m.auc), ("AP", m.ap)];
                    if let Some(r) = &m.ranking {
                        metrics.extend([
                            ("MRR", r.mrr),
                            ("Hits@1", r.hits_at_1),
                            ("Hits@3", r.hits_at_3),
                            ("Hits@10", r.hits_at_10),
                        ]);
                    }
                    for (name, value) in metrics {
                        lb.push_runs(
                            model_name,
                            &graph.name,
                            "link_prediction",
                            setting.name(),
                            name,
                            &[value],
                        );
                    }
                }
                lb.save(&path).map_err(|e| e.to_string())?;
                println!("  pushed to {}", path.display());
            }
        }
        "nc" => {
            if graph.labels.is_none() {
                return Err(format!(
                    "{} has no node labels; use a labelled dataset",
                    graph.name
                ));
            }
            let split = LinkPredSplit::new(&graph, seed);
            let _ = train_link_prediction(model.as_mut(), &graph, &split, &cfg);
            let run = train_node_classification(model.as_mut(), &graph, &cfg);
            println!("{model_name} on {} (node classification):", graph.name);
            match run.multiclass {
                None => println!("  test ROC AUC {:.4}", run.auc),
                Some(m) => println!(
                    "  accuracy {:.4}  P {:.4}  R {:.4}  F1 {:.4} (weighted)",
                    m.accuracy, m.precision_weighted, m.recall_weighted, m.f1_weighted
                ),
            }
        }
        other => return Err(format!("unknown task {other:?} (lp | nc)")),
    }
    Ok(())
}

fn cmd_leaderboard(flags: &HashMap<String, String>) -> Result<(), String> {
    let file = flag(flags, "file").ok_or("--file FILE is required")?;
    let lb = Leaderboard::load(Path::new(file)).map_err(|e| e.to_string())?;
    if lb.is_empty() {
        println!("(leaderboard is empty)");
        return Ok(());
    }
    let setting = flag(flags, "setting").unwrap_or("Transductive");
    let metric = flag(flags, "metric").unwrap_or("AUC");
    let datasets: Vec<String> = match flag(flags, "dataset") {
        Some(d) => vec![d.to_string()],
        None => {
            let mut v: Vec<String> = lb.entries().iter().map(|e| e.dataset.clone()).collect();
            v.sort();
            v.dedup();
            v
        }
    };
    for ds in &datasets {
        println!("\n--- {ds} / {setting} / {metric} ---");
        print!(
            "{}",
            lb.render_group(ds, "link_prediction", setting, metric)
        );
    }
    let refs: Vec<&str> = datasets.iter().map(String::as_str).collect();
    let ranks = lb.average_rank(&refs, "link_prediction", setting, metric);
    if !ranks.is_empty() {
        println!("\naverage rank: {ranks:?}");
    }
    Ok(())
}
