//! Cross-crate integration: the complete BenchTemp workflow through the
//! `benchtemp-suite` facade — dataset generation → DataLoader →
//! EdgeSampler → model training → Evaluator → Leaderboard — for several
//! model families at once.

use std::time::Duration;

use benchtemp_suite::core::dataloader::{LinkPredSplit, Setting};
use benchtemp_suite::core::leaderboard::Leaderboard;
use benchtemp_suite::core::pipeline::{train_link_prediction, TrainConfig};
use benchtemp_suite::graph::datasets::BenchDataset;
use benchtemp_suite::models::common::ModelConfig;
use benchtemp_suite::models::zoo;

fn train_cfg(seed: u64) -> TrainConfig {
    TrainConfig {
        batch_size: 100,
        max_epochs: 5,
        timeout: Duration::from_secs(300),
        seed,
        ..Default::default()
    }
}

#[test]
fn three_model_families_through_full_pipeline_and_leaderboard() {
    let graph = BenchDataset::Uci.config(0.006, 9).generate();
    assert_eq!(graph.validate(), Ok(()));
    let split = LinkPredSplit::new(&graph, 9);
    let mut lb = Leaderboard::new();

    for name in ["TGN", "NAT", "EdgeBank"] {
        let mut model = zoo::build(
            name,
            ModelConfig {
                embed_dim: 24,
                seed: 9,
                ..Default::default()
            },
            &graph,
        );
        let run = train_link_prediction(model.as_mut(), &graph, &split, &train_cfg(9));
        assert!(
            run.transductive.auc > 0.55,
            "{name} transductive AUC {:.4}",
            run.transductive.auc
        );
        for setting in Setting::all() {
            lb.push_runs(
                name,
                &graph.name,
                "lp",
                setting.name(),
                "AUC",
                &[run.metrics_for(setting).auc],
            );
        }
    }

    let group = lb.group(&graph.name, "lp", "Transductive", "AUC");
    assert_eq!(group.len(), 3);
    // The ranking is strictly ordered.
    assert!(group.windows(2).all(|w| w[0].mean >= w[1].mean));
}

#[test]
fn full_run_is_deterministic_per_seed() {
    let graph = BenchDataset::CollegeMsg.config(0.006, 4).generate();
    let split = LinkPredSplit::new(&graph, 4);
    let run_once = || {
        let mut model = zoo::build(
            "TGN",
            ModelConfig {
                embed_dim: 24,
                seed: 4,
                ..Default::default()
            },
            &graph,
        );
        train_link_prediction(model.as_mut(), &graph, &split, &train_cfg(4))
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a.transductive.auc, b.transductive.auc);
    assert_eq!(a.epoch_losses, b.epoch_losses);
    assert_eq!(a.val_aps, b.val_aps);
}

#[test]
fn different_seeds_differ_but_agree_qualitatively() {
    let mut aucs = Vec::new();
    for seed in 0..2u64 {
        let graph = BenchDataset::Enron.config(0.004, seed).generate();
        let split = LinkPredSplit::new(&graph, seed);
        let mut model = zoo::build(
            "NAT",
            ModelConfig {
                embed_dim: 24,
                seed,
                ..Default::default()
            },
            &graph,
        );
        let run = train_link_prediction(model.as_mut(), &graph, &split, &train_cfg(seed));
        aucs.push(run.transductive.auc);
    }
    assert_ne!(aucs[0], aucs[1], "seeds must vary the run");
    assert!(
        aucs.iter().all(|&a| a > 0.6),
        "both seeds should learn: {aucs:?}"
    );
}

#[test]
fn efficiency_report_is_fully_populated() {
    let graph = BenchDataset::UsLegis.config(0.006, 2).generate();
    let split = LinkPredSplit::new(&graph, 2);
    let mut model = zoo::build(
        "TGN",
        ModelConfig {
            embed_dim: 24,
            seed: 2,
            ..Default::default()
        },
        &graph,
    );
    let run = train_link_prediction(model.as_mut(), &graph, &split, &train_cfg(2));
    let e = &run.efficiency;
    assert!(e.runtime_per_epoch_secs > 0.0);
    assert!(e.epochs_to_converge >= 1);
    if let Some(rss) = e.peak_rss_bytes {
        assert!(rss > 1_000_000, "peak RSS should be MBs");
    } else if cfg!(target_os = "linux") {
        panic!("VmHWM should exist on linux");
    }
    assert!(e.model_state_bytes > 10_000, "params + memory");
    assert!(e.inference_secs_per_100k > 0.0);
    assert!((0.0..=1.0).contains(&e.compute_utilization));
    assert!(!e.timed_out);
    assert!(
        ["avx2", "portable"].contains(&e.kernel_isa),
        "{}",
        e.kernel_isa
    );
}

#[test]
fn timeout_is_honored_and_marked() {
    let graph = BenchDataset::Contact.config(0.002, 3).generate();
    let split = LinkPredSplit::new(&graph, 3);
    let mut model = zoo::build(
        "CAWN", // the slow one, as in Table 4
        ModelConfig {
            seed: 3,
            ..Default::default()
        },
        &graph,
    );
    let cfg = TrainConfig {
        timeout: Duration::from_millis(200),
        max_epochs: 50,
        seed: 3,
        ..Default::default()
    };
    let run = train_link_prediction(model.as_mut(), &graph, &split, &cfg);
    assert!(run.efficiency.timed_out, "200ms must time out on Contact");
    // Timed-out runs still report whatever was measured (the paper keeps
    // one-epoch numbers with std 0).
    assert!(run.epoch_losses.len() <= 2);
}
