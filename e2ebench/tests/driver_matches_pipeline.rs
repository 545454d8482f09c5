//! The benchmark's driver loop must stay bit-identical to
//! `train_link_prediction`: the same per-epoch losses and validation APs,
//! and the same AUC/AP and ranking metrics in all four settings — on the
//! resident and the paged backend, with ranking on, traced and untraced.

use std::path::Path;
use std::time::Duration;

use benchtemp_core::pipeline::{train_link_prediction, PagedStoreConfig, TrainConfig};
use benchtemp_core::RankingMetrics;
use benchtemp_graph::datasets::BenchDataset;
use e2ebench::{run_job, setup, JobConfig, JobSpec};

const EPOCHS: usize = 3;
const SEED: u64 = 5;

fn assert_matches_pipeline(model: &'static str, page_cache_bytes: Option<usize>, trace: bool) {
    let spec = JobSpec {
        dataset: BenchDataset::Wikipedia,
        scale: 0.005,
        model,
        page_cache_bytes,
        rank_negatives: 4,
        batch_size: 100,
    };
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("identity-{model}-{}", page_cache_bytes.is_some()));
    let (inputs, mut driven, _) = setup(&spec, SEED, &dir.join("driver"));
    let cfg = JobConfig {
        epochs: EPOCHS,
        batch_size: spec.batch_size,
        seed: SEED,
        trace,
    };
    let out = run_job(&inputs, driven.as_mut(), &cfg);

    let pipeline_cfg = TrainConfig {
        batch_size: spec.batch_size,
        max_epochs: EPOCHS,
        patience: usize::MAX,
        timeout: Duration::from_secs(3600),
        seed: SEED,
        rank_negatives: spec.rank_negatives,
        paged_store: page_cache_bytes.map(|bytes| PagedStoreConfig {
            dir: Some(dir.join("pipeline")),
            cache_budget_bytes: Some(bytes),
        }),
        ..TrainConfig::default()
    };
    let mut reference_model =
        benchtemp_models::zoo::build(model, spec.model_config(SEED), &inputs.graph);
    let reference = train_link_prediction(
        reference_model.as_mut(),
        &inputs.graph,
        &inputs.split,
        &pipeline_cfg,
    );
    drop(inputs);
    let _ = std::fs::remove_dir_all(&dir);

    let loss_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let ap_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        loss_bits(&out.epoch_losses),
        loss_bits(&reference.epoch_losses),
        "epoch losses"
    );
    assert_eq!(
        ap_bits(&out.val_aps),
        ap_bits(&reference.val_aps),
        "validation APs"
    );
    let ranking_bits = |r: Option<RankingMetrics>| {
        let r = r.expect("ranking ran");
        [r.mrr, r.hits_at_1, r.hits_at_3, r.hits_at_10].map(f64::to_bits)
    };
    let settings = [
        reference.transductive,
        reference.inductive,
        reference.new_old,
        reference.new_new,
    ];
    for (i, (got, want)) in out.metrics.iter().zip(&settings).enumerate() {
        assert_eq!(
            (got.auc.to_bits(), got.ap.to_bits(), got.n_edges),
            (want.auc.to_bits(), want.ap.to_bits(), want.n_edges),
            "setting {i}: AUC/AP"
        );
        assert_eq!(
            ranking_bits(got.ranking),
            ranking_bits(want.ranking),
            "setting {i}: ranking"
        );
    }
}

#[test]
fn resident_tgn_matches_pipeline() {
    assert_matches_pipeline("TGN", None, false);
}

#[test]
fn paged_tgn_matches_pipeline_while_traced() {
    assert_matches_pipeline("TGN", Some(64 << 10), true);
}

#[test]
fn resident_tgat_matches_pipeline_while_traced() {
    assert_matches_pipeline("TGAT", None, true);
}
