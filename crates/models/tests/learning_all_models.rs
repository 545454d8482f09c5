//! Every model in the zoo must learn: full-pipeline link prediction on a
//! small structured stream, transductive AUC clearly above chance.
//! (The TGN family has its own dedicated test file.)

use std::time::Duration;

use benchtemp_core::dataloader::LinkPredSplit;
use benchtemp_core::pipeline::{train_link_prediction, TgnnModel, TrainConfig};
use benchtemp_graph::generators::GeneratorConfig;
use benchtemp_models::common::ModelConfig;
use benchtemp_models::{EdgeBank, Nat, Temp, Tgat, WalkModel};

fn dataset() -> benchtemp_graph::TemporalGraph {
    let mut cfg = GeneratorConfig::small("zoo", 177);
    cfg.num_edges = 1200;
    cfg.recurrence = 0.6;
    cfg.generate()
}

fn train_cfg() -> TrainConfig {
    TrainConfig {
        batch_size: 100,
        max_epochs: 6,
        patience: 3,
        timeout: Duration::from_secs(600),
        seed: 1,
        ..Default::default()
    }
}

fn model_cfg() -> ModelConfig {
    ModelConfig {
        embed_dim: 32,
        time_dim: 8,
        neighbors: 4,
        layers: 2,
        heads: 2,
        walks: 3,
        walk_len: 2,
        lr: 3e-3,
        seed: 1,
    }
}

fn check(model: &mut dyn TgnnModel, min_auc: f64) {
    let g = dataset();
    let split = LinkPredSplit::new(&g, 1);
    let run = train_link_prediction(model, &g, &split, &train_cfg());
    assert!(
        run.transductive.auc > min_auc,
        "{} transductive AUC {:.4} below {min_auc}",
        model.name(),
        run.transductive.auc
    );
    assert!(
        run.transductive.ap > 0.5,
        "{} AP {:.4}",
        model.name(),
        run.transductive.ap
    );
}

#[test]
fn tgat_learns() {
    check(&mut Tgat::new(model_cfg(), &dataset()), 0.60);
}

#[test]
fn cawn_learns() {
    check(&mut WalkModel::cawn(model_cfg(), &dataset()), 0.62);
}

#[test]
fn neurtw_learns() {
    check(&mut WalkModel::neurtw(model_cfg(), &dataset()), 0.62);
}

#[test]
fn nat_learns() {
    check(&mut Nat::new(model_cfg(), &dataset()), 0.62);
}

#[test]
fn temp_learns() {
    check(&mut Temp::new(model_cfg(), &dataset()), 0.60);
}

#[test]
fn edgebank_exploits_recurrence() {
    check(&mut EdgeBank::unlimited(), 0.55);
}
