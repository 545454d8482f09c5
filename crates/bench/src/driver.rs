//! The experiment driver every training harness runs through. A harness is
//! data — a [`Harness`]: its task, its presets and its models — and
//! [`run_jobs`] owns the job loop: one K per preset, then every model ×
//! seed job, in preset → model → seed order. The table helpers turn those
//! runs into the tables and JSON the harnesses share; a binary keeps only
//! what is its own.

use std::path::Path;

use benchtemp_util::Json;

use benchtemp_core::dataloader::{LinkPredSplit, Setting};
use benchtemp_core::pipeline::{
    train_link_prediction, train_node_classification, LinkPredictionRun, NodeClassificationRun,
    TrainConfig,
};
use benchtemp_core::sampler::NegativeStrategy;
use benchtemp_graph::datasets::BenchDataset;
use benchtemp_graph::features::figure2_dims;
use benchtemp_graph::generators::DiagnosticConfig;
use benchtemp_graph::temporal_graph::TemporalGraph;
use benchtemp_models::zoo::{self, PAPER_MODELS};
use benchtemp_util::json;

use crate::{density_subgraphs, feature_dim_graph, measured, save_json, Protocol, TableBuilder};

/// What a job trains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Task {
    /// Link prediction, ranked at the preset's K.
    LinkPrediction,
    /// Self-supervised LP pre-training with ranking off — no table reads
    /// its MRR — then the frozen-embedding node classifier (§3.2.2).
    NodeClassification,
}

/// One graph family of a harness: its table row name, its negative
/// sampler, and the graph each seed's job trains on.
pub struct Preset {
    pub name: String,
    pub strategy: NegativeStrategy,
    pub graph_of_seed: Box<dyn Fn(u64) -> TemporalGraph>,
}

impl Preset {
    pub fn new(
        name: impl Into<String>,
        strategy: NegativeStrategy,
        graph_of_seed: impl Fn(u64) -> TemporalGraph + 'static,
    ) -> Self {
        Preset {
            name: name.into(),
            strategy,
            graph_of_seed: Box::new(graph_of_seed),
        }
    }

    /// A benchmark dataset at `scale` under random negatives; each seed's
    /// job trains on its own generated stream.
    pub fn dataset(dataset: BenchDataset, scale: f64) -> Self {
        Preset::new(dataset.name(), NegativeStrategy::Random, move |seed| {
            dataset.config(scale, seed ^ 0xda7a).generate()
        })
    }

    /// The graph seed `seed`'s job trains on.
    pub fn graph(&self, seed: u64) -> TemporalGraph {
        (self.graph_of_seed)(seed)
    }
}

/// One seed run of one (preset, model) job.
pub struct Run {
    pub preset: String,
    pub model: String,
    pub seed: u64,
    /// The LP run; for a node-classification job, its pre-training.
    pub lp: LinkPredictionRun,
    /// The classifier run of a [`Task::NodeClassification`] job.
    pub nc: Option<NodeClassificationRun>,
}

impl Run {
    /// The classifier run of a node-classification job.
    pub fn nc(&self) -> &NodeClassificationRun {
        self.nc.as_ref().expect("a node-classification job")
    }
}

/// Run every model on every preset for `protocol.seeds` seeds, in preset →
/// model → seed order. Each preset ranks all its seeds at one K
/// ([`Protocol::k_preset`]), so mean ± std MRR never mixes K.
pub fn run_jobs(
    protocol: &Protocol,
    task: Task,
    presets: &[Preset],
    models: &[String],
) -> Vec<Run> {
    let total = presets.len() * models.len() * protocol.seeds;
    let mut runs = Vec::with_capacity(total);
    for preset in presets {
        let k = match task {
            Task::LinkPrediction => protocol.k_preset(preset),
            Task::NodeClassification => 0,
        };
        for model in models {
            for seed in 0..protocol.seeds as u64 {
                let graph = preset.graph(seed);
                let split = LinkPredSplit::new(&graph, seed);
                let mut net = zoo::build(model, protocol.model_config(seed), &graph);
                let cfg = TrainConfig {
                    neg_strategy: preset.strategy,
                    rank_negatives: k,
                    ..protocol.train_config(seed)
                };
                let lp = train_link_prediction(net.as_mut(), &graph, &split, &cfg);
                let nc = (task == Task::NodeClassification)
                    .then(|| train_node_classification(net.as_mut(), &graph, &cfg));
                let (metric, value, e) = match &nc {
                    Some(nc) => ("NC AUC", nc.auc, &nc.efficiency),
                    None => ("trans AUC", lp.transductive.auc, &lp.efficiency),
                };
                let timeout = if e.timed_out { " (timeout)" } else { "" };
                let (done, name) = (runs.len() + 1, &preset.name);
                eprintln!(
                    "[{done}/{total}] {model} on {name} seed {seed}: {metric} {value:.4}{timeout}"
                );
                runs.push(Run {
                    preset: preset.name.clone(),
                    model: model.clone(),
                    seed,
                    lp,
                    nc,
                });
            }
        }
    }
    runs
}

/// A training harness as data: what its jobs train, on which presets and
/// with which models. `--datasets` and `--models` reach a harness only
/// through these functions.
pub struct Harness {
    pub task: Task,
    pub presets: fn(&Protocol) -> Vec<Preset>,
    pub models: fn(&Protocol) -> Vec<String>,
}

impl Harness {
    /// Every job of the harness under `protocol`.
    pub fn run(&self, protocol: &Protocol) -> Vec<Run> {
        run_jobs(
            protocol,
            self.task,
            &(self.presets)(protocol),
            &(self.models)(protocol),
        )
    }
}

/// The datasets `--datasets` selects, defaulting to `default`.
fn datasets(p: &Protocol, default: &[BenchDataset]) -> Vec<Preset> {
    fixed_datasets(p, &p.select_datasets(default))
}

/// `list`, whatever `--datasets` says.
fn fixed_datasets(p: &Protocol, list: &[BenchDataset]) -> Vec<Preset> {
    list.iter().map(|&d| Preset::dataset(d, p.scale)).collect()
}

fn paper_models(p: &Protocol) -> Vec<String> {
    p.select_models(&PAPER_MODELS)
}

/// Tables 3, 4, 10, 11 and Fig. 7.
pub const TABLE3_LP: Harness = Harness {
    task: Task::LinkPrediction,
    presets: |p| datasets(p, &BenchDataset::all15()),
    models: paper_models,
};

/// Tables 5 and 12.
pub const TABLE5_NC: Harness = Harness {
    task: Task::NodeClassification,
    presets: |p| {
        use BenchDataset::*;
        datasets(p, &[Reddit, Wikipedia, Mooc])
    },
    models: paper_models,
};

/// Fig. 2: MOOC-style graphs over the initial node-feature dimensions.
pub const FIG2_FEATURE_DIMS: Harness = Harness {
    task: Task::LinkPrediction,
    presets: |p| {
        let scale = p.scale;
        figure2_dims()
            .into_iter()
            .map(|dim| {
                Preset::new(
                    format!("dim={dim}"),
                    NegativeStrategy::Random,
                    move |seed| feature_dim_graph(scale, seed, dim),
                )
            })
            .collect()
    },
    models: |p| p.select_models(&["JODIE", "TGN", "TGAT", "NAT"]),
};

/// Tables 13 and 14: TeMP link prediction.
pub const TEMP_LP: Harness = Harness {
    task: Task::LinkPrediction,
    presets: |p| datasets(p, &BenchDataset::all15()),
    models: |_| vec!["TeMP".to_string()],
};

/// Table 15: TeMP node classification.
pub const TEMP_NC: Harness = Harness {
    task: Task::NodeClassification,
    presets: |p| {
        use BenchDataset::*;
        fixed_datasets(p, &[Reddit, Wikipedia, Mooc])
    },
    models: |_| vec!["TeMP".to_string()],
};

/// Tables 17, 18 and 20: the Appendix-F datasets.
pub const TABLE17_NEW_DATASETS: Harness = Harness {
    task: Task::LinkPrediction,
    presets: |p| datasets(p, &BenchDataset::new6()),
    models: paper_models,
};

/// Tables 19 and 21: node classification on the eBay datasets.
pub const TABLE19_EBAY_NC: Harness = Harness {
    task: Task::NodeClassification,
    presets: |p| datasets(p, &[BenchDataset::EbaySmall, BenchDataset::EbayLarge]),
    models: paper_models,
};

/// Table 22: multi-class node classification on DGraphFin.
pub const TABLE22_MULTILABEL: Harness = Harness {
    task: Task::NodeClassification,
    presets: |p| fixed_datasets(p, &[BenchDataset::DGraphFin]),
    models: paper_models,
};

/// Table 23: NeurTW with and without its NODEs.
pub const TABLE23_NODES_ABLATION: Harness = Harness {
    task: Task::LinkPrediction,
    presets: |p| fixed_datasets(p, &[BenchDataset::CanParl, BenchDataset::UsLegis]),
    models: |_| vec!["NeurTW".to_string(), "NeurTW-noNODE".to_string()],
};

/// Table 25: CAWN on the two density subgraphs of Table 24.
pub const TABLE25_DENSITY: Harness = Harness {
    task: Task::LinkPrediction,
    presets: |p| {
        let fixed = |g: TemporalGraph| {
            Preset::new(g.name.clone(), NegativeStrategy::Random, move |_| g.clone())
        };
        density_subgraphs(p.scale).map(fixed).into()
    },
    models: |_| vec!["CAWN".to_string()],
};

/// Tables 26 and 27: NAT under each negative sampler; presets are named
/// `"<sampler> / <dataset>"`.
pub const TABLE26_NEGATIVE_SAMPLING: Harness = Harness {
    task: Task::LinkPrediction,
    presets: |p| {
        use BenchDataset::*;
        let samplers = [
            ("Random", NegativeStrategy::Random),
            ("Historical", NegativeStrategy::Historical),
            ("Inductive", NegativeStrategy::Inductive),
        ];
        let mut presets = Vec::new();
        for dataset in p.select_datasets(&[Reddit, Wikipedia, Flights]) {
            for (name, strategy) in samplers {
                presets.push(Preset {
                    name: format!("{name} / {}", dataset.name()),
                    strategy,
                    ..Preset::dataset(dataset, p.scale)
                });
            }
        }
        presets
    },
    models: |_| vec!["NAT".to_string()],
};

/// The T-GRAB-style diagnostic skills: a fresh stream per seed, same rule.
pub const DIAGNOSTICS: Harness = Harness {
    task: Task::LinkPrediction,
    presets: |p| {
        DiagnosticConfig::suite(p.scale, 0)
            .into_iter()
            .map(|base| {
                Preset::new(base.name.clone(), NegativeStrategy::Random, move |seed| {
                    DiagnosticConfig {
                        seed: seed ^ 0xd1a6,
                        ..base.clone()
                    }
                    .generate()
                })
            })
            .collect()
    },
    models: paper_models,
};

/// Every training harness.
pub const HARNESSES: [&Harness; 12] = [
    &TABLE3_LP,
    &TABLE5_NC,
    &FIG2_FEATURE_DIMS,
    &TEMP_LP,
    &TEMP_NC,
    &TABLE17_NEW_DATASETS,
    &TABLE19_EBAY_NC,
    &TABLE22_MULTILABEL,
    &TABLE23_NODES_ABLATION,
    &TABLE25_DENSITY,
    &TABLE26_NEGATIVE_SAMPLING,
    &DIAGNOSTICS,
];

/// One table per setting.
pub type PerSetting = Vec<(Setting, TableBuilder)>;

/// `[{"setting", "cells"}]`, the JSON of per-setting tables.
pub fn per_setting_json(tables: &PerSetting) -> Vec<Json> {
    tables
        .iter()
        .map(|(s, t)| json!({ "setting": s.name(), "cells": t.to_entries() }))
        .collect()
}

/// The per-setting LP tables of a set of runs: rows are presets, columns
/// models. An empty setting gets an `n/a` cell; the ranking tables get
/// cells only from jobs whose ranking ran.
pub struct SettingTables {
    pub auc: PerSetting,
    pub ap: PerSetting,
    pub mrr: PerSetting,
    pub hits_at_1: PerSetting,
    pub hits_at_3: PerSetting,
    pub hits_at_10: PerSetting,
}

impl SettingTables {
    pub fn new(runs: &[Run]) -> Self {
        let per_setting = || Setting::all().map(|s| (s, TableBuilder::new())).into();
        let mut t = SettingTables {
            auc: per_setting(),
            ap: per_setting(),
            mrr: per_setting(),
            hits_at_1: per_setting(),
            hits_at_3: per_setting(),
            hits_at_10: per_setting(),
        };
        for r in runs {
            for (i, setting) in Setting::all().into_iter().enumerate() {
                let m = measured(&r.lp, setting);
                t.auc[i].1.add_opt(&r.preset, &r.model, m.map(|m| m.auc));
                t.ap[i].1.add_opt(&r.preset, &r.model, m.map(|m| m.ap));
                let Some(rank) = r.lp.metrics_for(setting).ranking else {
                    continue;
                };
                for (tables, value) in [
                    (&mut t.mrr, rank.mrr),
                    (&mut t.hits_at_1, rank.hits_at_1),
                    (&mut t.hits_at_3, rank.hits_at_3),
                    (&mut t.hits_at_10, rank.hits_at_10),
                ] {
                    tables[i].1.add_opt(&r.preset, &r.model, m.map(|_| value));
                }
            }
        }
        t
    }
}

/// The efficiency tables of a set of runs — of the classifier run of a
/// node-classification job, else of the LP run: rows are presets, columns
/// models.
#[derive(Default)]
pub struct EfficiencyTables {
    /// Seconds per epoch.
    pub runtime: TableBuilder,
    pub epochs: TableBuilder,
    /// Peak RSS in MB, where the platform reports it.
    pub rss: TableBuilder,
    /// Model state in MB.
    pub state: TableBuilder,
    /// Compute utilization in %.
    pub util: TableBuilder,
    /// Inference seconds per 100k edges.
    pub inference: TableBuilder,
}

impl EfficiencyTables {
    pub fn new(runs: &[Run]) -> Self {
        let mut t = EfficiencyTables::default();
        for r in runs {
            let e = r.nc.as_ref().map_or(&r.lp.efficiency, |nc| &nc.efficiency);
            let (row, col) = (&r.preset, &r.model);
            t.runtime.add(row, col, e.runtime_per_epoch_secs);
            t.epochs.add(row, col, e.epochs_to_converge as f64);
            if let Some(b) = e.peak_rss_bytes {
                t.rss.add(row, col, b as f64 / 1e6);
            }
            t.state.add(row, col, e.model_state_bytes as f64 / 1e6);
            t.util.add(row, col, e.compute_utilization * 100.0);
            t.inference.add(row, col, e.inference_secs_per_100k);
        }
        t
    }
}

/// AUC and AP tables with each run's value for each setting placed at
/// `cell(run, setting)` = (row, column); an empty setting gets an `n/a`
/// cell.
pub fn auc_ap_tables(
    runs: &[Run],
    cell: impl Fn(&Run, Setting) -> (String, String),
) -> (TableBuilder, TableBuilder) {
    let (mut auc, mut ap) = (TableBuilder::new(), TableBuilder::new());
    for r in runs {
        for setting in Setting::all() {
            let (row, col) = cell(r, setting);
            let m = measured(&r.lp, setting);
            auc.add_opt(&row, &col, m.map(|m| m.auc));
            ap.add_opt(&row, &col, m.map(|m| m.ap));
        }
    }
    (auc, ap)
}

/// Save the LP runs — for node-classification jobs, their pre-training —
/// as the JSON array `name` under `dir`.
pub fn save_raw_runs(dir: &Path, name: &str, runs: &[Run]) {
    save_json(dir, name, &runs.iter().map(|r| &r.lp).collect::<Vec<_>>());
}
