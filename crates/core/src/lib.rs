//! # benchtemp-core
//!
//! The BenchTemp pipeline — the paper's primary contribution (§3.2): the
//! seven pipeline modules (Dataset via `benchtemp-graph`, DataLoader,
//! EdgeSampler, Model contract, EarlyStopMonitor, Evaluator, Leaderboard)
//! plus the unified link-prediction / node-classification trainers and the
//! efficiency instrumentation behind Tables 4, 11, 12 and Fig. 7.

pub mod dataloader;
pub mod early_stop;
pub mod efficiency;
pub mod evaluator;
pub mod filtered_negatives;
pub mod leaderboard;
pub mod pipeline;
pub mod ranking;
pub mod sampler;

pub use dataloader::{LinkPredSplit, NodeClassSplit, Setting, SplitStats};
pub use early_stop::EarlyStopMonitor;
pub use efficiency::{EfficiencyReport, StageBreakdown};
pub use evaluator::{average_precision, multiclass_metrics, roc_auc, MultiClassMetrics};
pub use filtered_negatives::{FilteredNegativeSet, RankingError};
pub use leaderboard::{Entry, Leaderboard};
pub use pipeline::{
    train_link_prediction, train_node_classification, Anatomy, LinkPredictionRun,
    NodeClassificationRun, SettingMetrics, StreamContext, TgnnModel, TrainConfig,
};
pub use ranking::{ranking_metrics, ranking_metrics_flat, RankingMetrics};
pub use sampler::{EdgeSampler, NegativeStrategy};
