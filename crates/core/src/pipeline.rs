//! The unified BenchTemp pipeline (Fig. 4): Dataset → DataLoader →
//! EdgeSampler → Model → EarlyStopMonitor → Evaluator → Leaderboard.
//!
//! [`TgnnModel`] is the contract every model in the zoo implements; the
//! link-prediction and node-classification trainers below drive any
//! implementor through the paper's protocol (§4.1): BCE + Adam(1e-4),
//! chronological batches, patience-3 early stopping on validation AP,
//! fixed-seed evaluation negatives, timeout, and efficiency accounting.
//!
//! **Evaluation protocol.** Each epoch consumes the full stream in order —
//! train (learning), validation (scoring), test (scoring) — so stateful
//! models carry their memory across the boundary exactly as the reference
//! implementations do. Test metrics are taken from the epoch with the best
//! validation AP. The three inductive settings are *filters over the same
//! scored test stream* (membership masks), matching §3.2.1 where the
//! inductive test sets are generated from the transductive test set.

use std::time::{Duration, Instant};

use benchtemp_graph::neighbors::NeighborFinder;
use benchtemp_graph::paged::{
    default_store_dir, NeighborBackend, OwnedNeighborBackend, PagedNeighborFinder, StoreOptions,
};
use benchtemp_graph::temporal_graph::{Interaction, TemporalGraph};
use benchtemp_obs as obs;
use benchtemp_tensor::{kernel_isa, pool, Matrix};
use benchtemp_util::{json, Json, ToJson};

use crate::dataloader::{LinkPredSplit, NodeClassSplit, Setting};
use crate::early_stop::EarlyStopMonitor;
use crate::efficiency::{peak_rss_bytes, stage, EfficiencyReport, StageBreakdown};
use crate::evaluator::{
    auc_ap_pos_neg, average_precision_pos_neg, multiclass_metrics, roc_auc, MultiClassMetrics,
};
use crate::filtered_negatives::{FilteredNegativeSet, RankingError};
use crate::ranking::{ranking_metrics_flat, RankingMetrics};
use crate::sampler::{EdgeSampler, NegativeStrategy};

/// Per-job seed salt for the test-stream filtered negative sets, distinct
/// from the val/test sampler salts so candidate draws never correlate with
/// the paired AUC/AP negatives.
const RANK_NEG_SEED_SALT: u64 = 0xf117_0003;

/// Minimum total score count (pos + neg across all four settings) before the
/// final metrics fan out over the worker pool; below this, pool dispatch
/// costs more than the sort+scan it parallelises.
const PAR_EVAL_MIN_SCORES: usize = 1 << 15;

/// Everything a model may read while processing a batch: the graph (features)
/// and a temporal adjacency view. During training the view covers training
/// events only; during evaluation it covers the full stream (queries are
/// always strictly-before-t, so no future leakage either way).
pub struct StreamContext<'a> {
    pub graph: &'a TemporalGraph,
    pub neighbors: NeighborBackend<'a>,
}

/// Table 1 anatomy row.
#[derive(Clone, Copy, Debug)]
pub struct Anatomy {
    pub memory: bool,
    pub attention: bool,
    pub rnn: bool,
    pub temp_walk: bool,
    pub scalability: bool,
    pub supervision: &'static str,
}

/// The contract every TGNN implements to run in the pipeline.
pub trait TgnnModel {
    fn name(&self) -> &'static str;

    /// Table 1 capability row.
    fn anatomy(&self) -> Anatomy;

    /// Reset all temporal state (memory, caches) to initial values.
    /// Parameters are untouched.
    fn reset_state(&mut self);

    /// One optimization step on a chronological batch with pre-sampled
    /// negative destinations. Returns the batch loss. Temporal state
    /// advances past the batch.
    fn train_batch(
        &mut self,
        ctx: &StreamContext,
        batch: &[Interaction],
        neg_dsts: &[usize],
    ) -> f32;

    /// Score the batch's positive edges and the corresponding negative
    /// edges (higher = more likely). No parameter updates; temporal state
    /// advances past the batch (the events really happened).
    fn eval_batch(
        &mut self,
        ctx: &StreamContext,
        batch: &[Interaction],
        neg_dsts: &[usize],
    ) -> (Vec<f32>, Vec<f32>);

    /// Score each positive edge and `k` alternative candidate destinations
    /// under the *current* temporal state, WITHOUT advancing it — the
    /// filtered-negative ranking path (DESIGN.md §14). `cand_dsts` is in
    /// block layout: `cand_dsts[j * n + i]` is the j-th candidate
    /// destination for `batch[i]` (`n = batch.len()`), so source
    /// embeddings are shared across the K candidate blocks.
    ///
    /// Returns `(pos, cands)`: `pos[i]` is a *fresh* score of the true edge
    /// and `cands` mirrors the input layout. Both are computed under the
    /// same pre-batch state so each ranking query is self-consistent (for
    /// snapshot/memory models, `eval_batch`'s positives may reflect a
    /// state advance this path must not perform). Implementations must not
    /// draw from the model's training RNG stream — randomized sampling
    /// (neighbors, walks) derives a private RNG from the batch content so
    /// enabling ranking never perturbs AUC/AP.
    fn score_candidates(
        &mut self,
        ctx: &StreamContext,
        batch: &[Interaction],
        cand_dsts: &[usize],
        k: usize,
    ) -> (Vec<f32>, Vec<f32>);

    /// Dynamic embedding of each event's source node at event time, for the
    /// node-classification decoder. Temporal state advances past the batch.
    fn embed_events(&mut self, ctx: &StreamContext, batch: &[Interaction]) -> Matrix;

    fn embed_dim(&self) -> usize;

    /// Snapshot / restore trainable parameters (best-epoch restoration).
    fn snapshot(&self) -> Vec<Matrix>;
    fn restore(&mut self, snapshot: &[Matrix]);

    /// Exact state footprint in bytes: parameters, optimizer state, memory
    /// modules, caches (the paper's GPU-memory analogue).
    fn state_bytes(&self) -> usize;
}

/// Training-protocol configuration (§4.1 defaults, scaled).
#[derive(Clone, Debug)]
pub struct TrainConfig {
    pub batch_size: usize,
    pub max_epochs: usize,
    pub patience: usize,
    pub tolerance: f64,
    /// Wall-clock budget for one job (the paper's 48 h, scaled down).
    pub timeout: Duration,
    pub seed: u64,
    pub neg_strategy: NegativeStrategy,
    /// Candidate negatives per test query for filtered MRR/Hits@K ranking
    /// (DESIGN.md §14). 0 disables ranking entirely — no candidate sets
    /// are built and no `score_candidates` calls happen, so AUC/AP-only
    /// runs cost exactly what they did before ranking existed.
    pub rank_negatives: usize,
    /// Opt-in out-of-core adjacency (DESIGN.md §15): when set, the
    /// trainers build the train/full CSR adjacency, spill its columns to
    /// paged stores (the CSR is freed before training) and sample through
    /// the byte-budgeted page cache instead of resident CSR columns.
    /// Scores and losses are bit-identical to the resident path; only
    /// memory/IO behaviour changes.
    pub paged_store: Option<PagedStoreConfig>,
}

/// Where and how big the per-job paged stores are.
#[derive(Clone, Debug, Default)]
pub struct PagedStoreConfig {
    /// Store directory; `None` creates a unique per-job subdirectory
    /// under the `BENCHTEMP_STORE_DIR` default and removes it when the
    /// job ends.
    pub dir: Option<std::path::PathBuf>,
    /// Page-cache budget per store in bytes; `None` defers to
    /// `BENCHTEMP_PAGE_CACHE_MB`.
    pub cache_budget_bytes: Option<usize>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            batch_size: 200,
            max_epochs: 50,
            patience: 3,
            tolerance: 1e-3,
            timeout: Duration::from_secs(600),
            seed: 0,
            neg_strategy: NegativeStrategy::Random,
            rank_negatives: 0,
            paged_store: None,
        }
    }
}

/// Removes an auto-created store directory when the job ends.
struct StoreDirGuard(std::path::PathBuf);

impl Drop for StoreDirGuard {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Monotonic per-process salt so concurrent jobs in one process never
/// share an auto-created store directory.
static STORE_JOB_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Owned sampler backends for one job. Field order matters: the backends
/// (open page files) drop before the directory guard removes their dir.
struct JobBackends {
    train: OwnedNeighborBackend,
    full: OwnedNeighborBackend,
    _cleanup: Option<StoreDirGuard>,
}

/// Build the train/full sampler backends per `cfg.paged_store`: resident
/// CSR by default, paged stores (bulk-loaded under the `setup` span) when
/// the out-of-core path is opted in.
fn job_backends(
    graph: &TemporalGraph,
    train_events: &[Interaction],
    cfg: &TrainConfig,
) -> JobBackends {
    match &cfg.paged_store {
        None => JobBackends {
            train: OwnedNeighborBackend::Resident(NeighborFinder::from_events(
                graph.num_nodes,
                train_events,
            )),
            full: OwnedNeighborBackend::Resident(NeighborFinder::from_events(
                graph.num_nodes,
                &graph.events,
            )),
            _cleanup: None,
        },
        Some(ps) => {
            let (base, guard) = match &ps.dir {
                Some(d) => (d.clone(), None),
                None => {
                    let n = STORE_JOB_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let d = default_store_dir().join(format!("job-{}-{n}", std::process::id()));
                    (d.clone(), Some(StoreDirGuard(d)))
                }
            };
            let opts = StoreOptions {
                cache_budget_bytes: ps.cache_budget_bytes,
            };
            let train = PagedNeighborFinder::bulk_load(
                &base.join("train"),
                graph.num_nodes,
                train_events,
                None,
                &opts,
            )
            .expect("paged store: train bulk load failed");
            let full = PagedNeighborFinder::bulk_load_graph(&base.join("full"), graph, &opts)
                .expect("paged store: full bulk load failed");
            JobBackends {
                train: OwnedNeighborBackend::Paged(train),
                full: OwnedNeighborBackend::Paged(full),
                _cleanup: guard,
            }
        }
    }
}

/// Metrics for one evaluation setting.
#[derive(Clone, Copy, Debug, Default)]
pub struct SettingMetrics {
    pub auc: f64,
    pub ap: f64,
    pub n_edges: usize,
    /// Filtered-negative MRR/Hits@K — present when the run had
    /// `rank_negatives > 0`.
    pub ranking: Option<RankingMetrics>,
}

impl ToJson for SettingMetrics {
    /// An empty setting writes `null` for AUC/AP: the evaluator's 0.5/0.0
    /// over no edges is a placeholder, not a metric.
    fn to_json(&self) -> Json {
        let scored = |v: f64| (self.n_edges > 0).then_some(v);
        json!({
            "auc": scored(self.auc),
            "ap": scored(self.ap),
            "n_edges": self.n_edges,
            "ranking": self.ranking.as_ref(),
        })
    }
}

/// Outcome of one link-prediction job.
#[derive(Clone, Debug)]
pub struct LinkPredictionRun {
    pub model: String,
    pub dataset: String,
    pub transductive: SettingMetrics,
    pub inductive: SettingMetrics,
    pub new_old: SettingMetrics,
    pub new_new: SettingMetrics,
    pub best_val_ap: f64,
    pub epoch_losses: Vec<f32>,
    pub val_aps: Vec<f64>,
    /// Why ranking was skipped although `rank_negatives > 0`: some test
    /// query had no valid filtered negative.
    pub ranking_error: Option<RankingError>,
    pub efficiency: EfficiencyReport,
}

impl ToJson for LinkPredictionRun {
    fn to_json(&self) -> Json {
        json!({
            "model": self.model.as_str(),
            "dataset": self.dataset.as_str(),
            "transductive": &self.transductive,
            "inductive": &self.inductive,
            "new_old": &self.new_old,
            "new_new": &self.new_new,
            "best_val_ap": self.best_val_ap,
            "epoch_losses": self.epoch_losses.as_slice(),
            "val_aps": self.val_aps.as_slice(),
            "ranking_error": self.ranking_error.as_ref().map(ToString::to_string),
            "efficiency": &self.efficiency,
        })
    }
}

impl LinkPredictionRun {
    pub fn metrics_for(&self, setting: Setting) -> SettingMetrics {
        match setting {
            Setting::Transductive => self.transductive,
            Setting::Inductive => self.inductive,
            Setting::InductiveNewOld => self.new_old,
            Setting::InductiveNewNew => self.new_new,
        }
    }
}

/// Train and evaluate a model on the link-prediction task, all four
/// settings at once.
pub fn train_link_prediction(
    model: &mut dyn TgnnModel,
    graph: &TemporalGraph,
    split: &LinkPredSplit,
    cfg: &TrainConfig,
) -> LinkPredictionRun {
    // One recorder per job: every span closed below (including on pool
    // workers) aggregates here, and the final profile ships in the report.
    let recorder = obs::Recorder::new();
    let _obs_guard = recorder.install();
    #[expect(
        clippy::disallowed_methods,
        reason = "anchors the timeout deadline; wall time never reaches scores"
    )]
    let job_start = Instant::now();
    let deadline = job_start + cfg.timeout;

    let setup_span = obs::span(stage::SETUP);
    let backends = job_backends(graph, &split.train, cfg);
    let train_ctx = StreamContext {
        graph,
        neighbors: backends.train.as_backend(),
    };
    let full_ctx = StreamContext {
        graph,
        neighbors: backends.full.as_backend(),
    };

    let mut train_sampler = EdgeSampler::new(graph, &split.train, cfg.neg_strategy, cfg.seed);
    // Fixed, distinct seeds for validation and test (Appendix B).
    let mut val_sampler =
        EdgeSampler::new(graph, &split.train, cfg.neg_strategy, cfg.seed ^ 0x0a1_0001);
    let mut test_sampler = EdgeSampler::new(
        graph,
        &split.train,
        cfg.neg_strategy,
        cfg.seed ^ 0x7e57_0002,
    );

    // Membership masks over the transductive test stream for the inductive
    // filters (computed once; test events are scored in stream order).
    let inductive_mask: Vec<bool> = split
        .test
        .iter()
        .map(|e| split.unseen[e.src] || split.unseen[e.dst])
        .collect();
    let new_new_mask: Vec<bool> = split
        .test
        .iter()
        .map(|e| split.unseen[e.src] && split.unseen[e.dst])
        .collect();

    // Filtered negative candidate sets for ranking, precomputed once per
    // job so every epoch's test pass ranks against identical candidates.
    // A split with no valid negative for some query skips ranking and
    // records why.
    let (filtered_negs, ranking_error) = match (cfg.rank_negatives > 0)
        .then(|| {
            FilteredNegativeSet::try_build(
                graph,
                &split.train,
                &split.test,
                cfg.neg_strategy,
                cfg.rank_negatives,
                cfg.seed ^ RANK_NEG_SEED_SALT,
            )
        })
        .transpose()
    {
        Ok(set) => (set, None),
        Err(e) => (None, Some(e)),
    };
    drop(setup_span);

    let mut monitor = EarlyStopMonitor::new(cfg.patience, cfg.tolerance);
    let mut timed_out = false;

    let mut epoch_losses = Vec::new();
    let mut val_aps = Vec::new();
    let mut best_test_scores: Option<StreamScores> = None;
    let mut best_snapshot: Option<Vec<Matrix>> = None;
    let mut inference_secs_per_100k = 0.0;

    for _epoch in 0..cfg.max_epochs {
        // ---- train (its span covers learning only — never scoring) ----
        {
            let _train_span = obs::span(stage::TRAIN_EPOCH);
            model.reset_state();
            let mut loss_sum = 0.0f64;
            let mut batches = 0usize;
            for batch in split.train.chunks(cfg.batch_size) {
                let negs = train_sampler.sample_batch(batch);
                loss_sum += model.train_batch(&train_ctx, batch, &negs) as f64;
                batches += 1;
                #[expect(
                    clippy::disallowed_methods,
                    reason = "timeout guard; only flips `timed_out`, never a metric"
                )]
                if Instant::now() > deadline {
                    timed_out = true;
                    break;
                }
            }
            epoch_losses.push((loss_sum / batches.max(1) as f64) as f32);
        }
        if timed_out {
            // The epoch is truncated: skip scoring entirely — partial-epoch
            // scores are not comparable to full-stream scores.
            break;
        }

        // ---- validation (stream continues; full adjacency view) ----
        val_sampler.reset();
        let val_scores = obs::timed(stage::VAL_SCORING, || {
            score_stream(
                model,
                &full_ctx,
                &split.val,
                &mut val_sampler,
                cfg.batch_size,
                Some(deadline),
                None,
            )
        });
        if !val_scores.completed {
            timed_out = true;
            break;
        }
        let val_ap = average_precision_pos_neg(&val_scores.pos, &val_scores.neg);
        val_aps.push(val_ap);

        // ---- test (stream continues) ----
        test_sampler.reset();
        let (test_scores, infer) = obs::timed_secs(stage::TEST_SCORING, || {
            score_stream(
                model,
                &full_ctx,
                &split.test,
                &mut test_sampler,
                cfg.batch_size,
                Some(deadline),
                filtered_negs.as_ref(),
            )
        });
        if !test_scores.completed {
            timed_out = true;
            break;
        }

        let improved = monitor.record(val_ap);
        if improved || best_test_scores.is_none() {
            best_snapshot = Some(model.snapshot());
            // Scored pairs per test event: 1 positive + 1 AUC/AP negative
            // + K ranking candidates (+1 fresh ranking positive).
            let pairs_per_event = match &filtered_negs {
                Some(f) => 3.0 + f.k as f64,
                None => 2.0,
            };
            inference_secs_per_100k =
                infer / (split.test.len().max(1) as f64 * pairs_per_event) * 100_000.0;
            best_test_scores = Some(test_scores);
        }
        if monitor.should_stop() {
            break;
        }
        // Epoch boundary: record the `tape.pool_resident_bytes` gauge.
        benchtemp_tensor::params::trim_tape_caches();
    }

    if let Some(snap) = &best_snapshot {
        model.restore(snap);
    }
    let best = best_test_scores.unwrap_or(StreamScores {
        pos: Vec::new(),
        neg: Vec::new(),
        rank_pos: Vec::new(),
        rank_cands: Vec::new(),
        completed: false,
    });
    let (tpos, tneg) = (best.pos, best.neg);

    // Score subsets for the four settings: each inductive setting is a
    // membership filter over the same scored test stream. The AUC/AP
    // sort+scan per setting is independent work, so the four settings fan
    // out through the worker pool (metrics are computed per setting by the
    // same sequential kernel regardless of thread count, so results are
    // bit-identical at any `BENCHTEMP_THREADS`).
    let subset_scores = |mask: Option<&dyn Fn(usize) -> bool>| -> (Vec<f32>, Vec<f32>) {
        let idx: Vec<usize> = (0..tpos.len())
            .filter(|&i| mask.map(|m| m(i)).unwrap_or(true))
            .collect();
        (
            idx.iter().map(|&i| tpos[i]).collect(),
            idx.iter().map(|&i| tneg[i]).collect(),
        )
    };
    let ind = |i: usize| inductive_mask[i];
    let nn = |i: usize| new_new_mask[i];
    let no = |i: usize| inductive_mask[i] && !new_new_mask[i];
    let metrics = obs::timed(stage::FINAL_METRICS, || {
        let score_sets = [
            subset_scores(None),
            subset_scores(Some(&ind)),
            subset_scores(Some(&no)),
            subset_scores(Some(&nn)),
        ];
        let setting_metrics = |(pos, neg): &(Vec<f32>, Vec<f32>)| {
            let (auc, ap) = auc_ap_pos_neg(pos, neg);
            SettingMetrics {
                auc,
                ap,
                n_edges: pos.len(),
                ranking: None,
            }
        };
        // Dispatch through the pool only when it can actually help: a test
        // stream too small to amortize queue traffic is computed inline
        // (`par_map` itself runs inline with one effective worker). The
        // per-setting kernel is identical either way, so the metrics are
        // bit-identical regardless of which path runs.
        let total_scores: usize = score_sets.iter().map(|(p, n)| p.len() + n.len()).sum();
        let mut metrics: Vec<SettingMetrics> = if total_scores < PAR_EVAL_MIN_SCORES {
            score_sets.iter().map(setting_metrics).collect()
        } else {
            pool().par_map(&score_sets, setting_metrics)
        };
        // Ranking metrics: one pessimistic-rank scan per setting over the
        // same query-major candidate scores (sequential — O(n·k) per
        // setting, far below the AUC sort above).
        if let Some(fneg) = &filtered_negs {
            let (rp, rc) = (&best.rank_pos, &best.rank_cands);
            if rp.len() == split.test.len() {
                let new_old_mask: Vec<bool> = inductive_mask
                    .iter()
                    .zip(&new_new_mask)
                    .map(|(&i, &n)| i && !n)
                    .collect();
                metrics[0].ranking = Some(ranking_metrics_flat(rp, rc, fneg.k, None));
                metrics[1].ranking =
                    Some(ranking_metrics_flat(rp, rc, fneg.k, Some(&inductive_mask)));
                metrics[2].ranking =
                    Some(ranking_metrics_flat(rp, rc, fneg.k, Some(&new_old_mask)));
                metrics[3].ranking =
                    Some(ranking_metrics_flat(rp, rc, fneg.k, Some(&new_new_mask)));
            }
        }
        metrics
    });

    let rss = peak_rss_bytes();
    obs::trace::emit_counters();
    let profile = recorder.profile();
    let stages = StageBreakdown::from_profile(&profile, job_start.elapsed().as_secs_f64());

    LinkPredictionRun {
        model: model.name().to_string(),
        dataset: graph.name.clone(),
        transductive: metrics[0],
        inductive: metrics[1],
        new_old: metrics[2],
        new_new: metrics[3],
        best_val_ap: monitor.best_metric(),
        epoch_losses,
        val_aps,
        ranking_error,
        efficiency: EfficiencyReport {
            // Mean over training spans only: scoring has its own spans, so
            // it cannot leak in here (the old `EpochTimer` bug).
            runtime_per_epoch_secs: profile.mean_secs(stage::TRAIN_EPOCH),
            epochs_to_converge: monitor.best_epoch() + 1,
            peak_rss_bytes: rss,
            tape_pool_resident_bytes: benchtemp_obs::counters::TAPE_POOL_RESIDENT_BYTES.get(),
            model_state_bytes: model.state_bytes() as u64,
            compute_utilization: stages.utilization().unwrap_or(0.0),
            inference_secs_per_100k,
            timed_out,
            thread_count: pool().threads(),
            kernel_isa: kernel_isa(),
            stages,
            profile,
        },
    }
}

/// Scores from one pass over an event window. `completed` is false when the
/// pass was cut short by the job deadline — truncated scores must never be
/// compared against (or recorded as) full-stream scores.
struct StreamScores {
    pos: Vec<f32>,
    neg: Vec<f32>,
    /// Fresh positive scores from the ranking path (one per event; empty
    /// when ranking is off). Scored under pre-batch state, so they pair
    /// with `rank_cands`, not with `pos`.
    rank_pos: Vec<f32>,
    /// Candidate scores in query-major layout: `rank_cands[q * k + j]`.
    rank_cands: Vec<f32>,
    completed: bool,
}

/// Advance the model through an event window, scoring every edge against a
/// sampled negative. Scores align with the window's events. Stops early
/// (with `completed: false`) once `deadline` passes, so a timed-out job
/// does not burn its overrun on full val+test scoring.
///
/// When `ranking` is set, each batch additionally scores its precomputed
/// K-candidate sets through [`TgnnModel::score_candidates`] *before*
/// `eval_batch` advances the temporal state, so ranking queries see exactly
/// the state a deployed model would have at that point in the stream.
fn score_stream(
    model: &mut dyn TgnnModel,
    ctx: &StreamContext,
    events: &[Interaction],
    sampler: &mut EdgeSampler,
    batch_size: usize,
    deadline: Option<Instant>,
    ranking: Option<&FilteredNegativeSet>,
) -> StreamScores {
    let mut pos = Vec::with_capacity(events.len());
    let mut neg = Vec::with_capacity(events.len());
    let k = ranking.map_or(0, |f| f.k);
    let mut rank_pos = Vec::with_capacity(events.len() * usize::from(k > 0));
    let mut rank_cands = Vec::with_capacity(events.len() * k);
    let mut offset = 0usize;
    for batch in events.chunks(batch_size) {
        #[expect(
            clippy::disallowed_methods,
            reason = "timeout guard; aborts scoring, never shapes it"
        )]
        if deadline.is_some_and(|d| Instant::now() > d) {
            return StreamScores {
                pos,
                neg,
                rank_pos,
                rank_cands,
                completed: false,
            };
        }
        if let Some(fneg) = ranking {
            let n = batch.len();
            let cand_ids = fneg.block(offset, n);
            let (rp, rc) = model.score_candidates(ctx, batch, &cand_ids, k);
            debug_assert_eq!(rp.len(), n);
            debug_assert_eq!(rc.len(), n * k);
            rank_pos.extend_from_slice(&rp);
            // Transpose candidate blocks to query-major for aggregation.
            for i in 0..n {
                for j in 0..k {
                    rank_cands.push(rc[j * n + i]);
                }
            }
        }
        let negs = sampler.sample_batch(batch);
        let (p, n) = model.eval_batch(ctx, batch, &negs);
        debug_assert_eq!(p.len(), batch.len());
        debug_assert_eq!(n.len(), batch.len());
        pos.extend(p);
        neg.extend(n);
        offset += batch.len();
    }
    StreamScores {
        pos,
        neg,
        rank_pos,
        rank_cands,
        completed: true,
    }
}

/// Outcome of one node-classification job.
#[derive(Clone, Debug)]
pub struct NodeClassificationRun {
    pub model: String,
    pub dataset: String,
    /// Binary test AUC (Table 5 / Table 19).
    pub auc: f64,
    /// Appendix-G metrics for multi-class datasets (DGraphFin).
    pub multiclass: Option<MultiClassMetrics>,
    pub best_val_metric: f64,
    pub decoder_epochs: usize,
    pub efficiency: EfficiencyReport,
}

impl ToJson for NodeClassificationRun {
    fn to_json(&self) -> Json {
        json!({
            "model": self.model.as_str(),
            "dataset": self.dataset.as_str(),
            "auc": self.auc,
            "multiclass": self.multiclass.as_ref(),
            "best_val_metric": self.best_val_metric,
            "decoder_epochs": self.decoder_epochs,
            "efficiency": &self.efficiency,
        })
    }
}

/// Node-classification protocol (§3.2.2): freeze the (self-supervised
/// pre-trained) TGNN, stream the full dataset once collecting dynamic
/// source-node embeddings per event, then train an MLP decoder on the
/// chronological 70/15/15 split of those embeddings — the standard protocol
/// of the TGN/JODIE codebases the paper builds on.
pub fn train_node_classification(
    model: &mut dyn TgnnModel,
    graph: &TemporalGraph,
    cfg: &TrainConfig,
) -> NodeClassificationRun {
    use benchtemp_tensor::{init, nn::Mlp, Adam, Graph, ParamStore};

    let recorder = obs::Recorder::new();
    let _obs_guard = recorder.install();
    #[expect(
        clippy::disallowed_methods,
        reason = "job wall time for the efficiency report; not part of model results"
    )]
    let job_start = Instant::now();

    let labels = graph
        .labels
        .as_ref()
        .expect("node classification needs labels");
    let setup_span = obs::span(stage::SETUP);
    let split = NodeClassSplit::new(graph);
    // Node classification streams the full graph only; the train backend
    // of the pair is an empty shell (cheap in both modes).
    let backends = job_backends(graph, &[], cfg);
    let ctx = StreamContext {
        graph,
        neighbors: backends.full.as_backend(),
    };
    drop(setup_span);

    // ---- collect embeddings over the full stream (one pass) ----
    model.reset_state();
    let dim = model.embed_dim();
    let mut embeddings = Matrix::zeros(graph.num_events(), dim);
    let (_, embed_secs) = obs::timed_secs(stage::EMBED_COLLECTION, || {
        let mut row = 0usize;
        for batch in graph.events.chunks(cfg.batch_size) {
            let emb = model.embed_events(&ctx, batch);
            debug_assert_eq!(emb.rows(), batch.len());
            for r in 0..emb.rows() {
                embeddings.set_row(row, emb.row(r));
                row += 1;
            }
        }
    });

    // ---- train the decoder on frozen embeddings ----
    let num_classes = labels.num_classes;
    let binary = num_classes == 2;
    let out_dim = if binary { 1 } else { num_classes };
    let mut store = ParamStore::new();
    let mut rng = init::rng(cfg.seed ^ 0xdec0de);
    let decoder = Mlp::new(&mut store, &mut rng, "nc_decoder", dim, 80, out_dim);
    let mut adam = Adam::new(1e-3);
    let mut monitor = EarlyStopMonitor::new(cfg.patience, cfg.tolerance);
    let mut best_snapshot: Option<Vec<Matrix>> = None;

    let gather = |range: &std::ops::Range<usize>| -> (Vec<usize>, Vec<usize>) {
        let idx: Vec<usize> = range.clone().collect();
        let y: Vec<usize> = idx.iter().map(|&i| labels.labels[i] as usize).collect();
        (idx, y)
    };
    let (train_idx, train_y) = gather(&split.train_range);
    let (val_idx, val_y) = gather(&split.val_range);
    let (test_idx, test_y) = gather(&split.test_range);

    let score_set = |store: &ParamStore, idx: &[usize]| -> Matrix {
        let mut g = Graph::new(store);
        let x = g.gather_rows_from(&embeddings, idx);
        let logits = decoder.forward(&mut g, x);
        g.value(logits).clone()
    };
    let val_metric = |store: &ParamStore| -> f64 {
        let logits = score_set(store, &val_idx);
        if binary {
            let scores: Vec<f32> = (0..logits.rows()).map(|r| logits.get(r, 0)).collect();
            let ylab: Vec<f32> = val_y.iter().map(|&y| y as f32).collect();
            roc_auc(&ylab, &scores)
        } else {
            let pred: Vec<usize> = (0..logits.rows()).map(|r| argmax(logits.row(r))).collect();
            multiclass_metrics(&pred, &val_y, num_classes).f1_weighted
        }
    };

    let decoder_batch = 512usize;
    for _epoch in 0..cfg.max_epochs {
        obs::timed(stage::TRAIN_EPOCH, || {
            for chunk in train_idx.chunks(decoder_batch) {
                let mut g = Graph::new(&store);
                let x = g.gather_rows_from(&embeddings, chunk);
                let logits = decoder.forward(&mut g, x);
                let ys: Vec<usize> = chunk.iter().map(|&i| labels.labels[i] as usize).collect();
                let loss = if binary {
                    let yf: Vec<f32> = ys.iter().map(|&y| y as f32).collect();
                    g.bce_with_logits(logits, &yf)
                } else {
                    g.softmax_cross_entropy(logits, &ys)
                };
                let grads = g.backward(loss);
                adam.step(&mut store, &grads);
            }
        });
        let metric = obs::timed(stage::VAL_SCORING, || val_metric(&store));
        if monitor.record(metric) {
            best_snapshot = Some(store.snapshot());
        }
        if monitor.should_stop() {
            break;
        }
        benchtemp_tensor::params::trim_tape_caches();
    }
    if let Some(snap) = &best_snapshot {
        store.restore(snap);
    }

    // ---- test ----
    let (auc, multiclass) = obs::timed(stage::TEST_SCORING, || {
        let logits = score_set(&store, &test_idx);
        if binary {
            let scores: Vec<f32> = (0..logits.rows()).map(|r| logits.get(r, 0)).collect();
            let ylab: Vec<f32> = test_y.iter().map(|&y| y as f32).collect();
            (roc_auc(&ylab, &scores), None)
        } else {
            let pred: Vec<usize> = (0..logits.rows()).map(|r| argmax(logits.row(r))).collect();
            let m = multiclass_metrics(&pred, &test_y, num_classes);
            (m.accuracy, Some(m))
        }
    });
    let _ = train_y; // decoder batches re-derive labels; kept for clarity

    let rss = peak_rss_bytes();
    obs::trace::emit_counters();
    let profile = recorder.profile();
    let stages = StageBreakdown::from_profile(&profile, job_start.elapsed().as_secs_f64());
    NodeClassificationRun {
        model: model.name().to_string(),
        dataset: graph.name.clone(),
        auc,
        multiclass,
        best_val_metric: monitor.best_metric(),
        decoder_epochs: monitor.best_epoch() + 1,
        efficiency: EfficiencyReport {
            // Embedding collection dominates NC runtime; amortize over the
            // decoder epochs actually run, matching "seconds per epoch".
            runtime_per_epoch_secs: (embed_secs + profile.total_secs(stage::TRAIN_EPOCH))
                / monitor.epochs_seen().max(1) as f64,
            epochs_to_converge: monitor.best_epoch() + 1,
            peak_rss_bytes: rss,
            tape_pool_resident_bytes: benchtemp_obs::counters::TAPE_POOL_RESIDENT_BYTES.get(),
            model_state_bytes: (model.state_bytes() + store.heap_bytes()) as u64,
            compute_utilization: stages.utilization().unwrap_or(0.0),
            inference_secs_per_100k: embed_secs / graph.num_events().max(1) as f64 * 100_000.0,
            timed_out: false,
            thread_count: pool().threads(),
            kernel_isa: kernel_isa(),
            stages,
            profile,
        },
    }
}

fn argmax(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setting_json_has_no_metric_without_edges() {
        let json = |n_edges| {
            let m = SettingMetrics {
                auc: 0.75,
                ap: 0.625,
                n_edges,
                ranking: None,
            };
            m.to_json()
        };
        let (scored, empty) = (json(4), json(0));
        assert_eq!(scored.get("auc").and_then(Json::as_f64), Some(0.75));
        assert_eq!(scored.get("ap").and_then(Json::as_f64), Some(0.625));
        assert!(empty.get("auc").is_some_and(Json::is_null));
        assert!(empty.get("ap").is_some_and(Json::is_null));
    }
}
