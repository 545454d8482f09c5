//! Whole-job link-prediction benchmark for the benchtemp pipeline.
//!
//! A workload is one real job, driven through the public API the way
//! [`benchtemp_core::train_link_prediction`] drives it: generate a preset,
//! split it, build the neighbor backend, draw the filtered ranking
//! candidates, build the model, then run a fixed number of epochs of
//! train, validation and test passes. Every public call is timed from
//! outside, so the library carries no benchmark hooks. `NOTES.md` explains
//! the workloads and the best-of-warm-epochs estimator.

use std::path::{Path, PathBuf};
use std::time::Instant;

use benchtemp_core::evaluator::auc_ap_pos_neg;
use benchtemp_core::{
    ranking_metrics_flat, EarlyStopMonitor, EdgeSampler, FilteredNegativeSet, LinkPredSplit,
    NegativeStrategy, SettingMetrics, StreamContext, TgnnModel,
};
use benchtemp_graph::datasets::BenchDataset;
use benchtemp_graph::paged::StoreOptions;
use benchtemp_graph::{
    Interaction, NeighborFinder, OwnedNeighborBackend, PagedNeighborFinder, TemporalGraph,
};
use benchtemp_models::common::ModelConfig;
use benchtemp_obs::{counters, Profile, Recorder};

/// Salts `train_link_prediction` derives its validation negatives, test
/// negatives and ranking candidates from the job seed with. The identity
/// test in `tests/` fails if the pipeline stops using them.
const VAL_SEED_SALT: u64 = 0x0a1_0001;
const TEST_SEED_SALT: u64 = 0x7e57_0002;
const RANK_SEED_SALT: u64 = 0xf117_0003;
/// `TrainConfig`'s default tolerance. The job never stops early, but the
/// epoch whose test metrics it reports is picked by the same rule.
const TOLERANCE: f64 = 1e-3;

/// The shape of one job.
#[derive(Clone, Debug)]
pub struct JobSpec {
    pub dataset: BenchDataset,
    pub scale: f64,
    /// Zoo model name.
    pub model: &'static str,
    /// Page-cache budget of the paged backend; `None` keeps the CSR resident.
    pub page_cache_bytes: Option<usize>,
    /// Filtered ranking candidates per test query.
    pub rank_negatives: usize,
    pub batch_size: usize,
}

impl JobSpec {
    pub fn model_config(&self, seed: u64) -> ModelConfig {
        ModelConfig {
            seed,
            ..ModelConfig::default()
        }
    }
}

/// A named workload: a job and how one run of it is measured.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub job: JobSpec,
    /// Set-up repeats per run; `setup_s` sums each call's fastest repeat.
    pub setup_repeats: usize,
    /// Seconds one epoch takes on the reference host (NOTES.md). It turns
    /// `--seconds` into a fixed epoch count, so a run's outputs depend only
    /// on its arguments.
    pub epoch_secs: f64,
}

/// Fewest warm epochs a run measures: the estimator needs several samples
/// per batch, and the traced run splits them into two halves.
const MIN_WARM_EPOCHS: usize = 4;

/// The benchmark's workloads; NOTES.md records why each exists.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "wiki-tgat",
            job: JobSpec {
                dataset: BenchDataset::Wikipedia,
                scale: 0.01,
                model: "TGAT",
                page_cache_bytes: None,
                rank_negatives: 5,
                batch_size: 100,
            },
            setup_repeats: 100,
            epoch_secs: 1.6,
        },
        Workload {
            name: "wiki-tgn",
            job: JobSpec {
                dataset: BenchDataset::Wikipedia,
                scale: 0.04,
                model: "TGN",
                page_cache_bytes: None,
                rank_negatives: 5,
                batch_size: 100,
            },
            setup_repeats: 30,
            epoch_secs: 1.0,
        },
        Workload {
            name: "dgf-tgn-paged",
            job: JobSpec {
                dataset: BenchDataset::DGraphFin,
                scale: 0.005,
                model: "TGN",
                page_cache_bytes: Some(512 << 10),
                rank_negatives: 20,
                batch_size: 100,
            },
            setup_repeats: 9,
            epoch_secs: 2.2,
        },
    ]
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        workloads().into_iter().find(|w| w.name == name)
    }

    /// The cold epoch plus as many warm epochs as fit in `seconds` on the
    /// reference host.
    pub fn epochs(&self, seconds: u64) -> usize {
        1 + ((seconds as f64 / self.epoch_secs).round() as usize).max(MIN_WARM_EPOCHS)
    }
}

/// Run `f` and return its result with the seconds it took.
fn clock<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// FNV-1a over the little-endian bytes of `words`.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
}

/// Seconds each set-up call of one repeat took.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub generate: f64,
    pub split: f64,
    /// CSR build (resident) or external-sort bulk load (paged), of both the
    /// train and the full view.
    pub backend: f64,
    pub candidates: f64,
    pub model: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.generate + self.split + self.backend + self.candidates + self.model
    }

    /// Each call's fastest time across `repeats`: the best-of estimator of
    /// the batch timings, applied to the set-up calls.
    pub fn best(repeats: &[SetupTimes]) -> SetupTimes {
        let min =
            |phase: fn(&SetupTimes) -> f64| repeats.iter().map(phase).fold(f64::INFINITY, f64::min);
        SetupTimes {
            generate: min(|t| t.generate),
            split: min(|t| t.split),
            backend: min(|t| t.backend),
            candidates: min(|t| t.candidates),
            model: min(|t| t.model),
        }
    }
}

/// A store directory, removed when the job's inputs drop.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything a job reads, built by the public set-up calls. Field order
/// matters: the paged backends close their page files before their
/// directory is removed.
pub struct JobInputs {
    pub graph: TemporalGraph,
    pub split: LinkPredSplit,
    pub train_neighbors: OwnedNeighborBackend,
    pub full_neighbors: OwnedNeighborBackend,
    pub candidates: FilteredNegativeSet,
    _store_dir: Option<RemoveOnDrop>,
}

impl JobInputs {
    /// FNV-1a digest of the generated event stream.
    pub fn events_digest(&self) -> u64 {
        let events = self
            .graph
            .events
            .iter()
            .flat_map(|e| [e.src as u64, e.dst as u64, e.t.to_bits(), e.feat_idx as u64]);
        fnv1a(std::iter::once(self.graph.num_nodes as u64).chain(events))
    }

    /// Digest of everything set-up derives from the seed: events, split
    /// and ranking candidates.
    pub fn setup_digest(&self) -> u64 {
        let split = &self.split;
        let unseen = split.unseen.iter().map(|&u| u64::from(u));
        fnv1a(
            [
                self.events_digest(),
                split.train.len() as u64,
                split.val.len() as u64,
                split.test.len() as u64,
                self.candidates.digest(),
            ]
            .into_iter()
            .chain(unseen),
        )
    }
}

/// Run the set-up calls of `spec` for `seed`, timing each. A paged job
/// bulk-loads its two stores under `store_dir`, which is removed when the
/// returned inputs drop.
pub fn setup(
    spec: &JobSpec,
    seed: u64,
    store_dir: &Path,
) -> (JobInputs, Box<dyn TgnnModel>, SetupTimes) {
    let mut t = SetupTimes::default();
    let (graph, secs) = clock(|| spec.dataset.config(spec.scale, seed).generate());
    t.generate = secs;
    let (split, secs) = clock(|| LinkPredSplit::new(&graph, seed));
    t.split = secs;
    let ((train_neighbors, full_neighbors), secs) = clock(|| match spec.page_cache_bytes {
        None => (
            OwnedNeighborBackend::Resident(NeighborFinder::from_events(
                graph.num_nodes,
                &split.train,
            )),
            OwnedNeighborBackend::Resident(NeighborFinder::from_events(
                graph.num_nodes,
                &graph.events,
            )),
        ),
        Some(budget) => {
            let opts = StoreOptions {
                cache_budget_bytes: Some(budget),
                ..StoreOptions::default()
            };
            let train = PagedNeighborFinder::bulk_load(
                &store_dir.join("train"),
                graph.num_nodes,
                &split.train,
                None,
                &opts,
            )
            .expect("bulk-load the train store");
            let full = PagedNeighborFinder::bulk_load_graph(&store_dir.join("full"), &graph, &opts)
                .expect("bulk-load the full store");
            (
                OwnedNeighborBackend::Paged(train),
                OwnedNeighborBackend::Paged(full),
            )
        }
    });
    t.backend = secs;
    let (candidates, secs) = clock(|| {
        FilteredNegativeSet::build(
            &graph,
            &split.train,
            &split.test,
            NegativeStrategy::Random,
            spec.rank_negatives,
            seed ^ RANK_SEED_SALT,
        )
    });
    t.candidates = secs;
    let (model, secs) =
        clock(|| benchtemp_models::zoo::build(spec.model, spec.model_config(seed), &graph));
    t.model = secs;
    let inputs = JobInputs {
        graph,
        split,
        train_neighbors,
        full_neighbors,
        candidates,
        _store_dir: spec
            .page_cache_bytes
            .map(|_| RemoveOnDrop(store_dir.to_path_buf())),
    };
    (inputs, model, t)
}

/// How the job runs.
#[derive(Clone, Debug)]
pub struct JobConfig {
    /// Epochs, all run: the job never stops early and has no deadline.
    pub epochs: usize,
    pub batch_size: usize,
    pub seed: u64,
    /// Install an `obs::Recorder` on the even warm epochs (2, 4, ...), so one
    /// run yields the span profile and, against the odd warm epochs, the
    /// tracing overhead.
    pub trace: bool,
}

/// Seconds of every timed call of one epoch.
#[derive(Clone, Debug, Default)]
pub struct EpochTimes {
    pub traced: bool,
    /// Per train batch: `sample_batch` + `train_batch`.
    pub train: Vec<f64>,
    /// Per train batch: `train_batch` alone.
    pub train_batch: Vec<f64>,
    /// Per validation, then test batch: `sample_batch` + `eval_batch`.
    pub eval: Vec<f64>,
    /// Per validation, then test batch: `eval_batch` alone.
    pub eval_batch: Vec<f64>,
    /// Per test batch: candidate block + `score_candidates` + the
    /// query-major transpose `train_link_prediction` also performs.
    pub rank: Vec<f64>,
    /// All `sample_batch` calls of the epoch.
    pub neg_sample: f64,
    /// `auc_ap_pos_neg` and `ranking_metrics_flat` over the epoch's scores.
    pub evaluator: f64,
    /// `reset_state`, the sampler resets and `trim_tape_caches`.
    pub other: f64,
    /// Wall time of the whole epoch.
    pub wall: f64,
}

impl EpochTimes {
    /// Seconds inside timed calls.
    pub fn timed(&self) -> f64 {
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        sum(&self.train) + sum(&self.eval) + sum(&self.rank) + self.evaluator + self.other
    }
}

/// The best-of-warm-epochs estimator: for each batch position, its fastest
/// time across the given epochs, summed over positions.
pub fn best_of<'a>(epochs: impl IntoIterator<Item = &'a [f64]>) -> f64 {
    let mut best: Vec<f64> = Vec::new();
    for times in epochs {
        if best.is_empty() {
            best = times.to_vec();
        } else {
            for (b, &t) in best.iter_mut().zip(times) {
                *b = b.min(t);
            }
        }
    }
    best.iter().sum()
}

/// `/proc/self/stat` fields the per-layer metrics use.
#[derive(Clone, Copy, Debug)]
pub struct ProcStat {
    pub minor_faults: u64,
    pub user_ticks: u64,
    pub system_ticks: u64,
}

/// Read `/proc/self/stat`; `None` where it does not exist (off Linux).
pub fn proc_stat() -> Option<ProcStat> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name start at field 3 (state);
    // minflt, utime and stime are fields 10, 14 and 15.
    let fields: Vec<&str> = stat[stat.rfind(')')? + 1..].split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse().ok();
    Some(ProcStat {
        minor_faults: field(10)?,
        user_ticks: field(14)?,
        system_ticks: field(15)?,
    })
}

/// Scores of one validation or test pass.
#[derive(Clone, Debug, Default)]
pub struct Scores {
    pub pos: Vec<f32>,
    pub neg: Vec<f32>,
    /// Fresh positive scores from the ranking path (test pass only).
    pub rank_pos: Vec<f32>,
    /// Candidate scores, query-major: `rank_cands[q * k + j]`.
    pub rank_cands: Vec<f32>,
}

impl Scores {
    fn non_finite(&self) -> usize {
        [&self.pos, &self.neg, &self.rank_pos, &self.rank_cands]
            .iter()
            .flat_map(|v| v.iter())
            .filter(|s| !s.is_finite())
            .count()
    }
}

/// Membership masks over the test stream of the four settings, in
/// `Setting::all()` order (`None` = every event).
pub fn setting_masks(split: &LinkPredSplit) -> [Option<Vec<bool>>; 4] {
    let unseen = |f: fn(bool, bool) -> bool| -> Vec<bool> {
        split
            .test
            .iter()
            .map(|e| f(split.unseen[e.src], split.unseen[e.dst]))
            .collect()
    };
    [
        None,
        Some(unseen(|s, d| s || d)),
        Some(unseen(|s, d| s != d)),
        Some(unseen(|s, d| s && d)),
    ]
}

/// What a job produced.
pub struct JobOutput {
    pub epoch_losses: Vec<f32>,
    pub val_aps: Vec<f64>,
    /// Test metrics of the best-validation epoch, in `Setting::all()` order.
    pub metrics: [SettingMetrics; 4],
    pub best_epoch: usize,
    /// Test scores of that epoch.
    pub best_scores: Scores,
    pub epochs: Vec<EpochTimes>,
    /// Spans closed during the traced epochs.
    pub profile: Profile,
    /// Counter increases over the warm epochs.
    pub warm_counters: Profile,
    /// `/proc/self/stat` when the warm epochs start and when the job ends.
    pub warm_proc: Option<(ProcStat, ProcStat)>,
    /// Matmul FLOPs and tape nodes of the warm epochs' train passes.
    pub train_flops: u64,
    pub train_tape_nodes: u64,
    /// Losses and scores that came out NaN or infinite.
    pub non_finite: usize,
}

impl JobOutput {
    /// Every epoch after the cold epoch 0.
    pub fn warm(&self) -> &[EpochTimes] {
        &self.epochs[1..]
    }

    /// FNV-1a digest of the outputs: AUC, AP and MRR bits of the four
    /// settings and the loss bits of every epoch.
    pub fn digest(&self) -> u64 {
        let settings = self.metrics.iter().flat_map(|m| {
            [
                m.auc.to_bits(),
                m.ap.to_bits(),
                m.ranking.map_or(0, |r| r.mrr.to_bits()),
            ]
        });
        let losses = self.epoch_losses.iter().map(|l| u64::from(l.to_bits()));
        fnv1a(settings.chain(losses))
    }
}

/// One validation or test pass, as `train_link_prediction` scores it:
/// ranking (when `ranking` is set) before `eval_batch` advances the state.
fn score_pass(
    model: &mut dyn TgnnModel,
    ctx: &StreamContext,
    events: &[Interaction],
    sampler: &mut EdgeSampler,
    batch_size: usize,
    ranking: Option<&FilteredNegativeSet>,
    t: &mut EpochTimes,
) -> Scores {
    let k = ranking.map_or(0, |r| r.k);
    let mut s = Scores {
        pos: Vec::with_capacity(events.len()),
        neg: Vec::with_capacity(events.len()),
        rank_pos: Vec::with_capacity(events.len() * usize::from(k > 0)),
        rank_cands: Vec::with_capacity(events.len() * k),
    };
    let mut offset = 0;
    for batch in events.chunks(batch_size) {
        let n = batch.len();
        if let Some(cands) = ranking {
            let ((), secs) = clock(|| {
                let (rp, rc) = model.score_candidates(ctx, batch, &cands.block(offset, n), k);
                s.rank_pos.extend_from_slice(&rp);
                for i in 0..n {
                    s.rank_cands.extend((0..k).map(|j| rc[j * n + i]));
                }
            });
            t.rank.push(secs);
        }
        let (negs, sample) = clock(|| sampler.sample_batch(batch));
        let ((pos, neg), eval) = clock(|| model.eval_batch(ctx, batch, &negs));
        t.neg_sample += sample;
        t.eval.push(sample + eval);
        t.eval_batch.push(eval);
        s.pos.extend(pos);
        s.neg.extend(neg);
        offset += n;
    }
    s
}

/// The positive and negative scores of the events `mask` keeps.
fn masked(scores: &Scores, mask: Option<&[bool]>) -> (Vec<f32>, Vec<f32>) {
    let pick = |v: &[f32]| -> Vec<f32> {
        (0..v.len())
            .filter(|&i| mask.is_none_or(|m| m[i]))
            .map(|i| v[i])
            .collect()
    };
    (pick(&scores.pos), pick(&scores.neg))
}

/// AUC/AP and ranking metrics of the four settings over one test pass.
fn setting_metrics(test: &Scores, masks: &[Option<Vec<bool>>; 4], k: usize) -> [SettingMetrics; 4] {
    let metrics = |mask: &Option<Vec<bool>>| {
        let (pos, neg) = masked(test, mask.as_deref());
        let (auc, ap) = auc_ap_pos_neg(&pos, &neg);
        SettingMetrics {
            auc,
            ap,
            n_edges: pos.len(),
            ranking: Some(ranking_metrics_flat(
                &test.rank_pos,
                &test.rank_cands,
                k,
                mask.as_deref(),
            )),
        }
    };
    [
        metrics(&masks[0]),
        metrics(&masks[1]),
        metrics(&masks[2]),
        metrics(&masks[3]),
    ]
}

/// Run the job: `cfg.epochs` epochs of train, validation and test passes
/// over `inputs`, timing every public call.
pub fn run_job(inputs: &JobInputs, model: &mut dyn TgnnModel, cfg: &JobConfig) -> JobOutput {
    assert!(cfg.epochs >= 2, "the job needs a cold and a warm epoch");
    let JobInputs {
        graph,
        split,
        candidates,
        ..
    } = inputs;
    let train_ctx = StreamContext {
        graph,
        neighbors: inputs.train_neighbors.as_backend(),
    };
    let full_ctx = StreamContext {
        graph,
        neighbors: inputs.full_neighbors.as_backend(),
    };
    let strategy = NegativeStrategy::Random;
    let mut train_sampler = EdgeSampler::new(graph, &split.train, strategy, cfg.seed);
    let mut val_sampler = EdgeSampler::new(graph, &split.train, strategy, cfg.seed ^ VAL_SEED_SALT);
    let mut test_sampler =
        EdgeSampler::new(graph, &split.train, strategy, cfg.seed ^ TEST_SEED_SALT);
    let masks = setting_masks(split);
    let recorder = Recorder::new();
    let mut monitor = EarlyStopMonitor::new(usize::MAX, TOLERANCE);

    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    let mut val_aps = Vec::with_capacity(cfg.epochs);
    let mut best: Option<(usize, [SettingMetrics; 4], Scores)> = None;
    let mut epochs = Vec::with_capacity(cfg.epochs);
    let mut warm: Option<(Recorder, Option<ProcStat>)> = None;
    let (mut train_flops, mut train_tape_nodes, mut non_finite) = (0, 0, 0);

    for epoch in 0..cfg.epochs {
        if epoch == 1 {
            // Never installed: it only records counter increases from here.
            warm = Some((Recorder::new(), proc_stat()));
        }
        let traced = cfg.trace && epoch > 0 && epoch % 2 == 0;
        let _installed = traced.then(|| recorder.install());
        let start = Instant::now();
        let mut t = EpochTimes {
            traced,
            ..EpochTimes::default()
        };

        let flops = counters::MATMUL_FLOPS.get();
        let tape_nodes = counters::TAPE_NODES_ALLOCATED.get();
        t.other += clock(|| model.reset_state()).1;
        let mut loss_sum = 0.0f64;
        let mut batches = 0usize;
        for batch in split.train.chunks(cfg.batch_size) {
            let (negs, sample) = clock(|| train_sampler.sample_batch(batch));
            let (loss, train) = clock(|| model.train_batch(&train_ctx, batch, &negs));
            t.neg_sample += sample;
            t.train.push(sample + train);
            t.train_batch.push(train);
            non_finite += usize::from(!loss.is_finite());
            loss_sum += loss as f64;
            batches += 1;
        }
        epoch_losses.push((loss_sum / batches.max(1) as f64) as f32);
        if epoch > 0 {
            train_flops += counters::MATMUL_FLOPS.get() - flops;
            train_tape_nodes += counters::TAPE_NODES_ALLOCATED.get() - tape_nodes;
        }

        t.other += clock(|| val_sampler.reset()).1;
        let val = score_pass(
            model,
            &full_ctx,
            &split.val,
            &mut val_sampler,
            cfg.batch_size,
            None,
            &mut t,
        );
        let (val_ap, secs) = clock(|| auc_ap_pos_neg(&val.pos, &val.neg).1);
        t.evaluator += secs;
        val_aps.push(val_ap);

        t.other += clock(|| test_sampler.reset()).1;
        let test = score_pass(
            model,
            &full_ctx,
            &split.test,
            &mut test_sampler,
            cfg.batch_size,
            Some(candidates),
            &mut t,
        );
        let (metrics, secs) = clock(|| setting_metrics(&test, &masks, candidates.k));
        t.evaluator += secs;
        non_finite += val.non_finite() + test.non_finite();

        if monitor.record(val_ap) || best.is_none() {
            best = Some((epoch, metrics, test));
        }
        t.other += clock(benchtemp_tensor::params::trim_tape_caches).1;
        t.wall = start.elapsed().as_secs_f64();
        epochs.push(t);
    }

    let (best_epoch, metrics, best_scores) = best.expect("at least one epoch ran");
    let (warm_recorder, warm_proc_start) = warm.expect("a warm epoch ran");
    JobOutput {
        epoch_losses,
        val_aps,
        metrics,
        best_epoch,
        best_scores,
        epochs,
        profile: recorder.profile(),
        warm_counters: warm_recorder.profile(),
        warm_proc: warm_proc_start.zip(proc_stat()),
        train_flops,
        train_tape_nodes,
        non_finite,
    }
}

/// AUC by counting, for each positive, the negatives below and tied with it
/// in the sorted negatives — independent of the evaluator's shared sort.
fn reference_auc(pos: &[f32], neg: &[f32]) -> f64 {
    if pos.is_empty() || neg.is_empty() {
        return 0.5;
    }
    let mut sorted = neg.to_vec();
    sorted.sort_by(f32::total_cmp);
    let wins: f64 = pos
        .iter()
        .map(|&p| {
            let below = sorted.partition_point(|&n| n < p);
            let tied = sorted.partition_point(|&n| n <= p) - below;
            below as f64 + 0.5 * tied as f64
        })
        .sum();
    wins / (pos.len() as f64 * neg.len() as f64)
}

/// AP as the mean precision at each positive, with tied scores ordered
/// positives first (the order of the evaluator's stable sort).
fn reference_ap(pos: &[f32], neg: &[f32]) -> f64 {
    if pos.is_empty() {
        return 0.0;
    }
    let mut ranked: Vec<(f32, bool)> = pos
        .iter()
        .map(|&s| (s, true))
        .chain(neg.iter().map(|&s| (s, false)))
        .collect();
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then(b.1.cmp(&a.1)));
    let mut hits = 0usize;
    let mut precision_sum = 0.0;
    for (i, &(_, positive)) in ranked.iter().enumerate() {
        if positive {
            hits += 1;
            precision_sum += hits as f64 / (i + 1) as f64;
        }
    }
    precision_sum / pos.len() as f64
}

/// MRR with pessimistic ties, recounted query by query.
fn reference_mrr(scores: &Scores, k: usize, mask: Option<&[bool]>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for (q, &p) in scores.rank_pos.iter().enumerate() {
        if mask.is_some_and(|m| !m[q]) {
            continue;
        }
        let rank = 1 + scores.rank_cands[q * k..(q + 1) * k]
            .iter()
            .filter(|&&c| c >= p)
            .count();
        sum += 1.0 / rank as f64;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Check the job's outputs; each returned line is one failed check.
pub fn check_outputs(inputs: &JobInputs, out: &JobOutput) -> Vec<String> {
    let mut failures = Vec::new();
    if out.non_finite > 0 {
        failures.push(format!("{} non-finite losses or scores", out.non_finite));
    }
    let auc = out.metrics[0].auc;
    if auc.is_nan() || auc <= 0.5 {
        failures.push(format!("transductive AUC {auc} is not above chance"));
    }
    let k = inputs.candidates.k;
    let scores = &out.best_scores;
    for (i, (m, mask)) in out
        .metrics
        .iter()
        .zip(setting_masks(&inputs.split))
        .enumerate()
    {
        let (pos, neg) = masked(scores, mask.as_deref());
        let checks = [
            ("AUC", m.auc, reference_auc(&pos, &neg)),
            ("AP", m.ap, reference_ap(&pos, &neg)),
            (
                "MRR",
                m.ranking.map_or(f64::NAN, |r| r.mrr),
                reference_mrr(scores, k, mask.as_deref()),
            ),
        ];
        for (name, got, want) in checks {
            let close = (got - want).abs() <= 1e-9;
            if !close {
                failures.push(format!("setting {i}: {name} {got} != reference {want}"));
            }
        }
    }
    failures
}
