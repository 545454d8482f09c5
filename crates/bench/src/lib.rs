//! Harness utilities shared by the table/figure reproduction binaries.
//!
//! Every binary follows the paper's protocol (§4.1): each (model, dataset)
//! job runs under `--seeds` seeds (default 3) and reports mean ± std; early
//! stopping uses patience 3 / tolerance 1e-3; jobs are wall-clock bounded
//! by `--timeout-secs` (the 48 h budget, scaled). Dataset sizes are scaled
//! by `--scale` (see `BenchDataset::config`); results are written both as
//! aligned text (stdout) and JSON under `results/`. The training harnesses
//! are data ([`Harness`]) run through one job loop ([`run_jobs`]).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use benchtemp_util::{json, Json, ToJson};

use benchtemp_core::dataloader::{LinkPredSplit, Setting};
use benchtemp_core::pipeline::{LinkPredictionRun, SettingMetrics, TrainConfig};
use benchtemp_core::sampler::NegativeStrategy;
use benchtemp_core::FilteredNegativeSet;
use benchtemp_graph::datasets::BenchDataset;
use benchtemp_graph::features::FeatureInit;
use benchtemp_graph::temporal_graph::{Interaction, TemporalGraph};
use benchtemp_models::common::ModelConfig;
use benchtemp_models::zoo::ALL_MODELS;
use benchtemp_tensor::Matrix;

mod driver;
pub use driver::*;

/// Command-line protocol shared by the harness binaries.
#[derive(Clone, Debug)]
pub struct Protocol {
    /// Dataset scale ∈ (0,1]; 1.0 = the paper's published sizes.
    pub scale: f64,
    /// Seed runs per job (the paper runs 3).
    pub seeds: usize,
    /// Epoch cap (early stopping usually fires first).
    pub max_epochs: usize,
    pub batch_size: usize,
    /// Per-job wall-clock budget (the paper's 48 h, scaled).
    pub timeout: Duration,
    /// Filtered-negative candidates per test edge for MRR/Hits@K ranking
    /// (0 disables the ranking pass entirely).
    pub rank_negatives: usize,
    /// Restrict to these models (paper names); empty = binary default.
    pub models: Vec<String>,
    /// Restrict to these datasets by name; empty = binary default.
    pub datasets: Vec<String>,
    /// Output directory for JSON results.
    pub out_dir: PathBuf,
}

impl Default for Protocol {
    fn default() -> Self {
        Protocol {
            scale: 0.002,
            seeds: 3,
            max_epochs: 10,
            batch_size: 100,
            timeout: Duration::from_secs(300),
            rank_negatives: 20,
            models: Vec::new(),
            datasets: Vec::new(),
            out_dir: PathBuf::from("results"),
        }
    }
}

impl Protocol {
    /// The protocol from `std::env::args`. `--help` prints the usage line
    /// and exits 0; a bad argument prints the error and the usage line to
    /// stderr and exits 2, before any job runs or any file is written.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let bin = args.first().map_or("harness", |a| {
            a.rsplit(['/', '\\']).next().unwrap_or(a.as_str())
        });
        let usage = format!("usage: {bin} {FLAGS}");
        if wants_help(&args[1..]) {
            println!("{usage}");
            std::process::exit(0);
        }
        Protocol::parse(&args[1..]).unwrap_or_else(|e| {
            eprintln!("{bin}: {e}\n{usage}");
            std::process::exit(2)
        })
    }

    /// Parse `--scale --seeds --epochs --batch --timeout-secs --rank-negs
    /// --models a,b --datasets x,y --out dir --quick`. Model names must be
    /// in [`ALL_MODELS`] and dataset names (any case) must name a
    /// [`BenchDataset`].
    pub fn parse(args: &[String]) -> Result<Protocol, String> {
        fn num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
            value
                .parse()
                .map_err(|_| format!("invalid value {value:?} for {flag}"))
        }
        let mut p = Protocol::default();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let mut value = || {
                args.next()
                    .ok_or_else(|| format!("missing value for {flag}"))
            };
            match flag.as_str() {
                "--scale" => p.scale = num(flag, value()?)?,
                "--seeds" => p.seeds = num(flag, value()?)?,
                "--epochs" => p.max_epochs = num(flag, value()?)?,
                "--batch" => p.batch_size = num(flag, value()?)?,
                "--timeout-secs" => p.timeout = Duration::from_secs(num(flag, value()?)?),
                "--rank-negs" => p.rank_negatives = num(flag, value()?)?,
                "--models" => p.models = value()?.split(',').map(str::to_string).collect(),
                "--datasets" => p.datasets = value()?.split(',').map(str::to_string).collect(),
                "--out" => p.out_dir = PathBuf::from(value()?),
                "--quick" => {
                    p.scale = 0.001;
                    p.seeds = 1;
                    p.max_epochs = 4;
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        // Out of range, these would panic mid-run or write empty tables.
        if !(p.scale > 0.0 && p.scale <= 1.0) {
            return Err(format!(
                "invalid value \"{}\" for --scale: not in (0, 1]",
                p.scale
            ));
        }
        for (flag, n) in [
            ("--seeds", p.seeds),
            ("--epochs", p.max_epochs),
            ("--batch", p.batch_size),
        ] {
            if n == 0 {
                return Err(format!(
                    "invalid value \"0\" for {flag}: must be at least 1"
                ));
            }
        }
        if let Some(m) = p.models.iter().find(|m| !ALL_MODELS.contains(&m.as_str())) {
            return Err(format!(
                "unknown model {m:?}; known: {}",
                ALL_MODELS.join(", ")
            ));
        }
        if let Some(d) = p.datasets.iter().find(|d| find_dataset(d).is_none()) {
            let known: Vec<&str> = known_datasets().iter().map(|d| d.name()).collect();
            return Err(format!(
                "unknown dataset {d:?}; known: {}",
                known.join(", ")
            ));
        }
        Ok(p)
    }

    /// Datasets selected by `--datasets`, defaulting to the given list.
    pub fn select_datasets(&self, default: &[BenchDataset]) -> Vec<BenchDataset> {
        if self.datasets.is_empty() {
            return default.to_vec();
        }
        self.datasets
            .iter()
            .filter_map(|n| find_dataset(n))
            .collect()
    }

    /// Models selected by `--models`, defaulting to the given list.
    pub fn select_models(&self, default: &[&str]) -> Vec<String> {
        if self.models.is_empty() {
            default.iter().map(|s| s.to_string()).collect()
        } else {
            self.models.clone()
        }
    }

    /// Training configuration for one seed run.
    pub fn train_config(&self, seed: u64) -> TrainConfig {
        TrainConfig {
            batch_size: self.batch_size,
            max_epochs: self.max_epochs,
            patience: 3,
            tolerance: 1e-3,
            timeout: self.timeout,
            seed,
            neg_strategy: NegativeStrategy::Random,
            rank_negatives: self.rank_negatives,
            paged_store: None,
        }
    }

    /// The ranking K shared by every seed of one preset: the smallest
    /// `k_effective` over the seeds' test candidate sets, built as
    /// `train_link_prediction` builds them but without training. Ranking
    /// each seed at this K keeps mean ± std MRR from mixing K, which a
    /// per-job clamp does (Wikipedia/Historical clamps to 10, 8 and 9 at
    /// seeds 0–2). A seed whose filtered pool is empty is left out — its own
    /// run records the error. With ranking off, or no seed able to rank,
    /// this is `rank_negatives` unchanged.
    pub fn k_preset(&self, preset: &Preset) -> usize {
        if self.rank_negatives == 0 {
            return 0;
        }
        (0..self.seeds as u64)
            .filter_map(|seed| {
                let graph = preset.graph(seed);
                let split = LinkPredSplit::new(&graph, seed);
                // k_effective depends on the pools, not on the draw seed.
                FilteredNegativeSet::try_build(
                    &graph,
                    &split.train,
                    &split.test,
                    preset.strategy,
                    self.rank_negatives,
                    seed,
                )
                .ok()
                .map(|set| set.k)
            })
            .min()
            .unwrap_or(self.rank_negatives)
    }

    /// Model hyperparameters for one seed run — slightly smaller than the
    /// library defaults so the full 7×15×3-seed sweep stays tractable on
    /// one CPU core (raise via `ModelConfig::default()` for bigger runs).
    pub fn model_config(&self, seed: u64) -> ModelConfig {
        ModelConfig {
            seed,
            embed_dim: 32,
            time_dim: 12,
            neighbors: 5,
            layers: 2,
            walks: 3,
            walk_len: 2,
            ..ModelConfig::default()
        }
    }
}

/// Every dataset a harness may name: the fifteen of Table 2 and the six of
/// Table 16.
fn known_datasets() -> Vec<BenchDataset> {
    let mut all = BenchDataset::all15();
    all.extend(BenchDataset::new6());
    all
}

/// The dataset called `name`, in any case.
fn find_dataset(name: &str) -> Option<BenchDataset> {
    known_datasets()
        .into_iter()
        .find(|d| name.eq_ignore_ascii_case(d.name()))
}

/// Whether `args` ask for the usage line.
fn wants_help(args: &[String]) -> bool {
    args.iter().any(|a| a == "--help")
}

/// The harness flags, for the usage line.
const FLAGS: &str = "[--scale F] [--seeds N] [--epochs N] [--batch N] [--timeout-secs N] \
[--rank-negs K] [--models A,B] [--datasets X,Y] [--out DIR] [--quick]";

/// The Fig. 2 dataset: MOOC-style, with `node_dim` random fixed initial
/// node features.
pub fn feature_dim_graph(scale: f64, seed: u64, node_dim: usize) -> TemporalGraph {
    let mut cfg = BenchDataset::Mooc.config(scale, seed ^ 0xf19);
    cfg.node_dim = node_dim;
    cfg.node_feature_init = FeatureInit::RandomFixed {
        seed: seed ^ 0x5eed,
        std: 0.1,
    };
    cfg.generate()
}

/// Restrict a bipartite graph to its `top_items` most frequent items and
/// truncate to `n_edges` events, remapping node ids to a contiguous range.
fn subgraph(graph: &TemporalGraph, top_items: usize, n_edges: usize, name: &str) -> TemporalGraph {
    let mut item_freq = vec![0usize; graph.num_nodes];
    for ev in &graph.events {
        item_freq[ev.dst] += 1;
    }
    let mut items: Vec<usize> = (graph.num_users..graph.num_nodes).collect();
    items.sort_by_key(|&i| std::cmp::Reverse(item_freq[i]));
    items.truncate(top_items);
    let keep: std::collections::HashSet<usize> = items.into_iter().collect();

    let events: Vec<Interaction> = graph
        .events
        .iter()
        .filter(|e| keep.contains(&e.dst))
        .take(n_edges)
        .copied()
        .collect();
    // Remap: users first (contiguous), then items.
    let mut user_map = std::collections::HashMap::new();
    let mut item_map = std::collections::HashMap::new();
    for ev in &events {
        let n = user_map.len();
        user_map.entry(ev.src).or_insert(n);
    }
    let num_users = user_map.len();
    for ev in &events {
        let n = num_users + item_map.len();
        item_map.entry(ev.dst).or_insert(n);
    }
    let num_nodes = num_users + item_map.len();
    let mut node_features = Matrix::zeros(num_nodes, graph.node_dim());
    let mut edge_features = Matrix::zeros(events.len(), graph.edge_dim());
    let events: Vec<Interaction> = events
        .into_iter()
        .enumerate()
        .map(|(r, ev)| {
            let (src, dst) = (user_map[&ev.src], item_map[&ev.dst]);
            node_features.set_row(src, graph.node_features.row(ev.src));
            node_features.set_row(dst, graph.node_features.row(ev.dst));
            edge_features.set_row(r, graph.edge_features.row(ev.feat_idx));
            Interaction {
                src,
                dst,
                t: ev.t,
                feat_idx: r,
            }
        })
        .collect();
    let sub = TemporalGraph {
        name: name.to_string(),
        bipartite: true,
        num_nodes,
        num_users,
        events,
        edge_features,
        node_features,
        labels: None,
    };
    assert_eq!(sub.validate(), Ok(()));
    sub
}

/// Temporal density σ = N_e / (N_u · N_i) of a bipartite graph.
pub fn density(g: &TemporalGraph) -> f64 {
    let items = g.num_nodes - g.num_users;
    g.num_events() as f64 / (g.num_users as f64 * items as f64)
}

/// The two Appendix-I subgraphs of Tables 24 & 25: the same edge count N_e
/// drawn from a MOOC-style base graph, once over its most frequent eighth of
/// the items (`G_S1-dense`) and once over all of them (`G_S2-sparse`).
pub fn density_subgraphs(scale: f64) -> [TemporalGraph; 2] {
    // A denser base graph so the sparse subgraph is still connected enough.
    let mut base_cfg = BenchDataset::Mooc.config((scale * 4.0).min(1.0), 0x900c);
    base_cfg.num_items = base_cfg.num_items.max(40);
    let base = base_cfg.generate();
    let n_edges = base.num_events() / 3;
    let items = base.num_nodes - base.num_users;
    [
        subgraph(&base, (items / 8).max(3), n_edges, "G_S1-dense"),
        subgraph(&base, items, n_edges, "G_S2-sparse"),
    ]
}

/// Aggregated (mean ± std) cell.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    pub mean: f64,
    pub std: f64,
}

impl ToJson for Cell {
    fn to_json(&self) -> Json {
        json!({ "mean": self.mean, "std": self.std })
    }
}

impl Cell {
    pub fn from_values(values: &[f64]) -> Self {
        let (mean, std) = benchtemp_core::evaluator::mean_std(values);
        Cell { mean, std }
    }

    pub fn fmt(&self) -> String {
        format!("{:.4}±{:.4}", self.mean, self.std)
    }
}

/// Render an aligned text table.
pub fn render_table(title: &str, headers: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let w = widths.get(i).copied().unwrap_or(8) + 2;
                let pad = w.saturating_sub(c.chars().count());
                format!("{c}{}", " ".repeat(pad))
            })
            .collect::<String>()
    };
    let mut out = format!("\n== {title} ==\n");
    out.push_str(&fmt_row(headers));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().map(|w| w + 2).sum::<usize>().min(220)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Minimal wall-clock micro-benchmark harness for the `harness = false`
/// benches and the `bench_kernels` overhead report. Auto-calibrates the
/// iteration count from one warm-up pass, then reports the median over
/// several samples — robust to scheduler noise without external crates.
pub mod timing {
    use std::time::{Duration, Instant};

    /// Samples taken per measurement; the median is reported.
    const SAMPLES: usize = 7;
    /// Minimum wall time per sample, so short kernels are timed in bulk.
    const MIN_SAMPLE: Duration = Duration::from_millis(40);

    /// Time `f`, print `name` with the result, and return ns/iter.
    pub fn run<T, F: FnMut() -> T>(name: &str, mut f: F) -> f64 {
        let ns = measure(&mut f);
        println!("{name:<48} {ns:>14.0} ns/iter");
        ns
    }

    /// Wall time of one call of `f`, in ns (for callers that interleave
    /// the samples of several variants themselves).
    #[expect(
        clippy::disallowed_methods,
        reason = "a sample timer whose readings are reported, never computed on"
    )]
    pub fn once_ns<T>(f: impl FnOnce() -> T) -> f64 {
        let start = Instant::now();
        std::hint::black_box(f());
        start.elapsed().as_secs_f64() * 1e9
    }

    /// Median ns/iter of `f` without printing.
    #[expect(
        clippy::disallowed_methods,
        reason = "a calibration and sample timer whose readings are reported, never computed on"
    )]
    pub fn measure<T, F: FnMut() -> T>(f: &mut F) -> f64 {
        // Warm-up doubles as calibration.
        let start = Instant::now();
        std::hint::black_box(f());
        let once = start.elapsed();
        let iters = (MIN_SAMPLE.as_secs_f64() / once.as_secs_f64().max(1e-9))
            .ceil()
            .clamp(1.0, 1e7) as u64;
        let mut samples = [0.0f64; SAMPLES];
        for s in samples.iter_mut() {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            *s = start.elapsed().as_secs_f64() * 1e9 / iters as f64;
        }
        samples.sort_by(f64::total_cmp);
        samples[SAMPLES / 2]
    }
}

/// Write a serializable value as pretty JSON under the given directory.
pub fn save_json<T: ToJson + ?Sized>(dir: &Path, name: &str, value: &T) {
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(name);
    std::fs::write(&path, value.to_json().to_string_pretty())
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("[saved] {}", path.display());
}

/// The metrics of `setting` in `run`, or `None` when its test set is
/// empty. The evaluator scores an empty set as AUC 0.5 / AP 0 by
/// convention; that is no measurement, so no table cell may hold it.
pub fn measured(run: &LinkPredictionRun, setting: Setting) -> Option<SettingMetrics> {
    let m = run.metrics_for(setting);
    (m.n_edges > 0).then_some(m)
}

/// Mark the best / second-best cells, mirroring the paper's bold-red /
/// underlined-blue convention (second suppressed when the gap > 0.05).
/// A cell with no value (`None`) is never marked.
pub fn mark_best(cells: &mut [String], means: &[Option<f64>]) {
    let mut ranked: Vec<(usize, f64)> = means
        .iter()
        .enumerate()
        .filter_map(|(i, m)| m.map(|m| (i, m)))
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let Some(&(best, top)) = ranked.first() else {
        return;
    };
    cells[best] = format!("**{}**", cells[best]);
    if let Some(&(second, next)) = ranked.get(1) {
        if top - next <= 0.05 {
            cells[second] = format!("_{}_", cells[second]);
        }
    }
}

/// Aggregating (row × col) table over seed values, rendered with per-row
/// best/second-best markers.
#[derive(Default)]
pub struct TableBuilder {
    rows: Vec<String>,
    cols: Vec<String>,
    values: BTreeMap<(String, String), Vec<f64>>,
}

impl TableBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(&mut self, row: &str, col: &str, value: f64) {
        self.add_opt(row, col, Some(value));
    }

    /// Register the (row, col) cell and add `value` when present. A cell
    /// that only ever gets `None` prints `n/a` and is never marked.
    pub fn add_opt(&mut self, row: &str, col: &str, value: Option<f64>) {
        if !self.rows.iter().any(|r| r == row) {
            self.rows.push(row.to_string());
        }
        if !self.cols.iter().any(|c| c == col) {
            self.cols.push(col.to_string());
        }
        if let Some(value) = value {
            self.values
                .entry((row.to_string(), col.to_string()))
                .or_default()
                .push(value);
        }
    }

    pub fn cell(&self, row: &str, col: &str) -> Option<Cell> {
        self.values
            .get(&(row.to_string(), col.to_string()))
            .map(|v| Cell::from_values(v))
    }

    pub fn cols(&self) -> &[String] {
        &self.cols
    }

    pub fn rows(&self) -> &[String] {
        &self.rows
    }

    /// Render with per-row best/second-best marking (higher is better).
    pub fn render(&self, title: &str, row_header: &str) -> String {
        self.render_with(title, row_header, true)
    }

    /// Render without markers (efficiency tables where lower is better).
    pub fn render_plain(&self, title: &str, row_header: &str) -> String {
        self.render_with(title, row_header, false)
    }

    fn render_with(&self, title: &str, row_header: &str, mark: bool) -> String {
        let mut headers = vec![row_header.to_string()];
        headers.extend(self.cols.clone());
        let mut rows = Vec::new();
        for r in &self.rows {
            // A cell with no values — e.g. a setting whose test set is
            // empty — prints `n/a`, never a placeholder number.
            let cells: Vec<Option<Cell>> = self.cols.iter().map(|c| self.cell(r, c)).collect();
            let means: Vec<Option<f64>> = cells.iter().map(|c| c.map(|c| c.mean)).collect();
            let mut texts: Vec<String> = cells
                .iter()
                .map(|c| c.map_or_else(|| "n/a".to_string(), |c| c.fmt()))
                .collect();
            if mark {
                mark_best(&mut texts, &means);
            }
            let mut row = vec![r.clone()];
            row.extend(texts);
            rows.push(row);
        }
        render_table(title, &headers, &rows)
    }

    /// Flatten to serializable entries.
    pub fn to_entries(&self) -> Vec<TableEntry> {
        self.values
            .iter()
            .map(|((row, col), vals)| {
                let c = Cell::from_values(vals);
                TableEntry {
                    row: row.clone(),
                    col: col.clone(),
                    mean: c.mean,
                    std: c.std,
                    runs: vals.len(),
                }
            })
            .collect()
    }
}

/// Serializable table cell.
#[derive(Clone, Debug)]
pub struct TableEntry {
    pub row: String,
    pub col: String,
    pub mean: f64,
    pub std: f64,
    pub runs: usize,
}

impl ToJson for TableEntry {
    fn to_json(&self) -> Json {
        json!({
            "row": self.row.as_str(),
            "col": self.col.as_str(),
            "mean": self.mean,
            "std": self.std,
            "runs": self.runs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_builder_aggregates_and_marks() {
        let mut t = TableBuilder::new();
        t.add("Reddit", "TGN", 0.9);
        t.add("Reddit", "TGN", 0.92);
        t.add("Reddit", "CAWN", 0.95);
        let text = t.render("demo", "Dataset");
        assert!(text.contains("**0.9500"));
        assert!(text.contains("_0.91"));
        let entries = t.to_entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries.iter().find(|e| e.col == "TGN").unwrap().runs, 2);
    }

    #[test]
    fn mark_best_suppresses_far_second() {
        let mut cells = vec!["a".into(), "b".into()];
        mark_best(&mut cells, &[Some(0.95), Some(0.5)]);
        assert_eq!(cells, vec!["**a**".to_string(), "b".to_string()]);
    }

    #[test]
    fn empty_cell_prints_na_and_is_never_marked() {
        // CAWN has no value for Reddit (an empty New-New test set): it
        // must print `n/a`, and the markers go to the best two non-empty
        // cells. A row with no value at all still prints.
        let mut t = TableBuilder::new();
        t.add("Wikipedia", "CAWN", 0.99);
        t.add_opt("Reddit", "CAWN", None);
        t.add("Reddit", "JODIE", 0.7);
        t.add("Reddit", "TGN", 0.68);
        let text = t.render("demo", "Dataset");
        let reddit = text.lines().find(|l| l.starts_with("Reddit")).unwrap();
        let cells: Vec<&str> = reddit.split_whitespace().collect();
        assert_eq!(
            cells,
            ["Reddit", "n/a", "**0.7000±0.0000**", "_0.6800±0.0000_"]
        );
        assert!(!text.contains("0.0000±0.0000"));
        t.add_opt("Enron", "TGN", None);
        let text = t.render("demo", "Dataset");
        let enron = text.lines().find(|l| l.starts_with("Enron")).unwrap();
        assert_eq!(
            enron.split_whitespace().collect::<Vec<_>>(),
            ["Enron", "n/a", "n/a", "n/a"]
        );
        assert_eq!(t.to_entries().len(), 3);
        let mut cells = vec!["a".into(), "b".into(), "c".into()];
        mark_best(&mut cells, &[None, Some(0.88), Some(0.9)]);
        assert_eq!(cells, ["a", "_b_", "**c**"].map(String::from));
    }

    #[test]
    fn render_table_aligns() {
        let text = render_table(
            "t",
            &["A".into(), "B".into()],
            &[vec!["x".into(), "longer".into()]],
        );
        assert!(text.contains("== t =="));
        assert!(text.contains("longer"));
    }

    #[test]
    fn protocol_defaults_match_paper_protocol() {
        let p = Protocol::default();
        assert_eq!(p.seeds, 3);
        let tc = p.train_config(7);
        assert_eq!(tc.patience, 3);
        assert_eq!(tc.tolerance, 1e-3);
        assert_eq!(tc.seed, 7);
    }

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_reads_every_flag() {
        let p = Protocol::parse(&args(
            "--scale 0.01 --seeds 2 --epochs 4 --batch 50 --timeout-secs 9 --rank-negs 5 \
             --models TGN,NAT --datasets mooc,Enron --out o",
        ))
        .unwrap();
        assert_eq!(
            (
                p.scale,
                p.seeds,
                p.max_epochs,
                p.batch_size,
                p.rank_negatives
            ),
            (0.01, 2, 4, 50, 5)
        );
        assert_eq!(p.timeout, Duration::from_secs(9));
        assert_eq!(p.models, ["TGN", "NAT"]);
        assert_eq!(p.datasets, ["mooc", "Enron"]);
        assert_eq!(p.out_dir, PathBuf::from("o"));
        let q = Protocol::parse(&args("--quick")).unwrap();
        assert_eq!((q.scale, q.seeds, q.max_epochs), (0.001, 1, 4));
    }

    #[test]
    fn bad_arguments_are_errors_not_panics() {
        for (line, expected) in [
            ("--no-such-flag", "unknown argument \"--no-such-flag\""),
            ("--seeds 1 --out", "missing value for --out"),
            ("--seeds three", "invalid value \"three\" for --seeds"),
            ("--scale 0.0.1", "invalid value \"0.0.1\" for --scale"),
            ("--scale -1", "invalid value \"-1\" for --scale"),
            ("--scale 1.5", "invalid value \"1.5\" for --scale"),
            ("--seeds 0", "invalid value \"0\" for --seeds"),
            ("--epochs 0", "invalid value \"0\" for --epochs"),
            ("--batch 0", "invalid value \"0\" for --batch"),
            ("--datasets Enron,wikipeda", "unknown dataset \"wikipeda\""),
            ("--models TGN,TGNN", "unknown model \"TGNN\""),
        ] {
            let err = Protocol::parse(&args(line)).unwrap_err();
            assert!(err.starts_with(expected), "{line}: {err}");
        }
    }

    #[test]
    fn help_is_asked_for_anywhere_in_the_line() {
        assert!(wants_help(&args("--seeds 1 --help")));
        assert!(!wants_help(&args("--seeds 1")));
    }

    #[test]
    fn dataset_selection_by_name() {
        let p = Protocol {
            datasets: vec!["mooc".into(), "Enron".into()],
            ..Default::default()
        };
        let sel = p.select_datasets(&BenchDataset::all15());
        assert_eq!(sel.len(), 2);
    }
}
