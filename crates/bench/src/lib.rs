//! Harness utilities shared by the table/figure reproduction binaries.
//!
//! Every binary follows the paper's protocol (§4.1): each (model, dataset)
//! job runs under `--seeds` seeds (default 3) and reports mean ± std; early
//! stopping uses patience 3 / tolerance 1e-3; jobs are wall-clock bounded
//! by `--timeout-secs` (the 48 h budget, scaled). Dataset sizes are scaled
//! by `--scale` (see `BenchDataset::config`); results are written both as
//! aligned text (stdout) and JSON under `results/`.

// audit-allow-file(no-wallclock-outside-obs): the bench harness *is* a
// wall-clock; every Instant in this file is a calibration or sample timer
// whose readings are reported, never fed back into the computation.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use benchtemp_util::{json, Json, ToJson};

use benchtemp_core::dataloader::LinkPredSplit;
use benchtemp_core::pipeline::{train_link_prediction, LinkPredictionRun, TrainConfig};
use benchtemp_core::sampler::NegativeStrategy;
use benchtemp_graph::datasets::BenchDataset;
use benchtemp_graph::temporal_graph::TemporalGraph;
use benchtemp_models::common::ModelConfig;

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
    /// Parse `--scale --seeds --epochs --batch --timeout-secs --models a,b
    /// --datasets x,y --out dir --quick` from `std::env::args`.
    pub fn from_args() -> Self {
        let mut p = Protocol::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            let next = |i: &mut usize| -> String {
                *i += 1;
                args.get(*i)
                    .unwrap_or_else(|| panic!("missing value for {}", args[*i - 1]))
                    .clone()
            };
            match args[i].as_str() {
                "--scale" => p.scale = next(&mut i).parse().expect("--scale"),
                "--seeds" => p.seeds = next(&mut i).parse().expect("--seeds"),
                "--epochs" => p.max_epochs = next(&mut i).parse().expect("--epochs"),
                "--batch" => p.batch_size = next(&mut i).parse().expect("--batch"),
                "--timeout-secs" => {
                    p.timeout = Duration::from_secs(next(&mut i).parse().expect("--timeout-secs"))
                }
                "--rank-negs" => p.rank_negatives = next(&mut i).parse().expect("--rank-negs"),
                "--models" => p.models = next(&mut i).split(',').map(str::to_string).collect(),
                "--datasets" => p.datasets = next(&mut i).split(',').map(str::to_string).collect(),
                "--out" => p.out_dir = PathBuf::from(next(&mut i)),
                "--quick" => {
                    p.scale = 0.001;
                    p.seeds = 1;
                    p.max_epochs = 4;
                }
                other => panic!("unknown argument {other:?}"),
            }
            i += 1;
        }
        p
    }

    /// Datasets selected by `--datasets`, defaulting to the given list.
    pub fn select_datasets(&self, default: &[BenchDataset]) -> Vec<BenchDataset> {
        if self.datasets.is_empty() {
            return default.to_vec();
        }
        let mut all: Vec<BenchDataset> = BenchDataset::all15();
        all.extend(BenchDataset::new6());
        self.datasets
            .iter()
            .filter_map(|n| {
                all.iter()
                    .find(|d| n.eq_ignore_ascii_case(d.name()))
                    .copied()
            })
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

/// One seed run of one LP job on a preset dataset.
pub fn run_lp_seed(
    model_name: &str,
    dataset: BenchDataset,
    protocol: &Protocol,
    seed: u64,
) -> LinkPredictionRun {
    let graph = dataset.config(protocol.scale, seed ^ 0xda7a).generate();
    run_lp_seed_on(model_name, &graph, protocol, seed)
}

/// Same, on a pre-built graph (density/ablation harnesses build their own).
pub fn run_lp_seed_on(
    model_name: &str,
    graph: &TemporalGraph,
    protocol: &Protocol,
    seed: u64,
) -> LinkPredictionRun {
    let split = LinkPredSplit::new(graph, seed);
    let mut model = benchtemp_models::zoo::build(model_name, protocol.model_config(seed), graph);
    train_link_prediction(model.as_mut(), graph, &split, &protocol.train_config(seed))
}

/// Aggregated (mean ± std) cell.
#[derive(Clone, Copy, Debug, Default)]
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

/// Write a serializable value as pretty JSON under the given directory.
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

    /// Median ns/iter of `f` without printing.
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

pub fn save_json<T: ToJson + ?Sized>(dir: &Path, name: &str, value: &T) {
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(name);
    std::fs::write(&path, value.to_json().to_string_pretty())
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("[saved] {}", path.display());
}

/// Mark the best / second-best cells, mirroring the paper's bold-red /
/// underlined-blue convention (second suppressed when the gap > 0.05).
pub fn mark_best(cells: &mut [String], means: &[f64]) {
    if means.is_empty() {
        return;
    }
    let mut idx: Vec<usize> = (0..means.len()).collect();
    idx.sort_by(|&a, &b| {
        means[b]
            .partial_cmp(&means[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let best = idx[0];
    cells[best] = format!("**{}**", cells[best]);
    if idx.len() > 1 {
        let second = idx[1];
        if means[best] - means[second] <= 0.05 {
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
        if !self.rows.iter().any(|r| r == row) {
            self.rows.push(row.to_string());
        }
        if !self.cols.iter().any(|c| c == col) {
            self.cols.push(col.to_string());
        }
        self.values
            .entry((row.to_string(), col.to_string()))
            .or_default()
            .push(value);
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
            let cells: Vec<Cell> = self
                .cols
                .iter()
                .map(|c| self.cell(r, c).unwrap_or_default())
                .collect();
            let means: Vec<f64> = cells.iter().map(|c| c.mean).collect();
            let mut texts: Vec<String> = cells.iter().map(Cell::fmt).collect();
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
        mark_best(&mut cells, &[0.95, 0.5]);
        assert_eq!(cells, vec!["**a**".to_string(), "b".to_string()]);
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
