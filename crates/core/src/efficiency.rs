//! Efficiency metrics (Table 4 / Table 12 / Fig. 7).
//!
//! The paper reports runtime/epoch, epochs-to-convergence, peak RAM, GPU
//! memory, GPU utilization, and inference time. On a CPU-only substrate we
//! measure the direct analogues (DESIGN.md §1): wall-clock runtime, peak RSS
//! via `/proc/self/status`, the model's exact state footprint in bytes
//! (parameters + memory modules + caches — what GPU memory held), and a
//! compute-utilization proxy (time in dense tensor work vs. time in
//! sampling/data movement — what drives GPU utilization).
//!
//! Stage times come from `benchtemp-obs` spans (DESIGN.md §9). The pipeline
//! installs a [`benchtemp_obs::Recorder`] per job and opens one span per
//! protocol stage (`train_epoch`, `val_scoring`, `test_scoring`, ...); the
//! [`StageBreakdown`] below is a pure projection of the resulting
//! [`benchtemp_obs::Profile`]. Because sibling spans never overlap, a stage
//! cannot absorb another stage's time — the misattribution the old
//! `EpochTimer` suffered from (its reset point let each recorded "epoch"
//! swallow the previous epoch's val+test scoring) is impossible by
//! construction.

use benchtemp_obs::Profile;
use benchtemp_util::{json, Json, ToJson};

/// Span names the pipeline uses for its protocol stages. Shared constants so
/// the trainers, the breakdown projection, and the trace validator agree.
pub mod stage {
    /// Neighbor-index and sampler construction before the first epoch.
    pub const SETUP: &str = "setup";
    /// One full pass over the training stream (learning only — no scoring).
    pub const TRAIN_EPOCH: &str = "train_epoch";
    /// Scoring the validation stream.
    pub const VAL_SCORING: &str = "val_scoring";
    /// Scoring the test stream.
    pub const TEST_SCORING: &str = "test_scoring";
    /// AUC/AP sort+scan over the collected scores at job end.
    pub const FINAL_METRICS: &str = "final_metrics";
    /// One pass collecting frozen embeddings (node classification).
    pub const EMBED_COLLECTION: &str = "embed_collection";
    /// Dense tensor work inside a model batch (forward/backward/step).
    pub const DENSE: &str = "dense";
    /// Neighbor/walk sampling inside a model batch (nested under `dense`).
    pub const SAMPLING: &str = "sampling";
}

/// Per-stage wall-clock decomposition of one job, projected from the job's
/// span [`Profile`].
#[derive(Clone, Copy, Debug, Default)]
pub struct StageBreakdown {
    /// Seconds building neighbor indices and samplers.
    pub setup_secs: f64,
    /// Seconds in training epochs (all epochs, learning only).
    pub train_secs: f64,
    /// Seconds scoring validation streams (all epochs).
    pub val_secs: f64,
    /// Seconds scoring test streams (all epochs).
    pub test_secs: f64,
    /// Seconds computing final AUC/AP metrics.
    pub final_metrics_secs: f64,
    /// Seconds in dense tensor work (exclusive: sampling nested inside a
    /// dense section is *not* counted here).
    pub dense_secs: f64,
    /// Seconds in neighbor/walk sampling.
    pub sampling_secs: f64,
    /// Whole-job wall-clock seconds.
    pub job_secs: f64,
}

impl StageBreakdown {
    /// Project the pipeline's stage spans out of a job profile.
    ///
    /// `dense_secs` uses the span's *self* time: models open a `dense` span
    /// around a whole batch and a nested `sampling` span around its
    /// neighbor/walk sampling, so the exclusive time of `dense` is exactly
    /// "batch minus sampling" — attributed at the type level rather than by
    /// subtraction at the call site.
    pub fn from_profile(profile: &Profile, job_secs: f64) -> Self {
        StageBreakdown {
            setup_secs: profile.total_secs(stage::SETUP),
            train_secs: profile.total_secs(stage::TRAIN_EPOCH)
                + profile.total_secs(stage::EMBED_COLLECTION),
            val_secs: profile.total_secs(stage::VAL_SCORING),
            test_secs: profile.total_secs(stage::TEST_SCORING),
            final_metrics_secs: profile.total_secs(stage::FINAL_METRICS),
            dense_secs: profile.self_secs(stage::DENSE),
            sampling_secs: profile.total_secs(stage::SAMPLING),
            job_secs,
        }
    }

    /// Sum of the top-level protocol stages (dense/sampling are nested
    /// inside them and excluded). Should approach [`Self::job_secs`].
    pub fn stage_sum_secs(&self) -> f64 {
        self.setup_secs + self.train_secs + self.val_secs + self.test_secs + self.final_metrics_secs
    }

    /// Dense-compute fraction of measured model time — the paper's "GPU
    /// utilization" analogue. `None` if nothing was measured.
    pub fn utilization(&self) -> Option<f64> {
        let total = self.dense_secs + self.sampling_secs;
        if total <= 0.0 {
            None
        } else {
            Some(self.dense_secs / total)
        }
    }
}

impl ToJson for StageBreakdown {
    fn to_json(&self) -> Json {
        json!({
            "setup_secs": self.setup_secs,
            "train_secs": self.train_secs,
            "val_secs": self.val_secs,
            "test_secs": self.test_secs,
            "final_metrics_secs": self.final_metrics_secs,
            "dense_secs": self.dense_secs,
            "sampling_secs": self.sampling_secs,
            "job_secs": self.job_secs,
        })
    }
}

/// Serialize a span [`Profile`] (spans + counter deltas + gauges) for the
/// raw-runs JSON. Lives here because `benchtemp-obs` is dependency-free and
/// does not know about `benchtemp-util::json`.
pub fn profile_to_json(profile: &Profile) -> Json {
    let spans = Json::Obj(
        profile
            .spans
            .iter()
            .map(|(name, s)| {
                (
                    name.clone(),
                    json!({
                        "count": s.count,
                        "total_secs": s.total_secs,
                        "self_secs": s.self_secs,
                    }),
                )
            })
            .collect(),
    );
    let counters = Json::Obj(
        profile
            .counters
            .iter()
            .map(|(name, v)| (name.to_string(), v.to_json()))
            .collect(),
    );
    let gauges = Json::Obj(
        profile
            .gauges
            .iter()
            .map(|(name, v)| (name.to_string(), v.to_json()))
            .collect(),
    );
    json!({ "spans": spans, "counters": counters, "gauges": gauges })
}

/// One row of the Table 4 efficiency block for a (model, dataset) job.
#[derive(Clone, Debug, Default)]
pub struct EfficiencyReport {
    /// Mean seconds per training epoch (Table 4 "Runtime"). Training only:
    /// validation/test scoring is *excluded* (it lives in
    /// `stages.val_secs` / `stages.test_secs`).
    pub runtime_per_epoch_secs: f64,
    /// Epochs until early stopping fired (Table 4 "Epoch").
    pub epochs_to_converge: usize,
    /// Peak resident set size in bytes (Table 4 "RAM"); `None` when the
    /// platform exposes no `VmHWM` line (anything but Linux), so absence
    /// of the measurement is distinguishable from a 0-byte reading.
    pub peak_rss_bytes: Option<u64>,
    /// Peak bytes held by the autograd tape's recycled matrix buffers
    /// (`tape.pool_resident_bytes` gauge, sampled at each epoch-boundary
    /// trim) — the pooled-allocator slice of the RAM number above.
    pub tape_pool_resident_bytes: u64,
    /// Exact model state footprint: parameters + optimizer state + memory
    /// modules + caches (Table 4 "GPU Memory" analogue).
    pub model_state_bytes: u64,
    /// Dense-compute fraction of model time (Table 11 "GPU Utilization"
    /// analogue); 0 when unmeasured.
    pub compute_utilization: f64,
    /// Seconds to score 100,000 edges at inference (Fig. 7).
    pub inference_secs_per_100k: f64,
    /// Whether the run hit the configured timeout before converging
    /// (the paper's "x"/"—" markers).
    pub timed_out: bool,
    /// Worker threads the runtime used for this job (`BENCHTEMP_THREADS`).
    pub thread_count: usize,
    /// Instruction set of the dense matmul kernels that produced the
    /// timings (`benchtemp_tensor::kernel_isa()`: `"avx2"` or
    /// `"portable"`); the result bits are the same either way.
    pub kernel_isa: &'static str,
    /// Per-stage wall-clock decomposition of the job.
    pub stages: StageBreakdown,
    /// Full span/counter profile the breakdown was projected from.
    pub profile: Profile,
}

impl ToJson for EfficiencyReport {
    fn to_json(&self) -> Json {
        json!({
            "runtime_per_epoch_secs": self.runtime_per_epoch_secs,
            "epochs_to_converge": self.epochs_to_converge,
            "peak_rss_bytes": self.peak_rss_bytes.as_ref(),
            "tape_pool_resident_bytes": self.tape_pool_resident_bytes,
            "model_state_bytes": self.model_state_bytes,
            "compute_utilization": self.compute_utilization,
            "inference_secs_per_100k": self.inference_secs_per_100k,
            "timed_out": self.timed_out,
            "thread_count": self.thread_count,
            "kernel_isa": self.kernel_isa,
            "stages": &self.stages,
            "profile": profile_to_json(&self.profile),
        })
    }
}

/// Peak RSS of this process in bytes (`VmHWM` from `/proc/self/status`),
/// or `None` where that interface does not exist (non-Linux platforms) —
/// callers degrade gracefully instead of reporting a bogus 0. Successful
/// reads also feed the `peak_rss_bytes` gauge for traces.
pub fn peak_rss_bytes() -> Option<u64> {
    let bytes = read_vm_hwm()?;
    benchtemp_obs::counters::PEAK_RSS_SAMPLES.incr();
    benchtemp_obs::counters::PEAK_RSS_BYTES.sample(bytes);
    Some(bytes)
}

fn read_vm_hwm() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Human-readable byte formatting for reports.
pub fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    format!("{v:.1}{}", UNITS[unit])
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchtemp_obs::{timed, Recorder};
    use std::time::Duration;

    #[test]
    fn peak_rss_is_positive_on_linux() {
        // On Linux the reading must exist and be sane; elsewhere the
        // graceful degradation is exactly `None`.
        match peak_rss_bytes() {
            Some(rss) => assert!(rss > 1024 * 1024, "peak RSS {rss} suspiciously small"),
            None => {
                if cfg!(target_os = "linux") {
                    panic!("Linux must expose VmHWM");
                }
            }
        }
    }

    #[test]
    fn breakdown_projects_stage_spans() {
        let rec = Recorder::new();
        let _g = rec.install();
        timed(stage::SETUP, || {
            std::thread::sleep(Duration::from_millis(3))
        });
        for _ in 0..2 {
            timed(stage::TRAIN_EPOCH, || {
                std::thread::sleep(Duration::from_millis(6))
            });
            timed(stage::VAL_SCORING, || {
                std::thread::sleep(Duration::from_millis(2))
            });
        }
        let b = StageBreakdown::from_profile(&rec.profile(), 0.025);
        assert!(b.setup_secs >= 0.002, "setup {}", b.setup_secs);
        assert!(b.train_secs >= 0.010, "train {}", b.train_secs);
        assert!(b.val_secs >= 0.003, "val {}", b.val_secs);
        assert_eq!(b.test_secs, 0.0);
        assert!(b.stage_sum_secs() >= b.train_secs + b.val_secs);
    }

    #[test]
    fn dense_self_time_excludes_nested_sampling() {
        let rec = Recorder::new();
        let _g = rec.install();
        timed(stage::DENSE, || {
            std::thread::sleep(Duration::from_millis(8));
            timed(stage::SAMPLING, || {
                std::thread::sleep(Duration::from_millis(8))
            });
        });
        let b = StageBreakdown::from_profile(&rec.profile(), 0.016);
        assert!(b.sampling_secs >= 0.007, "sampling {}", b.sampling_secs);
        // Exclusive: dense must not double-count the nested sampling time.
        let dense_total = rec.profile().total_secs(stage::DENSE);
        assert!(
            b.dense_secs <= dense_total - b.sampling_secs + 0.003,
            "dense self {} vs total {} sampling {}",
            b.dense_secs,
            dense_total,
            b.sampling_secs
        );
        let u = b.utilization().unwrap();
        assert!(u > 0.2 && u < 0.8, "utilization {u}");
    }

    #[test]
    fn utilization_is_none_when_unmeasured() {
        assert!(StageBreakdown::default().utilization().is_none());
    }

    #[test]
    fn report_serializes_stages_and_profile() {
        let rec = Recorder::new();
        let _g = rec.install();
        timed(stage::TRAIN_EPOCH, || {});
        let report = EfficiencyReport {
            runtime_per_epoch_secs: 1.5,
            profile: rec.profile(),
            ..Default::default()
        };
        let s = report.to_json().to_string();
        assert!(s.contains("\"stages\""), "{s}");
        assert!(s.contains("\"train_epoch\""), "{s}");
        assert!(s.contains("\"counters\""), "{s}");
        assert!(s.contains("\"kernel_isa\""), "{s}");
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512.0B");
        assert_eq!(fmt_bytes(2048), "2.0KB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.0MB");
    }
}
