//! `benchtemp-obs`: the observability layer behind the efficiency tables.
//!
//! Three pieces, all dependency-free:
//!
//! * **Hierarchical spans** ([`span`], [`timed`]) with thread-aware timing.
//!   Each thread keeps its own span stack; a span's *self* time is its
//!   elapsed time minus the elapsed time of its children, so one unit of
//!   wall-clock is attributed to exactly one span name. This is what makes
//!   stage accounting robust by construction: a `train_epoch` span cannot
//!   absorb time spent inside a sibling `val_scoring` span, because sibling
//!   spans never overlap on a thread.
//! * **Named monotonic counters and gauges** ([`counters`]): process-wide
//!   atomics ticked by the hot path (negatives sampled, frontier slots
//!   expanded, tape nodes allocated, matmul FLOPs, pool tasks dispatched,
//!   peak-RSS samples).
//! * **Two sinks**: an aggregated per-stage [`Profile`] read from a
//!   [`Recorder`] (embedded in `EfficiencyReport`), and an optional JSONL
//!   trace stream ([`trace`], enabled by `BENCHTEMP_TRACE=path`) for
//!   offline inspection.
//!
//! # Scoping
//!
//! Aggregation is scoped, not global: a job creates a [`Recorder`] and
//! [`Recorder::install`]s it on the current thread; every span closed while
//! it is installed lands in that recorder. The worker pool propagates the
//! installing thread's recorder into its tasks, so spans closed on workers
//! attribute to the job that dispatched them. Concurrent jobs (e.g. tests
//! running in parallel threads) therefore never contaminate each other's
//! profiles. With no recorder installed and tracing disabled, [`span`] is
//! inert: it never reads the clock.
//!
//! Counters are process-wide monotonic; a [`Recorder`] snapshots them at
//! creation and reports per-job deltas in its [`Profile`].

pub mod counters;
pub mod trace;

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Aggregated statistics for one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanStat {
    /// Number of times a span with this name closed.
    pub count: u64,
    /// Total elapsed seconds across all closings (inclusive of children).
    pub total_secs: f64,
    /// Exclusive seconds: total minus time spent in child spans.
    pub self_secs: f64,
}

/// A snapshot of everything a [`Recorder`] saw: per-span statistics plus
/// counter deltas and gauge values. Spans and counters are sorted by name
/// so serialized output is deterministic.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    pub spans: Vec<(String, SpanStat)>,
    /// Counter deltas since the recorder was created.
    pub counters: Vec<(&'static str, u64)>,
    /// Gauge values at snapshot time (absolute, not deltas).
    pub gauges: Vec<(&'static str, u64)>,
}

impl Profile {
    /// Statistics for one span name (all-zero if the span never closed).
    pub fn stat(&self, name: &str) -> SpanStat {
        self.spans
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    }

    /// Inclusive seconds accumulated under `name`.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.stat(name).total_secs
    }

    /// Exclusive seconds accumulated under `name`.
    pub fn self_secs(&self, name: &str) -> f64 {
        self.stat(name).self_secs
    }

    /// Number of closings of `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.stat(name).count
    }

    /// Mean inclusive seconds per closing of `name` (0.0 if never closed).
    pub fn mean_secs(&self, name: &str) -> f64 {
        let s = self.stat(name);
        if s.count == 0 {
            0.0
        } else {
            s.total_secs / s.count as f64
        }
    }

    /// Delta of one named counter over the recorder's lifetime.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }
}

struct RecorderInner {
    stats: Mutex<HashMap<&'static str, SpanStat>>,
    /// Counter values at recorder creation, aligned with [`counters::all`].
    counter_base: Vec<u64>,
}

/// A scoped aggregation sink for spans. Clones share the same underlying
/// storage (it is an `Arc`), which is how the worker pool carries the
/// installing thread's recorder into its tasks.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<RecorderInner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// Create a recorder and snapshot the process counters as its baseline.
    pub fn new() -> Self {
        Recorder {
            inner: Arc::new(RecorderInner {
                stats: Mutex::new(HashMap::new()),
                counter_base: counters::all().iter().map(|c| c.get()).collect(),
            }),
        }
    }

    /// Install this recorder on the current thread; spans closed while the
    /// guard lives are aggregated here. The previous recorder (if any) is
    /// restored when the guard drops.
    pub fn install(&self) -> InstallGuard {
        let prev = CURRENT.with(|c| c.borrow_mut().replace(self.clone()));
        InstallGuard { prev }
    }

    fn record(&self, name: &'static str, total_secs: f64, self_secs: f64) {
        let mut stats = self.inner.stats.lock().unwrap();
        let s = stats.entry(name).or_default();
        s.count += 1;
        s.total_secs += total_secs;
        s.self_secs += self_secs;
    }

    /// Snapshot the aggregated profile (may be taken at any time).
    #[expect(
        clippy::disallowed_methods,
        reason = "the collected spans are sorted by name before use"
    )]
    pub fn profile(&self) -> Profile {
        let mut spans: Vec<(String, SpanStat)> = self
            .inner
            .stats
            .lock()
            .unwrap()
            .iter()
            .map(|(&n, &s)| (n.to_string(), s))
            .collect();
        spans.sort_by(|a, b| a.0.cmp(&b.0));
        let counters = counters::all()
            .iter()
            .zip(&self.inner.counter_base)
            .map(|(c, &base)| (c.name(), c.get().saturating_sub(base)))
            .collect();
        let gauges = counters::gauges()
            .iter()
            .map(|g| (g.name(), g.get()))
            .collect();
        Profile {
            spans,
            counters,
            gauges,
        }
    }
}

/// Guard restoring the thread's previous recorder on drop.
pub struct InstallGuard {
    prev: Option<Recorder>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Recorder>> = const { RefCell::new(None) };
    /// Per-thread stack of child-time accumulators, one slot per open span.
    static CHILD_STACK: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// The recorder installed on the current thread, if any. The worker pool
/// calls this at dispatch time to propagate attribution into its tasks.
pub fn current() -> Option<Recorder> {
    CURRENT.with(|c| c.borrow().clone())
}

/// An open span. Closing (dropping) it attributes its elapsed time to
/// `name` in the current recorder and emits a trace event if tracing is on.
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
    recorder: Option<Recorder>,
    traced: bool,
    sid: u64,
}

/// Open a span. Inert (no clock read) when no recorder is installed on this
/// thread and tracing is disabled.
#[expect(
    clippy::disallowed_methods,
    reason = "spans are the workspace's wall clock; their readings are reported, never computed on"
)]
pub fn span(name: &'static str) -> SpanGuard {
    let recorder = current();
    let traced = trace::enabled();
    if recorder.is_none() && !traced {
        return SpanGuard {
            name,
            start: None,
            recorder: None,
            traced: false,
            sid: 0,
        };
    }
    CHILD_STACK.with(|s| s.borrow_mut().push(0.0));
    let sid = if traced { trace::emit_open(name) } else { 0 };
    SpanGuard {
        name,
        start: Some(Instant::now()),
        recorder,
        traced,
        sid,
    }
}

impl SpanGuard {
    /// Seconds since the span opened (0.0 for an inert span).
    pub fn elapsed_secs(&self) -> f64 {
        self.start.map(|s| s.elapsed().as_secs_f64()).unwrap_or(0.0)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed = start.elapsed().as_secs_f64();
        let child = CHILD_STACK.with(|s| s.borrow_mut().pop().unwrap_or(0.0));
        let self_secs = (elapsed - child).max(0.0);
        CHILD_STACK.with(|s| {
            if let Some(parent) = s.borrow_mut().last_mut() {
                *parent += elapsed;
            }
        });
        if let Some(r) = &self.recorder {
            r.record(self.name, elapsed, self_secs);
        }
        if self.traced {
            trace::emit_close(self.name, self.sid, elapsed, self_secs);
        }
    }
}

/// Run `f` under a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = span(name);
    f()
}

/// Run `f` under a span named `name`, returning the span's elapsed seconds
/// alongside the result (0.0 when the span is inert).
pub fn timed_secs<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let g = span(name);
    let out = f();
    let secs = g.elapsed_secs();
    drop(g);
    (out, secs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sleep_ms(ms: u64) {
        std::thread::sleep(Duration::from_millis(ms));
    }

    #[test]
    fn span_without_recorder_or_trace_is_inert() {
        let g = span("inert");
        assert_eq!(g.elapsed_secs(), 0.0);
    }

    #[test]
    fn nested_spans_attribute_self_time_exclusively() {
        let rec = Recorder::new();
        let _g = rec.install();
        {
            let _outer = span("outer");
            sleep_ms(12);
            {
                let _inner = span("inner");
                sleep_ms(12);
            }
            sleep_ms(4);
        }
        let p = rec.profile();
        let outer = p.stat("outer");
        let inner = p.stat("inner");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        // Outer total covers everything; outer self excludes inner.
        assert!(
            outer.total_secs >= 0.026,
            "outer total {}",
            outer.total_secs
        );
        assert!(
            inner.total_secs >= 0.010,
            "inner total {}",
            inner.total_secs
        );
        assert!(
            outer.self_secs >= 0.012 && outer.self_secs <= outer.total_secs - 0.010,
            "outer self {} of total {}",
            outer.self_secs,
            outer.total_secs
        );
        // Conservation: self times sum to the outer total.
        let sum = outer.self_secs + inner.self_secs;
        assert!(
            (sum - outer.total_secs).abs() < 0.004,
            "self-sum {sum} vs outer total {}",
            outer.total_secs
        );
    }

    #[test]
    fn sibling_spans_do_not_contaminate_each_other() {
        let rec = Recorder::new();
        let _g = rec.install();
        {
            let _a = span("stage_a");
            sleep_ms(15);
        }
        {
            let _b = span("stage_b");
            sleep_ms(3);
        }
        let p = rec.profile();
        // stage_a closed before stage_b opened: its time cannot include b's.
        assert!(p.total_secs("stage_a") >= 0.013);
        assert!(p.total_secs("stage_b") >= 0.002);
        assert!(
            p.total_secs("stage_b") < 0.013,
            "stage_b absorbed stage_a's time: {}",
            p.total_secs("stage_b")
        );
        assert_eq!(p.stat("stage_a").count, 1);
    }

    #[test]
    fn repeated_spans_accumulate_counts_and_means() {
        let rec = Recorder::new();
        let _g = rec.install();
        for _ in 0..3 {
            let _s = span("epoch");
            sleep_ms(4);
        }
        let p = rec.profile();
        assert_eq!(p.count("epoch"), 3);
        assert!(p.mean_secs("epoch") >= 0.003);
        assert!((p.mean_secs("epoch") - p.total_secs("epoch") / 3.0).abs() < 1e-12);
    }

    #[test]
    fn install_guard_restores_previous_recorder() {
        let outer = Recorder::new();
        let inner = Recorder::new();
        let _a = outer.install();
        {
            let _b = inner.install();
            timed("scoped", || sleep_ms(2));
        }
        timed("outer_only", || sleep_ms(2));
        assert_eq!(inner.profile().count("scoped"), 1);
        assert_eq!(inner.profile().count("outer_only"), 0);
        assert_eq!(outer.profile().count("scoped"), 0);
        assert_eq!(outer.profile().count("outer_only"), 1);
    }

    #[test]
    fn recorder_reports_counter_deltas() {
        let before = Recorder::new();
        counters::NEGATIVES_SAMPLED.add(7);
        let after = Recorder::new();
        counters::NEGATIVES_SAMPLED.add(5);
        assert!(before.profile().counter("negatives_sampled") >= 12);
        assert_eq!(after.profile().counter("negatives_sampled"), 5);
    }

    #[test]
    fn gauge_tracks_maximum() {
        counters::PEAK_RSS_BYTES.sample(100);
        counters::PEAK_RSS_BYTES.sample(50);
        assert!(counters::PEAK_RSS_BYTES.get() >= 100);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "this test verifies recorder hand-off to a *foreign* thread; the pool would defeat it"
    )]
    fn spans_on_other_threads_attribute_via_installed_recorder() {
        let rec = Recorder::new();
        let handle = {
            let rec = rec.clone();
            std::thread::spawn(move || {
                let _g = rec.install();
                timed("worker_span", || sleep_ms(3));
            })
        };
        handle.join().unwrap();
        assert_eq!(rec.profile().count("worker_span"), 1);
    }
}
