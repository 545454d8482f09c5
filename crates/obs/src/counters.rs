//! Process-wide monotonic counters and high-water gauges.
//!
//! Counters are `static` atomics ticked by the hot path at batch
//! granularity (one relaxed add per batch-level call, never per element),
//! so the disabled-case overhead is a handful of uncontended atomic adds
//! per batch. A [`crate::Recorder`] snapshots all counters at creation and
//! reports deltas, giving per-job attribution on top of process-wide
//! storage.

use std::sync::atomic::{AtomicU64, Ordering};

/// A named monotonic counter.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A named high-water-mark gauge (monotone max).
pub struct Gauge {
    name: &'static str,
    value: AtomicU64,
}

impl Gauge {
    pub const fn new(name: &'static str) -> Self {
        Gauge {
            name,
            value: AtomicU64::new(0),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Record an observation; the gauge keeps the maximum seen.
    #[inline]
    pub fn sample(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Negative destinations drawn by `EdgeSampler::sample_batch`.
pub static NEGATIVES_SAMPLED: Counter = Counter::new("negatives_sampled");
/// Neighbor slots filled by `NeighborBackend::sample_frontier`.
pub static FRONTIER_NODES_EXPANDED: Counter = Counter::new("frontier_nodes_expanded");
/// Nodes pushed onto the autograd tape.
pub static TAPE_NODES_ALLOCATED: Counter = Counter::new("tape_nodes_allocated");
/// Floating-point operations issued by the matmul kernels (2·m·k·n each).
pub static MATMUL_FLOPS: Counter = Counter::new("matmul_flops");
/// Tasks handed to `benchtemp-tensor::pool` workers.
pub static POOL_TASKS_DISPATCHED: Counter = Counter::new("pool_tasks_dispatched");
/// Calls to `Adam::step`.
pub static OPTIMIZER_STEPS: Counter = Counter::new("optimizer_steps");
/// Times the peak-RSS gauge was sampled from /proc.
pub static PEAK_RSS_SAMPLES: Counter = Counter::new("peak_rss_samples");
/// Fused tape nodes executed (`LinearAffine`, `GatherLinearAffine`,
/// `TimeEncodeFused`, `MultiHeadGroupedAttention`, and the
/// `gather_rows_from` leaf).
pub static FUSED_OPS_EXECUTED: Counter = Counter::new("fused_ops_executed");
/// Tape buffers served from the size-classed `BufferPool`'s free lists.
pub static TAPE_POOL_HITS: Counter = Counter::new("tape_pool_hits");
/// Tape buffer requests that fell through to a fresh heap allocation.
pub static TAPE_POOL_MISSES: Counter = Counter::new("tape_pool_misses");
/// Δt rows served by the `TimeEncode` per-batch memo instead of recompute.
pub static TIME_ENCODE_MEMO_HITS: Counter = Counter::new("time_encode_memo_hits");
/// Coalesced copy runs executed by the tape's pooled SoA gather leaf — a
/// pure function of the gather index lists, so thread-count-invariant.
pub static GATHER_COALESCED_RUNS: Counter = Counter::new("tape.gather_coalesced_runs");
/// Output rows asked of `Tape::gather_linear_affine` (one per gathered slot).
pub static PROJ_ROWS_REQUESTED: Counter = Counter::new("tape.proj_rows_requested");
/// Distinct source rows `Tape::gather_linear_affine` actually projected;
/// requested / projected is the dedup ratio.
pub static PROJ_ROWS_PROJECTED: Counter = Counter::new("tape.proj_rows_projected");

/// Page-cache lookups served from a resident frame (`benchtemp-store`).
pub static STORE_PAGE_HITS: Counter = Counter::new("store.page_hits");
/// Page-cache lookups that faulted a page in from disk.
pub static STORE_PAGE_MISSES: Counter = Counter::new("store.page_misses");
/// CLOCK victims evicted to stay inside the page-cache byte budget.
pub static STORE_PAGE_EVICTIONS: Counter = Counter::new("store.page_evictions");
/// Events whose CSR adjacency the store writer spilled to pages.
pub static STORE_BULK_EVENTS: Counter = Counter::new("store.bulk_events");

/// Peak resident set size observed (bytes).
pub static PEAK_RSS_BYTES: Gauge = Gauge::new("peak_rss_bytes");
/// Bytes held by `benchtemp-store` page-cache frames (bounded by the
/// `BENCHTEMP_PAGE_CACHE_MB` budget; high-water mark).
pub static STORE_CACHE_RESIDENT_BYTES: Gauge = Gauge::new("store.cache_resident_bytes");
/// Bytes in the tape buffer pool's free lists, sampled at each epoch
/// boundary (high-water mark).
pub static TAPE_POOL_RESIDENT_BYTES: Gauge = Gauge::new("tape.pool_resident_bytes");

/// All counters, in a fixed order ([`crate::Recorder`] baselines index into
/// this slice, so the order is part of the recorder contract).
pub fn all() -> &'static [&'static Counter] {
    static ALL: [&Counter; 18] = [
        &NEGATIVES_SAMPLED,
        &FRONTIER_NODES_EXPANDED,
        &TAPE_NODES_ALLOCATED,
        &MATMUL_FLOPS,
        &POOL_TASKS_DISPATCHED,
        &OPTIMIZER_STEPS,
        &PEAK_RSS_SAMPLES,
        &FUSED_OPS_EXECUTED,
        &TAPE_POOL_HITS,
        &TAPE_POOL_MISSES,
        &TIME_ENCODE_MEMO_HITS,
        &GATHER_COALESCED_RUNS,
        &PROJ_ROWS_REQUESTED,
        &PROJ_ROWS_PROJECTED,
        &STORE_PAGE_HITS,
        &STORE_PAGE_MISSES,
        &STORE_PAGE_EVICTIONS,
        &STORE_BULK_EVENTS,
    ];
    &ALL
}

/// All gauges, in a fixed order.
pub fn gauges() -> &'static [&'static Gauge] {
    static GAUGES: [&Gauge; 3] = [
        &PEAK_RSS_BYTES,
        &TAPE_POOL_RESIDENT_BYTES,
        &STORE_CACHE_RESIDENT_BYTES,
    ];
    &GAUGES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_names_are_unique() {
        let mut names: Vec<_> = all().iter().map(|c| c.name()).collect();
        names.extend(gauges().iter().map(|g| g.name()));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn add_and_incr_accumulate() {
        static LOCAL: Counter = Counter::new("local_test_counter");
        LOCAL.add(3);
        LOCAL.incr();
        assert_eq!(LOCAL.get(), 4);
    }
}
