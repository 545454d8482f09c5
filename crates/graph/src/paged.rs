//! Paged CSR sampler backend: the out-of-core counterpart of
//! [`NeighborFinder`], supplying the same strictly-before-`t` windows off
//! `benchtemp-store` pages instead of resident columns, and
//! [`NeighborBackend`], the one sampling API over both backends.
//!
//! Bit-identity with the resident path is by construction, not by luck
//! (DESIGN.md §15):
//!
//! 1. the paged columns *are* the resident columns: the bulk load builds
//!    the CSR with [`NeighborFinder::from_events`] and the store writes
//!    its `neighbor`, `ts` and `event_idx` to disk unchanged, so every
//!    window holds the resident entries and event indices;
//! 2. the paged `Adjacency::window` materialises the *identical*
//!    strictly-before-`t` window bytes into the caller's [`SampleScratch`];
//! 3. sampling then runs the one generic `sample_into`/`sample_one` and
//!    frontier engine (`expand_frontier`) the resident path runs, so RNG
//!    consumption and output bits cannot drift between backends.
//!
//! `MostRecent` consumes no randomness, so the paged window holds only
//! the tail of `min(k, window)` entries — the one place the two backends
//! touch different byte counts while producing the same output.

use std::io;
use std::path::Path;

use benchtemp_store::TemporalStore;
// Re-exported so samplers can be configured without a direct store
// dependency.
pub use benchtemp_store::{default_store_dir, StoreOptions};
use benchtemp_tensor::init::SeededRng;

use crate::neighbors::{
    expand_frontier, sample_into, sample_one, Adjacency, Frontier, NeighborEvent, NeighborFinder,
    NeighborSlice, SampleScratch, SamplingStrategy, Window,
};
use crate::temporal_graph::{Interaction, TemporalGraph};

/// Check that `events` can be paged: every endpoint below `num_nodes`,
/// timestamps non-decreasing and never NaN (the store keeps arrival
/// order, so unsorted input would page a different adjacency than the
/// time-sorted windows the samplers assume).
fn check_events(num_nodes: usize, events: &[Interaction]) -> io::Result<()> {
    let invalid = |msg: String| Err(io::Error::new(io::ErrorKind::InvalidData, msg));
    let mut prev = f64::NEG_INFINITY;
    for (i, ev) in events.iter().enumerate() {
        if ev.src >= num_nodes || ev.dst >= num_nodes {
            return invalid(format!(
                "event {i}: endpoint out of range: {}/{} >= {num_nodes}",
                ev.src, ev.dst
            ));
        }
        if ev.t.is_nan() || ev.t < prev {
            return invalid(format!("event {i}: timestamp {} follows {prev}", ev.t));
        }
        prev = ev.t;
    }
    Ok(())
}

/// Temporal adjacency over a paged [`TemporalStore`]: the same windows as
/// [`NeighborFinder`], read through the store's byte-budgeted page cache
/// instead of resident columns. Sample through [`NeighborBackend::Paged`].
pub struct PagedNeighborFinder {
    store: TemporalStore,
}

impl PagedNeighborFinder {
    /// Build the resident CSR of `events`, write its adjacency columns to
    /// a fresh store at `dir` and open a sampler over it. Input with an
    /// endpoint `>= num_nodes` or a timestamp below its predecessor (or
    /// NaN) is an `InvalidData` error, returned before anything is
    /// written. `_edge_features` is ignored: the store pages adjacency
    /// only, and the edge-feature matrix stays resident in
    /// [`TemporalGraph`], whose `validate` range-checks every `feat_idx`.
    pub fn bulk_load(
        dir: &Path,
        num_nodes: usize,
        events: &[Interaction],
        _edge_features: Option<(usize, usize, &[f32])>,
        opts: &StoreOptions,
    ) -> io::Result<Self> {
        check_events(num_nodes, events)?;
        let (offsets, neighbor, ts, event_idx, event_feat) =
            NeighborFinder::from_events(num_nodes, events).into_columns();
        let store =
            TemporalStore::write(dir, offsets, &neighbor, &ts, &event_idx, event_feat, opts)?;
        Ok(PagedNeighborFinder { store })
    }

    /// Bulk-load a whole graph's adjacency; its edge-feature matrix stays
    /// resident in `graph`.
    pub fn bulk_load_graph(
        dir: &Path,
        graph: &TemporalGraph,
        opts: &StoreOptions,
    ) -> io::Result<Self> {
        Self::bulk_load(dir, graph.num_nodes, &graph.events, None, opts)
    }

    /// Entry range of the strictly-before-`t` window: `(start, cut_end)`
    /// in global adjacency-entry units. A binary search over the paged
    /// timestamp column — O(log degree) element reads, no window
    /// materialisation — mirroring the resident `partition_point`.
    fn cut_before(&self, node: usize, t: f64) -> (u64, u64) {
        let (s, e) = self.store.node_range(node);
        let (mut lo, mut hi) = (s, e);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let x = self.store.ts_at(mid).expect("paged store: ts read failed");
            if x < t {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (s, lo)
    }
}

impl Adjacency for PagedNeighborFinder {
    /// Materialise the window (only its last `tail` entries when given)
    /// into `buf`: paging in entries the caller never reads would be
    /// wasted IO.
    fn window<'s>(
        &'s self,
        node: usize,
        t: f64,
        tail: Option<usize>,
        buf: &'s mut Window,
    ) -> NeighborSlice<'s> {
        let (s, end) = self.cut_before(node, t);
        let start = tail.map_or(s, |n| end - (end - s).min(n as u64));
        buf.neighbor.clear();
        buf.ts.clear();
        buf.event_idx.clear();
        self.store
            .read_adj(
                start,
                end,
                &mut buf.neighbor,
                &mut buf.ts,
                &mut buf.event_idx,
            )
            .expect("paged store: adjacency read failed");
        buf.as_slice()
    }

    fn event_feat(&self) -> &[u32] {
        self.store.event_feat()
    }
}

/// A borrowed, `Copy` view over either sampler backend — the one sampling
/// API, and the type [`StreamContext`](../../benchtemp_core) carries so
/// every model runs unchanged against resident or paged adjacency. Each
/// method matches on the backend once and then runs the generic engine
/// monomorphised for that backend.
#[derive(Clone, Copy)]
pub enum NeighborBackend<'a> {
    Resident(&'a NeighborFinder),
    Paged(&'a PagedNeighborFinder),
}

impl<'a> NeighborBackend<'a> {
    /// All interactions of `node` strictly before `t`. The resident
    /// backend returns its borrowed CSR window untouched (`scratch` is
    /// dead); the paged backend materialises the same bytes into
    /// `scratch`.
    pub fn before_into<'s>(
        &self,
        node: usize,
        t: f64,
        scratch: &'s mut SampleScratch,
    ) -> NeighborSlice<'s>
    where
        'a: 's,
    {
        let buf = &mut scratch.window;
        match *self {
            NeighborBackend::Resident(nf) => nf.window(node, t, None, buf),
            NeighborBackend::Paged(pf) => pf.window(node, t, None, buf),
        }
    }

    /// Clear `out` and fill it with up to `k` samples of `node` before
    /// `t`: fewer (possibly zero) when history is short under
    /// `MostRecent`; with replacement under the other strategies.
    /// Allocation-free after warm-up.
    #[allow(clippy::too_many_arguments)]
    pub fn sample_into(
        &self,
        node: usize,
        t: f64,
        k: usize,
        strategy: SamplingStrategy,
        rng: &mut SeededRng,
        scratch: &mut SampleScratch,
        out: &mut Vec<NeighborEvent>,
    ) {
        match *self {
            NeighborBackend::Resident(nf) => {
                sample_into(nf, node, t, k, strategy, rng, scratch, out)
            }
            NeighborBackend::Paged(pf) => sample_into(pf, node, t, k, strategy, rng, scratch, out),
        }
    }

    /// Scalar walk-hop sample, consuming the RNG exactly like
    /// `sample_into` with `k = 1`.
    pub fn sample_one(
        &self,
        node: usize,
        t: f64,
        strategy: SamplingStrategy,
        rng: &mut SeededRng,
        scratch: &mut SampleScratch,
    ) -> Option<NeighborEvent> {
        match *self {
            NeighborBackend::Resident(nf) => sample_one(nf, node, t, strategy, rng, scratch),
            NeighborBackend::Paged(pf) => sample_one(pf, node, t, strategy, rng, scratch),
        }
    }

    /// Batched multi-hop expansion of `(roots[i], times[i])`, `k` wide for
    /// `hops` levels, with one RNG stream per root index; bit-identical
    /// across backends and thread counts (see `expand_frontier`).
    pub fn sample_frontier(
        &self,
        roots: &[usize],
        times: &[f64],
        k: usize,
        hops: usize,
        strategy: SamplingStrategy,
        seed: u64,
    ) -> Frontier {
        match *self {
            NeighborBackend::Resident(nf) => {
                expand_frontier(nf, roots, times, k, hops, strategy, seed)
            }
            NeighborBackend::Paged(pf) => {
                expand_frontier(pf, roots, times, k, hops, strategy, seed)
            }
        }
    }
}

/// Owning counterpart of [`NeighborBackend`], for pipelines that build the
/// sampler and then hand out borrowed views per batch.
// Two instances exist per job (train shell + full graph); the variant
// size gap is irrelevant at that count and boxing would cost a deref on
// every `as_backend`.
#[allow(clippy::large_enum_variant)]
pub enum OwnedNeighborBackend {
    Resident(NeighborFinder),
    Paged(PagedNeighborFinder),
}

impl OwnedNeighborBackend {
    pub fn as_backend(&self) -> NeighborBackend<'_> {
        match self {
            OwnedNeighborBackend::Resident(nf) => NeighborBackend::Resident(nf),
            OwnedNeighborBackend::Paged(pf) => NeighborBackend::Paged(pf),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighbors::frontier_stream_seed;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("benchtemp-paged-{}-{}", name, std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A time-sorted interaction stream with repeated endpoints so nodes
    /// accumulate history.
    fn events(n: usize) -> Vec<Interaction> {
        (0..n)
            .map(|i| Interaction {
                src: i % 7,
                dst: 7 + (i % 5),
                t: (i / 2) as f64, // duplicate timestamps exercise tie handling
                feat_idx: i,
            })
            .collect()
    }

    fn backends(dir: &Path, evs: &[Interaction]) -> (NeighborFinder, PagedNeighborFinder) {
        let nf = NeighborFinder::from_events(12, evs);
        // Tiny cache budget: force evictions so hits and misses both occur.
        let opts = StoreOptions {
            cache_budget_bytes: Some(64 * 1024),
        };
        let pf = PagedNeighborFinder::bulk_load(dir, 12, evs, None, &opts).unwrap();
        (nf, pf)
    }

    #[test]
    fn before_windows_match_resident() {
        let dir = tmpdir("before");
        let evs = events(300);
        let (nf, pf) = backends(&dir, &evs);
        let (br, bp) = (NeighborBackend::Resident(&nf), NeighborBackend::Paged(&pf));
        let (mut s_r, mut s_p) = (SampleScratch::new(), SampleScratch::new());
        for node in 0..12 {
            for t in [0.0, 1.0, 37.5, 80.0, 1e9] {
                let r: Vec<NeighborEvent> = br.before_into(node, t, &mut s_r).iter().collect();
                let p: Vec<NeighborEvent> = bp.before_into(node, t, &mut s_p).iter().collect();
                assert_eq!(r, p, "node={node} t={t}");
                assert_eq!(r, nf.before(node, t).iter().collect::<Vec<_>>());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn samples_bit_identical_across_backends() {
        let dir = tmpdir("samples");
        let evs = events(300);
        let (nf, pf) = backends(&dir, &evs);
        let (br, bp) = (NeighborBackend::Resident(&nf), NeighborBackend::Paged(&pf));
        let strategies = [
            SamplingStrategy::MostRecent,
            SamplingStrategy::Uniform,
            SamplingStrategy::TemporalExp { alpha: 0.01 },
            SamplingStrategy::TemporalSafe,
        ];
        for strategy in strategies {
            let mut rng_r = SeededRng::seed_from_u64(7);
            let mut rng_p = SeededRng::seed_from_u64(7);
            let (mut s_r, mut s_p) = (SampleScratch::new(), SampleScratch::new());
            let (mut out_r, mut out_p) = (Vec::new(), Vec::new());
            for node in 0..12 {
                for t in [3.0, 55.0, 150.0] {
                    br.sample_into(node, t, 5, strategy, &mut rng_r, &mut s_r, &mut out_r);
                    bp.sample_into(node, t, 5, strategy, &mut rng_p, &mut s_p, &mut out_p);
                    assert_eq!(out_r, out_p, "strategy={strategy:?} node={node} t={t}");
                    let one_r = br.sample_one(node, t, strategy, &mut rng_r, &mut s_r);
                    let one_p = bp.sample_one(node, t, strategy, &mut rng_p, &mut s_p);
                    assert_eq!(one_r, one_p);
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn most_recent_pages_in_only_the_tail() {
        // The one asymmetry between the backends: a `MostRecent` query
        // materialises only the last k entries; an RNG-driven one needs
        // the full window. Losing the tail would keep every equality test
        // green while raising the page reads of every TGN run.
        let dir = tmpdir("tail");
        let evs = events(700);
        let (nf, pf) = backends(&dir, &evs);
        let bp = NeighborBackend::Paged(&pf);
        let (node, t) = (0, 1e9);
        let full = nf.before(node, t).len();
        assert!(full >= 50, "node {node} has only {full} prior events");
        let mut scratch = SampleScratch::new();
        let mut out = Vec::new();
        let mut rng = SeededRng::seed_from_u64(3);
        bp.sample_into(
            node,
            t,
            3,
            SamplingStrategy::MostRecent,
            &mut rng,
            &mut scratch,
            &mut out,
        );
        assert_eq!(out.len(), 3);
        assert_eq!(scratch.window.ts.len(), 3);
        bp.sample_into(
            node,
            t,
            3,
            SamplingStrategy::Uniform,
            &mut rng,
            &mut scratch,
            &mut out,
        );
        assert_eq!(scratch.window.ts.len(), full);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn frontiers_bit_identical_across_backends() {
        let dir = tmpdir("frontier");
        let evs = events(400);
        let (nf, pf) = backends(&dir, &evs);
        let (br, bp) = (NeighborBackend::Resident(&nf), NeighborBackend::Paged(&pf));
        let roots: Vec<usize> = (0..40).map(|i| i % 12).collect();
        let times: Vec<f64> = (0..40).map(|i| 40.0 + i as f64).collect();
        let seed = frontier_stream_seed(0xfeed, 3); // arbitrary fixed seed
        for strategy in [SamplingStrategy::MostRecent, SamplingStrategy::Uniform] {
            let fr = br.sample_frontier(&roots, &times, 3, 2, strategy, seed);
            let fp = bp.sample_frontier(&roots, &times, 3, 2, strategy, seed);
            assert_eq!(fr.hops.len(), fp.hops.len());
            for (hr, hp) in fr.hops.iter().zip(&fp.hops) {
                assert_eq!(hr.nodes, hp.nodes);
                assert_eq!(
                    hr.times.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
                    hp.times.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
                );
                assert_eq!(hr.event_idx, hp.event_idx);
                assert_eq!(hr.feat_idx, hp.feat_idx);
                assert_eq!(
                    hr.dts.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                    hp.dts.iter().map(|d| d.to_bits()).collect::<Vec<_>>()
                );
                assert_eq!(hr.mask, hp.mask);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_input_is_rejected_before_anything_is_written() {
        let good = events(200);
        let mut out_of_range = good.clone();
        out_of_range[150].dst = 12;
        let mut unsorted = good.clone();
        unsorted.swap(40, 120);
        let mut nan = good.clone();
        nan[77].t = f64::NAN;
        for (name, evs) in [
            ("endpoint", out_of_range),
            ("unsorted", unsorted),
            ("nan", nan),
        ] {
            let dir = tmpdir(name).join("store");
            let err =
                PagedNeighborFinder::bulk_load(&dir, 12, &evs, None, &StoreOptions::default())
                    .err()
                    .unwrap_or_else(|| panic!("{name}: bad input was accepted"));
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}");
            assert!(!dir.exists(), "{name}: the failed load wrote {dir:?}");
            std::fs::remove_dir_all(dir.parent().unwrap()).ok();
        }
    }
}
