//! Paged CSR sampler backend: the out-of-core counterpart of
//! [`NeighborFinder`], serving the same query API off `benchtemp-store`
//! pages instead of resident columns.
//!
//! Bit-identity with the resident path is by construction, not by luck
//! (DESIGN.md §15):
//!
//! 1. the store's bulk loader sorts stably, so an already-time-sorted
//!    event stream (every benchtemp dataset) keeps its order and the paged
//!    event indices equal the resident `NeighborFinder`'s;
//! 2. `before_into` materialises the *identical* strictly-before-`t`
//!    window bytes into a [`HistoryScratch`];
//! 3. sampling then runs the exact slice kernels
//!    (`sample_slice_into`/`sample_slice_one`) and frontier engine
//!    (`expand_frontier`) the resident path runs, so RNG consumption and
//!    output bits cannot drift between backends.
//!
//! `MostRecent` consumes no randomness, so the paged path materialises
//! only the window tail of `min(k, window)` entries — the one place the
//! two backends touch different byte counts while producing the same
//! output.

use std::io;
use std::path::Path;

use benchtemp_store::{StoreEvent, TemporalStore};
// Re-exported so samplers can be configured without a direct store
// dependency.
pub use benchtemp_store::{default_store_dir, StoreOptions};
use benchtemp_tensor::init::SeededRng;

use crate::neighbors::{
    expand_frontier, sample_slice_into, sample_slice_one, BackendScratch, Frontier,
    FrontierBackend, HistoryScratch, NeighborEvent, NeighborFinder, NeighborSlice,
    SamplingStrategy,
};
use crate::temporal_graph::{Interaction, TemporalGraph};

/// Convert the graph crate's interaction to the store's plain-old-data
/// event frame.
fn to_store_event(ev: &Interaction) -> StoreEvent {
    debug_assert!(
        ev.src <= u32::MAX as usize
            && ev.dst <= u32::MAX as usize
            && ev.feat_idx <= u32::MAX as usize,
        "store events are u32-indexed"
    );
    StoreEvent {
        src: ev.src as u32,
        dst: ev.dst as u32,
        t: ev.t,
        feat: ev.feat_idx as u32,
    }
}

/// Temporal neighbor sampler over a paged [`TemporalStore`]: the same
/// query surface as [`NeighborFinder`], with adjacency windows read
/// through the store's byte-budgeted page cache instead of resident
/// columns. Construct via [`NeighborBackend`] to stay backend-generic.
pub struct PagedNeighborFinder {
    store: TemporalStore,
}

impl PagedNeighborFinder {
    /// Bulk-load the adjacency of `events` into a fresh store at `dir` and
    /// open a sampler over it. `_edge_features` is ignored: the store
    /// pages adjacency only, and the edge-feature matrix stays resident in
    /// [`TemporalGraph`], whose `validate` range-checks every `feat_idx`.
    pub fn bulk_load(
        dir: &Path,
        num_nodes: usize,
        events: &[Interaction],
        _edge_features: Option<(usize, usize, &[f32])>,
        opts: &StoreOptions,
    ) -> io::Result<Self> {
        let evs: Vec<StoreEvent> = events.iter().map(to_store_event).collect();
        let store = TemporalStore::bulk_load(dir, num_nodes, &evs, opts)?;
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

    pub fn num_nodes(&self) -> usize {
        self.store.num_nodes()
    }

    /// Total interactions a node participates in.
    pub fn degree(&self, node: usize) -> usize {
        let (s, e) = self.store.node_range(node);
        (e - s) as usize
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

    /// Materialise entries `[start, end)` into `scratch` and view them as
    /// a [`NeighborSlice`] — the exact input type of the shared sampling
    /// kernels.
    fn window_into<'s>(
        &self,
        start: u64,
        end: u64,
        scratch: &'s mut HistoryScratch,
    ) -> NeighborSlice<'s> {
        scratch.clear();
        self.store
            .read_adj(
                start,
                end,
                &mut scratch.neighbor,
                &mut scratch.ts,
                &mut scratch.event_idx,
            )
            .expect("paged store: adjacency read failed");
        scratch.as_slice()
    }

    /// All interactions of `node` strictly before `t`, materialised into
    /// `scratch`. Same window bytes as the resident
    /// [`NeighborFinder::before`].
    pub fn before_into<'s>(
        &self,
        node: usize,
        t: f64,
        scratch: &'s mut HistoryScratch,
    ) -> NeighborSlice<'s> {
        let (s, cut_end) = self.cut_before(node, t);
        self.window_into(s, cut_end, scratch)
    }

    /// Window to materialise for strategy: `MostRecent` draws no
    /// randomness and reads only the tail, so paging the full window in
    /// would be wasted IO; every RNG-driven strategy needs the full window
    /// (draw ranges depend on its length).
    fn strategy_window(
        &self,
        node: usize,
        t: f64,
        k: usize,
        strategy: SamplingStrategy,
    ) -> (u64, u64) {
        let (s, cut_end) = self.cut_before(node, t);
        match strategy {
            SamplingStrategy::MostRecent => (cut_end - (cut_end - s).min(k as u64), cut_end),
            _ => (s, cut_end),
        }
    }

    /// Paged counterpart of [`NeighborFinder::sample_into`]: clears `out`
    /// and fills it with up to `k` samples, bit-identical to the resident
    /// path over the same events.
    #[allow(clippy::too_many_arguments)]
    pub fn sample_into(
        &self,
        node: usize,
        t: f64,
        k: usize,
        strategy: SamplingStrategy,
        rng: &mut SeededRng,
        scratch: &mut BackendScratch,
        out: &mut Vec<NeighborEvent>,
    ) {
        out.clear();
        if k == 0 {
            return;
        }
        let (start, end) = self.strategy_window(node, t, k, strategy);
        let BackendScratch { sample, history } = scratch;
        let hist = self.window_into(start, end, history);
        sample_slice_into(hist, t, k, strategy, rng, sample, out);
    }

    /// Paged counterpart of [`NeighborFinder::sample_one`].
    pub fn sample_one(
        &self,
        node: usize,
        t: f64,
        strategy: SamplingStrategy,
        rng: &mut SeededRng,
        scratch: &mut BackendScratch,
    ) -> Option<NeighborEvent> {
        let (start, end) = self.strategy_window(node, t, 1, strategy);
        let BackendScratch { sample, history } = scratch;
        let hist = self.window_into(start, end, history);
        sample_slice_one(hist, t, strategy, rng, sample)
    }

    /// Paged counterpart of [`NeighborFinder::sample_frontier`] — the
    /// identical generic engine, so schedules and output bits match the
    /// resident path exactly.
    pub fn sample_frontier(
        &self,
        roots: &[usize],
        times: &[f64],
        k: usize,
        hops: usize,
        strategy: SamplingStrategy,
        seed: u64,
    ) -> Frontier {
        expand_frontier(self, roots, times, k, hops, strategy, seed)
    }

    /// Bytes this sampler keeps unconditionally resident (CSR offsets and
    /// the per-event feature-row map).
    pub fn resident_index_bytes(&self) -> usize {
        self.store.resident_index_bytes()
    }

    /// Bytes currently held by page-cache frames (bounded by the budget).
    pub fn cache_resident_bytes(&self) -> usize {
        self.store.cache_resident_bytes()
    }
}

impl FrontierBackend for PagedNeighborFinder {
    fn backend_sample_into(
        &self,
        node: usize,
        t: f64,
        k: usize,
        strategy: SamplingStrategy,
        rng: &mut SeededRng,
        scratch: &mut BackendScratch,
        out: &mut Vec<NeighborEvent>,
    ) {
        self.sample_into(node, t, k, strategy, rng, scratch, out);
    }

    fn backend_event_feat(&self) -> &[u32] {
        self.store.event_feat()
    }
}

/// A borrowed, `Copy` view over either sampler backend — the type
/// [`StreamContext`](../../benchtemp_core) carries so every model runs
/// unchanged against resident or paged adjacency.
#[derive(Clone, Copy)]
pub enum NeighborBackend<'a> {
    Resident(&'a NeighborFinder),
    Paged(&'a PagedNeighborFinder),
}

impl<'a> NeighborBackend<'a> {
    pub fn num_nodes(&self) -> usize {
        match self {
            NeighborBackend::Resident(nf) => nf.num_nodes(),
            NeighborBackend::Paged(pf) => pf.num_nodes(),
        }
    }

    pub fn degree(&self, node: usize) -> usize {
        match self {
            NeighborBackend::Resident(nf) => nf.degree(node),
            NeighborBackend::Paged(pf) => pf.degree(node),
        }
    }

    pub fn is_paged(&self) -> bool {
        matches!(self, NeighborBackend::Paged(_))
    }

    /// All interactions of `node` strictly before `t`. The resident
    /// backend returns its borrowed CSR window untouched (`scratch` is
    /// dead); the paged backend materialises the same bytes into
    /// `scratch`.
    pub fn before_into<'s>(
        &self,
        node: usize,
        t: f64,
        scratch: &'s mut HistoryScratch,
    ) -> NeighborSlice<'s>
    where
        'a: 's,
    {
        match self {
            NeighborBackend::Resident(nf) => nf.before(node, t),
            NeighborBackend::Paged(pf) => pf.before_into(node, t, scratch),
        }
    }

    /// Up to `k` samples into `out`; see [`NeighborFinder::sample_into`].
    #[allow(clippy::too_many_arguments)]
    pub fn sample_into(
        &self,
        node: usize,
        t: f64,
        k: usize,
        strategy: SamplingStrategy,
        rng: &mut SeededRng,
        scratch: &mut BackendScratch,
        out: &mut Vec<NeighborEvent>,
    ) {
        match self {
            NeighborBackend::Resident(nf) => {
                nf.sample_into(node, t, k, strategy, rng, &mut scratch.sample, out)
            }
            NeighborBackend::Paged(pf) => pf.sample_into(node, t, k, strategy, rng, scratch, out),
        }
    }

    /// Scalar walk-hop sample; see [`NeighborFinder::sample_one`].
    pub fn sample_one(
        &self,
        node: usize,
        t: f64,
        strategy: SamplingStrategy,
        rng: &mut SeededRng,
        scratch: &mut BackendScratch,
    ) -> Option<NeighborEvent> {
        match self {
            NeighborBackend::Resident(nf) => {
                nf.sample_one(node, t, strategy, rng, &mut scratch.sample)
            }
            NeighborBackend::Paged(pf) => pf.sample_one(node, t, strategy, rng, scratch),
        }
    }

    /// Batched multi-hop expansion; see
    /// [`NeighborFinder::sample_frontier`]. Both arms run the same generic
    /// engine, so results are bit-identical across backends and thread
    /// counts.
    pub fn sample_frontier(
        &self,
        roots: &[usize],
        times: &[f64],
        k: usize,
        hops: usize,
        strategy: SamplingStrategy,
        seed: u64,
    ) -> Frontier {
        match self {
            NeighborBackend::Resident(nf) => {
                expand_frontier(*nf, roots, times, k, hops, strategy, seed)
            }
            NeighborBackend::Paged(pf) => {
                expand_frontier(*pf, roots, times, k, hops, strategy, seed)
            }
        }
    }

    /// Compat shim mirroring [`NeighborFinder::sample_before`]: allocates
    /// the returned `Vec` and a scratch. Hot paths hold a
    /// [`BackendScratch`] and call `sample_into`/`sample_one`.
    pub fn sample_before(
        &self,
        node: usize,
        t: f64,
        k: usize,
        strategy: SamplingStrategy,
        rng: &mut SeededRng,
    ) -> Vec<NeighborEvent> {
        let mut scratch = BackendScratch::new();
        let mut out = Vec::new();
        self.sample_into(node, t, k, strategy, rng, &mut scratch, &mut out);
        out
    }

    /// Bytes held resident by the backend: the whole CSR for the resident
    /// arm; the in-RAM index plus current page-cache frames for the paged
    /// arm.
    pub fn heap_bytes(&self) -> usize {
        match self {
            NeighborBackend::Resident(nf) => nf.heap_bytes(),
            NeighborBackend::Paged(pf) => pf.resident_index_bytes() + pf.cache_resident_bytes(),
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

    pub fn heap_bytes(&self) -> usize {
        self.as_backend().heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighbors::{frontier_stream_seed, SampleScratch};
    use benchtemp_tensor::init::SeededRng;
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
            run_events: 64,
        };
        let pf = PagedNeighborFinder::bulk_load(dir, 12, evs, None, &opts).unwrap();
        (nf, pf)
    }

    #[test]
    fn before_windows_match_resident() {
        let dir = tmpdir("before");
        let evs = events(300);
        let (nf, pf) = backends(&dir, &evs);
        let mut scratch = HistoryScratch::new();
        for node in 0..12 {
            for t in [0.0, 1.0, 37.5, 80.0, 1e9] {
                let r = nf.before(node, t);
                let p = pf.before_into(node, t, &mut scratch);
                assert_eq!(r.len(), p.len(), "node={node} t={t}");
                assert_eq!(r.neighbor_ids(), p.neighbor_ids());
                assert_eq!(r.event_indices(), p.event_indices());
                assert_eq!(r.ts(), p.ts());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn samples_bit_identical_across_backends() {
        let dir = tmpdir("samples");
        let evs = events(300);
        let (nf, pf) = backends(&dir, &evs);
        let strategies = [
            SamplingStrategy::MostRecent,
            SamplingStrategy::Uniform,
            SamplingStrategy::TemporalExp { alpha: 0.01 },
            SamplingStrategy::TemporalSafe,
        ];
        for strategy in strategies {
            let mut rng_r = SeededRng::seed_from_u64(7);
            let mut rng_p = SeededRng::seed_from_u64(7);
            let mut s_r = SampleScratch::new();
            let mut s_p = BackendScratch::new();
            let (mut out_r, mut out_p) = (Vec::new(), Vec::new());
            for node in 0..12 {
                for t in [3.0, 55.0, 150.0] {
                    nf.sample_into(node, t, 5, strategy, &mut rng_r, &mut s_r, &mut out_r);
                    pf.sample_into(node, t, 5, strategy, &mut rng_p, &mut s_p, &mut out_p);
                    assert_eq!(out_r, out_p, "strategy={strategy:?} node={node} t={t}");
                    let one_r = nf.sample_one(node, t, strategy, &mut rng_r, &mut s_r);
                    let one_p = pf.sample_one(node, t, strategy, &mut rng_p, &mut s_p);
                    assert_eq!(one_r, one_p);
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn frontiers_bit_identical_across_backends() {
        let dir = tmpdir("frontier");
        let evs = events(400);
        let (nf, pf) = backends(&dir, &evs);
        let roots: Vec<usize> = (0..40).map(|i| i % 12).collect();
        let times: Vec<f64> = (0..40).map(|i| 40.0 + i as f64).collect();
        let seed = frontier_stream_seed(0xfeed, 3); // arbitrary fixed seed
        for strategy in [SamplingStrategy::MostRecent, SamplingStrategy::Uniform] {
            let fr = nf.sample_frontier(&roots, &times, 3, 2, strategy, seed);
            let fp = pf.sample_frontier(&roots, &times, 3, 2, strategy, seed);
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
    fn backend_enum_dispatches_both_arms() {
        let dir = tmpdir("enum");
        let evs = events(200);
        let (nf, pf) = backends(&dir, &evs);
        let br = NeighborBackend::Resident(&nf);
        let bp = NeighborBackend::Paged(&pf);
        assert_eq!(br.num_nodes(), bp.num_nodes());
        for node in 0..12 {
            assert_eq!(br.degree(node), bp.degree(node));
        }
        let mut scratch = HistoryScratch::new();
        let r = br.before_into(3, 60.0, &mut scratch);
        let rts: Vec<u64> = r.ts().iter().map(|t| t.to_bits()).collect();
        let mut scratch_p = HistoryScratch::new();
        let p = bp.before_into(3, 60.0, &mut scratch_p);
        assert_eq!(rts, p.ts().iter().map(|t| t.to_bits()).collect::<Vec<_>>());
        assert!(bp.is_paged() && !br.is_paged());
        assert!(br.heap_bytes() > 0 && bp.heap_bytes() > 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
