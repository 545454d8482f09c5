//! Time-indexed adjacency: the temporal neighbor finder every sampling-based
//! model (TGN, TGAT, CAWN, NeurTW, NAT, TeMP) queries.
//!
//! The adjacency is stored in CSR form — an `offsets` array plus three
//! contiguous structure-of-arrays columns (`neighbor`, `ts`, `event_idx`) —
//! so a node's history is a pair of slice bounds instead of a per-node heap
//! allocation, and "neighbors strictly before `t`" is one binary search over
//! a dense `f64` column. Three sampling strategies are provided: most-recent
//! (TGN default), uniform (TGAT default), and the temporal-biased sampling
//! of NeurTW with the Appendix-C overflow-safe weighting (Eq. 2–3) for
//! large-granularity datasets.
//!
//! [`NeighborFinder`] only stores the adjacency and answers
//! [`NeighborFinder::before`]. Sampling is written once, here, generic over
//! the crate-private `Adjacency` contract that both the resident finder
//! and the paged store implement; callers reach it through
//! [`NeighborBackend`](crate::paged::NeighborBackend):
//!
//! * `sample_one` — scalar fast path for walk hops;
//! * `sample_into` — `k` samples into a caller buffer;
//! * `sample_frontier` — batched multi-hop expansion of a whole (node, t)
//!   root batch into flat per-hop arrays, fanned out over the
//!   `benchtemp_tensor::pool` workers with one deterministic RNG stream per
//!   *root index* (never per thread), so results are bit-identical at any
//!   thread count.
//!
//! The first two are allocation-free after warm-up given a caller-owned
//! [`SampleScratch`].

use benchtemp_tensor::init::SeededRng;
use benchtemp_tensor::pool::pool;

use crate::temporal_graph::Interaction;

/// One entry in a node's temporal adjacency list.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NeighborEvent {
    pub neighbor: usize,
    pub t: f64,
    /// Index of the originating interaction in the event stream.
    pub event_idx: usize,
}

/// How to pick `k` temporal neighbors from the history before `t`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SamplingStrategy {
    /// The `k` most recent interactions (TGN).
    MostRecent,
    /// Uniform over all prior interactions, with replacement (TGAT).
    Uniform,
    /// Probability ∝ exp(α·(t′−t)) — recency-biased (NeurTW default).
    /// Overflows for large |t′−t|; see [`SamplingStrategy::TemporalSafe`].
    TemporalExp { alpha: f64 },
    /// The overflow-safe piecewise weighting of Appendix C Eq. 2–3:
    /// `W = 1` when t′ = t, else `W = 1/(t−t′)` for history (t′ < t).
    TemporalSafe,
}

/// A borrowed, time-sorted window of one node's temporal adjacency.
///
/// Columns are SoA slices into the CSR arrays; `get` materialises a
/// [`NeighborEvent`] on the fly, so iterating yields values, not references.
#[derive(Clone, Copy)]
pub struct NeighborSlice<'a> {
    neighbor: &'a [u32],
    ts: &'a [f64],
    event_idx: &'a [u32],
}

impl<'a> NeighborSlice<'a> {
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// Materialise entry `i` (panics when out of bounds).
    #[inline]
    pub fn get(&self, i: usize) -> NeighborEvent {
        NeighborEvent {
            neighbor: self.neighbor[i] as usize,
            t: self.ts[i],
            event_idx: self.event_idx[i] as usize,
        }
    }

    /// The raw timestamp column (sorted ascending).
    #[inline]
    pub fn ts(&self) -> &'a [f64] {
        self.ts
    }

    /// Iterate entries by value, oldest first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = NeighborEvent> + ExactSizeIterator + 'a {
        let s = *self;
        (0..s.len()).map(move |i| s.get(i))
    }
}

/// SoA buffers a paged backend materialises one node's history window
/// into. The resident backend never touches it: its windows are borrowed
/// CSR slices.
#[derive(Default)]
pub(crate) struct Window {
    pub(crate) neighbor: Vec<u32>,
    pub(crate) ts: Vec<f64>,
    pub(crate) event_idx: Vec<u32>,
}

impl Window {
    /// View the materialised window as a [`NeighborSlice`] — the exact
    /// type the shared sampling kernels consume.
    pub(crate) fn as_slice(&self) -> NeighborSlice<'_> {
        NeighborSlice {
            neighbor: &self.neighbor,
            ts: &self.ts,
            event_idx: &self.event_idx,
        }
    }
}

/// Reusable per-caller buffers so sampling never allocates on the query
/// path: the cumulative-weight column of the weighted strategies and the
/// paged backend's window buffer. Both grow once to the longest history
/// seen, then are reused.
#[derive(Default)]
pub struct SampleScratch {
    pub(crate) cum: Vec<f64>,
    pub(crate) window: Window,
}

impl SampleScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Fill the cumulative column with running sums of `weight(ts[i])` and
/// return the total. Accumulation order (and therefore every f64 bit)
/// matches the pre-CSR implementation: non-finite weights count as 0.
///
/// Two passes: raw weights first (no serial dependency, so division-based
/// strategies auto-vectorize over the dense `ts` column), then an in-place
/// prefix sum in the seed sampler's exact accumulation order.
fn fill_cum<W: Fn(f64) -> f64>(cum: &mut Vec<f64>, ts: &[f64], weight: W) -> f64 {
    cum.resize(ts.len(), 0.0);
    for (c, &x) in cum.iter_mut().zip(ts) {
        *c = weight(x);
    }
    let mut acc = 0.0;
    for c in cum.iter_mut() {
        let w = *c;
        acc += if w.is_finite() { w } else { 0.0 };
        *c = acc;
    }
    acc
}

/// What a sampler backend supplies: one node's strictly-before-`t` window
/// plus the event-idx → edge-feature-row map. Everything else — the
/// strategy dispatch, the `MostRecent` tail rule and the frontier schedule
/// — is written once over this trait, so the resident and paged backends
/// run the same code on the same window bytes (DESIGN.md §15). `Sync`
/// because frontier root ranges fan out over the worker pool sharing
/// `&self`.
pub(crate) trait Adjacency: Sync {
    /// All interactions of `node` strictly before `t`, time-sorted. With
    /// `tail = Some(n)` the caller reads only the last `n` entries, so a
    /// backend may return just that suffix (the paged one does, to skip
    /// page reads); `buf` is where a backend without resident columns
    /// materialises the window.
    fn window<'s>(
        &'s self,
        node: usize,
        t: f64,
        tail: Option<usize>,
        buf: &'s mut Window,
    ) -> NeighborSlice<'s>;

    /// Edge-feature row of each event, indexed by event idx.
    fn event_feat(&self) -> &[u32];
}

/// The window suffix a strategy reads: `MostRecent` consumes no randomness
/// and reads only the last `k` entries; every RNG-driven strategy needs the
/// full window (draw ranges depend on its length).
#[inline]
fn strategy_tail(strategy: SamplingStrategy, k: usize) -> Option<usize> {
    match strategy {
        SamplingStrategy::MostRecent => Some(k),
        _ => None,
    }
}

/// Clear `out` and fill it with up to `k` samples of `node` before `t`.
/// Returns fewer than `k` (possibly zero) entries when history is short and
/// the strategy is `MostRecent`; weighted strategies sample with
/// replacement, matching the reference implementations. After warm-up
/// (buffers grown to the largest history/`k` seen) this performs zero heap
/// allocations per call.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sample_into<B: Adjacency + ?Sized>(
    backend: &B,
    node: usize,
    t: f64,
    k: usize,
    strategy: SamplingStrategy,
    rng: &mut SeededRng,
    scratch: &mut SampleScratch,
    out: &mut Vec<NeighborEvent>,
) {
    out.clear();
    if k == 0 {
        return;
    }
    let SampleScratch { cum, window } = scratch;
    let hist = backend.window(node, t, strategy_tail(strategy, k), window);
    sample_slice_into(hist, t, k, strategy, rng, cum, out);
}

/// Scalar fast path for walk engines: one sample, no output buffer. RNG
/// consumption is bit-identical to `sample_into(.., k = 1, ..)`, so walks
/// sampled through this path reproduce the pre-CSR streams.
pub(crate) fn sample_one<B: Adjacency + ?Sized>(
    backend: &B,
    node: usize,
    t: f64,
    strategy: SamplingStrategy,
    rng: &mut SeededRng,
    scratch: &mut SampleScratch,
) -> Option<NeighborEvent> {
    let SampleScratch { cum, window } = scratch;
    let hist = backend.window(node, t, strategy_tail(strategy, 1), window);
    sample_slice_one(hist, t, strategy, rng, cum)
}

/// A [`NeighborFinder`]'s columns `(offsets, neighbor, ts, event_idx,
/// event_feat)`, moved out by `into_columns`.
pub(crate) type CsrColumns = (Vec<usize>, Vec<u32>, Vec<f64>, Vec<u32>, Vec<u32>);

/// Sorted temporal adjacency over a (prefix of a) temporal graph, in CSR
/// layout: node `v`'s history is columns `offsets[v]..offsets[v+1]`. The
/// workspace's one CSR builder: the paged backend writes these same
/// columns to its store.
pub struct NeighborFinder {
    offsets: Vec<usize>,
    neighbor: Vec<u32>,
    ts: Vec<f64>,
    event_idx: Vec<u32>,
    /// Edge-feature row of each event (indexed by event idx): frontier
    /// expansion resolves sampled slots to feature rows inline, so model
    /// code gathers edge features straight off the hop's SoA column
    /// instead of chasing `events[e].feat_idx` per slot.
    event_feat: Vec<u32>,
}

/// Slot threshold below which `sample_frontier` skips pool dispatch and
/// expands inline — small batches never pay queue traffic.
const FRONTIER_PAR_SLOTS: usize = 4096;

/// The RNG stream seed for root index `root` of a frontier expansion with
/// base seed `seed`. Derived from the root *index* (golden-ratio stride,
/// then stretched through `seed_from_u64`'s SplitMix64), never from a
/// thread id — this is the bit-identical-at-any-thread-count contract, and
/// it is public so tests can pin it.
#[inline]
pub fn frontier_stream_seed(seed: u64, root: u64) -> u64 {
    seed ^ root.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One hop level of a [`Frontier`]: flat arrays of `roots × k^(level+1)`
/// slots. Slot `j` of parent `p` lives at index `p*k + j`.
pub struct FrontierHop {
    /// Sampled neighbor ids (0 for padded slots).
    pub nodes: Vec<usize>,
    /// Interaction times (the parent's own time for padded slots, so deeper
    /// hops expand padded slots exactly like the recursive code did).
    pub times: Vec<f64>,
    /// Originating event index (0 for padded slots).
    pub event_idx: Vec<usize>,
    /// Edge-feature row of the originating event (0 for padded slots) —
    /// pre-resolved so feature gathers are straight index lists.
    pub feat_idx: Vec<usize>,
    /// `parent_time − sample_time`, clamped at 0 — the Δt fed to time
    /// encoders (0 for padded slots).
    pub dts: Vec<f32>,
    /// Whether the slot holds a real sample.
    pub mask: Vec<bool>,
}

impl FrontierHop {
    fn zeroed(len: usize) -> Self {
        Self {
            nodes: vec![0; len],
            times: vec![0.0; len],
            event_idx: vec![0; len],
            feat_idx: vec![0; len],
            dts: vec![0.0; len],
            mask: vec![false; len],
        }
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Result of `sample_frontier`: one [`FrontierHop`] per level, hop `l`
/// holding `roots × k^(l+1)` slots.
pub struct Frontier {
    pub k: usize,
    pub hops: Vec<FrontierHop>,
}

/// A task-owned window of one hop level's arrays (all six columns split in
/// lockstep), so parallel expansion writes disjoint `&mut` slices.
struct HopChunk<'a> {
    nodes: &'a mut [usize],
    times: &'a mut [f64],
    event_idx: &'a mut [usize],
    feat_idx: &'a mut [usize],
    dts: &'a mut [f32],
    mask: &'a mut [bool],
}

impl NeighborFinder {
    /// Build from an event stream; edges are indexed in both directions
    /// (message passing treats interactions as undirected, as in TGN).
    pub fn from_events(num_nodes: usize, events: &[Interaction]) -> Self {
        assert!(
            num_nodes <= u32::MAX as usize && events.len() <= u32::MAX as usize,
            "CSR columns are u32-indexed"
        );
        let mut degree = vec![0usize; num_nodes];
        for ev in events {
            degree[ev.src] += 1;
            degree[ev.dst] += 1;
        }
        let mut offsets = Vec::with_capacity(num_nodes + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<usize> = offsets[..num_nodes].to_vec();
        let mut neighbor = vec![0u32; acc];
        let mut ts = vec![0f64; acc];
        let mut event_idx = vec![0u32; acc];
        let mut event_feat = vec![0u32; events.len()];
        // Events arrive time-sorted, so appending in stream order leaves
        // every per-node run sorted; assert in debug builds instead of
        // paying a sort.
        for (idx, ev) in events.iter().enumerate() {
            debug_assert!(
                ev.feat_idx <= u32::MAX as usize,
                "feat rows are u32-indexed"
            );
            event_feat[idx] = ev.feat_idx as u32;
            for (node, other) in [(ev.src, ev.dst), (ev.dst, ev.src)] {
                let c = cursor[node];
                cursor[node] += 1;
                neighbor[c] = other as u32;
                ts[c] = ev.t;
                event_idx[c] = idx as u32;
            }
        }
        #[cfg(debug_assertions)]
        for v in 0..num_nodes {
            let run = &ts[offsets[v]..offsets[v + 1]];
            debug_assert!(run.windows(2).all(|w| w[0] <= w[1]));
        }
        NeighborFinder {
            offsets,
            neighbor,
            ts,
            event_idx,
            event_feat,
        }
    }

    /// Take the CSR apart, for the paged store to write.
    pub(crate) fn into_columns(self) -> CsrColumns {
        (
            self.offsets,
            self.neighbor,
            self.ts,
            self.event_idx,
            self.event_feat,
        )
    }

    /// All interactions of `node` strictly before `t`, time-sorted.
    #[inline]
    pub fn before(&self, node: usize, t: f64) -> NeighborSlice<'_> {
        let (s, e) = (self.offsets[node], self.offsets[node + 1]);
        let ts = &self.ts[s..e];
        let cut = ts.partition_point(|&x| x < t);
        NeighborSlice {
            neighbor: &self.neighbor[s..s + cut],
            ts: &ts[..cut],
            event_idx: &self.event_idx[s..s + cut],
        }
    }
}

impl Adjacency for NeighborFinder {
    #[inline]
    fn window<'s>(
        &'s self,
        node: usize,
        t: f64,
        _tail: Option<usize>,
        _buf: &'s mut Window,
    ) -> NeighborSlice<'s> {
        self.before(node, t)
    }

    fn event_feat(&self) -> &[u32] {
        &self.event_feat
    }
}

/// Batched multi-hop frontier expansion: expand every `(roots[i],
/// times[i])` root `k`-wide for `hops` levels into flat per-hop arrays.
///
/// Each root owns an independent RNG stream seeded by
/// [`frontier_stream_seed`]`(seed, root_index)` and is expanded
/// depth-complete before the next, so the result depends only on
/// `(roots, times, k, hops, strategy, seed)` — never on thread count or
/// scheduling. Large batches fan out over the worker pool in contiguous
/// root ranges; padded slots (short histories) carry the parent's time
/// and a `false` mask, and are themselves expanded at deeper hops
/// exactly like the recursive per-node code did.
///
/// Monomorphised per backend: one code path serves both the resident CSR
/// and the paged store, so the schedule — and therefore every output bit —
/// cannot drift between them, and no slot pays a backend dispatch.
pub(crate) fn expand_frontier<B: Adjacency + ?Sized>(
    backend: &B,
    roots: &[usize],
    times: &[f64],
    k: usize,
    hops: usize,
    strategy: SamplingStrategy,
    seed: u64,
) -> Frontier {
    {
        assert_eq!(roots.len(), times.len(), "roots/times length mismatch");
        let n = roots.len();
        let mut levels = Vec::with_capacity(hops);
        let mut width = 1usize;
        for _ in 0..hops {
            width *= k;
            levels.push(FrontierHop::zeroed(n * width));
        }
        if n == 0 || k == 0 || hops == 0 {
            return Frontier { k, hops: levels };
        }

        let p = pool();
        let total_slots: usize = levels.iter().map(FrontierHop::len).sum();
        benchtemp_obs::counters::FRONTIER_NODES_EXPANDED.add(total_slots as u64);
        let chunk = if p.workers() == 1 || total_slots < FRONTIER_PAR_SLOTS {
            n
        } else {
            n.div_ceil(p.threads()).max(1)
        };
        let n_tasks = n.div_ceil(chunk);

        // Split all six columns of every level into per-task windows in
        // lockstep: task `ti` owns the slots of roots `ti*chunk..` at every
        // hop, so the expansion tasks write disjoint memory.
        let mut views: Vec<Vec<HopChunk<'_>>> =
            (0..n_tasks).map(|_| Vec::with_capacity(hops)).collect();
        let mut width = 1usize;
        for level in levels.iter_mut() {
            width *= k;
            let mut nodes = level.nodes.as_mut_slice();
            let mut ts = level.times.as_mut_slice();
            let mut evs = level.event_idx.as_mut_slice();
            let mut feats = level.feat_idx.as_mut_slice();
            let mut dts = level.dts.as_mut_slice();
            let mut mask = level.mask.as_mut_slice();
            for (ti, view) in views.iter_mut().enumerate() {
                let take = chunk.min(n - ti * chunk) * width;
                let (a, rest) = std::mem::take(&mut nodes).split_at_mut(take);
                nodes = rest;
                let (b, rest) = std::mem::take(&mut ts).split_at_mut(take);
                ts = rest;
                let (c, rest) = std::mem::take(&mut evs).split_at_mut(take);
                evs = rest;
                let (f, rest) = std::mem::take(&mut feats).split_at_mut(take);
                feats = rest;
                let (d, rest) = std::mem::take(&mut dts).split_at_mut(take);
                dts = rest;
                let (e, rest) = std::mem::take(&mut mask).split_at_mut(take);
                mask = rest;
                view.push(HopChunk {
                    nodes: a,
                    times: b,
                    event_idx: c,
                    feat_idx: f,
                    dts: d,
                    mask: e,
                });
            }
        }

        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = views
            .into_iter()
            .enumerate()
            .map(|(ti, mut view)| {
                let start = ti * chunk;
                let end = (start + chunk).min(n);
                let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    expand_root_range(
                        backend,
                        roots,
                        times,
                        start..end,
                        k,
                        strategy,
                        seed,
                        &mut view,
                    );
                });
                task
            })
            .collect();
        p.scope_run(tasks);

        Frontier { k, hops: levels }
    }
}

/// Expand roots `range` depth-complete, one private RNG stream per root.
#[allow(clippy::too_many_arguments)]
fn expand_root_range<B: Adjacency + ?Sized>(
    backend: &B,
    roots: &[usize],
    times: &[f64],
    range: std::ops::Range<usize>,
    k: usize,
    strategy: SamplingStrategy,
    seed: u64,
    view: &mut [HopChunk<'_>],
) {
    let mut scratch = SampleScratch::new();
    let mut buf: Vec<NeighborEvent> = Vec::with_capacity(k);
    let start = range.start;
    for r in range {
        let local = r - start;
        let mut rng = SeededRng::seed_from_u64(frontier_stream_seed(seed, r as u64));
        let mut parents = 1usize;
        for l in 0..view.len() {
            let (done, rest) = view.split_at_mut(l);
            let cur = &mut rest[0];
            for j in 0..parents {
                let slot = local * parents + j;
                let (pn, pt) = if l == 0 {
                    (roots[r], times[r])
                } else {
                    let prev = &done[l - 1];
                    (prev.nodes[slot], prev.times[slot])
                };
                sample_into(
                    backend,
                    pn,
                    pt,
                    k,
                    strategy,
                    &mut rng,
                    &mut scratch,
                    &mut buf,
                );
                write_slots(&buf, backend.event_feat(), pt, k, cur, slot * k);
            }
            parents *= k;
        }
    }
}

/// The strategy dispatch of [`sample_into`], over an already-cut history
/// window. Both backends funnel through this one function — the resident
/// path with a borrowed CSR slice, the paged path with a
/// scratch-materialised copy of the same bytes — so identical window
/// contents imply identical RNG consumption and identical output bits.
/// That equality *is* the paged backend's bit-identity argument
/// (DESIGN.md §15).
///
/// `hist` must be the full strictly-before-`t` window for the RNG-driven
/// strategies (draw ranges depend on its length); for `MostRecent` (which
/// consumes no randomness) a tail of at least `min(k, window_len)`
/// entries yields the same output.
fn sample_slice_into(
    hist: NeighborSlice<'_>,
    t: f64,
    k: usize,
    strategy: SamplingStrategy,
    rng: &mut SeededRng,
    cum: &mut Vec<f64>,
    out: &mut Vec<NeighborEvent>,
) {
    if hist.is_empty() || k == 0 {
        return;
    }
    match strategy {
        SamplingStrategy::MostRecent => {
            let start = hist.len().saturating_sub(k);
            out.extend((start..hist.len()).map(|i| hist.get(i)));
        }
        SamplingStrategy::Uniform => fill_uniform(hist, k, rng, out),
        SamplingStrategy::TemporalExp { alpha } => {
            let acc = fill_cum(cum, hist.ts(), |x| (alpha * (x - t)).exp());
            fill_weighted(hist, cum, acc, k, rng, out);
        }
        SamplingStrategy::TemporalSafe => {
            let acc = fill_cum(cum, hist.ts(), |x| safe_weight(t, x));
            fill_weighted(hist, cum, acc, k, rng, out);
        }
    }
}

/// Scalar counterpart of [`sample_slice_into`] (k = 1, no output buffer);
/// same backend-sharing contract.
fn sample_slice_one(
    hist: NeighborSlice<'_>,
    t: f64,
    strategy: SamplingStrategy,
    rng: &mut SeededRng,
    cum: &mut Vec<f64>,
) -> Option<NeighborEvent> {
    if hist.is_empty() {
        return None;
    }
    Some(match strategy {
        SamplingStrategy::MostRecent => hist.get(hist.len() - 1),
        SamplingStrategy::Uniform => hist.get(rng.gen_range(0..hist.len())),
        SamplingStrategy::TemporalExp { alpha } => {
            let acc = fill_cum(cum, hist.ts(), |x| (alpha * (x - t)).exp());
            pick_weighted(hist, cum, acc, rng)
        }
        SamplingStrategy::TemporalSafe => {
            let acc = fill_cum(cum, hist.ts(), |x| safe_weight(t, x));
            pick_weighted(hist, cum, acc, rng)
        }
    })
}

/// Appendix-C Eq. 2–3 overflow-safe weight for a history timestamp `x < t`.
#[inline]
fn safe_weight(t: f64, x: f64) -> f64 {
    let d = t - x;
    if d <= 0.0 {
        1.0
    } else {
        1.0 / d
    }
}

/// Uniform with replacement — also the shared fallback for degenerate
/// weighted totals, so both paths stay in lockstep.
#[inline]
fn fill_uniform(
    hist: NeighborSlice<'_>,
    k: usize,
    rng: &mut SeededRng,
    out: &mut Vec<NeighborEvent>,
) {
    out.extend((0..k).map(|_| hist.get(rng.gen_range(0..hist.len()))));
}

/// A weight total too small (zero, negative, subnormal) or non-finite makes
/// `gen_range(0.0..acc)` ill-defined or hopelessly biased toward the last
/// index; treat it as "no usable signal" and sample uniformly instead.
#[inline]
fn weights_degenerate(acc: f64) -> bool {
    !acc.is_finite() || acc < f64::MIN_POSITIVE
}

#[inline]
fn pick_weighted(
    hist: NeighborSlice<'_>,
    cum: &[f64],
    acc: f64,
    rng: &mut SeededRng,
) -> NeighborEvent {
    if weights_degenerate(acc) {
        return hist.get(rng.gen_range(0..hist.len()));
    }
    let x = rng.gen_range(0.0..acc);
    let idx = cum.partition_point(|&c| c <= x);
    hist.get(idx.min(hist.len() - 1))
}

#[inline]
fn fill_weighted(
    hist: NeighborSlice<'_>,
    cum: &[f64],
    acc: f64,
    k: usize,
    rng: &mut SeededRng,
    out: &mut Vec<NeighborEvent>,
) {
    if weights_degenerate(acc) {
        fill_uniform(hist, k, rng, out);
        return;
    }
    out.extend((0..k).map(|_| {
        let x = rng.gen_range(0.0..acc);
        let idx = cum.partition_point(|&c| c <= x);
        hist.get(idx.min(hist.len() - 1))
    }));
}

/// Write one parent's `k` slots: real samples first, then padding carrying
/// the parent's time with a `false` mask. `event_feat` maps event idx →
/// edge-feature row; padded slots resolve to row 0, matching the masked
/// fallback the per-slot model code applied.
fn write_slots(
    samples: &[NeighborEvent],
    event_feat: &[u32],
    parent_t: f64,
    k: usize,
    out: &mut HopChunk<'_>,
    base: usize,
) {
    for (i, ev) in samples.iter().enumerate() {
        let s = base + i;
        out.nodes[s] = ev.neighbor;
        out.times[s] = ev.t;
        out.event_idx[s] = ev.event_idx;
        out.feat_idx[s] = event_feat[ev.event_idx] as usize;
        out.dts[s] = (parent_t - ev.t).max(0.0) as f32;
        out.mask[s] = true;
    }
    for s in (base + samples.len())..(base + k) {
        out.nodes[s] = 0;
        out.times[s] = parent_t;
        out.event_idx[s] = 0;
        out.feat_idx[s] = 0;
        out.dts[s] = 0.0;
        out.mask[s] = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paged::NeighborBackend;
    use benchtemp_tensor::init::rng;

    /// `k` owned samples through the public sampling surface.
    fn sample_vec(
        nf: &NeighborFinder,
        node: usize,
        t: f64,
        k: usize,
        strategy: SamplingStrategy,
        rng: &mut SeededRng,
    ) -> Vec<NeighborEvent> {
        let mut out = Vec::new();
        NeighborBackend::Resident(nf).sample_into(
            node,
            t,
            k,
            strategy,
            rng,
            &mut SampleScratch::new(),
            &mut out,
        );
        out
    }

    fn events() -> Vec<Interaction> {
        vec![
            Interaction {
                src: 0,
                dst: 1,
                t: 1.0,
                feat_idx: 0,
            },
            Interaction {
                src: 0,
                dst: 2,
                t: 2.0,
                feat_idx: 1,
            },
            Interaction {
                src: 1,
                dst: 2,
                t: 3.0,
                feat_idx: 2,
            },
            Interaction {
                src: 0,
                dst: 1,
                t: 4.0,
                feat_idx: 3,
            },
        ]
    }

    #[test]
    fn before_is_strict_and_sorted() {
        let nf = NeighborFinder::from_events(3, &events());
        let h = nf.before(0, 4.0);
        assert_eq!(h.len(), 2);
        assert_eq!(h.get(0).neighbor, 1);
        assert_eq!(h.get(1).neighbor, 2);
        // strictness: the t=4.0 event is excluded at t=4.0
        assert_eq!(nf.before(0, 4.5).len(), 3);
        assert_eq!(nf.before(0, 1.0).len(), 0);
    }

    #[test]
    fn both_directions_indexed() {
        let nf = NeighborFinder::from_events(3, &events());
        // node 2 appears only as dst but must still have history.
        assert_eq!(nf.before(2, f64::INFINITY).len(), 2);
        assert_eq!(nf.before(2, 10.0).get(0).neighbor, 0);
    }

    #[test]
    fn most_recent_takes_tail() {
        let nf = NeighborFinder::from_events(3, &events());
        let mut r = rng(1);
        let s = sample_vec(&nf, 0, 10.0, 2, SamplingStrategy::MostRecent, &mut r);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].t, 2.0);
        assert_eq!(s[1].t, 4.0);
    }

    #[test]
    fn uniform_fills_k_with_replacement() {
        let nf = NeighborFinder::from_events(3, &events());
        let mut r = rng(1);
        let s = sample_vec(&nf, 0, 10.0, 8, SamplingStrategy::Uniform, &mut r);
        assert_eq!(s.len(), 8);
        assert!(s.iter().all(|e| e.t < 10.0));
    }

    #[test]
    fn empty_history_returns_empty() {
        let nf = NeighborFinder::from_events(4, &events());
        let mut r = rng(1);
        assert!(sample_vec(&nf, 3, 10.0, 4, SamplingStrategy::Uniform, &mut r).is_empty());
    }

    #[test]
    fn temporal_exp_prefers_recent() {
        // Node 0 history at t ∈ {1, 2, 4}; strong recency bias should pick
        // t = 4 nearly always.
        let nf = NeighborFinder::from_events(3, &events());
        let mut r = rng(1);
        let s = sample_vec(
            &nf,
            0,
            5.0,
            200,
            SamplingStrategy::TemporalExp { alpha: 5.0 },
            &mut r,
        );
        let recent = s.iter().filter(|e| e.t == 4.0).count();
        assert!(recent > 180, "only {recent}/200 picked the recent event");
    }

    #[test]
    fn temporal_exp_underflow_falls_back_to_uniform() {
        // Huge time gaps: exp(α·(t′−t)) underflows to 0 for every candidate
        // (the overflow/underflow problem Appendix C fixes). Sampling must
        // still return k entries.
        let evs = vec![
            Interaction {
                src: 0,
                dst: 1,
                t: 0.0,
                feat_idx: 0,
            },
            Interaction {
                src: 0,
                dst: 2,
                t: 1.0,
                feat_idx: 1,
            },
        ];
        let nf = NeighborFinder::from_events(3, &evs);
        let mut r = rng(1);
        let s = sample_vec(
            &nf,
            0,
            1.0e9,
            10,
            SamplingStrategy::TemporalExp { alpha: 1.0 },
            &mut r,
        );
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn subnormal_weight_total_falls_back_to_uniform() {
        // A single candidate whose 1/(t−t′) weight is subnormal: the
        // cumulative total is below f64::MIN_POSITIVE, so weighted draws
        // would be ill-defined. The guard must route to the uniform
        // fallback — k entries, no panic, no last-index bias.
        let evs = vec![
            Interaction {
                src: 0,
                dst: 1,
                t: 0.0,
                feat_idx: 0,
            },
            Interaction {
                src: 0,
                dst: 2,
                t: 1.0,
                feat_idx: 1,
            },
        ];
        let nf = NeighborFinder::from_events(3, &evs);
        let mut r = rng(7);
        let s = sample_vec(&nf, 0, 1.7e308, 400, SamplingStrategy::TemporalSafe, &mut r);
        assert_eq!(s.len(), 400);
        let first = s.iter().filter(|e| e.t == 0.0).count();
        // Uniform fallback: both candidates drawn, neither starved.
        assert!(
            first > 100 && first < 300,
            "fallback should be uniform, got {first}/400 for the first event"
        );
    }

    #[test]
    fn temporal_safe_handles_large_granularity() {
        // Same huge gaps: the safe weighting still prefers the more recent
        // event but never under/overflows.
        let evs = vec![
            Interaction {
                src: 0,
                dst: 1,
                t: 0.0,
                feat_idx: 0,
            },
            Interaction {
                src: 0,
                dst: 2,
                t: 9.0e8,
                feat_idx: 1,
            },
        ];
        let nf = NeighborFinder::from_events(3, &evs);
        let mut r = rng(1);
        let s = sample_vec(&nf, 0, 1.0e9, 300, SamplingStrategy::TemporalSafe, &mut r);
        let recent = s.iter().filter(|e| e.t > 0.0).count();
        assert!(
            recent > 250,
            "safe weighting should prefer recent: {recent}/300"
        );
    }

    #[test]
    fn matches_naive_scan() {
        let g = crate::generators::GeneratorConfig::small("nf", 5).generate();
        let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
        for &t in &[0.0, 123.4, 500.0, 1500.0] {
            for node in 0..g.num_nodes.min(20) {
                let naive: Vec<usize> = g
                    .events
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.t < t && (e.src == node || e.dst == node))
                    .map(|(i, _)| i)
                    .collect();
                let fast: Vec<usize> = nf.before(node, t).iter().map(|e| e.event_idx).collect();
                assert_eq!(naive, fast, "node {node} t {t}");
            }
        }
    }

    #[test]
    fn sample_one_matches_k1_stream() {
        // sample_one must consume the RNG exactly like sample_into(k=1)
        // so walk engines keep their pre-CSR sampling streams.
        let g = crate::generators::GeneratorConfig::small("k1", 9).generate();
        let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
        let strategies = [
            SamplingStrategy::MostRecent,
            SamplingStrategy::Uniform,
            SamplingStrategy::TemporalExp { alpha: 0.1 },
            SamplingStrategy::TemporalSafe,
        ];
        for strat in strategies {
            let mut r1 = rng(42);
            let mut r2 = rng(42);
            let mut scratch = SampleScratch::new();
            for node in 0..g.num_nodes.min(30) {
                for &t in &[0.0, 250.0, 700.0, 1200.0] {
                    let a = sample_vec(&nf, node, t, 1, strat, &mut r1);
                    let b = NeighborBackend::Resident(&nf).sample_one(
                        node,
                        t,
                        strat,
                        &mut r2,
                        &mut scratch,
                    );
                    assert_eq!(a.first().copied(), b, "node {node} t {t} {strat:?}");
                }
            }
        }
    }

    #[test]
    fn frontier_hop1_matches_per_root_streams() {
        // The documented contract: root r's slots equal sample_into driven
        // by an RNG seeded with frontier_stream_seed(seed, r).
        let g = crate::generators::GeneratorConfig::small("fr", 11).generate();
        let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
        let roots: Vec<usize> = (0..40).map(|i| i % g.num_nodes).collect();
        let times: Vec<f64> = (0..40).map(|i| 100.0 + 20.0 * i as f64).collect();
        let k = 5;
        let seed = 0xBEEF;
        let nb = NeighborBackend::Resident(&nf);
        let f = nb.sample_frontier(&roots, &times, k, 1, SamplingStrategy::Uniform, seed);
        let hop = &f.hops[0];
        let mut scratch = SampleScratch::new();
        let mut buf = Vec::new();
        for (r, (&node, &t)) in roots.iter().zip(&times).enumerate() {
            let mut rs = SeededRng::seed_from_u64(frontier_stream_seed(seed, r as u64));
            nb.sample_into(
                node,
                t,
                k,
                SamplingStrategy::Uniform,
                &mut rs,
                &mut scratch,
                &mut buf,
            );
            for j in 0..k {
                let s = r * k + j;
                if j < buf.len() {
                    assert!(hop.mask[s]);
                    assert_eq!(hop.nodes[s], buf[j].neighbor);
                    assert_eq!(hop.times[s].to_bits(), buf[j].t.to_bits());
                    assert_eq!(hop.event_idx[s], buf[j].event_idx);
                    assert_eq!(hop.feat_idx[s], g.events[buf[j].event_idx].feat_idx);
                    assert_eq!(
                        hop.dts[s].to_bits(),
                        (((t - buf[j].t).max(0.0)) as f32).to_bits()
                    );
                } else {
                    assert!(!hop.mask[s]);
                    assert_eq!(hop.nodes[s], 0);
                    assert_eq!(hop.feat_idx[s], 0);
                    assert_eq!(hop.times[s].to_bits(), t.to_bits());
                }
            }
        }
    }

    #[test]
    fn frontier_is_seed_deterministic_and_leak_free() {
        let g = crate::generators::GeneratorConfig::small("fd", 13).generate();
        let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
        let roots: Vec<usize> = (0..25).map(|i| (3 * i) % g.num_nodes).collect();
        let times: Vec<f64> = (0..25).map(|i| 50.0 + 35.0 * i as f64).collect();
        let nb = NeighborBackend::Resident(&nf);
        let a = nb.sample_frontier(&roots, &times, 4, 2, SamplingStrategy::TemporalSafe, 1);
        let b = nb.sample_frontier(&roots, &times, 4, 2, SamplingStrategy::TemporalSafe, 1);
        let c = nb.sample_frontier(&roots, &times, 4, 2, SamplingStrategy::TemporalSafe, 2);
        for (ha, hb) in a.hops.iter().zip(&b.hops) {
            assert_eq!(ha.nodes, hb.nodes);
            assert_eq!(ha.event_idx, hb.event_idx);
            assert_eq!(ha.feat_idx, hb.feat_idx);
            assert_eq!(ha.mask, hb.mask);
            assert!(ha
                .times
                .iter()
                .zip(&hb.times)
                .all(|(x, y)| x.to_bits() == y.to_bits()));
            assert!(ha
                .dts
                .iter()
                .zip(&hb.dts)
                .all(|(x, y)| x.to_bits() == y.to_bits()));
        }
        assert_ne!(a.hops[0].nodes, c.hops[0].nodes, "seed must matter");
        // No future leak: every real hop-0 sample precedes its root time,
        // and every real hop-1 sample precedes its parent slot time.
        for (s, &m) in a.hops[0].mask.iter().enumerate() {
            if m {
                assert!(a.hops[0].times[s] < times[s / 4]);
            }
        }
        for (s, &m) in a.hops[1].mask.iter().enumerate() {
            if m {
                assert!(a.hops[1].times[s] < a.hops[0].times[s / 4]);
            }
        }
        // Shapes: hop l holds roots * k^(l+1) slots.
        assert_eq!(a.hops[0].len(), 25 * 4);
        assert_eq!(a.hops[1].len(), 25 * 16);
    }
}
