//! `benchtemp-store`: a read-only, bulk-loaded paged adjacency file for
//! the out-of-core sampler.
//!
//! The store pages the *payload* of a temporal graph's CSR adjacency —
//! the SoA columns (neighbor, timestamp, event index) — on fixed-size
//! disk pages behind a CLOCK cache with a byte budget (`cache.rs`), while
//! the *index* (per-node CSR offsets and the per-event feature-row map)
//! stays resident: ~8 bytes per node plus 4 bytes per event, well below
//! the 16 bytes per adjacency entry that page out. Events and edge
//! features stay resident in the caller's graph, so the store holds
//! adjacency only. A store is built once by the external-sort bulk
//! loader (`bulkload.rs`) and then only read.
//!
//! Layout inside a store directory:
//!
//! | file | contents |
//! |---|---|
//! | `store.pages` | the neighbor, timestamp and event-index columns, one after another |

mod bulkload;
mod cache;
mod pager;

use std::io;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use benchtemp_util::env::{self, Knob};

use cache::CachedPager;
use pager::{PageId, PAGE_SIZE};

/// One temporal interaction as the store frames it (plain-old-data; the
/// graph crate adapts its richer `Interaction` down to this).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StoreEvent {
    pub src: u32,
    pub dst: u32,
    pub t: f64,
    /// Edge-feature row of this event.
    pub feat: u32,
}

/// Store construction knobs.
#[derive(Clone, Debug)]
pub struct StoreOptions {
    /// Page-cache budget in bytes; `None` uses the process-wide
    /// `BENCHTEMP_PAGE_CACHE_MB` default.
    pub cache_budget_bytes: Option<usize>,
    /// Events per external-sort run (the bulk loader's peak event
    /// residency).
    pub run_events: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            cache_budget_bytes: None,
            run_events: 1 << 16,
        }
    }
}

/// Base directory for stores whose caller did not pick one, from
/// `BENCHTEMP_STORE_DIR` (default: the system temp dir). Read exactly
/// once per process.
pub fn default_store_dir() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        env::var(Knob::StoreDir)
            .map(PathBuf::from)
            .unwrap_or_else(|| std::env::temp_dir().join("benchtemp-store"))
    })
}

/// A store column: an ordered page table plus a byte length. Every
/// access resolves `byte offset → (page table slot, within-page offset)`.
pub(crate) struct Column {
    pages: Vec<PageId>,
    len_bytes: u64,
}

impl Column {
    pub(crate) fn with_len(cp: &CachedPager, len_bytes: u64) -> Column {
        let n = (len_bytes as usize).div_ceil(PAGE_SIZE);
        Column {
            pages: (0..n).map(|_| cp.alloc()).collect(),
            len_bytes,
        }
    }

    /// Hand `f` the bytes `[off, off + len)` one page span at a time, in
    /// order, straight from the cached pages. Pages hold whole column
    /// elements, so a span never splits an element of an aligned read.
    pub(crate) fn visit_bytes(
        &self,
        cp: &CachedPager,
        mut off: u64,
        len: usize,
        mut f: impl FnMut(&[u8]),
    ) -> io::Result<()> {
        let end = off + len as u64;
        debug_assert!(end <= self.len_bytes);
        while off < end {
            let page_idx = (off / PAGE_SIZE as u64) as usize;
            let within = (off % PAGE_SIZE as u64) as usize;
            let take = (PAGE_SIZE - within).min((end - off) as usize);
            cp.with_page(self.pages[page_idx], |buf| f(&buf[within..within + take]))?;
            off += take as u64;
        }
        Ok(())
    }

    pub(crate) fn write_bytes(
        &self,
        cp: &CachedPager,
        mut off: u64,
        mut data: &[u8],
    ) -> io::Result<()> {
        debug_assert!(off + data.len() as u64 <= self.len_bytes);
        while !data.is_empty() {
            let page_idx = (off / PAGE_SIZE as u64) as usize;
            let within = (off % PAGE_SIZE as u64) as usize;
            let take = (PAGE_SIZE - within).min(data.len());
            let (head, rest) = data.split_at(take);
            cp.with_page_mut(self.pages[page_idx], |buf| {
                buf[within..within + take].copy_from_slice(head)
            })?;
            data = rest;
            off += take as u64;
        }
        Ok(())
    }
}

/// The paged adjacency SoA columns, one entry per (node, event) endpoint.
pub(crate) struct Columns {
    pub(crate) nbr: Column,
    pub(crate) ts: Column,
    pub(crate) evi: Column,
}

/// The paged temporal adjacency store.
pub struct TemporalStore {
    cp: CachedPager,
    cols: Columns,
    /// Resident index: CSR offsets in adjacency entries, `num_nodes + 1`.
    offsets: Vec<u64>,
    /// Resident index: edge-feature row per event.
    event_feat: Vec<u32>,
}

impl TemporalStore {
    /// Bulk-load a fresh store from an event slice into `dir`, replacing
    /// any page file there. The directory holds only `store.pages`
    /// afterwards; the loader's temp files are removed on every exit path.
    pub fn bulk_load(
        dir: &Path,
        num_nodes: usize,
        events: &[StoreEvent],
        opts: &StoreOptions,
    ) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let cp = CachedPager::create(&dir.join("store.pages"), opts.cache_budget_bytes)?;
        let (cols, offsets, event_feat) =
            bulkload::build(dir, &cp, num_nodes, events, opts.run_events)?;
        cp.flush()?;
        Ok(TemporalStore {
            cp,
            cols,
            offsets,
            event_feat,
        })
    }

    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn num_events(&self) -> u64 {
        self.event_feat.len() as u64
    }

    pub fn num_entries(&self) -> u64 {
        self.offsets[self.num_nodes()]
    }

    /// A node's adjacency-entry range `[start, end)`.
    #[inline]
    pub fn node_range(&self, node: usize) -> (u64, u64) {
        (self.offsets[node], self.offsets[node + 1])
    }

    /// Resident per-event edge-feature rows (indexed by event idx).
    #[inline]
    pub fn event_feat(&self) -> &[u32] {
        &self.event_feat
    }

    /// Timestamp of one adjacency entry (element-granular paged read, for
    /// binary searches that must not materialise the window).
    pub fn ts_at(&self, entry: u64) -> io::Result<f64> {
        let mut t = 0.0;
        self.cols.ts.visit_bytes(&self.cp, entry * 8, 8, |b| {
            let b = b.try_into().expect("an aligned entry lies within one page");
            t = f64::from_bits(u64::from_le_bytes(b));
        })?;
        Ok(t)
    }

    /// Read adjacency entries `[start, end)` into SoA output vectors
    /// (appended; callers clear). Page-strided: one cache touch per page
    /// per column, not per element, each decoded straight from the cached
    /// page, so a read allocates nothing once the outputs have grown.
    pub fn read_adj(
        &self,
        start: u64,
        end: u64,
        nbr: &mut Vec<u32>,
        ts: &mut Vec<f64>,
        evi: &mut Vec<u32>,
    ) -> io::Result<()> {
        debug_assert!(start <= end && end <= self.num_entries());
        let n = (end - start) as usize;
        for (col, out) in [(&self.cols.nbr, &mut *nbr), (&self.cols.evi, &mut *evi)] {
            out.reserve(n);
            col.visit_bytes(&self.cp, start * 4, n * 4, |b| {
                out.extend(b.chunks_exact(4).map(|c| {
                    u32::from_le_bytes(c.try_into().expect("chunks_exact(4) yields 4 bytes"))
                }));
            })?;
        }
        ts.reserve(n);
        self.cols.ts.visit_bytes(&self.cp, start * 8, n * 8, |b| {
            ts.extend(b.chunks_exact(8).map(|c| {
                let c = c.try_into().expect("chunks_exact(8) yields 8 bytes");
                f64::from_bits(u64::from_le_bytes(c))
            }));
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("benchtemp-store-{}-{}", name, std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn events() -> Vec<StoreEvent> {
        (0..200)
            .map(|i| StoreEvent {
                src: i % 7,
                dst: 7 + (i % 5),
                t: i as f64,
                feat: i,
            })
            .collect()
    }

    /// Every adjacency entry of `node` as `(neighbor, t, event idx)`.
    fn adjacency(st: &TemporalStore, node: usize) -> Vec<(u32, f64, u32)> {
        let (s, e) = st.node_range(node);
        let (mut nbr, mut ts, mut evi) = (Vec::new(), Vec::new(), Vec::new());
        st.read_adj(s, e, &mut nbr, &mut ts, &mut evi).unwrap();
        (0..nbr.len()).map(|i| (nbr[i], ts[i], evi[i])).collect()
    }

    #[test]
    fn bulk_load_roundtrips_adjacency() {
        let dir = tmpdir("bulk");
        let evs = events();
        let st = TemporalStore::bulk_load(&dir, 12, &evs, &StoreOptions::default()).unwrap();
        assert_eq!(st.num_events(), 200);
        assert_eq!(st.num_entries(), 400);
        // Node 0 participates as src for i ≡ 0 (mod 7).
        let adj = adjacency(&st, 0);
        let expect: Vec<u32> = (0..200).filter(|i| i % 7 == 0).collect();
        assert_eq!(adj.iter().map(|a| a.2).collect::<Vec<_>>(), expect);
        assert!(adj.windows(2).all(|w| w[0].1 <= w[1].1));
        // Every entry round-trips its event: neighbor, time and feature row.
        for node in 0..12 {
            for (n, t, i) in adjacency(&st, node) {
                let ev = evs[i as usize];
                let other = if ev.src as usize == node {
                    ev.dst
                } else {
                    ev.src
                };
                assert_eq!((n, t), (other, ev.t), "node {node} event {i}");
                assert_eq!(st.event_feat()[i as usize], ev.feat);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn external_sort_orders_unsorted_input_stably() {
        let dir = tmpdir("sort");
        // Tiny runs force multiple spills and a real k-way merge; ties on
        // t must keep input order (stable).
        let mut evs = Vec::new();
        for i in 0..50u32 {
            evs.push(StoreEvent {
                src: 0,
                dst: 1,
                t: (50 - i) as f64,
                feat: i,
            });
            evs.push(StoreEvent {
                src: 0,
                dst: 1,
                t: (50 - i) as f64,
                feat: 1000 + i,
            });
        }
        let opts = StoreOptions {
            run_events: 8,
            ..Default::default()
        };
        let st = TemporalStore::bulk_load(&dir, 2, &evs, &opts).unwrap();
        // Node 0 touches every event once, so its adjacency lists the
        // merged order: event idx `k` is the k-th event after sorting.
        let adj = adjacency(&st, 0);
        assert_eq!(adj.len() as u64, st.num_events());
        let feat = st.event_feat();
        let mut last_t = f64::NEG_INFINITY;
        for (k, &(_, t, i)) in adj.iter().enumerate() {
            assert_eq!(i as usize, k);
            assert!(t >= last_t, "merge must be sorted");
            last_t = t;
            let src = &evs[(feat[k] % 1000) as usize * 2 + usize::from(feat[k] >= 1000)];
            assert_eq!(src.t, t, "event {k} carries its input timestamp");
        }
        // Stability: for each t the feat < 1000 twin precedes its 1000+ twin.
        for k in (0..adj.len()).step_by(2) {
            assert_eq!(adj[k].1, adj[k + 1].1);
            assert_eq!(feat[k] + 1000, feat[k + 1], "ties must keep input order");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bulk_load_leaves_only_the_page_file() {
        let files = |dir: &Path| -> Vec<String> {
            let mut names: Vec<String> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            names.sort();
            names
        };
        // Tiny runs so the loader spills several run files as well as the
        // merged one.
        let opts = StoreOptions {
            run_events: 8,
            ..Default::default()
        };

        // (a) A good load leaves exactly the page file.
        let dir = tmpdir("clean-ok");
        TemporalStore::bulk_load(&dir, 12, &events(), &opts).unwrap();
        assert_eq!(files(&dir), ["store.pages"]);
        std::fs::remove_dir_all(&dir).ok();

        // (b) An out-of-range endpoint is a typed error and leaves no
        // temp file behind.
        let dir = tmpdir("clean-err");
        let mut evs = events();
        evs[150].dst = 12;
        let err = TemporalStore::bulk_load(&dir, 12, &evs, &opts)
            .err()
            .expect("endpoint 12 must be rejected for 12 nodes");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let left = files(&dir);
        assert!(
            left.iter().all(|f| !f.ends_with(".tmp")),
            "temp files leaked: {left:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
