//! `benchtemp-store`: a read-only paged adjacency file for the
//! out-of-core sampler.
//!
//! The store pages the *payload* of a temporal graph's CSR adjacency —
//! the SoA columns (neighbor, timestamp, event index) — on fixed-size
//! disk pages behind a CLOCK cache with a byte budget (`cache.rs`), while
//! the *index* (per-node CSR offsets and the per-event feature-row map)
//! stays resident: ~8 bytes per node plus 4 bytes per event, well below
//! the 16 bytes per adjacency entry that page out. Events and edge
//! features stay resident in the caller's graph, so the store holds
//! adjacency only. The caller builds the CSR in memory (the graph crate's
//! `NeighborFinder::from_events`, its one CSR builder);
//! [`TemporalStore::write`] spills the three payload columns to disk once,
//! sequentially, keeps the index, and from then on only reads.
//!
//! Layout inside a store directory:
//!
//! | file | contents |
//! |---|---|
//! | `store.pages` | the neighbor, timestamp and event-index columns, one after another, each zero-padded to a page boundary |

mod cache;
mod pager;

use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use benchtemp_obs::counters::STORE_BULK_EVENTS;
use benchtemp_util::env::{self, Knob};

use cache::CachedPager;
use pager::{PageId, PAGE_SIZE};

/// Store construction knobs.
#[derive(Clone, Debug, Default)]
pub struct StoreOptions {
    /// Page-cache budget in bytes; `None` uses the process-wide
    /// `BENCHTEMP_PAGE_CACHE_MB` default.
    pub cache_budget_bytes: Option<usize>,
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

/// A store column: a run of consecutive pages from `first_page` holding
/// `len_bytes` bytes. Every access resolves `byte offset → (page,
/// within-page offset)`.
struct Column {
    first_page: PageId,
    len_bytes: u64,
}

impl Column {
    /// Append `elems` to `w`, which stands at the start of page
    /// `first_page`, and zero-pad to the next page boundary.
    fn write<const N: usize>(
        w: &mut impl Write,
        first_page: PageId,
        elems: impl Iterator<Item = [u8; N]>,
    ) -> io::Result<Column> {
        let mut len_bytes = 0u64;
        for e in elems {
            w.write_all(&e)?;
            len_bytes += N as u64;
        }
        let pad = len_bytes.next_multiple_of(PAGE_SIZE as u64) - len_bytes;
        io::copy(&mut io::repeat(0).take(pad), w)?;
        Ok(Column {
            first_page,
            len_bytes,
        })
    }

    /// The first page past this column.
    fn end_page(&self) -> PageId {
        self.first_page + self.len_bytes.div_ceil(PAGE_SIZE as u64)
    }

    /// Hand `f` the bytes `[off, off + len)` one page span at a time, in
    /// order, straight from the cached pages. Pages hold whole column
    /// elements, so a span never splits an element of an aligned read.
    fn visit_bytes(
        &self,
        cp: &CachedPager,
        mut off: u64,
        len: usize,
        mut f: impl FnMut(&[u8]),
    ) -> io::Result<()> {
        let end = off + len as u64;
        debug_assert!(end <= self.len_bytes);
        while off < end {
            let page = self.first_page + off / PAGE_SIZE as u64;
            let within = (off % PAGE_SIZE as u64) as usize;
            let take = (PAGE_SIZE - within).min((end - off) as usize);
            cp.with_page(page, |buf| f(&buf[within..within + take]))?;
            off += take as u64;
        }
        Ok(())
    }
}

/// The paged temporal adjacency store.
pub struct TemporalStore {
    cp: CachedPager,
    /// The paged adjacency SoA columns, one entry per (node, event)
    /// endpoint.
    nbr: Column,
    ts: Column,
    evi: Column,
    /// Resident index: CSR offsets in adjacency entries, `num_nodes + 1`.
    offsets: Vec<usize>,
    /// Resident index: edge-feature row per event.
    event_feat: Vec<u32>,
}

impl TemporalStore {
    /// Write a CSR adjacency to a fresh `store.pages` in `dir`, replacing
    /// any page file there, and open it read-only behind the page cache.
    /// `neighbor`, `ts` and `event_idx` (one entry per adjacency entry)
    /// go to disk in that order, each starting on a page boundary, with
    /// one `sync_data`; `offsets` (`num_nodes + 1` entries) and
    /// `event_feat` (one row per event) stay resident.
    pub fn write(
        dir: &Path,
        offsets: Vec<usize>,
        neighbor: &[u32],
        ts: &[f64],
        event_idx: &[u32],
        event_feat: Vec<u32>,
        opts: &StoreOptions,
    ) -> io::Result<Self> {
        let entries = offsets.last().copied().unwrap_or(0);
        assert!(
            [neighbor.len(), ts.len(), event_idx.len()] == [entries; 3],
            "every column holds one value per adjacency entry"
        );
        let _span = benchtemp_obs::span("store.bulk_load");
        std::fs::create_dir_all(dir)?;
        let path = dir.join("store.pages");
        let mut w = BufWriter::new(File::create(&path)?);
        let nbr = Column::write(&mut w, 0, neighbor.iter().map(|x| x.to_le_bytes()))?;
        let ts = Column::write(&mut w, nbr.end_page(), ts.iter().map(|x| x.to_le_bytes()))?;
        let evi = Column::write(
            &mut w,
            ts.end_page(),
            event_idx.iter().map(|x| x.to_le_bytes()),
        )?;
        w.into_inner()
            .map_err(io::IntoInnerError::into_error)?
            .sync_data()?;
        STORE_BULK_EVENTS.add(event_feat.len() as u64);
        Ok(TemporalStore {
            cp: CachedPager::open(&path, opts.cache_budget_bytes)?,
            nbr,
            ts,
            evi,
            offsets,
            event_feat,
        })
    }

    pub fn num_entries(&self) -> u64 {
        self.offsets.last().copied().unwrap_or(0) as u64
    }

    /// A node's adjacency-entry range `[start, end)`.
    #[inline]
    pub fn node_range(&self, node: usize) -> (u64, u64) {
        (self.offsets[node] as u64, self.offsets[node + 1] as u64)
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
        self.ts.visit_bytes(&self.cp, entry * 8, 8, |b| {
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
        for (col, out) in [(&self.nbr, &mut *nbr), (&self.evi, &mut *evi)] {
            out.reserve(n);
            col.visit_bytes(&self.cp, start * 4, n * 4, |b| {
                out.extend(b.chunks_exact(4).map(|c| {
                    u32::from_le_bytes(c.try_into().expect("chunks_exact(4) yields 4 bytes"))
                }));
            })?;
        }
        ts.reserve(n);
        self.ts.visit_bytes(&self.cp, start * 8, n * 8, |b| {
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

    /// Every adjacency entry of `node` as `(neighbor, t, event idx)`.
    fn adjacency(st: &TemporalStore, node: usize) -> Vec<(u32, f64, u32)> {
        let (s, e) = st.node_range(node);
        let (mut nbr, mut ts, mut evi) = (Vec::new(), Vec::new(), Vec::new());
        st.read_adj(s, e, &mut nbr, &mut ts, &mut evi).unwrap();
        (0..nbr.len()).map(|i| (nbr[i], ts[i], evi[i])).collect()
    }

    #[test]
    fn write_roundtrips_page_aligned_columns() {
        let dir = tmpdir("write");
        // 5,000 entries: the u32 columns span 3 pages, the f64 column 5,
        // each ending mid-page.
        let n = 5000;
        let offsets = vec![0, 2000, 4500, n];
        let neighbor: Vec<u32> = (0..n as u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        let ts: Vec<f64> = (0..n).map(|i| i as f64 * 0.25 - 7.0).collect();
        let event_idx: Vec<u32> = (0..n as u32).map(|i| i / 2).collect();
        let event_feat: Vec<u32> = (0..n as u32 / 2).map(|i| i ^ 0x55).collect();
        // The four-frame floor, so the reads below evict.
        let opts = StoreOptions {
            cache_budget_bytes: Some(1),
        };
        let st = TemporalStore::write(
            &dir,
            offsets.clone(),
            &neighbor,
            &ts,
            &event_idx,
            event_feat.clone(),
            &opts,
        )
        .unwrap();
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["store.pages"], "a load leaves only the page file");

        // Columns start on page boundaries in the order neighbor, ts,
        // event idx, and the padding is zero.
        let bytes = std::fs::read(dir.join("store.pages")).unwrap();
        assert_eq!(bytes.len(), (3 + 5 + 3) * PAGE_SIZE);
        let page = |p: usize| &bytes[p * PAGE_SIZE..];
        assert_eq!(page(0)[..4], neighbor[0].to_le_bytes());
        assert_eq!(page(3)[..8], ts[0].to_bits().to_le_bytes());
        assert_eq!(page(8)[..4], event_idx[0].to_le_bytes());
        assert!(bytes[n * 4..3 * PAGE_SIZE].iter().all(|&b| b == 0));

        for node in 0..3 {
            let expect: Vec<(u32, f64, u32)> = (offsets[node]..offsets[node + 1])
                .map(|i| (neighbor[i], ts[i], event_idx[i]))
                .collect();
            assert_eq!(adjacency(&st, node), expect, "node {node}");
        }
        for i in [0, 1023, 1024, 2047, 2048, n - 1] {
            assert_eq!(st.ts_at(i as u64).unwrap(), ts[i], "entry {i}");
        }
        assert_eq!(st.event_feat(), event_feat);
        drop(st);

        // An empty adjacency writes an empty file and reads empty windows.
        let st = TemporalStore::write(&dir, vec![0, 0], &[], &[], &[], vec![], &opts).unwrap();
        assert_eq!(std::fs::metadata(dir.join("store.pages")).unwrap().len(), 0);
        assert_eq!(st.node_range(0), (0, 0));
        assert!(adjacency(&st, 0).is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
