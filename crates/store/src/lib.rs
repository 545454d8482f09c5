//! `benchtemp-store`: out-of-core paged temporal graph storage.
//!
//! The store keeps the *payload* of a temporal graph — the CSR adjacency
//! SoA columns (neighbor, timestamp, event index), the sorted event
//! records, and the edge-feature matrix — on fixed-size disk pages behind
//! a CLOCK cache with a byte budget ([`crate::cache`]), while the *index*
//! (per-node CSR offsets and the per-event feature-row map) stays
//! resident: ~12 bytes per node plus 4 bytes per event, orders of
//! magnitude below the 20 bytes per adjacency entry plus features that
//! page out. Streaming ingest lands in a write-ahead log
//! ([`crate::wal`]); [`TemporalStore::seal`] folds the log into pages via
//! the external-sort bulk loader ([`crate::bulkload`]); snapshot/restore
//! round-trips the manifest plus an opaque resume blob
//! ([`crate::snapshot`]).
//!
//! Layout inside a store directory:
//!
//! | file | contents |
//! |---|---|
//! | `store.pages` | all pages (columns share one file + free list) |
//! | `manifest.bin` | page tables, counts, free list, checksummed |
//! | `wal.log` | fixed-frame event records not yet folded in |
//! | `snap_<tag>.bin` | tagged manifest copies with a resume blob |

pub mod bulkload;
pub mod cache;
pub mod pager;
pub mod snapshot;
pub mod wal;

use std::io;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use cache::CachedPager;
use pager::{PageId, PAGE_SIZE};
use snapshot::{Manifest, COL_EFEAT, COL_EVI, COL_EVT, COL_FEAT, COL_NBR, COL_OFF, COL_TS};
use wal::Wal;

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

/// On-disk size of one event record in the EVT column and bulk temp files.
pub const EVT_RECORD_BYTES: usize = 20;

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
        std::env::var("BENCHTEMP_STORE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| std::env::temp_dir().join("benchtemp-store"))
    })
}

/// A store column: an ordered page table plus a byte length. Pages are
/// not necessarily contiguous (the free list recycles), so every access
/// resolves `byte offset → (page table slot, within-page offset)`.
pub(crate) struct Column {
    pub(crate) pages: Vec<PageId>,
    pub(crate) len_bytes: u64,
}

impl Column {
    pub(crate) fn with_len(cp: &CachedPager, len_bytes: u64) -> Column {
        let n = (len_bytes as usize).div_ceil(PAGE_SIZE);
        Column {
            pages: (0..n).map(|_| cp.alloc()).collect(),
            len_bytes,
        }
    }

    pub(crate) fn from_pages(pages: Vec<PageId>, len_bytes: u64) -> Column {
        debug_assert!(pages.len() as u64 * PAGE_SIZE as u64 >= len_bytes);
        Column { pages, len_bytes }
    }

    pub(crate) fn read_bytes(
        &self,
        cp: &CachedPager,
        mut off: u64,
        mut out: &mut [u8],
    ) -> io::Result<()> {
        debug_assert!(off + out.len() as u64 <= self.len_bytes);
        while !out.is_empty() {
            let page_idx = (off / PAGE_SIZE as u64) as usize;
            let within = (off % PAGE_SIZE as u64) as usize;
            let take = (PAGE_SIZE - within).min(out.len());
            let (head, rest) = out.split_at_mut(take);
            cp.with_page(self.pages[page_idx], |buf| {
                head.copy_from_slice(&buf[within..within + take])
            })?;
            out = rest;
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

struct Columns {
    off: Column,
    nbr: Column,
    ts: Column,
    evi: Column,
    feat: Column,
    evt: Column,
    efeat: Column,
}

impl Columns {
    fn from_manifest(m: &Manifest) -> Columns {
        Columns {
            off: Column::from_pages(m.col_pages[COL_OFF].clone(), (m.num_nodes + 1) * 8),
            nbr: Column::from_pages(m.col_pages[COL_NBR].clone(), m.num_entries * 4),
            ts: Column::from_pages(m.col_pages[COL_TS].clone(), m.num_entries * 8),
            evi: Column::from_pages(m.col_pages[COL_EVI].clone(), m.num_entries * 4),
            feat: Column::from_pages(m.col_pages[COL_FEAT].clone(), m.num_events * 4),
            evt: Column::from_pages(
                m.col_pages[COL_EVT].clone(),
                m.num_events * EVT_RECORD_BYTES as u64,
            ),
            efeat: Column::from_pages(
                m.col_pages[COL_EFEAT].clone(),
                m.feat_rows * m.feat_cols * 4,
            ),
        }
    }
}

fn pages_path(dir: &Path) -> PathBuf {
    dir.join("store.pages")
}
fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("manifest.bin")
}
fn wal_path(dir: &Path) -> PathBuf {
    dir.join("wal.log")
}
fn snap_path(dir: &Path, tag: &str) -> PathBuf {
    dir.join(format!("snap_{tag}.bin"))
}

/// The paged temporal graph store façade.
pub struct TemporalStore {
    dir: PathBuf,
    opts: StoreOptions,
    cp: CachedPager,
    cols: Columns,
    manifest: Manifest,
    /// Resident index: CSR offsets in adjacency entries, `num_nodes + 1`.
    offsets: Vec<u64>,
    /// Resident index: edge-feature row per event.
    event_feat: Vec<u32>,
    wal: Wal,
}

impl TemporalStore {
    /// Bulk-load a fresh store from an event slice (plus an optional
    /// row-major edge-feature matrix), replacing anything in `dir`.
    pub fn bulk_load(
        dir: &Path,
        num_nodes: usize,
        events: &[StoreEvent],
        edge_features: Option<(usize, usize, &[f32])>,
        opts: &StoreOptions,
    ) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let cp = CachedPager::create(&pages_path(dir), opts.cache_budget_bytes)?;
        let (manifest, offsets, event_feat) = bulkload::build(
            dir,
            &cp,
            num_nodes,
            events.iter().map(|ev| Ok(*ev)),
            edge_features,
            opts.run_events,
        )?;
        cp.flush()?;
        manifest.write_to(&manifest_path(dir))?;
        let wal = Wal::open_append(&wal_path(dir))?;
        let cols = Columns::from_manifest(&manifest);
        Ok(TemporalStore {
            dir: dir.to_path_buf(),
            opts: opts.clone(),
            cp,
            cols,
            manifest,
            offsets,
            event_feat,
            wal,
        })
    }

    /// Create an empty store (streaming-ingest entry point): zero sealed
    /// events, an open WAL.
    pub fn create(dir: &Path, num_nodes: usize, opts: &StoreOptions) -> io::Result<Self> {
        Self::bulk_load(dir, num_nodes, &[], None, opts)
    }

    /// Open a sealed store from its manifest.
    pub fn open(dir: &Path, opts: &StoreOptions) -> io::Result<Self> {
        Self::open_manifest(dir, Manifest::read_from(&manifest_path(dir))?, opts)
    }

    fn open_manifest(dir: &Path, manifest: Manifest, opts: &StoreOptions) -> io::Result<Self> {
        let cp = CachedPager::open(
            &pages_path(dir),
            opts.cache_budget_bytes,
            manifest.num_pages,
            manifest.free.clone(),
        )?;
        let cols = Columns::from_manifest(&manifest);
        // Load the resident index off the pages.
        let num_nodes = manifest.num_nodes as usize;
        let mut offsets = vec![0u64; num_nodes + 1];
        let mut buf = vec![0u8; 8 * 1024];
        let mut loaded = 0usize;
        while loaded < offsets.len() {
            let take = (offsets.len() - loaded).min(1024);
            let bytes = &mut buf[..take * 8];
            cols.off.read_bytes(&cp, loaded as u64 * 8, bytes)?;
            for (i, chunk) in bytes.chunks_exact(8).enumerate() {
                offsets[loaded + i] = u64::from_le_bytes(chunk.try_into().unwrap());
            }
            loaded += take;
        }
        let num_events = manifest.num_events as usize;
        let mut event_feat = vec![0u32; num_events];
        let mut loaded = 0usize;
        while loaded < num_events {
            let take = (num_events - loaded).min(2048);
            let bytes = &mut buf[..take * 4];
            cols.feat.read_bytes(&cp, loaded as u64 * 4, bytes)?;
            for (i, chunk) in bytes.chunks_exact(4).enumerate() {
                event_feat[loaded + i] = u32::from_le_bytes(chunk.try_into().unwrap());
            }
            loaded += take;
        }
        let wal = Wal::open_append(&wal_path(dir))?;
        Ok(TemporalStore {
            dir: dir.to_path_buf(),
            opts: opts.clone(),
            cp,
            cols,
            manifest,
            offsets,
            event_feat,
            wal,
        })
    }

    // ---- streaming ingest ----------------------------------------------

    /// Append events to the WAL (buffered; durable after
    /// [`TemporalStore::wal_sync`]). Reads keep serving the sealed
    /// generation until [`TemporalStore::seal`] folds the log in.
    pub fn ingest(&mut self, events: &[StoreEvent]) -> io::Result<()> {
        self.wal.append_batch(events)
    }

    pub fn wal_sync(&mut self) -> io::Result<()> {
        self.wal.sync()
    }

    /// WAL records not yet folded into pages.
    pub fn pending_events(&self) -> u64 {
        self.wal.records()
    }

    /// Fold the WAL into the paged columns: rebuild every column from the
    /// sealed events chained with the log's valid prefix (the external
    /// sort re-sorts, so out-of-order ingest is fine), swap the new page
    /// file in, and truncate the log. Consumes and returns the store so
    /// no reader can observe the swap mid-flight.
    pub fn seal(mut self) -> io::Result<Self> {
        let _span = benchtemp_obs::span("store.seal");
        self.wal.sync()?;
        let replay = Wal::replay(&wal_path(&self.dir))?;
        if replay.events.is_empty() {
            return Ok(self);
        }
        // Carry the edge-feature matrix across the rebuild.
        let feat_rows = self.manifest.feat_rows as usize;
        let feat_cols = self.manifest.feat_cols as usize;
        let efeat: Option<Vec<f32>> = if feat_rows * feat_cols > 0 {
            let mut data = vec![0f32; feat_rows * feat_cols];
            let mut bytes = vec![0u8; feat_cols * 4];
            for r in 0..feat_rows {
                self.cols
                    .efeat
                    .read_bytes(&self.cp, (r * feat_cols * 4) as u64, &mut bytes)?;
                for (c, chunk) in bytes.chunks_exact(4).enumerate() {
                    data[r * feat_cols + c] = f32::from_le_bytes(chunk.try_into().unwrap());
                }
            }
            Some(data)
        } else {
            None
        };

        let new_pages = self.dir.join("store.pages.new");
        let new_cp = CachedPager::create(&new_pages, self.opts.cache_budget_bytes)?;
        let sealed = SealedEventIter {
            store: &self,
            idx: 0,
        };
        let chained = sealed.chain(replay.events.iter().map(|ev| Ok(*ev)));
        let (manifest, _offsets, _event_feat) = bulkload::build(
            &self.dir,
            &new_cp,
            self.manifest.num_nodes as usize,
            chained,
            efeat.as_deref().map(|d| (feat_rows, feat_cols, d)),
            self.opts.run_events,
        )?;
        new_cp.flush()?;
        drop(new_cp);

        let dir = self.dir.clone();
        let opts = self.opts.clone();
        drop(self.cols);
        // Close the old page file before replacing it.
        let TemporalStore { cp, mut wal, .. } = self;
        drop(cp);
        std::fs::rename(&new_pages, pages_path(&dir))?;
        manifest.write_to(&manifest_path(&dir))?;
        wal.reset()?;
        drop(wal);
        Self::open(&dir, &opts)
    }

    // ---- snapshot / restore --------------------------------------------

    /// Flush everything and write a tagged manifest carrying `blob`
    /// (caller resume state, e.g. an epoch counter). Valid until the next
    /// [`TemporalStore::seal`] replaces the page file.
    pub fn snapshot(&self, tag: &str, blob: &str) -> io::Result<()> {
        let _span = benchtemp_obs::span("store.snapshot");
        self.cp.flush()?;
        let mut m = self.manifest.clone();
        m.user_blob = blob.to_string();
        m.write_to(&snap_path(&self.dir, tag))
    }

    /// Reopen a store from a tagged snapshot, returning it with the blob
    /// the snapshot carried.
    pub fn restore(dir: &Path, tag: &str, opts: &StoreOptions) -> io::Result<(Self, String)> {
        let manifest = Manifest::read_from(&snap_path(dir, tag))?;
        let blob = manifest.user_blob.clone();
        let store = Self::open_manifest(dir, manifest, opts)?;
        Ok((store, blob))
    }

    // ---- reads ----------------------------------------------------------

    pub fn num_nodes(&self) -> usize {
        self.manifest.num_nodes as usize
    }

    pub fn num_events(&self) -> u64 {
        self.manifest.num_events
    }

    pub fn num_entries(&self) -> u64 {
        self.manifest.num_entries
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
        let mut b = [0u8; 8];
        self.cols.ts.read_bytes(&self.cp, entry * 8, &mut b)?;
        Ok(f64::from_bits(u64::from_le_bytes(b)))
    }

    /// Read adjacency entries `[start, end)` into SoA output vectors
    /// (appended; callers clear). Page-strided: one cache touch per page
    /// per column, not per element.
    pub fn read_adj(
        &self,
        start: u64,
        end: u64,
        nbr: &mut Vec<u32>,
        ts: &mut Vec<f64>,
        evi: &mut Vec<u32>,
    ) -> io::Result<()> {
        debug_assert!(start <= end && end <= self.manifest.num_entries);
        let n = (end - start) as usize;
        let mut bytes = vec![0u8; n.max(1) * 8];
        // u32 columns.
        for (col, out) in [(&self.cols.nbr, &mut *nbr), (&self.cols.evi, &mut *evi)] {
            let b = &mut bytes[..n * 4];
            col.read_bytes(&self.cp, start * 4, b)?;
            out.reserve(n);
            for chunk in b.chunks_exact(4) {
                out.push(u32::from_le_bytes(chunk.try_into().unwrap()));
            }
        }
        // f64 timestamp column.
        let b = &mut bytes[..n * 8];
        self.cols.ts.read_bytes(&self.cp, start * 8, b)?;
        ts.reserve(n);
        for chunk in b.chunks_exact(8) {
            ts.push(f64::from_bits(u64::from_le_bytes(
                chunk.try_into().unwrap(),
            )));
        }
        Ok(())
    }

    /// Read one sealed event record by index.
    pub fn read_event(&self, idx: u64) -> io::Result<StoreEvent> {
        let mut rec = [0u8; EVT_RECORD_BYTES];
        self.cols
            .evt
            .read_bytes(&self.cp, idx * EVT_RECORD_BYTES as u64, &mut rec)?;
        Ok(bulkload::decode_ev20(&rec))
    }

    /// One row of the paged edge-feature matrix.
    pub fn read_edge_feature_row(&self, row: usize, out: &mut [f32]) -> io::Result<()> {
        let cols = self.manifest.feat_cols as usize;
        debug_assert_eq!(out.len(), cols);
        let mut bytes = vec![0u8; cols * 4];
        self.cols
            .efeat
            .read_bytes(&self.cp, (row * cols * 4) as u64, &mut bytes)?;
        for (o, chunk) in out.iter_mut().zip(bytes.chunks_exact(4)) {
            *o = f32::from_le_bytes(chunk.try_into().unwrap());
        }
        Ok(())
    }

    pub fn edge_feature_dims(&self) -> (usize, usize) {
        (
            self.manifest.feat_rows as usize,
            self.manifest.feat_cols as usize,
        )
    }

    /// Bytes held by cache frames right now (bounded by the budget).
    pub fn cache_resident_bytes(&self) -> usize {
        self.cp.resident_bytes()
    }

    /// Bytes of resident index this store keeps in RAM by design.
    pub fn resident_index_bytes(&self) -> usize {
        self.offsets.capacity() * 8 + self.event_feat.capacity() * 4
    }

    pub fn flush(&self) -> io::Result<()> {
        self.cp.flush()
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// Streaming iterator over the sealed EVT column (used by `seal` to chain
/// existing events with the WAL without materialising them all).
struct SealedEventIter<'a> {
    store: &'a TemporalStore,
    idx: u64,
}

impl Iterator for SealedEventIter<'_> {
    type Item = io::Result<StoreEvent>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.idx >= self.store.manifest.num_events {
            return None;
        }
        let ev = self.store.read_event(self.idx);
        self.idx += 1;
        Some(ev)
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

    #[test]
    fn bulk_load_roundtrips_adjacency() {
        let dir = tmpdir("bulk");
        let evs = events();
        let st = TemporalStore::bulk_load(&dir, 12, &evs, None, &StoreOptions::default()).unwrap();
        assert_eq!(st.num_events(), 200);
        assert_eq!(st.num_entries(), 400);
        // Node 0 participates as src for i ≡ 0 (mod 7).
        let (s, e) = st.node_range(0);
        let (mut nbr, mut ts, mut evi) = (Vec::new(), Vec::new(), Vec::new());
        st.read_adj(s, e, &mut nbr, &mut ts, &mut evi).unwrap();
        let expect: Vec<u32> = (0..200).filter(|i| i % 7 == 0).collect();
        assert_eq!(evi, expect);
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
        for (&n, &i) in nbr.iter().zip(&evi) {
            assert_eq!(n, 7 + (i % 5));
        }
        // Event records round-trip.
        let ev = st.read_event(13).unwrap();
        assert_eq!(ev, evs[13]);
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
        let st = TemporalStore::bulk_load(&dir, 2, &evs, None, &opts).unwrap();
        let mut last_t = f64::NEG_INFINITY;
        for idx in 0..st.num_events() {
            let ev = st.read_event(idx).unwrap();
            assert!(ev.t >= last_t, "merge must be sorted");
            last_t = ev.t;
        }
        // Stability: for each t the feat < 1000 twin precedes its 1000+ twin.
        for idx in (0..st.num_events()).step_by(2) {
            let a = st.read_event(idx).unwrap();
            let b = st.read_event(idx + 1).unwrap();
            assert_eq!(a.t, b.t);
            assert_eq!(a.feat + 1000, b.feat, "ties must keep input order");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_after_flush_sees_same_data() {
        let dir = tmpdir("reopen");
        let evs = events();
        {
            TemporalStore::bulk_load(&dir, 12, &evs, None, &StoreOptions::default()).unwrap();
        }
        let st = TemporalStore::open(&dir, &StoreOptions::default()).unwrap();
        assert_eq!(st.num_events(), 200);
        assert_eq!(st.read_event(199).unwrap(), evs[199]);
        assert_eq!(st.event_feat()[42], 42);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_seal_matches_bulk_load() {
        let dir_a = tmpdir("seal-a");
        let dir_b = tmpdir("seal-b");
        let evs = events();
        let bulk =
            TemporalStore::bulk_load(&dir_a, 12, &evs, None, &StoreOptions::default()).unwrap();
        // Stream the same events through WAL ingest in two batches.
        let mut st = TemporalStore::create(&dir_b, 12, &StoreOptions::default()).unwrap();
        st.ingest(&evs[..77]).unwrap();
        let st = st.seal().unwrap();
        let mut st = st;
        st.ingest(&evs[77..]).unwrap();
        let st = st.seal().unwrap();
        assert_eq!(st.num_events(), bulk.num_events());
        for node in 0..12 {
            assert_eq!(st.node_range(node), bulk.node_range(node));
        }
        for idx in 0..st.num_events() {
            assert_eq!(st.read_event(idx).unwrap(), bulk.read_event(idx).unwrap());
        }
        assert_eq!(st.pending_events(), 0, "seal must truncate the WAL");
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn snapshot_restore_roundtrips_blob_and_data() {
        let dir = tmpdir("snap");
        let evs = events();
        let st = TemporalStore::bulk_load(&dir, 12, &evs, None, &StoreOptions::default()).unwrap();
        st.snapshot("epoch3", "epoch=3;best=0.91").unwrap();
        drop(st);
        let (st, blob) = TemporalStore::restore(&dir, "epoch3", &StoreOptions::default()).unwrap();
        assert_eq!(blob, "epoch=3;best=0.91");
        assert_eq!(st.read_event(7).unwrap(), evs[7]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn edge_feature_rows_round_trip_paged() {
        let dir = tmpdir("efeat");
        let evs = events();
        let rows = 200usize;
        let cols = 6usize;
        let data: Vec<f32> = (0..rows * cols).map(|i| i as f32 * 0.5).collect();
        let st = TemporalStore::bulk_load(
            &dir,
            12,
            &evs,
            Some((rows, cols, &data)),
            &StoreOptions::default(),
        )
        .unwrap();
        let mut row = vec![0f32; cols];
        st.read_edge_feature_row(123, &mut row).unwrap();
        assert_eq!(row, &data[123 * cols..124 * cols]);
        assert_eq!(st.edge_feature_dims(), (rows, cols));
        std::fs::remove_dir_all(&dir).ok();
    }
}
