//! External-sort bulk load: events → sorted runs → k-way merge → CSR
//! adjacency columns written straight to pages.
//!
//! The loader copies at most one run of events at a time (plus the
//! resident index: offsets and per-event feature rows). Input is chunked
//! into runs of `run_events`, each stably sorted by timestamp
//! (`f64::total_cmp`) and spilled to disk; a k-way merge (one heap entry
//! per run, ties broken by run index so the merge is exactly the stable
//! sort of the concatenated input) streams the sorted order to a temp
//! file, which is then scanned twice — once to count degrees, once to
//! fill the CSR columns through the write-back page cache. Because the
//! sort is stable, an already-time-sorted input (every benchtemp
//! generator and dataset) keeps its order, so paged event indices equal
//! the resident `NeighborFinder`'s — a load-bearing half of the paged
//! backend's bit-identity argument.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use benchtemp_obs::counters::STORE_BULK_EVENTS;

use crate::cache::CachedPager;
use crate::{Column, Columns, StoreEvent};

/// On-disk size of one event record in the run and merge temp files.
const EVT_RECORD_BYTES: usize = 20;

/// Serialize one event as the 20-byte run/merge record (no checksum — the
/// temp files live and die inside one bulk load).
fn encode_ev20(ev: &StoreEvent) -> [u8; EVT_RECORD_BYTES] {
    let mut rec = [0u8; EVT_RECORD_BYTES];
    rec[0..4].copy_from_slice(&ev.src.to_le_bytes());
    rec[4..8].copy_from_slice(&ev.dst.to_le_bytes());
    rec[8..12].copy_from_slice(&ev.feat.to_le_bytes());
    rec[12..20].copy_from_slice(&ev.t.to_bits().to_le_bytes());
    rec
}

fn decode_ev20(rec: &[u8; EVT_RECORD_BYTES]) -> StoreEvent {
    StoreEvent {
        src: u32::from_le_bytes(rec[0..4].try_into().unwrap()),
        dst: u32::from_le_bytes(rec[4..8].try_into().unwrap()),
        feat: u32::from_le_bytes(rec[8..12].try_into().unwrap()),
        t: f64::from_bits(u64::from_le_bytes(rec[12..20].try_into().unwrap())),
    }
}

fn read_ev20(r: &mut impl Read) -> io::Result<Option<StoreEvent>> {
    let mut rec = [0u8; EVT_RECORD_BYTES];
    let mut done = 0usize;
    while done < EVT_RECORD_BYTES {
        let n = r.read(&mut rec[done..])?;
        if n == 0 {
            if done == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "torn bulk-load temp record",
            ));
        }
        done += n;
    }
    Ok(Some(decode_ev20(&rec)))
}

/// Merge-heap entry: min by (t, run); only one entry per run is live at a
/// time, so within-run order is preserved and the pop order is the stable
/// sort of the concatenated runs.
struct MergeItem {
    ev: StoreEvent,
    run: usize,
}

impl PartialEq for MergeItem {
    fn eq(&self, other: &Self) -> bool {
        self.ev.t.total_cmp(&other.ev.t) == Ordering::Equal && self.run == other.run
    }
}
impl Eq for MergeItem {}
impl PartialOrd for MergeItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MergeItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest (t, run).
        other
            .ev
            .t
            .total_cmp(&self.ev.t)
            .then_with(|| other.run.cmp(&self.run))
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The bulk load's temp files, removed when the guard drops, so every
/// exit path — a rejected event or an I/O error mid-sort included —
/// leaves none behind in the caller's directory.
struct TempFiles(Vec<PathBuf>);

impl TempFiles {
    /// Create (truncate) a temp file and register it for removal.
    fn create(&mut self, path: PathBuf) -> io::Result<BufWriter<File>> {
        let file = File::create(&path);
        self.0.push(path);
        Ok(BufWriter::new(file?))
    }
}

impl Drop for TempFiles {
    fn drop(&mut self) {
        for p in &self.0 {
            std::fs::remove_file(p).ok();
        }
    }
}

/// Spill stably sorted runs of `run_events`, then k-way merge them into
/// `out`. The run files are removed on return.
fn sort_externally(
    dir: &Path,
    events: &[StoreEvent],
    run_events: usize,
    mut out: BufWriter<File>,
) -> io::Result<()> {
    let mut runs = TempFiles(Vec::new());
    for chunk in events.chunks(run_events.max(1)) {
        let mut run = chunk.to_vec();
        run.sort_by(|a, b| a.t.total_cmp(&b.t)); // stable
        let mut w = runs.create(dir.join(format!("bulk_run_{}.tmp", runs.0.len())))?;
        for ev in &run {
            w.write_all(&encode_ev20(ev))?;
        }
        w.flush()?;
    }

    let mut readers: Vec<BufReader<File>> = runs
        .0
        .iter()
        .map(|p| File::open(p).map(BufReader::new))
        .collect::<io::Result<_>>()?;
    let mut heap = BinaryHeap::with_capacity(readers.len());
    for (run, r) in readers.iter_mut().enumerate() {
        if let Some(ev) = read_ev20(r)? {
            heap.push(MergeItem { ev, run });
        }
    }
    while let Some(MergeItem { ev, run }) = heap.pop() {
        out.write_all(&encode_ev20(&ev))?;
        if let Some(next) = read_ev20(&mut readers[run])? {
            heap.push(MergeItem { ev: next, run });
        }
    }
    out.flush()
}

/// Build the adjacency columns inside `cp` from an event slice. Returns
/// the columns and the resident index (offsets, per-event feature rows).
pub(crate) fn build(
    dir: &Path,
    cp: &CachedPager,
    num_nodes: usize,
    events: &[StoreEvent],
    run_events: usize,
) -> io::Result<(Columns, Vec<u64>, Vec<u32>)> {
    let _span = benchtemp_obs::span("store.bulk_load");
    let mut temps = TempFiles(Vec::new());
    let sorted_path = dir.join("bulk_sorted.tmp");
    sort_externally(dir, events, run_events, temps.create(sorted_path.clone())?)?;
    let num_events = events.len() as u64;
    let num_entries = num_events * 2;

    // Pass A: degree counts → offsets (the resident index).
    let mut degree = vec![0u64; num_nodes];
    {
        let mut r = BufReader::new(File::open(&sorted_path)?);
        while let Some(ev) = read_ev20(&mut r)? {
            let (s, d) = (ev.src as usize, ev.dst as usize);
            if s >= num_nodes || d >= num_nodes {
                return Err(invalid(format!(
                    "event endpoint out of range: {s}/{d} >= {num_nodes}"
                )));
            }
            degree[s] += 1;
            degree[d] += 1;
        }
    }
    let mut offsets = Vec::with_capacity(num_nodes + 1);
    let mut acc = 0u64;
    offsets.push(0);
    for &d in &degree {
        acc += d;
        offsets.push(acc);
    }
    drop(degree);

    let cols = Columns {
        nbr: Column::with_len(cp, num_entries * 4),
        ts: Column::with_len(cp, num_entries * 8),
        evi: Column::with_len(cp, num_entries * 4),
    };

    // Pass B: fill the CSR SoA columns at per-node cursors. Random node
    // order means random page writes; the write-back cache absorbs them
    // inside the byte budget.
    let mut event_feat = vec![0u32; events.len()];
    {
        let mut cursor: Vec<u64> = offsets[..num_nodes].to_vec();
        let mut r = BufReader::new(File::open(&sorted_path)?);
        let mut idx = 0u64;
        while let Some(ev) = read_ev20(&mut r)? {
            event_feat[idx as usize] = ev.feat;
            for (node, other) in [(ev.src, ev.dst), (ev.dst, ev.src)] {
                let c = cursor[node as usize];
                cursor[node as usize] += 1;
                cols.nbr.write_bytes(cp, c * 4, &other.to_le_bytes())?;
                cols.ts
                    .write_bytes(cp, c * 8, &ev.t.to_bits().to_le_bytes())?;
                cols.evi
                    .write_bytes(cp, c * 4, &(idx as u32).to_le_bytes())?;
            }
            idx += 1;
        }
        debug_assert_eq!(idx, num_events);
    }

    STORE_BULK_EVENTS.add(num_events);
    Ok((cols, offsets, event_feat))
}
