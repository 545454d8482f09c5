//! Write-ahead log for streaming event ingest.
//!
//! Fixed-size framing: every record is [`WAL_RECORD_BYTES`] bytes —
//! `src u32 · dst u32 · feat u32 · t-bits u64 · check u32`, all
//! little-endian, where `check` is FNV-1a/32 over the 20 payload bytes.
//! Replay scans from the front and stops at the first short or
//! checksum-failing record, so a crash mid-append (torn write, truncated
//! file) recovers exactly the longest valid prefix — the
//! prefix-consistency contract the crash-recovery test truncates the log
//! at every byte boundary to pin.

use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use benchtemp_obs::counters::STORE_WAL_RECORDS;
use benchtemp_util::Fnv1a;

use crate::StoreEvent;

/// On-disk size of one WAL record.
pub const WAL_RECORD_BYTES: usize = 24;

/// FNV-1a over a byte slice, folded to 32 bits — the record checksum.
fn fnv1a32(bytes: &[u8]) -> u32 {
    let h = Fnv1a::hash(bytes);
    (h ^ (h >> 32)) as u32
}

fn encode(ev: &StoreEvent) -> [u8; WAL_RECORD_BYTES] {
    let mut rec = [0u8; WAL_RECORD_BYTES];
    rec[0..4].copy_from_slice(&ev.src.to_le_bytes());
    rec[4..8].copy_from_slice(&ev.dst.to_le_bytes());
    rec[8..12].copy_from_slice(&ev.feat.to_le_bytes());
    rec[12..20].copy_from_slice(&ev.t.to_bits().to_le_bytes());
    let check = fnv1a32(&rec[0..20]);
    rec[20..24].copy_from_slice(&check.to_le_bytes());
    rec
}

fn decode(rec: &[u8; WAL_RECORD_BYTES]) -> Option<StoreEvent> {
    let check = u32::from_le_bytes(rec[20..24].try_into().unwrap());
    if fnv1a32(&rec[0..20]) != check {
        return None;
    }
    Some(StoreEvent {
        src: u32::from_le_bytes(rec[0..4].try_into().unwrap()),
        dst: u32::from_le_bytes(rec[4..8].try_into().unwrap()),
        feat: u32::from_le_bytes(rec[8..12].try_into().unwrap()),
        t: f64::from_bits(u64::from_le_bytes(rec[12..20].try_into().unwrap())),
    })
}

/// Append handle over the log file.
pub struct Wal {
    writer: BufWriter<File>,
    path: PathBuf,
    records: u64,
}

/// Outcome of a replay scan.
pub struct WalReplay {
    pub events: Vec<StoreEvent>,
    /// Bytes of valid prefix (`events.len() × WAL_RECORD_BYTES`).
    pub valid_bytes: u64,
    /// Whether a torn/corrupt tail was discarded after the valid prefix.
    pub truncated_tail: bool,
}

impl Wal {
    /// Open for appending, creating the file when absent. Appends land
    /// after whatever is already there — callers that fold the log into
    /// pages truncate it explicitly via [`Wal::reset`].
    pub fn open_append(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let records = file.metadata()?.len() / WAL_RECORD_BYTES as u64;
        Ok(Wal {
            writer: BufWriter::new(file),
            path: path.to_path_buf(),
            records,
        })
    }

    /// Append one event record (buffered; [`Wal::sync`] makes it durable).
    pub fn append(&mut self, ev: &StoreEvent) -> io::Result<()> {
        self.writer.write_all(&encode(ev))?;
        self.records += 1;
        Ok(())
    }

    pub fn append_batch(&mut self, events: &[StoreEvent]) -> io::Result<()> {
        for ev in events {
            self.append(ev)?;
        }
        Ok(())
    }

    /// Flush buffers and fsync the log.
    pub fn sync(&mut self) -> io::Result<()> {
        self.writer.flush()?;
        self.writer.get_ref().sync_data()
    }

    /// Records appended so far (including pre-existing ones).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Truncate the log to empty after its contents were folded into the
    /// paged columns.
    pub fn reset(&mut self) -> io::Result<()> {
        self.writer.flush()?;
        let file = OpenOptions::new().write(true).open(&self.path)?;
        file.set_len(0)?;
        file.sync_data()?;
        self.records = 0;
        Ok(())
    }

    /// Scan `path` from the front, returning the longest valid prefix.
    /// A missing file replays as empty (a store that never ingested).
    pub fn replay(path: &Path) -> io::Result<WalReplay> {
        let _span = benchtemp_obs::span("store.wal_replay");
        let mut file = match File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Ok(WalReplay {
                    events: Vec::new(),
                    valid_bytes: 0,
                    truncated_tail: false,
                })
            }
            Err(e) => return Err(e),
        };
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut events = Vec::with_capacity(bytes.len() / WAL_RECORD_BYTES);
        let mut off = 0usize;
        let mut truncated_tail = false;
        while off + WAL_RECORD_BYTES <= bytes.len() {
            let rec: &[u8; WAL_RECORD_BYTES] =
                bytes[off..off + WAL_RECORD_BYTES].try_into().unwrap();
            match decode(rec) {
                Some(ev) => {
                    events.push(ev);
                    off += WAL_RECORD_BYTES;
                }
                None => {
                    truncated_tail = true;
                    break;
                }
            }
        }
        if !truncated_tail && off < bytes.len() {
            truncated_tail = true; // short tail record
        }
        STORE_WAL_RECORDS.add(events.len() as u64);
        Ok(WalReplay {
            events,
            valid_bytes: off as u64,
            truncated_tail,
        })
    }
}
