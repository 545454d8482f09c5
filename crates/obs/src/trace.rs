//! Optional JSONL trace sink, enabled by `BENCHTEMP_TRACE=path` (or
//! programmatically via [`set_path`]).
//!
//! One JSON object per line. Three event kinds:
//!
//! ```text
//! {"ev":"open","span":"train_epoch","tid":0,"sid":12,"t_us":48210}
//! {"ev":"close","span":"train_epoch","tid":0,"sid":12,"t_us":91455,"dur_us":43245,"self_us":40012}
//! {"ev":"counters","t_us":91460,"negatives_sampled":6000,...,"peak_rss_bytes":73400320}
//! ```
//!
//! * `tid` — per-thread id, dense from 0 in first-emission order.
//! * `sid` — globally unique span id; an open and its close share a `sid`,
//!   which is how readers pair events (and detect spans left open at exit).
//! * `t_us` — microseconds since the process trace epoch (first event).
//!
//! Span names are static Rust identifiers (`train_epoch`, `dense`, ...), so
//! no JSON string escaping is needed. Writes are line-buffered under a
//! mutex; when tracing is off the only cost on the span path is one relaxed
//! atomic load.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use benchtemp_util::env::{self, Knob};

const UNRESOLVED: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(UNRESOLVED);
static SINK: Mutex<Option<BufWriter<File>>> = Mutex::new(None);
static SEQ: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Whether trace events are being written. Resolves `BENCHTEMP_TRACE` from
/// the environment on first call; afterwards it is one relaxed atomic load.
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        ON => true,
        OFF => false,
        _ => resolve_from_env(),
    }
}

fn resolve_from_env() -> bool {
    match env::var(Knob::Trace) {
        Some(path) if !path.is_empty() => {
            set_path(Some(Path::new(&path)));
            STATE.load(Ordering::Relaxed) == ON
        }
        _ => {
            // Only claim OFF if nobody set a sink concurrently.
            let _ = STATE.compare_exchange(UNRESOLVED, OFF, Ordering::Relaxed, Ordering::Relaxed);
            STATE.load(Ordering::Relaxed) == ON
        }
    }
}

/// Point the trace sink at `path` (truncating it), or disable tracing with
/// `None`. Overrides the environment; flushes and closes any previous sink.
/// Intended for tests and benchmarks that toggle tracing in-process.
pub fn set_path(path: Option<&Path>) {
    let mut sink = SINK.lock().unwrap();
    if let Some(prev) = sink.as_mut() {
        let _ = prev.flush();
    }
    match path {
        Some(p) => match File::create(p) {
            Ok(f) => {
                *sink = Some(BufWriter::new(f));
                STATE.store(ON, Ordering::Relaxed);
            }
            Err(e) => {
                eprintln!("benchtemp-obs: cannot open trace file {}: {e}", p.display());
                *sink = None;
                STATE.store(OFF, Ordering::Relaxed);
            }
        },
        None => {
            *sink = None;
            STATE.store(OFF, Ordering::Relaxed);
        }
    }
}

/// Flush buffered trace output to disk (no-op when tracing is off).
pub fn flush() {
    if let Some(s) = SINK.lock().unwrap().as_mut() {
        let _ = s.flush();
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "trace timestamps are the wall clock's reported output, never computed on"
)]
fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

fn tid() -> u64 {
    TID.with(|t| *t)
}

/// Emit a span-open event and return its fresh `sid`.
///
/// Formats straight into the locked `BufWriter` — no intermediate `String`;
/// the per-event cost is what keeps tracing inside its ≤3% overhead budget
/// on sampling-bound workloads (measured by `bench_kernels`).
pub(crate) fn emit_open(span: &'static str) -> u64 {
    let sid = SEQ.fetch_add(1, Ordering::Relaxed);
    let (tid, t) = (tid(), now_us());
    if let Some(s) = SINK.lock().unwrap().as_mut() {
        let _ = writeln!(
            s,
            "{{\"ev\":\"open\",\"span\":\"{span}\",\"tid\":{tid},\"sid\":{sid},\"t_us\":{t}}}"
        );
    }
    sid
}

/// Emit the close event paired (by `sid`) with an earlier open.
pub(crate) fn emit_close(span: &'static str, sid: u64, dur_secs: f64, self_secs: f64) {
    let (tid, t) = (tid(), now_us());
    let dur = (dur_secs * 1e6) as u64;
    let slf = (self_secs * 1e6) as u64;
    if let Some(s) = SINK.lock().unwrap().as_mut() {
        let _ = writeln!(
            s,
            "{{\"ev\":\"close\",\"span\":\"{span}\",\"tid\":{tid},\"sid\":{sid},\"t_us\":{t},\"dur_us\":{dur},\"self_us\":{slf}}}"
        );
    }
}

/// Emit a snapshot of every counter and gauge (no-op when tracing is off).
/// Call at job boundaries so traces carry final totals.
pub fn emit_counters() {
    if !enabled() {
        return;
    }
    let mut line = format!("{{\"ev\":\"counters\",\"t_us\":{}", now_us());
    for c in crate::counters::all() {
        line.push_str(&format!(",\"{}\":{}", c.name(), c.get()));
    }
    for g in crate::counters::gauges() {
        line.push_str(&format!(",\"{}\":{}", g.name(), g.get()));
    }
    line.push('}');
    write_line(&line);
    flush();
}

fn write_line(line: &str) {
    if let Some(s) = SINK.lock().unwrap().as_mut() {
        let _ = writeln!(s, "{line}");
    }
}
