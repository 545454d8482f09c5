//! Runtime sanitizer for the parallel runtime, gated by `BENCHTEMP_SANITIZE=1`.
//!
//! The pool's `'static`-erasure safety argument (see [`crate::pool`]) proves
//! that borrowed closures cannot outlive a `scope_run` call. It deliberately
//! does *not* prove that the closures of one batch write disjoint memory —
//! that part of the contract is upheld by chunk arithmetic at every call
//! site (`chunks_mut`, `split_at_mut`, index ranges derived from the same
//! `div_ceil`). A refactor that breaks the arithmetic compiles fine and
//! races silently.
//!
//! This module closes that gap with a *happens-before* checker: every
//! parallel dispatch declares, on the submitting thread and **before** any
//! task is handed to a worker, the slot range each chunk will write. Because
//! the claims are recorded in program order ahead of the dispatch, and the
//! batch barrier in `scope_run` orders every task of batch *n* before every
//! task of batch *n+1*, pairwise disjointness of the claimed ranges within
//! one batch is sufficient to exclude write-write races on slot memory — the
//! one class of race the lifetime-erasure argument cannot see.
//!
//! When `BENCHTEMP_SANITIZE` is unset the per-batch cost is a single relaxed
//! atomic load; no claim vectors are built. When set, each batch sorts its
//! claims and panics (on the *submitting* thread, before any work runs) if
//! two chunks overlap, naming both chunks and the contested slots.
//!
//! The tape-level checks (finite gradients after `backward`, matrix-buffer
//! pool leak accounting at `Tape::reset`) live in [`crate::tape`] and use
//! [`enabled`] from here.

use std::ops::Range;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use benchtemp_util::env::{self, Knob};

/// Tri-state test/bench override: 0 = follow the environment, 1 = forced
/// off, 2 = forced on.
static FORCED: AtomicU8 = AtomicU8::new(0);

static ENV_ENABLED: OnceLock<bool> = OnceLock::new();

/// Is the sanitizer on? Reads `BENCHTEMP_SANITIZE` once per process (same
/// policy as `BENCHTEMP_THREADS`); tests and benches can override with
/// [`set_forced`]. The fast path — sanitizer off, no override — is one
/// relaxed atomic load plus one `OnceLock` read.
pub fn enabled() -> bool {
    match FORCED.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => *ENV_ENABLED
            .get_or_init(|| matches!(env::var(Knob::Sanitize), Some(v) if v.trim() == "1")),
    }
}

/// Test/bench hook: `Some(true)` forces the sanitizer on, `Some(false)`
/// forces it off, `None` restores environment control. Not for production
/// call sites — the environment variable is the supported switch.
#[doc(hidden)]
pub fn set_forced(on: Option<bool>) {
    FORCED.store(
        match on {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        },
        Ordering::Relaxed,
    );
}

/// One chunk's declared write span: `(chunk index, slot range)`.
pub type SlotClaim = (usize, Range<usize>);

/// Assert that every pair of claimed slot ranges in one dispatch batch is
/// disjoint. Panics on the submitting thread — before any task runs — with
/// the two offending chunks and the contested slot range.
///
/// `what` names the dispatch site (e.g. `"par_map"`, `"sample_frontier"`)
/// so the panic message points at the broken chunk arithmetic directly.
/// Empty ranges are permitted and never overlap anything.
pub fn check_slot_claims(what: &str, claims: &[SlotClaim]) {
    benchtemp_obs::counters::SANITIZE_BATCHES_CHECKED.incr();
    benchtemp_obs::counters::SANITIZE_CLAIMS_CHECKED.add(claims.len() as u64);
    let mut sorted: Vec<&SlotClaim> = claims.iter().filter(|(_, r)| !r.is_empty()).collect();
    sorted.sort_by_key(|(chunk, r)| (r.start, r.end, *chunk));
    for pair in sorted.windows(2) {
        let (a_chunk, a) = pair[0];
        let (b_chunk, b) = pair[1];
        if b.start < a.end {
            panic!(
                "sanitize[{what}]: chunk-slot claims overlap: chunk {a_chunk} writes \
                 {}..{} and chunk {b_chunk} writes {}..{} (contested slots {}..{}); \
                 disjoint chunk arithmetic is the pool's safety contract",
                a.start,
                a.end,
                b.start,
                b.end,
                b.start,
                a.end.min(b.end),
            );
        }
    }
}

/// Serializes unit tests that flip [`set_forced`]: the override is
/// process-global, so concurrent tests restoring it would disarm each
/// other's check windows. Poisoning is ignored — a panicking test (several
/// here panic on purpose) must not wedge the rest.
#[cfg(test)]
pub(crate) fn forced_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_claims_pass() {
        check_slot_claims("test", &[(0, 0..4), (1, 4..8), (2, 8..8), (3, 9..12)]);
    }

    #[test]
    fn overlapping_claims_panic_with_context() {
        let r = std::panic::catch_unwind(|| {
            check_slot_claims("unit", &[(0, 0..10), (1, 5..15)]);
        });
        let msg = *r.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("unit"), "{msg}");
        assert!(msg.contains("overlap"), "{msg}");
        assert!(msg.contains("5..10"), "contested range missing: {msg}");
    }

    #[test]
    fn identical_ranges_are_caught() {
        let r = std::panic::catch_unwind(|| {
            check_slot_claims("unit", &[(0, 3..7), (1, 3..7)]);
        });
        assert!(r.is_err());
    }

    #[test]
    fn forced_override_wins_over_env() {
        let _serial = forced_test_lock();
        set_forced(Some(true));
        assert!(enabled());
        set_forced(Some(false));
        assert!(!enabled());
        set_forced(None);
    }
}
