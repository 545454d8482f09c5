//! Runtime sanitizer for the autodiff tape, gated by `BENCHTEMP_SANITIZE=1`.
//!
//! What it checks lives in [`crate::tape`] and asks [`enabled`] here:
//! every gradient consumed during `Tape::backward` must be finite, and at
//! `Tape::reset` every buffer the tape's storage pool handed out must be
//! back. With the variable unset the cost per check site is one relaxed
//! atomic load.
//!
//! Disjoint parallel writes are not checked here: they are proved at
//! compile time. Every pool dispatch hands each task its own `&mut` slab
//! from `chunks_mut` / `split_at_mut`, so the borrow checker rejects two
//! tasks writing one slot, and the workspace lint `unsafe_code = "deny"`
//! rejects a raw-pointer split outside the library's two expected
//! `unsafe_code` sites (`ThreadPool::scope_run` and the AVX2 kernel
//! dispatch).

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

/// Serializes unit tests that flip [`set_forced`]: the override is
/// process-global, so concurrent tests restoring it would disarm each
/// other's check windows. Poisoning is ignored — a panicking test (several
/// in the tape panic on purpose) must not wedge the rest.
#[cfg(test)]
pub(crate) fn forced_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

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
