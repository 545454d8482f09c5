//! The EarlyStopMonitor module (§3.2.1): patience 3, tolerance 10⁻³,
//! higher-is-better validation metric, best-round tracking for parameter
//! restoration.

/// Early-stopping state machine over a validation metric.
#[derive(Clone, Debug)]
pub struct EarlyStopMonitor {
    pub patience: usize,
    pub tolerance: f64,
    best: f64,
    best_epoch: usize,
    epochs_seen: usize,
    rounds_without_improvement: usize,
}

impl EarlyStopMonitor {
    /// The paper's configuration: patience 3, tolerance 10⁻³ (§3.2.1, §4.1).
    pub fn paper_default() -> Self {
        EarlyStopMonitor::new(3, 1e-3)
    }

    pub fn new(patience: usize, tolerance: f64) -> Self {
        EarlyStopMonitor {
            patience,
            tolerance,
            best: f64::NEG_INFINITY,
            best_epoch: 0,
            epochs_seen: 0,
            rounds_without_improvement: 0,
        }
    }

    /// Record a validation metric for the next epoch. Returns `true` if the
    /// metric improved on the best by more than the tolerance (callers
    /// snapshot parameters on `true`).
    ///
    /// A NaN metric is an explicit *non-improvement* (it burns one patience
    /// round like any bad epoch) rather than relying on NaN's
    /// compare-false-with-everything behavior: before this was made
    /// explicit, an all-NaN run silently exhausted patience while
    /// `best_epoch()`/`best_metric()` still reported epoch 0 / `-inf` as if
    /// a snapshot existed. Callers should consult [`Self::improved_ever`] before
    /// trusting either value.
    pub fn record(&mut self, metric: f64) -> bool {
        let epoch = self.epochs_seen;
        self.epochs_seen += 1;
        if !metric.is_nan() && metric > self.best + self.tolerance {
            self.best = metric;
            self.best_epoch = epoch;
            self.rounds_without_improvement = 0;
            true
        } else {
            self.rounds_without_improvement += 1;
            false
        }
    }

    /// Whether training should stop now.
    pub fn should_stop(&self) -> bool {
        self.rounds_without_improvement >= self.patience
    }

    pub fn best_metric(&self) -> f64 {
        self.best
    }

    /// Epoch index (0-based) that achieved the best metric.
    pub fn best_epoch(&self) -> usize {
        self.best_epoch
    }

    /// Whether any recorded epoch ever improved on the initial `-inf` best.
    /// When `false`, `best_metric()` is still `-inf` and `best_epoch()` is a
    /// meaningless 0 — no parameter snapshot was ever taken.
    pub fn improved_ever(&self) -> bool {
        self.best > f64::NEG_INFINITY
    }

    pub fn epochs_seen(&self) -> usize {
        self.epochs_seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stops_after_patience_rounds() {
        let mut m = EarlyStopMonitor::paper_default();
        assert!(m.record(0.8));
        assert!(!m.should_stop());
        assert!(!m.record(0.8)); // no improvement 1
        assert!(!m.record(0.79)); // 2
        assert!(!m.should_stop());
        assert!(!m.record(0.80)); // 3 (within tolerance → not improvement)
        assert!(m.should_stop());
    }

    #[test]
    fn improvement_resets_patience() {
        let mut m = EarlyStopMonitor::new(2, 1e-3);
        m.record(0.5);
        m.record(0.5); // 1
        assert!(m.record(0.6)); // reset
        assert!(!m.should_stop());
        m.record(0.6);
        m.record(0.6);
        assert!(m.should_stop());
    }

    #[test]
    fn tolerance_gates_improvement() {
        let mut m = EarlyStopMonitor::new(3, 1e-2);
        assert!(m.record(0.500));
        // +0.005 is inside the tolerance → counts as no improvement.
        assert!(!m.record(0.505));
        assert_eq!(m.best_metric(), 0.500);
        // +0.02 clears it.
        assert!(m.record(0.52));
        assert_eq!(m.best_epoch(), 2);
    }

    /// Regression: a NaN validation metric must be an explicit
    /// non-improvement, and the monitor must admit that nothing was ever
    /// recorded. Pre-fix, `improved_ever()` did not exist and callers read
    /// `best_epoch() == 0` / `best_metric() == -inf` as a real epoch-0
    /// snapshot.
    #[test]
    fn nan_metric_never_improves_and_is_reported() {
        let mut m = EarlyStopMonitor::new(2, 1e-3);
        assert!(!m.record(f64::NAN));
        assert!(!m.improved_ever());
        assert!(!m.record(f64::NAN));
        assert!(m.should_stop());
        assert!(!m.improved_ever());
        assert_eq!(m.best_metric(), f64::NEG_INFINITY);
        assert_eq!(m.epochs_seen(), 2);
    }

    #[test]
    fn nan_after_real_improvement_keeps_best() {
        let mut m = EarlyStopMonitor::new(3, 1e-3);
        assert!(m.record(0.7));
        assert!(m.improved_ever());
        assert!(!m.record(f64::NAN));
        assert_eq!(m.best_metric(), 0.7);
        assert_eq!(m.best_epoch(), 0);
        // Recovery after a NaN epoch still registers.
        assert!(m.record(0.8));
        assert_eq!(m.best_epoch(), 2);
    }

    #[test]
    fn tracks_epochs_seen() {
        let mut m = EarlyStopMonitor::paper_default();
        for v in [0.1, 0.2, 0.3] {
            m.record(v);
        }
        assert_eq!(m.epochs_seen(), 3);
        assert_eq!(m.best_epoch(), 2);
    }
}
