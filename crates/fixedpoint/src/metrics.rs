//! Interpolation-quality statistics of the paper (Section IV).
//!
//! Table I reports, for every interpolated configuration, the difference `ε`
//! between the kriged and the simulated metric value:
//!
//! * for the **noise power** metric, `ε` is an *equivalent number of bits*
//!   (Eq. 11): `ε = |log₂(P̂ / P)|` under the convention `P(n) = 2⁻ⁿ/12`;
//! * for any **other** metric (e.g. SqueezeNet's classification rate), `ε`
//!   is the *relative difference* of Eq. 12: `ε = |λ̂ − λ| / λ`.
//!
//! The hybrid evaluator's audit computes each `ε`; [`ErrorStats`]
//! accumulates them into the `max ε` / `μ ε` columns of the table.

use serde::{Deserialize, Serialize};

/// Running max/mean statistics over per-interpolation errors — the
/// `max ε` and `μ ε` columns of Table I.
///
/// # Examples
///
/// ```
/// use krigeval_fixedpoint::metrics::ErrorStats;
///
/// let mut s = ErrorStats::new();
/// s.record(0.2);
/// s.record(0.6);
/// assert_eq!(s.max(), 0.6);
/// assert_eq!(s.mean(), 0.4);
/// assert_eq!(s.count(), 2);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ErrorStats {
    max: f64,
    sum: f64,
    count: u64,
}

impl ErrorStats {
    /// Creates empty statistics.
    pub fn new() -> ErrorStats {
        ErrorStats::default()
    }

    /// Records one error sample.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is negative or NaN — errors are absolute values by
    /// construction (Eqs. 11–12).
    pub fn record(&mut self, eps: f64) {
        assert!(eps >= 0.0, "error sample must be non-negative, got {eps}");
        self.max = self.max.max(eps);
        self.sum += eps;
        self.count += 1;
    }

    /// Largest recorded error (`max ε`); 0 when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Mean recorded error (`μ ε`); 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_track_max_and_mean() {
        let mut s = ErrorStats::new();
        for e in [0.1, 0.5, 0.3] {
            s.record(e);
        }
        assert_eq!(s.max(), 0.5);
        assert!((s.mean() - 0.3).abs() < 1e-12);
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = ErrorStats::new();
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_error_panics() {
        ErrorStats::new().record(-0.1);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn stats_mean_bounded_by_max(samples in proptest::collection::vec(0.0f64..10.0, 1..50)) {
                let mut s = ErrorStats::new();
                for &e in &samples {
                    s.record(e);
                }
                prop_assert!(s.mean() <= s.max() + 1e-12);
            }
        }
    }
}
