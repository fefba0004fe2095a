//! Failure policies and deterministic, content-addressed fault injection.
//!
//! The campaign executor treats a run as an all-or-nothing transaction:
//! an attempt either produces a complete [`crate::sink::RunRecord`] or
//! fails (an optimizer error, or a panic somewhere inside the
//! simulation stack). What happens next is governed by a
//! [`FaultPolicy`]; how failures are *manufactured* for testing is
//! governed by a [`FaultConfig`] driving a [`FaultStream`].
//!
//! # Determinism contract (content-addressed)
//!
//! The fate of an evaluator call is a pure function of **what** is being
//! evaluated, never of **when** or **where**: each call hashes
//! `(fault seed, benchmark id, scale, run seed, attempt, phase, config
//! words)` into a stable 64-bit digest, and that digest alone decides
//! whether the call panics, errors, fails as a `NaN` value would, or runs
//! the real simulator. No call counter, no RNG state, no wall clock, no OS
//! entropy, no scheduling input: a configuration evaluated by worker 0
//! of a 4-thread pool, by a one-thread backend, or by shard 2 of a
//! 3-process campaign draws the identical fate. Consequences the chaos
//! and shard suites rely on:
//!
//! * a run that completes under injection produces the **same record**
//!   as a fault-free run (an attempt that survives its draws makes
//!   exactly the fault-free call sequence, and records contain no
//!   scheduling-dependent fields with timing off);
//! * the one injection point, [`FaultStream::fire`] at the top of the
//!   [`crate::backend::EngineBackend`]'s per-configuration computation,
//!   runs **before** the shared [`crate::cache::SimCache`] lookup, so
//!   whether a value happens to be served from cache (a scheduling
//!   accident) cannot change which calls draw faults;
//! * any thread count, any executor worker count, and process-level
//!   sharding all compose with active faults — reordering evaluations
//!   cannot reorder fates, because fates carry no order.
//!
//! Retries still draw fresh faults: the executor's per-run `attempt`
//! counter is part of the digest, so attempt 1 re-rolls every
//! configuration that doomed attempt 0.
//!
//! An injected `NaN` fate never produces a value: [`FaultStream::fire`]
//! returns the error [`krigeval_core::FiniteGuard`] raises for a
//! non-finite value, byte for byte, so injected values are never memoized
//! and never feed the variogram.
//!
//! The digest is the [splitmix64] finalizer folded over the key
//! material: seedable from a single word, stateless, and fully
//! determined by its input — exactly the reproducibility contract fault
//! injection needs.
//!
//! [splitmix64]: https://prng.di.unimi.it/splitmix64.c

use serde::{Deserialize, Serialize};

use krigeval_core::evaluator::EvalError;
use krigeval_core::Config;

/// What the executor does when a run fails (after any retries).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultPolicy {
    /// Abort the campaign on the first failed run (the strict default:
    /// an unexpected failure indicates a mis-specified experiment and
    /// should surface, not be papered over).
    #[default]
    FailFast,
    /// Record the failure as a tagged `"failed"` JSONL row and keep
    /// executing the remaining runs.
    Skip,
    /// Re-attempt *transient* failures (panics and evaluation errors) up
    /// to `max` additional times with deterministic attempt-counted
    /// backoff, then degrade to [`FaultPolicy::Skip`] semantics.
    /// Permanent failures (infeasible constraints, non-convergence) are
    /// never retried.
    Retry {
        /// Maximum additional attempts per run (0 behaves like `Skip`).
        max: u32,
    },
}

impl FaultPolicy {
    /// Parses the CLI syntax: `fail-fast`, `skip` or `retry:N`.
    pub fn parse(value: &str) -> Result<FaultPolicy, String> {
        match value.split_once(':') {
            None => match value {
                "fail-fast" => Ok(FaultPolicy::FailFast),
                "skip" => Ok(FaultPolicy::Skip),
                "retry" => Err("retry needs a count, e.g. retry:3".to_string()),
                other => Err(format!("unknown fault policy {other:?}")),
            },
            Some(("retry", n)) => n
                .parse()
                .map(|max| FaultPolicy::Retry { max })
                .map_err(|_| format!("bad retry count {n:?}")),
            Some((other, _)) => Err(format!("unknown fault policy {other:?}")),
        }
    }

    /// Short label (inverse of [`FaultPolicy::parse`]).
    pub fn label(&self) -> String {
        match self {
            FaultPolicy::FailFast => "fail-fast".to_string(),
            FaultPolicy::Skip => "skip".to_string(),
            FaultPolicy::Retry { max } => format!("retry:{max}"),
        }
    }

    /// Maximum additional attempts this policy grants a transient
    /// failure.
    pub fn max_retries(&self) -> u32 {
        match self {
            FaultPolicy::Retry { max } => *max,
            _ => 0,
        }
    }
}

/// Deterministic fault-injection rates for chaos testing.
///
/// Each evaluator call derives one uniform number `u ∈ [0, 1)` from the
/// content-addressed digest of the call (see the module docs) and
/// partitions it: `u < panic_rate` panics, then `error_rate` returns a
/// transient [`EvalError`], then `nan_rate` fails as a non-finite value
/// would (with [`krigeval_core::FiniteGuard`]'s error); otherwise the
/// real simulator runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability that a call panics.
    pub panic_rate: f64,
    /// Probability that a call returns a transient evaluation error.
    pub error_rate: f64,
    /// Probability that a call returns a non-finite metric value.
    pub nan_rate: f64,
    /// Seed of the injection stream (independent of the benchmark seed).
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            panic_rate: 0.0,
            error_rate: 0.0,
            nan_rate: 0.0,
            seed: 0,
        }
    }
}

impl FaultConfig {
    /// Validates the rates: each finite and in `[0, 1]`, sum ≤ 1.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        for (name, rate) in [
            ("panic_rate", self.panic_rate),
            ("error_rate", self.error_rate),
            ("nan_rate", self.nan_rate),
        ] {
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(format!("fault {name} must be in [0, 1], got {rate}"));
            }
        }
        let total = self.panic_rate + self.error_rate + self.nan_rate;
        if total > 1.0 {
            return Err(format!("fault rates sum to {total}, which exceeds 1"));
        }
        Ok(())
    }

    /// Whether any injection can ever fire.
    pub fn is_active(&self) -> bool {
        self.panic_rate > 0.0 || self.error_rate > 0.0 || self.nan_rate > 0.0
    }
}

/// Which half of a run an injector is wired into. Part of the digest,
/// so the pilot and hybrid phases draw independent fault fates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPhase {
    /// The variogram pilot run.
    Pilot,
    /// The hybrid optimization run.
    Hybrid,
}

/// The splitmix64 finalizer as a stateless one-shot mixer: the digest is
/// this function folded over the key material word by word.
fn mix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fate a call's digest assigns it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultFate {
    /// Run the real simulator.
    Real,
    /// Panic (caught at the run boundary, or inside a pool worker).
    Panic,
    /// Return a transient [`EvalError`].
    Error,
    /// Fail as a non-finite metric value would, before anything can be
    /// stored or cached.
    Nan,
}

/// A content-addressed fault stream: one per `(run surface, attempt,
/// phase)`, assigning each configuration a fate that is independent of
/// evaluation order, worker, thread count and process (see the module
/// docs).
///
/// The stream is stateless — [`FaultStream::fate`] takes `&self` — so
/// one instance can be shared by a whole worker pool.
#[derive(Debug, Clone)]
pub struct FaultStream {
    config: FaultConfig,
    attempt: u32,
    base: u64,
}

impl FaultStream {
    /// Builds the stream for one attempt of one run phase. `surface` is
    /// the run's content identity — the engine passes its cache
    /// namespace, `benchmark/scale/run_seed`, i.e. exactly the inputs
    /// that determine the simulated surface.
    pub fn new(config: FaultConfig, surface: &str, attempt: u32, phase: FaultPhase) -> FaultStream {
        // FNV-1a over the surface id, then fold in the fault seed, the
        // attempt and the phase through the splitmix finalizer.
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in surface.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let phase = match phase {
            FaultPhase::Pilot => 0u64,
            FaultPhase::Hybrid => 1u64,
        };
        let base = mix64(mix64(mix64(h ^ config.seed) ^ u64::from(attempt)) ^ phase);
        FaultStream {
            config,
            attempt,
            base,
        }
    }

    /// Whether any injection can ever fire.
    pub fn is_active(&self) -> bool {
        self.config.is_active()
    }

    /// The content-addressed digest of one call: the stream base folded
    /// with the configuration words.
    fn digest(&self, config: &Config) -> u64 {
        let mut h = mix64(self.base ^ config.len() as u64);
        for &w in config {
            h = mix64(h ^ (i64::from(w) as u64));
        }
        h
    }

    /// Assigns `config` its fate under this stream. Pure: the same
    /// configuration gets the same fate no matter who asks, how often,
    /// or in what order.
    pub fn fate(&self, config: &Config) -> FaultFate {
        if !self.config.is_active() {
            return FaultFate::Real;
        }
        // Uniform in [0, 1) with 53 bits of the digest.
        let u = (self.digest(config) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if u < self.config.panic_rate {
            FaultFate::Panic
        } else if u < self.config.panic_rate + self.config.error_rate {
            FaultFate::Error
        } else if u < self.config.panic_rate + self.config.error_rate + self.config.nan_rate {
            FaultFate::Nan
        } else {
            FaultFate::Real
        }
    }

    /// The deterministic panic message for an injected panic on
    /// `config`. Content-addressed like the fate itself: no call
    /// counter, so every thread of every backend produces the same bytes.
    pub fn panic_message(&self, config: &Config) -> String {
        format!(
            "injected panic (config {config:?}, attempt {})",
            self.attempt
        )
    }

    /// The deterministic error for an injected transient failure on
    /// `config`.
    pub fn error(&self, config: &Config) -> EvalError {
        EvalError::msg(format!(
            "injected transient error (config {config:?}, attempt {})",
            self.attempt
        ))
    }

    /// The error an injected non-finite value surfaces as — byte-for-byte
    /// the message [`krigeval_core::FiniteGuard`] raises for a `NaN`
    /// metric, so an injected `NaN` fails exactly as an organic one would.
    pub fn nan_error(config: &Config) -> EvalError {
        EvalError::msg(format!(
            "non-finite metric value {} for configuration {config:?}",
            f64::NAN
        ))
    }

    /// Applies the fate of `config` at the backend boundary: returns
    /// `Ok(())` when the real simulator should run, raises the injected
    /// panic, or returns the injected error (transient, or the
    /// finite-guard-equivalent rejection for a `NaN` fate).
    ///
    /// # Errors
    ///
    /// Returns the injected [`EvalError`] for `Error` and `Nan` fates.
    ///
    /// # Panics
    ///
    /// Panics (deliberately) for `Panic` fates; the pool worker's
    /// `catch_unwind` re-throws the payload on the fulfilling thread.
    pub fn fire(&self, config: &Config) -> Result<(), EvalError> {
        match self.fate(config) {
            FaultFate::Real => Ok(()),
            FaultFate::Panic => panic!("{}", self.panic_message(config)),
            FaultFate::Error => Err(self.error(config)),
            FaultFate::Nan => Err(FaultStream::nan_error(config)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use krigeval_core::{AccuracyEvaluator, FiniteGuard, FnEvaluator};

    fn stream(config: FaultConfig, attempt: u32, phase: FaultPhase) -> FaultStream {
        FaultStream::new(config, "fir64/fast/0000000000000000", attempt, phase)
    }

    #[test]
    fn policy_parse_roundtrips() {
        for p in [
            FaultPolicy::FailFast,
            FaultPolicy::Skip,
            FaultPolicy::Retry { max: 3 },
        ] {
            assert_eq!(FaultPolicy::parse(&p.label()).unwrap(), p);
        }
        assert!(FaultPolicy::parse("retry").is_err());
        assert!(FaultPolicy::parse("retry:x").is_err());
        assert!(FaultPolicy::parse("explode").is_err());
        assert_eq!(FaultPolicy::default().max_retries(), 0);
        assert_eq!(FaultPolicy::Retry { max: 5 }.max_retries(), 5);
    }

    #[test]
    fn config_validation_rejects_bad_rates() {
        let ok = FaultConfig {
            panic_rate: 0.1,
            error_rate: 0.2,
            nan_rate: 0.3,
            seed: 1,
        };
        assert!(ok.validate().is_ok());
        assert!(ok.is_active());
        assert!(!FaultConfig::default().is_active());
        let negative = FaultConfig {
            panic_rate: -0.1,
            ..FaultConfig::default()
        };
        assert!(negative.validate().unwrap_err().contains("panic_rate"));
        let nan = FaultConfig {
            error_rate: f64::NAN,
            ..FaultConfig::default()
        };
        assert!(nan.validate().unwrap_err().contains("error_rate"));
        let oversum = FaultConfig {
            panic_rate: 0.5,
            error_rate: 0.4,
            nan_rate: 0.3,
            seed: 0,
        };
        assert!(oversum.validate().unwrap_err().contains("exceeds 1"));
    }

    #[test]
    fn inactive_config_never_fires() {
        let inactive = stream(FaultConfig::default(), 0, FaultPhase::Hybrid);
        assert!(!inactive.is_active());
        for i in 0..20 {
            assert_eq!(inactive.fate(&vec![i]), FaultFate::Real);
            assert!(inactive.fire(&vec![i]).is_ok());
        }
    }

    #[test]
    fn fates_are_content_addressed_not_order_addressed() {
        let config = FaultConfig {
            panic_rate: 0.0,
            error_rate: 0.3,
            nan_rate: 0.2,
            seed: 42,
        };
        let s = stream(config, 0, FaultPhase::Hybrid);
        let forward: Vec<FaultFate> = (0..200).map(|i| s.fate(&vec![i])).collect();
        let backward: Vec<FaultFate> = (0..200).rev().map(|i| s.fate(&vec![i])).collect();
        let reversed: Vec<FaultFate> = backward.into_iter().rev().collect();
        assert_eq!(forward, reversed, "evaluation order leaked into fates");
        // Re-querying a config draws the same fate, not a fresh one.
        for i in 0..200 {
            assert_eq!(s.fate(&vec![i]), forward[i as usize]);
        }
        assert!(forward.contains(&FaultFate::Error), "errors were injected");
        assert!(forward.contains(&FaultFate::Nan), "NaNs were injected");
        assert!(forward.contains(&FaultFate::Real), "real calls got through");
    }

    #[test]
    fn attempts_phases_and_surfaces_draw_independent_fates() {
        let config = FaultConfig {
            panic_rate: 0.2,
            error_rate: 0.2,
            nan_rate: 0.2,
            seed: 9,
        };
        let fates = |s: &FaultStream| -> Vec<FaultFate> {
            (0..400).map(|i| s.fate(&vec![i, -i])).collect()
        };
        let base = fates(&stream(config, 0, FaultPhase::Pilot));
        assert_ne!(
            base,
            fates(&stream(config, 1, FaultPhase::Pilot)),
            "a retry draws fresh fates"
        );
        assert_ne!(
            base,
            fates(&stream(config, 0, FaultPhase::Hybrid)),
            "phases draw independent fates"
        );
        assert_ne!(
            base,
            fates(&FaultStream::new(
                config,
                "iir8/fast/0000000000000000",
                0,
                FaultPhase::Pilot
            )),
            "surfaces draw independent fates"
        );
        let reseeded = FaultConfig { seed: 10, ..config };
        assert_ne!(
            base,
            fates(&stream(reseeded, 0, FaultPhase::Pilot)),
            "the fault seed feeds the digest"
        );
    }

    #[test]
    fn injected_panic_has_a_deterministic_message() {
        let config = FaultConfig {
            panic_rate: 1.0,
            error_rate: 0.0,
            nan_rate: 0.0,
            seed: 0,
        };
        let s = stream(config, 2, FaultPhase::Pilot);
        assert_eq!(
            s.panic_message(&vec![1]),
            "injected panic (config [1], attempt 2)"
        );
        // fire() raises exactly that payload.
        let caught = std::panic::catch_unwind(|| {
            let _ = stream(config, 2, FaultPhase::Pilot).fire(&vec![1]);
        })
        .unwrap_err();
        assert_eq!(
            caught.downcast_ref::<String>().unwrap(),
            "injected panic (config [1], attempt 2)"
        );
    }

    #[test]
    fn injected_nan_fails_like_the_finite_guard() {
        let config = FaultConfig {
            panic_rate: 0.0,
            error_rate: 0.0,
            nan_rate: 1.0,
            seed: 0,
        };
        let s = stream(config, 0, FaultPhase::Hybrid);
        let mut organic = FiniteGuard::new(FnEvaluator::new(1, |_: &Config| Ok(f64::NAN)));
        let err = organic.evaluate(&vec![5]).unwrap_err();
        assert!(err.to_string().contains("non-finite metric value"), "{err}");
        // An injected NaN reports the byte-identical rejection.
        assert_eq!(s.fire(&vec![5]).unwrap_err().to_string(), err.to_string());
    }

    #[test]
    fn rates_are_honoured_to_first_order() {
        let config = FaultConfig {
            panic_rate: 0.0,
            error_rate: 0.5,
            nan_rate: 0.0,
            seed: 1234,
        };
        let s = stream(config, 0, FaultPhase::Hybrid);
        let errors = (0..2000)
            .filter(|&i| s.fate(&vec![i]) == FaultFate::Error)
            .count();
        // A fixed digest: the count is a constant, just sanity-band it.
        assert!(
            (800..1200).contains(&errors),
            "error_rate 0.5 produced {errors}/2000 errors"
        );
    }

    #[test]
    fn fault_config_json_roundtrips() {
        let c = FaultConfig {
            panic_rate: 0.01,
            error_rate: 0.05,
            nan_rate: 0.02,
            seed: 99,
        };
        let json = serde_json::to_string(&c).unwrap();
        let back: FaultConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
        let p = FaultPolicy::Retry { max: 2 };
        let json = serde_json::to_string(&p).unwrap();
        let back: FaultPolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
