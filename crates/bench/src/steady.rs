//! A hybrid session in its kriging steady state on a smooth 2-D metric:
//! the fixture of the hot-path timings (`perfsmoke` and the criterion
//! `hybrid_steady_state_kriged_evaluate` bench).
//!
//! The session identifies its variogram from a 6×5 grid of simulated
//! configurations (`[4, 10) × [4, 9)`), then simulates a band that
//! continues the grid's five rows. [`SolveProbes`] cycles over the
//! configurations just above and below the band, each kriged from the nine
//! neighbours (d = 3, L1) that the grid's corner probe `[10, 6]` has. Each
//! lap begins with one simulation far from every probe, which moves the
//! session state, so no probe is ever answered from the kriged-answer
//! memo: every [`SolveProbes::evaluate`] is a solve plus a memo insert.
//! Re-querying one probe instead times the recalled path.

use krigeval_core::variogram::ModelFamily;
use krigeval_core::{
    Config, EvalBackend, EvalError, FnEvaluator, HybridEvaluator, HybridSettings, Outcome,
    VariogramModel, VariogramPolicy,
};

/// The steady-state metric, the additive quantization-noise model of the
/// word-length benchmarks, as a nameable `fn` so sessions with and without
/// a metrics bundle share one concrete evaluator type.
pub fn steady_metric(w: &Config) -> Result<f64, EvalError> {
    let p = 1.5 * 2f64.powi(-2 * w[0]) + 0.8 * 2f64.powi(-2 * w[1]);
    Ok(-10.0 * p.log10())
}

/// The evaluator of a [`steady_session`].
pub type SteadyEval = FnEvaluator<fn(&Config) -> Result<f64, EvalError>>;

/// Probes per lap: two per band column, fewer than the memo keeps at one
/// session state.
const LAP: usize = 512;

/// A session with its variogram identified and the probe band simulated.
pub fn steady_session() -> HybridEvaluator<SteadyEval> {
    let eval = FnEvaluator::new(2, steady_metric as fn(&Config) -> Result<f64, EvalError>);
    let settings = HybridSettings {
        variogram: VariogramPolicy::FitAfter {
            min_samples: 30,
            families: ModelFamily::all().to_vec(),
            fallback: VariogramModel::linear(1.0),
        },
        ..HybridSettings::default()
    };
    let mut hybrid = HybridEvaluator::new(eval, settings);
    for a in 4..10 {
        for b in 4..9 {
            hybrid.evaluate(&vec![a, b]).expect("seed simulation");
        }
    }
    assert!(hybrid.model().is_some(), "variogram must be identified");
    // Probe columns run from 6 to 5 + LAP/2; each needs two band columns
    // on either side.
    for a in 10..=7 + (LAP / 2) as i32 {
        for b in 4..9 {
            hybrid.simulate_exact(&vec![a, b]).expect("band simulation");
        }
    }
    hybrid
}

/// Walks a [`steady_session`]'s probes so that every query is solved.
#[derive(Debug)]
pub struct SolveProbes {
    probes: Vec<Config>,
    next: usize,
    laps: i32,
}

impl Default for SolveProbes {
    fn default() -> SolveProbes {
        let probes = (0..LAP)
            .map(|i| vec![6 + (i / 2) as i32, if i % 2 == 0 { 9 } else { 3 }])
            .collect();
        SolveProbes {
            probes,
            next: 0,
            laps: 0,
        }
    }
}

impl SolveProbes {
    /// Evaluates the next probe, which the memo cannot answer.
    ///
    /// # Errors
    ///
    /// Propagates the session's [`EvalError`].
    pub fn evaluate<E: EvalBackend>(
        &mut self,
        hybrid: &mut HybridEvaluator<E>,
    ) -> Result<Outcome, EvalError> {
        if self.next == 0 {
            // Out of every probe's reach, but it moves the session state,
            // so the memo forgets the previous lap.
            hybrid.simulate_exact(&vec![100_000 + self.laps, 9])?;
            self.laps += 1;
        }
        let probe = &self.probes[self.next];
        self.next = (self.next + 1) % LAP;
        hybrid.evaluate(probe)
    }

    /// A probe the session kriges, for timing the recalled path.
    pub fn probe(&self) -> &Config {
        &self.probes[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use krigeval_core::trace::Source;

    #[test]
    fn every_probe_is_kriged_from_nine_neighbours() {
        let mut hybrid = steady_session();
        let mut probes = SolveProbes::default();
        for _ in 0..LAP + 3 {
            match probes.evaluate(&mut hybrid).unwrap() {
                Outcome::Kriged { neighbors, .. } => assert_eq!(neighbors, 9),
                other => panic!("expected a kriged outcome, got {other:?}"),
            }
        }
        let probe = probes.probe().clone();
        assert_eq!(hybrid.evaluate(&probe).unwrap().source(), Source::Kriged);
        assert_eq!(hybrid.stats().kriging_failures, 0);
    }
}
