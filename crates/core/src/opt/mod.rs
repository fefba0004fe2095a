//! Host optimization algorithms for the AC design-space exploration.
//!
//! Two greedy optimizers from the paper's experimental study:
//!
//! * [`minplusone`] — the **min+1 bit** word-length optimization algorithm
//!   (paper Algorithms 1 and 2, after Cantin et al., ref \[15\]);
//! * [`descent`] — the **steepest-descent error-budgeting** algorithm used
//!   for the SqueezeNet sensitivity analysis (after Parashar et al.,
//!   ref \[22\]).
//!
//! Both consume a [`DseEvaluator`] so they run identically on a pure
//! simulation evaluator (wrapped in [`SimulateAll`]) or on the paper's
//! [`crate::HybridEvaluator`] — which is exactly how the kriging speed-up
//! and the ≈10 % decision divergence are measured.

pub mod descent;
pub mod minplusone;

use std::error::Error;
use std::fmt;

use crate::eval_backend::{EvalBackend, SimulationRequest};
use crate::evaluator::EvalError;
use crate::hybrid::HybridEvaluator;
use crate::trace::{OptimizationTrace, Source};
use crate::Config;

/// What the optimizers consume: a metric oracle that also reports whether
/// each value was simulated or kriged.
pub trait DseEvaluator {
    /// Evaluates the metric for `config`, returning the value and its
    /// provenance.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] if the underlying simulation rejects the
    /// configuration.
    fn query(&mut self, config: &Config) -> Result<(f64, Source), EvalError>;

    /// Evaluates the metric by **simulation**, bypassing any interpolation
    /// (used by tie-break-by-simulation fidelity modes). The default
    /// delegates to [`DseEvaluator::query`], which is already exact for
    /// pure-simulation evaluators.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DseEvaluator::query`].
    fn query_exact(&mut self, config: &Config) -> Result<f64, EvalError> {
        Ok(self.query(config)?.0)
    }

    /// Evaluates many configurations at once, returning values and
    /// provenances in input order. Optimizers use this for per-iteration
    /// candidate scans; evaluators with a cheaper batched path (the hybrid
    /// evaluator plans the whole batch, fulfills the deduplicated
    /// simulations through its backend, and factors each kriging system
    /// once) override it.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] if any configuration fails. The contract is
    /// **all-or-nothing**: a session-stateful implementation must either
    /// commit the entire batch or leave its observable state (stores,
    /// query/trace counters) untouched — both in-tree stateful
    /// implementations ([`HybridEvaluator`] and [`SimulateAll`]) do the
    /// latter. The default loops over [`DseEvaluator::query`], which
    /// satisfies the contract only for implementations without per-query
    /// commit state; stateful implementors must override it.
    fn query_batch(&mut self, configs: &[Config]) -> Result<Vec<(f64, Source)>, EvalError> {
        configs.iter().map(|c| self.query(c)).collect()
    }

    /// Number of optimization variables `Nv`.
    fn num_variables(&self) -> usize;

    /// Marks the start of one optimizer iteration (`phase` names the
    /// algorithm stage, `iteration` its 0-based count). Optimizers call
    /// this at each loop head so observable evaluators can segment the
    /// query stream by iteration; the default does nothing, and
    /// implementations must not let it affect any evaluation result.
    fn observe_iteration(&mut self, phase: &'static str, iteration: u64) {
        let _ = (phase, iteration);
    }
}

impl<E: EvalBackend> DseEvaluator for HybridEvaluator<E> {
    fn query(&mut self, config: &Config) -> Result<(f64, Source), EvalError> {
        let outcome = self.evaluate(config)?;
        Ok((outcome.value(), outcome.source()))
    }

    fn query_exact(&mut self, config: &Config) -> Result<f64, EvalError> {
        self.simulate_exact(config)
    }

    fn query_batch(&mut self, configs: &[Config]) -> Result<Vec<(f64, Source)>, EvalError> {
        Ok(self
            .evaluate_batch(configs)?
            .into_iter()
            .map(|o| (o.value(), o.source()))
            .collect())
    }

    fn num_variables(&self) -> usize {
        // The hybrid wrapper does not change the problem dimension.
        self.inner_ref().num_variables()
    }

    fn observe_iteration(&mut self, phase: &'static str, iteration: u64) {
        self.record_iteration(phase, iteration);
    }
}

/// Adapts any [`EvalBackend`] (and therefore any pure
/// [`crate::AccuracyEvaluator`]) into a [`DseEvaluator`] whose queries are
/// all simulations — the kriging-free baseline. With a parallel backend,
/// batch queries fan out over its worker pool.
///
/// # Examples
///
/// ```
/// use krigeval_core::opt::{DseEvaluator, SimulateAll};
/// use krigeval_core::FnEvaluator;
///
/// # fn main() -> Result<(), krigeval_core::EvalError> {
/// let mut ev = SimulateAll(FnEvaluator::new(1, |w| Ok(f64::from(w[0]))));
/// let (value, source) = ev.query(&vec![7])?;
/// assert_eq!(value, 7.0);
/// assert_eq!(source, krigeval_core::trace::Source::Simulated);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SimulateAll<E>(pub E);

impl<E: EvalBackend> DseEvaluator for SimulateAll<E> {
    fn query(&mut self, config: &Config) -> Result<(f64, Source), EvalError> {
        Ok((self.0.fulfill_one(config)?, Source::Simulated))
    }

    fn query_batch(&mut self, configs: &[Config]) -> Result<Vec<(f64, Source)>, EvalError> {
        // Every config becomes a request (no dedup: the pure baseline
        // simulates each query, so `N_λ` accounting stays faithful); the
        // backend decides how to schedule them. All-or-nothing by
        // construction — this wrapper holds no commit state.
        let requests: Vec<SimulationRequest> = configs
            .iter()
            .map(|c| SimulationRequest::new(c.clone()))
            .collect();
        Ok(self
            .0
            .fulfill(&requests)?
            .into_iter()
            .map(|v| (v, Source::Simulated))
            .collect())
    }

    fn num_variables(&self) -> usize {
        self.0.num_variables()
    }
}

/// Error returned by the optimizers.
#[derive(Debug)]
#[non_exhaustive]
pub enum OptError {
    /// A metric evaluation failed.
    Eval(EvalError),
    /// No configuration within the variable bounds satisfies the constraint.
    Infeasible {
        /// Best metric value reached.
        best_lambda: f64,
        /// The constraint that could not be met.
        lambda_min: f64,
    },
    /// The iteration budget was exhausted.
    DidNotConverge {
        /// Iterations performed.
        iterations: u64,
    },
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptError::Eval(e) => write!(f, "{e}"),
            OptError::Infeasible {
                best_lambda,
                lambda_min,
            } => write!(
                f,
                "constraint infeasible: best metric {best_lambda} < required {lambda_min}"
            ),
            OptError::DidNotConverge { iterations } => {
                write!(
                    f,
                    "optimization did not converge after {iterations} iterations"
                )
            }
        }
    }
}

impl Error for OptError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            OptError::Eval(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EvalError> for OptError {
    fn from(e: EvalError) -> OptError {
        OptError::Eval(e)
    }
}

/// Outcome of a complete optimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizationResult {
    /// The optimized configuration (`w_res` / the tolerated error powers).
    pub solution: Config,
    /// Metric value at the solution.
    pub lambda: f64,
    /// Greedy iterations performed.
    pub iterations: u64,
    /// Every query and decision made along the way.
    pub trace: OptimizationTrace,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnEvaluator;

    #[test]
    fn simulate_all_reports_simulated_source() {
        let mut ev = SimulateAll(FnEvaluator::new(2, |w| Ok(f64::from(w[0] * w[1]))));
        let (v, s) = ev.query(&vec![3, 4]).unwrap();
        assert_eq!(v, 12.0);
        assert_eq!(s, Source::Simulated);
        assert_eq!(ev.num_variables(), 2);
    }

    #[test]
    fn opt_error_display() {
        let e = OptError::Infeasible {
            best_lambda: 40.0,
            lambda_min: 60.0,
        };
        assert!(e.to_string().contains("infeasible"));
        let e = OptError::DidNotConverge { iterations: 99 };
        assert!(e.to_string().contains("99"));
        let e: OptError = EvalError::msg("x").into();
        assert!(Error::source(&e).is_some());
    }
}
