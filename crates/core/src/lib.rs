//! Kriging-based error evaluation for approximate computing systems.
//!
//! This crate is the primary contribution of the reproduced paper
//! (Bonnot/Menard/Desnos, DATE 2020): during approximate-computing design
//! space exploration, replace a large fraction of the expensive
//! simulation-based quality-metric evaluations with **ordinary kriging**
//! interpolation from previously simulated configurations.
//!
//! # Architecture
//!
//! * [`variogram`] — the empirical semi-variogram of Eq. 4, parametric
//!   variogram models, and least-squares model identification.
//! * [`kriging`] — the ordinary-kriging system of Eqs. 7–10 and the
//!   user-facing [`kriging::KrigingEstimator`].
//! * [`evaluator`] — the [`evaluator::AccuracyEvaluator`] abstraction over
//!   "simulate configuration `w`, get metric `λ`".
//! * [`hybrid`] — the paper's core loop (Algorithms 1–2, lines 6–24): gather
//!   simulated neighbours within distance `d`; krige when more than
//!   `N_n,min` are available, simulate (and record) otherwise; with an
//!   *audit mode* that also simulates kriged points to measure the
//!   interpolation error ε of Eqs. 11–12 (this is how Table I is produced).
//! * [`eval_backend`] — the fulfillment half of the plan/fulfill batch
//!   protocol: [`eval_backend::EvalBackend`] executes the deduplicated
//!   [`eval_backend::SimulationRequest`]s a planned batch produced, either
//!   inline (any [`evaluator::AccuracyEvaluator`]) or on a worker pool.
//! * [`opt`] — the host optimizers: the min+1 bit word-length algorithm
//!   (Algorithms 1 and 2) and the steepest-descent error-budgeting
//!   algorithm used for the SqueezeNet sensitivity analysis.
//! * [`report`] — experiment rows matching Table I's columns.
//!
//! # Quickstart
//!
//! ```
//! use krigeval_core::kriging::KrigingEstimator;
//! use krigeval_core::variogram::VariogramModel;
//!
//! # fn main() -> Result<(), krigeval_core::CoreError> {
//! let sites = vec![
//!     vec![0.0, 0.0],
//!     vec![4.0, 0.0],
//!     vec![0.0, 4.0],
//!     vec![4.0, 4.0],
//! ];
//! let values = vec![0.0, 4.0, 4.0, 8.0]; // λ(x, y) = x + y
//! let estimator = KrigingEstimator::new(VariogramModel::linear(1.0));
//! let p = estimator.predict(&sites, &values, &[2.0, 2.0])?;
//! assert!((p.value - 4.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod distance;
mod error;
pub mod eval_backend;
pub mod evaluator;
pub mod hybrid;
pub mod hybrid_snapshot;
pub mod kriging;
pub mod neighbors;
pub mod opt;
pub mod report;
pub mod trace;
pub mod validation;
pub mod variogram;

pub use distance::DistanceMetric;
pub use error::CoreError;
pub use eval_backend::{EvalBackend, SimulationRequest};
pub use evaluator::{AccuracyEvaluator, EvalError, FiniteGuard, FnEvaluator};
pub use hybrid::{
    ApproxSettings, GatePolicy, HybridEvaluator, HybridObs, HybridSettings, HybridStats,
    NuggetPolicy, Outcome, VariogramPolicy,
};
pub use hybrid_snapshot::SessionSnapshot;
pub use kriging::KrigingEstimator;
pub use variogram::{ModelSelection, VariogramModel};

/// A tested approximation configuration: the paper's vector
/// `e = (e₀, …, e_{Nv−1})` — word-lengths for the fixed-point benchmarks,
/// error-source grid indices for the sensitivity benchmark. All the paper's
/// optimizers walk integer lattices.
pub type Config = Vec<i32>;
