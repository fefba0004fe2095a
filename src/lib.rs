//! `krigeval` — fast kriging-based error evaluation for approximate
//! computing systems.
//!
//! This umbrella crate re-exports the whole workspace behind one dependency:
//!
//! * [`linalg`] — dense linear algebra: the Bunch–Kaufman LDLᵀ that solves
//!   the kriging system and the QR least squares of the variogram fit.
//! * [`fixedpoint`] — Q-format quantization and the noise-power / error
//!   metrics of the paper (Eqs. 11–12).
//! * [`kernels`] — the four word-length benchmarks (FIR, IIR, FFT, HEVC
//!   motion compensation) with reference and instrumented fixed-point paths.
//! * [`neural`] — the mini-SqueezeNet error-sensitivity benchmark.
//! * [`core`] — the paper's contribution: empirical semi-variograms,
//!   ordinary kriging, the hybrid kriging/simulation evaluator, and the
//!   min+1 / steepest-descent optimizers it plugs into.
//!
//! # Quickstart
//!
//! ```
//! use krigeval::core::kriging::KrigingEstimator;
//! use krigeval::core::variogram::VariogramModel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Interpolate a smooth 2-D field from four samples.
//! let sites = vec![
//!     vec![0.0, 0.0],
//!     vec![4.0, 0.0],
//!     vec![0.0, 4.0],
//!     vec![4.0, 4.0],
//! ];
//! let values = vec![0.0, 4.0, 4.0, 8.0]; // λ(x, y) = x + y
//! let model = VariogramModel::linear(1.0);
//! let estimator = KrigingEstimator::new(model);
//! let prediction = estimator.predict(&sites, &values, &[2.0, 2.0])?;
//! assert!((prediction.value - 4.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for full word-length-optimization and error-sensitivity
//! walkthroughs, the `campaign matrix` command of `krigeval-engine` for
//! Table I, and the `krigeval-bench` crate for Figure 1 and the ablations.

#![forbid(unsafe_code)]

pub use krigeval_core as core;
pub use krigeval_fixedpoint as fixedpoint;
pub use krigeval_kernels as kernels;
pub use krigeval_linalg as linalg;
pub use krigeval_neural as neural;

/// One-line import of the types nearly every user of the crate touches.
///
/// # Examples
///
/// ```
/// use krigeval::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let est = KrigingEstimator::new(VariogramModel::linear(1.0));
/// let p = est.predict(&[vec![0.0], vec![2.0]], &[1.0, 3.0], &[1.0])?;
/// assert!((p.value - 2.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub mod prelude {
    pub use krigeval_core::hybrid::{
        AuditMetric, HybridEvaluator, HybridSettings, VariogramPolicy,
    };
    pub use krigeval_core::kriging::KrigingEstimator;
    pub use krigeval_core::opt::descent::{budget_error_sources, DescentOptions};
    pub use krigeval_core::opt::minplusone::{
        optimize, optimize_with_tie_break, MinPlusOneOptions,
    };
    pub use krigeval_core::opt::SimulateAll;
    pub use krigeval_core::variogram::{fit_model, EmpiricalVariogram, ModelFamily};
    pub use krigeval_core::{
        AccuracyEvaluator, Config, DistanceMetric, EvalError, FnEvaluator, VariogramModel,
    };
    pub use krigeval_fixedpoint::{NoiseMeter, NoisePower, QFormat, Quantizer};
    pub use krigeval_kernels::WordLengthBenchmark;
}
