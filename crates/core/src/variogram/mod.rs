//! Semi-variograms: empirical estimation, parametric models, and fitting.
//!
//! The semi-variogram `γ(d)` is the correlation structure kriging relies on
//! (paper Section III-A): it measures how fast the metric `λ` decorrelates
//! with configuration distance. The workflow is the paper's two-step method:
//!
//! 1. compute the **empirical** semi-variogram `γ̂(d)` from the already
//!    measured configurations (Eq. 4) — [`EmpiricalVariogram`];
//! 2. **identify** it with a parametric model so `γ(d)` can be evaluated at
//!    any distance — [`VariogramModel`], [`fit_model`].
//!
//! [`identify`] runs both steps over integer configurations with the
//! selection criterion a session asks for; every identification of the
//! workspace goes through it.

mod empirical;
mod fit;
mod model;
mod table;

pub use empirical::{EmpiricalVariogram, VariogramBin};
pub use fit::{fit_model, fit_model_loo, identify, FitReport, ModelFamily, ModelSelection};
pub use model::VariogramModel;
pub use table::{lattice_distance, lattice_key, GammaTable};
