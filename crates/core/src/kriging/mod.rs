//! Ordinary kriging: the paper's Eqs. 7–10.

mod estimator;
mod system;

pub use estimator::{KrigingEstimator, Prediction};
pub use system::KrigingScratch;
