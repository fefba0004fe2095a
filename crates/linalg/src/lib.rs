//! Hand-rolled dense linear algebra for kriging systems.
//!
//! The ordinary-kriging system solved by `krigeval-core` has the block form
//!
//! ```text
//! | γ̂(d_00) ... γ̂(d_0,N-1)  1 |   | μ_0  |   | γ̂(d_i0)  |
//! |   ...          ...      . | · | ...  | = |   ...     |
//! | γ̂(d_N-1,0) ...          1 |   | μ_N-1|   | γ̂(d_i,N-1)|
//! |   1     ...    1        0 |   |  m   |   |    1      |
//! ```
//!
//! which is symmetric but **indefinite** (the Lagrange row puts a zero on the
//! diagonal), so kriging solves it with the Bunch–Kaufman LDLᵀ
//! factorization of [`LdltWorkspace`]: symmetric pivoting that suits this
//! matrix class, over reusable buffers that make steady-state solves
//! allocation-free. [`LuDecomposition`] (partial pivoting) is a general
//! dense solver, [`Cholesky`] serves covariance-form kriging and tests, and
//! [`QrDecomposition`] backs the least-squares variogram-model fit.
//!
//! The crate is deliberately dependency-free: the Rust Gaussian-process /
//! geostatistics ecosystem is thin, so everything the paper reproduction
//! needs is implemented from scratch and tested here.
//!
//! # Examples
//!
//! ```
//! use krigeval_linalg::LdltWorkspace;
//!
//! # fn main() -> Result<(), krigeval_linalg::LinalgError> {
//! // Two sites with γ = 2 between them, plus the Lagrange border.
//! let gamma = [
//!     0.0, 2.0, 1.0, //
//!     2.0, 0.0, 1.0, //
//!     1.0, 1.0, 0.0,
//! ];
//! let mut ws = LdltWorkspace::new();
//! ws.factor(&gamma, 3)?;
//! // Target midway: γ = 1 to each site; the weights split evenly.
//! let mut x = [1.0, 1.0, 1.0];
//! ws.solve_in_place(&mut x)?;
//! assert!((x[0] - 0.5).abs() < 1e-12 && (x[1] - 0.5).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Numeric kernels (substitution loops, butterfly passes, separable
// filters) read several arrays at one index; explicit index loops are the
// clearest form for them.
#![allow(clippy::needless_range_loop)]

mod cholesky;
mod error;
pub mod ldlt;
pub mod lu;
mod matrix;
pub mod qr;
mod vector;

pub use cholesky::Cholesky;
pub use error::LinalgError;
pub use ldlt::LdltWorkspace;
pub use lu::{lu_solve, LuDecomposition};
pub use matrix::Matrix;
pub use qr::{least_squares, QrDecomposition};
pub use vector::{dot, norm_l1, norm_l2, norm_linf};
