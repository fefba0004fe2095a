//! Dense LU with partial pivoting: the reference solver the LDLᵀ and QR
//! tests compare against. Compiled for tests only.

use crate::{LinalgError, Matrix};

/// Relative pivot threshold below which the matrix is declared singular
/// (the same tolerance as [`crate::LdltWorkspace`]).
const SINGULAR_TOL: f64 = 1e-13;

/// Factors `a` as `P·A = L·U` and solves `A·x = b`.
///
/// # Errors
///
/// [`LinalgError::Singular`] if a pivot is (numerically) zero.
pub(crate) fn lu_solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let n = a.rows();
    assert_eq!((a.cols(), b.len()), (n, n), "square system expected");
    let mut lu = a.clone();
    let mut x = b.to_vec();
    let scale = a.max_abs().max(1.0);
    for k in 0..n {
        // Partial pivoting: the largest |entry| in column k at or below
        // the diagonal.
        let mut pivot_row = k;
        for i in (k + 1)..n {
            if lu[(i, k)].abs() > lu[(pivot_row, k)].abs() {
                pivot_row = i;
            }
        }
        if lu[(pivot_row, k)].abs() <= SINGULAR_TOL * scale {
            return Err(LinalgError::Singular { pivot: k });
        }
        if pivot_row != k {
            for j in 0..n {
                let tmp = lu[(k, j)];
                lu[(k, j)] = lu[(pivot_row, j)];
                lu[(pivot_row, j)] = tmp;
            }
            x.swap(k, pivot_row);
        }
        for i in (k + 1)..n {
            let factor = lu[(i, k)] / lu[(k, k)];
            lu[(i, k)] = factor;
            for j in (k + 1)..n {
                let delta = factor * lu[(k, j)];
                lu[(i, j)] -= delta;
            }
        }
    }
    // Forward substitution with the unit-diagonal L, then back
    // substitution with U.
    for i in 1..n {
        for j in 0..i {
            x[i] -= lu[(i, j)] * x[j];
        }
    }
    for i in (0..n).rev() {
        for j in (i + 1)..n {
            x[i] -= lu[(i, j)] * x[j];
        }
        x[i] /= lu[(i, i)];
    }
    Ok(x)
}
