//! Cholesky factorization for symmetric positive-definite systems.

use crate::{LinalgError, Matrix};

/// Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite matrix.
///
/// The ordinary-kriging Γ matrix is *not* positive definite (Lagrange row),
/// so kriging itself uses the Bunch–Kaufman LDLᵀ of [`crate::LdltWorkspace`].
/// Cholesky backs the covariance-form sanity checks in the test suite and
/// is the natural solver for simple kriging (known mean), which the crate
/// also exposes.
///
/// # Examples
///
/// ```
/// use krigeval_linalg::{Matrix, Cholesky};
///
/// # fn main() -> Result<(), krigeval_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let ch = Cholesky::new(&a)?;
/// let x = ch.solve(&[6.0, 5.0])?;
/// let back = a.mul_vec(&x)?;
/// assert!((back[0] - 6.0).abs() < 1e-12 && (back[1] - 5.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor, stored densely (upper part zeroed).
    l: Matrix,
}

impl Cholesky {
    /// Factorizes the symmetric positive-definite matrix `a`.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the upper triangle
    /// is checked to `1e-8 · max|a|` and rejected if violated.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] if `a` is not square or not symmetric.
    /// * [`LinalgError::Empty`] if `a` is 0×0.
    /// * [`LinalgError::NotPositiveDefinite`] if a pivot is ≤ 0.
    pub fn new(a: &Matrix) -> Result<Cholesky, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::ShapeMismatch {
                expected: "square matrix".into(),
                actual: format!("{}x{}", a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        if !a.is_symmetric(1e-8 * a.max_abs().max(1.0)) {
            return Err(LinalgError::ShapeMismatch {
                expected: "symmetric matrix".into(),
                actual: "asymmetric matrix".into(),
            });
        }

        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            let mut diag = a[(j, j)];
            for k in 0..j {
                diag -= l[(j, k)] * l[(j, k)];
            }
            if diag <= 0.0 || !diag.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { column: j });
            }
            let ljj = diag.sqrt();
            l[(j, j)] = ljj;
            for i in (j + 1)..n {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = sum / ljj;
            }
        }
        Ok(Cholesky { l })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrows the lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A·x = b` via `L·y = b` then `Lᵀ·x = y`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("vector of length {n}"),
                actual: format!("vector of length {}", b.len()),
            });
        }
        let mut y = b.to_vec();
        for i in 0..n {
            for j in 0..i {
                y[i] -= self.l[(i, j)] * y[j];
            }
            y[i] /= self.l[(i, i)];
        }
        for i in (0..n).rev() {
            for j in (i + 1)..n {
                y[i] -= self.l[(j, i)] * y[j];
            }
            y[i] /= self.l[(i, i)];
        }
        Ok(y)
    }

    /// Log-determinant of `A` (always finite for a valid factorization).
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_spd_matrix() {
        let a = Matrix::from_rows(&[
            &[4.0, 12.0, -16.0],
            &[12.0, 37.0, -43.0],
            &[-16.0, -43.0, 98.0],
        ])
        .unwrap();
        let ch = Cholesky::new(&a).unwrap();
        // Known factorization: L = [[2,0,0],[6,1,0],[-8,5,3]].
        let l = ch.factor();
        assert!((l[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((l[(1, 0)] - 6.0).abs() < 1e-12);
        assert!((l[(2, 1)] - 5.0).abs() < 1e-12);
        assert!((l[(2, 2)] - 3.0).abs() < 1e-12);
        // Reconstruction L·Lᵀ = A.
        let back = l.mul(&l.transpose()).unwrap();
        assert!(back.sub(&a).unwrap().max_abs() < 1e-10);
    }

    #[test]
    fn solve_matches_lu() {
        let a = Matrix::from_rows(&[&[5.0, 2.0], &[2.0, 3.0]]).unwrap();
        let b = [1.0, 4.0];
        let x_ch = Cholesky::new(&a).unwrap().solve(&b).unwrap();
        let x_lu = crate::lu::lu_solve(&a, &b).unwrap();
        assert!((x_ch[0] - x_lu[0]).abs() < 1e-12);
        assert!((x_ch[1] - x_lu[1]).abs() < 1e-12);
    }

    #[test]
    fn rejects_indefinite_kriging_matrix() {
        // Ordinary-kriging layout: zero on the last diagonal entry.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        assert!(matches!(
            Cholesky::new(&a).unwrap_err(),
            LinalgError::NotPositiveDefinite { .. }
        ));
    }

    #[test]
    fn rejects_asymmetric() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        assert!(matches!(
            Cholesky::new(&a).unwrap_err(),
            LinalgError::ShapeMismatch { .. }
        ));
    }

    #[test]
    fn rejects_non_square() {
        assert!(Cholesky::new(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn log_det_matches_lu_det() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 9.0]]).unwrap();
        let ld = Cholesky::new(&a).unwrap().log_det();
        let det = crate::LuDecomposition::new(&a).unwrap().det();
        assert!((ld - det.ln()).abs() < 1e-10);
    }

    #[test]
    fn solve_rejects_wrong_length() {
        let ch = Cholesky::new(&Matrix::identity(3)).unwrap();
        assert!(ch.solve(&[1.0]).is_err());
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Random SPD matrix built as BᵀB + I.
        fn spd_matrix(n: usize) -> impl Strategy<Value = Matrix> {
            proptest::collection::vec(-3.0..3.0f64, n * n).prop_map(move |v| {
                let b = Matrix::from_vec(n, n, v).unwrap();
                b.transpose()
                    .mul(&b)
                    .unwrap()
                    .add(&Matrix::identity(n))
                    .unwrap()
            })
        }

        proptest! {
            #[test]
            fn cholesky_reconstructs(a in spd_matrix(4)) {
                let ch = Cholesky::new(&a).unwrap();
                let l = ch.factor();
                let back = l.mul(&l.transpose()).unwrap();
                prop_assert!(back.sub(&a).unwrap().max_abs() < 1e-8);
            }

            #[test]
            fn cholesky_solve_residual_is_tiny(
                a in spd_matrix(4),
                b in proptest::collection::vec(-5.0..5.0f64, 4),
            ) {
                let x = Cholesky::new(&a).unwrap().solve(&b).unwrap();
                let r = a.mul_vec(&x).unwrap();
                for (ri, bi) in r.iter().zip(&b) {
                    prop_assert!((ri - bi).abs() < 1e-8);
                }
            }
        }
    }
}
