//! Symmetric-indefinite LDLᵀ factorization with a reusable workspace.
//!
//! The ordinary-kriging saddle-point matrix Γ (paper Eq. 9) is symmetric
//! but indefinite — every diagonal entry of the data block is `γ(0) = 0`
//! and the Lagrange corner is zero too — so plain Cholesky and unpivoted
//! LDLᵀ both fail on the very first pivot. The classical remedy is
//! **Bunch–Kaufman partial pivoting** (the LAPACK `dsytf2`/`dsytrs`
//! scheme): symmetric row/column interchanges with a mix of 1×1 and 2×2
//! diagonal pivot blocks. It preserves symmetry (half the flops of LU on
//! the same matrix) and is backward stable on exactly this matrix class.
//!
//! [`LdltWorkspace`] is a **caller-owned scratch**: buffers are grown
//! once and reused across factorizations, so a steady-state caller
//! (the hybrid evaluator solving thousands of small kriging systems)
//! performs zero heap allocations after warm-up.
//!
//! # Examples
//!
//! ```
//! use krigeval_linalg::LdltWorkspace;
//!
//! # fn main() -> Result<(), krigeval_linalg::LinalgError> {
//! // A kriging-like saddle system: zero diagonal everywhere.
//! let a = [
//!     0.0, 1.5, 1.0, //
//!     1.5, 0.0, 1.0, //
//!     1.0, 1.0, 0.0,
//! ];
//! let mut ws = LdltWorkspace::new();
//! ws.factor(&a, 3)?;
//! let mut x = [2.5, 2.5, 2.0];
//! ws.solve_in_place(&mut x)?;
//! for xi in &x {
//!     assert!((xi - 1.0).abs() < 1e-12);
//! }
//! # Ok(())
//! # }
//! ```

use crate::LinalgError;

/// The Bunch–Kaufman pivot-selection constant `(1 + √17) / 8 ≈ 0.6404`,
/// which minimizes the worst-case element growth over both pivot kinds.
const ALPHA: f64 = 0.640_388_203_202_208_4;

/// Reusable workspace holding an LDLᵀ factorization of a symmetric matrix.
///
/// `factor` copies the input into an internal buffer and factorizes in
/// place; `solve_in_place` then back-substitutes any number of right-hand
/// sides. Buffers are retained between calls, so repeated factorizations
/// of same-or-smaller systems never reallocate.
#[derive(Debug, Clone, Default)]
pub struct LdltWorkspace {
    /// Dimension of the currently held factorization.
    n: usize,
    /// Row-major `n × n` working matrix; after `factor`, the lower triangle
    /// holds the multipliers of `L` and the (block) diagonal of `D`.
    a: Vec<f64>,
    /// Pivot record, LAPACK `ipiv` style in 0-based form: `piv[k] = p ≥ 0`
    /// means a 1×1 pivot with rows/columns `k ↔ p` interchanged;
    /// `piv[k] = piv[k+1] = -(p+1)` means a 2×2 pivot block at `(k, k+1)`
    /// with rows/columns `k+1 ↔ p` interchanged.
    piv: Vec<isize>,
}

impl LdltWorkspace {
    /// Relative pivot threshold below which the matrix is declared
    /// singular (the test-only LU reference uses the same tolerance).
    const SINGULAR_TOL: f64 = 1e-13;

    /// Creates an empty workspace; buffers are allocated lazily by
    /// [`LdltWorkspace::factor`].
    pub fn new() -> LdltWorkspace {
        LdltWorkspace::default()
    }

    /// Dimension of the factorization currently held.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Factorizes the symmetric `n × n` matrix stored row-major in `a`
    /// (only the lower triangle is read) as `P·A·Pᵀ = L·D·Lᵀ`.
    ///
    /// The input is copied into the workspace; `a` itself is not modified.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::Empty`] if `n == 0`.
    /// * [`LinalgError::ShapeMismatch`] if `a.len() < n·n`.
    /// * [`LinalgError::NonFinite`] if the lower triangle contains NaN/∞.
    /// * [`LinalgError::Singular`] if a pivot column is numerically zero.
    pub fn factor(&mut self, a: &[f64], n: usize) -> Result<(), LinalgError> {
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        if a.len() < n * n {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("{} elements ({n}x{n} row-major)", n * n),
                actual: format!("{} elements", a.len()),
            });
        }
        self.n = n;
        self.a.clear();
        self.a.extend_from_slice(&a[..n * n]);
        self.piv.clear();
        self.piv.resize(n, 0);

        // Scale for the relative singularity test: the largest |entry| of
        // the lower triangle (the only part the factorization reads).
        let mut scale = 1.0f64;
        for i in 0..n {
            for j in 0..=i {
                let v = self.a[i * n + j];
                if !v.is_finite() {
                    return Err(LinalgError::NonFinite { row: i, col: j });
                }
                scale = scale.max(v.abs());
            }
        }
        let tol = Self::SINGULAR_TOL * scale;

        let mut k = 0usize;
        while k < n {
            let mut kstep = 1usize;
            let absakk = self.at(k, k).abs();
            // Largest off-diagonal |entry| in column k below the diagonal.
            let (imax, colmax) = {
                let mut imax = k;
                let mut colmax = 0.0f64;
                for i in (k + 1)..n {
                    let v = self.at(i, k).abs();
                    if v > colmax {
                        colmax = v;
                        imax = i;
                    }
                }
                (imax, colmax)
            };
            if absakk.max(colmax) <= tol {
                return Err(LinalgError::Singular { pivot: k });
            }

            let kp;
            if absakk >= ALPHA * colmax {
                kp = k; // 1×1 pivot, no interchange
            } else {
                // rowmax: largest |entry| in row imax of the trailing
                // submatrix (read through the lower triangle).
                let mut rowmax = 0.0f64;
                for j in k..imax {
                    rowmax = rowmax.max(self.at(imax, j).abs());
                }
                for i in (imax + 1)..n {
                    rowmax = rowmax.max(self.at(i, imax).abs());
                }
                if absakk >= ALPHA * colmax * (colmax / rowmax) {
                    kp = k; // 1×1 pivot, no interchange
                } else if self.at(imax, imax).abs() >= ALPHA * rowmax {
                    kp = imax; // 1×1 pivot, interchange k ↔ imax
                } else {
                    kp = imax; // 2×2 pivot, interchange k+1 ↔ imax
                    kstep = 2;
                }
            }

            let kk = k + kstep - 1;
            if kp != kk {
                self.interchange(kk, kp, k, kstep, n);
            }

            if kstep == 1 {
                // A(k+1.., k+1..) -= (1/d)·c·cᵀ with c = A(k+1.., k),
                // then store the multipliers c/d in column k.
                let d_inv = 1.0 / self.at(k, k);
                for i in (k + 1)..n {
                    let cik = self.a[i * n + k];
                    if cik != 0.0 {
                        let w = cik * d_inv;
                        for j in (k + 1)..=i {
                            self.a[i * n + j] -= w * self.a[j * n + k];
                        }
                    }
                }
                for i in (k + 1)..n {
                    self.a[i * n + k] *= d_inv;
                }
                self.piv[k] = kp as isize;
            } else {
                // 2×2 pivot block D = [[A(k,k), A(k+1,k)], [·, A(k+1,k+1)]].
                if k + 2 < n {
                    let d21 = self.at(k + 1, k);
                    let d11 = self.at(k + 1, k + 1) / d21;
                    let d22 = self.at(k, k) / d21;
                    let t = 1.0 / (d11 * d22 - 1.0);
                    let d21 = t / d21;
                    for j in (k + 2)..n {
                        let wk = d21 * (d11 * self.at(j, k) - self.at(j, k + 1));
                        let wkp1 = d21 * (d22 * self.at(j, k + 1) - self.at(j, k));
                        for i in j..n {
                            self.a[i * n + j] -=
                                self.a[i * n + k] * wk + self.a[i * n + k + 1] * wkp1;
                        }
                        self.a[j * n + k] = wk;
                        self.a[j * n + k + 1] = wkp1;
                    }
                }
                let code = -(kp as isize + 1);
                self.piv[k] = code;
                self.piv[k + 1] = code;
            }
            k += kstep;
        }
        Ok(())
    }

    /// Solves `A·x = b` in place using the stored factorization.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::Empty`] if nothing has been factored yet.
    /// * [`LinalgError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve_in_place(&self, b: &mut [f64]) -> Result<(), LinalgError> {
        let n = self.n;
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("vector of length {n}"),
                actual: format!("vector of length {}", b.len()),
            });
        }

        // Forward: solve L·(D·Lᵀ·x) = P·b.
        let mut k = 0usize;
        while k < n {
            if self.piv[k] >= 0 {
                let kp = self.piv[k] as usize;
                if kp != k {
                    b.swap(k, kp);
                }
                let bk = b[k];
                for i in (k + 1)..n {
                    b[i] -= self.a[i * n + k] * bk;
                }
                b[k] = bk / self.at(k, k);
                k += 1;
            } else {
                let kp = (-self.piv[k] - 1) as usize;
                if kp != k + 1 {
                    b.swap(k + 1, kp);
                }
                let (bk, bk1) = (b[k], b[k + 1]);
                for i in (k + 2)..n {
                    b[i] -= self.a[i * n + k] * bk + self.a[i * n + k + 1] * bk1;
                }
                // Solve the 2×2 block in the numerically robust scaled form.
                let akm1k = self.at(k + 1, k);
                let akm1 = self.at(k, k) / akm1k;
                let ak = self.at(k + 1, k + 1) / akm1k;
                let denom = akm1 * ak - 1.0;
                let bkm1 = bk / akm1k;
                let bks = bk1 / akm1k;
                b[k] = (ak * bkm1 - bks) / denom;
                b[k + 1] = (akm1 * bks - bkm1) / denom;
                k += 2;
            }
        }

        // Backward: solve Lᵀ·x = y, undoing interchanges in reverse.
        let mut k = n as isize - 1;
        while k >= 0 {
            let ku = k as usize;
            if self.piv[ku] >= 0 {
                let mut sum = b[ku];
                for i in (ku + 1)..n {
                    sum -= self.a[i * n + ku] * b[i];
                }
                b[ku] = sum;
                let kp = self.piv[ku] as usize;
                if kp != ku {
                    b.swap(ku, kp);
                }
                k -= 1;
            } else {
                // 2×2 block occupies rows (ku-1, ku) seen from this end.
                let mut sum1 = b[ku];
                let mut sum0 = b[ku - 1];
                for i in (ku + 1)..n {
                    sum1 -= self.a[i * n + ku] * b[i];
                    sum0 -= self.a[i * n + ku - 1] * b[i];
                }
                b[ku] = sum1;
                b[ku - 1] = sum0;
                // Undo the factor-time interchange, which swapped the
                // block's second row (this `ku`) with `kp`.
                let kp = (-self.piv[ku] - 1) as usize;
                if kp != ku {
                    b.swap(ku, kp);
                }
                k -= 2;
            }
        }
        Ok(())
    }

    /// Solves `A·X = B` in place for many right-hand sides sharing the
    /// stored factorization.
    ///
    /// Right-hand sides live in one flat slab: RHS `r` occupies
    /// `b[r*stride .. r*stride + n]`, with `stride ≥ n` so callers can keep
    /// their rows padded/aligned. The slab length must be a whole number of
    /// rows; everything past the first `n` entries of each row is ignored.
    ///
    /// The factor is traversed **once**: the forward and backward passes walk
    /// the pivot sequence a single time with an inner loop over right-hand
    /// sides, so each factor column is streamed through cache once per
    /// pivot step instead of once per query. Every right-hand side sees the
    /// exact scalar operation sequence of [`LdltWorkspace::solve_in_place`],
    /// so the result is **bitwise identical** to `nrhs` separate single-RHS
    /// solves — the property the kriging parity suites pin.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::Empty`] if nothing has been factored yet.
    /// * [`LinalgError::ShapeMismatch`] if `stride < n` or `b.len()` is not
    ///   a multiple of `stride`.
    pub fn solve_many_in_place(&self, b: &mut [f64], stride: usize) -> Result<(), LinalgError> {
        let n = self.n;
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        if stride < n || !b.len().is_multiple_of(stride.max(1)) {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("row stride >= {n} and a whole number of rows"),
                actual: format!("stride {stride}, slab of {} elements", b.len()),
            });
        }
        let nrhs = b.len() / stride;
        if nrhs == 0 {
            return Ok(());
        }
        if nrhs == 1 {
            // One right-hand side: the same operation sequence without the
            // per-pivot row slicing.
            return self.solve_in_place(&mut b[..n]);
        }

        // Forward: solve L·(D·Lᵀ·X) = P·B, all right-hand sides per pivot.
        let mut k = 0usize;
        while k < n {
            if self.piv[k] >= 0 {
                let kp = self.piv[k] as usize;
                let dk = self.at(k, k);
                for r in 0..nrhs {
                    let row = &mut b[r * stride..r * stride + n];
                    if kp != k {
                        row.swap(k, kp);
                    }
                    let bk = row[k];
                    for i in (k + 1)..n {
                        row[i] -= self.a[i * n + k] * bk;
                    }
                    row[k] = bk / dk;
                }
                k += 1;
            } else {
                let kp = (-self.piv[k] - 1) as usize;
                let akm1k = self.at(k + 1, k);
                let akm1 = self.at(k, k) / akm1k;
                let ak = self.at(k + 1, k + 1) / akm1k;
                let denom = akm1 * ak - 1.0;
                for r in 0..nrhs {
                    let row = &mut b[r * stride..r * stride + n];
                    if kp != k + 1 {
                        row.swap(k + 1, kp);
                    }
                    let (bk, bk1) = (row[k], row[k + 1]);
                    for i in (k + 2)..n {
                        row[i] -= self.a[i * n + k] * bk + self.a[i * n + k + 1] * bk1;
                    }
                    // Same numerically robust scaled 2×2 solve as the
                    // single-RHS path.
                    let bkm1 = bk / akm1k;
                    let bks = bk1 / akm1k;
                    row[k] = (ak * bkm1 - bks) / denom;
                    row[k + 1] = (akm1 * bks - bkm1) / denom;
                }
                k += 2;
            }
        }

        // Backward: solve Lᵀ·X = Y, undoing interchanges in reverse.
        let mut k = n as isize - 1;
        while k >= 0 {
            let ku = k as usize;
            if self.piv[ku] >= 0 {
                let kp = self.piv[ku] as usize;
                for r in 0..nrhs {
                    let row = &mut b[r * stride..r * stride + n];
                    let mut sum = row[ku];
                    for i in (ku + 1)..n {
                        sum -= self.a[i * n + ku] * row[i];
                    }
                    row[ku] = sum;
                    if kp != ku {
                        row.swap(ku, kp);
                    }
                }
                k -= 1;
            } else {
                let kp = (-self.piv[ku] - 1) as usize;
                for r in 0..nrhs {
                    let row = &mut b[r * stride..r * stride + n];
                    let mut sum1 = row[ku];
                    let mut sum0 = row[ku - 1];
                    for i in (ku + 1)..n {
                        sum1 -= self.a[i * n + ku] * row[i];
                        sum0 -= self.a[i * n + ku - 1] * row[i];
                    }
                    row[ku] = sum1;
                    row[ku - 1] = sum0;
                    if kp != ku {
                        row.swap(ku, kp);
                    }
                }
                k -= 2;
            }
        }
        Ok(())
    }

    #[inline]
    fn at(&self, i: usize, j: usize) -> f64 {
        self.a[i * self.n + j]
    }

    /// Symmetric interchange of rows/columns `kk ↔ kp` within the trailing
    /// submatrix starting at `k`, in lower-triangular storage (the LAPACK
    /// `dsytf2` interchange; requires `kp > kk`).
    fn interchange(&mut self, kk: usize, kp: usize, k: usize, kstep: usize, n: usize) {
        for i in (kp + 1)..n {
            self.a.swap(i * n + kk, i * n + kp);
        }
        for j in (kk + 1)..kp {
            self.a.swap(j * n + kk, kp * n + j);
        }
        self.a.swap(kk * n + kk, kp * n + kp);
        if kstep == 2 {
            self.a.swap((k + 1) * n + k, kp * n + k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lu_solve, Matrix};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn residual(a: &[f64], n: usize, x: &[f64], b: &[f64]) -> f64 {
        (0..n)
            .map(|i| {
                let ax: f64 = (0..n).map(|j| a[i * n + j] * x[j]).sum();
                (ax - b[i]).abs()
            })
            .fold(0.0, f64::max)
    }

    /// Random symmetric matrix with a kriging-like zero diagonal option.
    fn random_symmetric(rng: &mut StdRng, n: usize, zero_diag: bool) -> Vec<f64> {
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..=i {
                let v = if i == j && zero_diag {
                    0.0
                } else {
                    rng.gen_range(-5.0..5.0)
                };
                a[i * n + j] = v;
                a[j * n + i] = v;
            }
        }
        a
    }

    #[test]
    fn solves_saddle_point_with_zero_diagonal() {
        // The exact Γ layout: zero data-block diagonal, unit border, zero
        // Lagrange corner.
        let a = [
            0.0, 2.0, 3.0, 1.0, //
            2.0, 0.0, 1.5, 1.0, //
            3.0, 1.5, 0.0, 1.0, //
            1.0, 1.0, 1.0, 0.0,
        ];
        let b = [1.0, 2.0, 3.0, 1.0];
        let mut ws = LdltWorkspace::new();
        ws.factor(&a, 4).unwrap();
        let mut x = b;
        ws.solve_in_place(&mut x).unwrap();
        assert!(residual(&a, 4, &x, &b) < 1e-12);
    }

    #[test]
    fn matches_lu_on_random_symmetric_systems() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut ws = LdltWorkspace::new();
        for trial in 0..200 {
            let n = rng.gen_range(1..12);
            let zero_diag = trial % 2 == 0 && n > 1;
            let a = random_symmetric(&mut rng, n, zero_diag);
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let m = Matrix::from_vec(n, n, a.clone()).unwrap();
            let lu = lu_solve(&m, &b);
            match ws.factor(&a, n) {
                Ok(()) => {
                    let mut x = b.clone();
                    ws.solve_in_place(&mut x).unwrap();
                    let r = residual(&a, n, &x, &b);
                    assert!(r < 1e-8, "trial {trial} n {n}: residual {r}");
                    if let Ok(xlu) = lu {
                        for (xi, yi) in x.iter().zip(&xlu) {
                            assert!(
                                (xi - yi).abs() < 1e-6 * xi.abs().max(1.0),
                                "trial {trial}: {xi} vs {yi}"
                            );
                        }
                    }
                }
                Err(LinalgError::Singular { .. }) => {
                    // Both solvers must agree the system is degenerate.
                    assert!(lu.is_err(), "trial {trial}: LDLT singular but LU solved");
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
    }

    #[test]
    fn workspace_is_reusable_across_sizes() {
        let mut ws = LdltWorkspace::new();
        let a3 = [
            0.0, 1.5, 1.0, //
            1.5, 0.0, 1.0, //
            1.0, 1.0, 0.0,
        ];
        ws.factor(&a3, 3).unwrap();
        assert_eq!(ws.dim(), 3);
        let mut x = [2.5, 2.5, 2.0];
        ws.solve_in_place(&mut x).unwrap();
        assert!(residual(&a3, 3, &x, &[2.5, 2.5, 2.0]) < 1e-12);

        let a2 = [
            2.0, 1.0, //
            1.0, 3.0,
        ];
        ws.factor(&a2, 2).unwrap();
        assert_eq!(ws.dim(), 2);
        let mut y = [3.0, 4.0];
        ws.solve_in_place(&mut y).unwrap();
        assert!((y[0] - 1.0).abs() < 1e-12 && (y[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn repeated_factorizations_do_not_grow_buffers() {
        let mut ws = LdltWorkspace::new();
        let a = [
            0.0, 2.0, 1.0, //
            2.0, 0.0, 1.0, //
            1.0, 1.0, 0.0,
        ];
        ws.factor(&a, 3).unwrap();
        let cap_a = ws.a.capacity();
        let cap_p = ws.piv.capacity();
        for _ in 0..50 {
            ws.factor(&a, 3).unwrap();
        }
        assert_eq!(ws.a.capacity(), cap_a);
        assert_eq!(ws.piv.capacity(), cap_p);
    }

    #[test]
    fn detects_singularity() {
        // Rank-1 symmetric matrix.
        let a = [
            1.0, 2.0, //
            2.0, 4.0,
        ];
        let mut ws = LdltWorkspace::new();
        assert!(matches!(
            ws.factor(&a, 2).unwrap_err(),
            LinalgError::Singular { .. }
        ));
        // Exact zero matrix.
        let z = [0.0; 9];
        assert!(matches!(
            ws.factor(&z, 3).unwrap_err(),
            LinalgError::Singular { .. }
        ));
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut ws = LdltWorkspace::new();
        assert!(matches!(ws.factor(&[], 0).unwrap_err(), LinalgError::Empty));
        assert!(matches!(
            ws.factor(&[1.0, 2.0], 2).unwrap_err(),
            LinalgError::ShapeMismatch { .. }
        ));
        let a = [1.0, f64::NAN, f64::NAN, 1.0];
        // NaN in the lower triangle is caught (upper is never read).
        assert!(matches!(
            ws.factor(&a, 2).unwrap_err(),
            LinalgError::NonFinite { row: 1, col: 0 }
        ));
        // Solve before factor / with the wrong length.
        let fresh = LdltWorkspace::new();
        assert!(fresh.solve_in_place(&mut [1.0]).is_err());
        ws.factor(&[2.0, 0.0, 0.0, 2.0], 2).unwrap();
        assert!(ws.solve_in_place(&mut [1.0]).is_err());
    }

    #[test]
    fn identity_solves_exactly() {
        let n = 6;
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            a[i * n + i] = 1.0;
        }
        let mut ws = LdltWorkspace::new();
        ws.factor(&a, n).unwrap();
        let mut b: Vec<f64> = (0..n).map(|i| i as f64 - 2.5).collect();
        let expect = b.clone();
        ws.solve_in_place(&mut b).unwrap();
        assert_eq!(b, expect);
    }

    #[test]
    fn multi_rhs_is_bitwise_identical_to_single_rhs() {
        let mut rng = StdRng::seed_from_u64(41);
        let mut ws = LdltWorkspace::new();
        for trial in 0..100 {
            let n = rng.gen_range(1..14);
            let zero_diag = trial % 2 == 0 && n > 1;
            let a = random_symmetric(&mut rng, n, zero_diag);
            if ws.factor(&a, n).is_err() {
                continue;
            }
            let nrhs = rng.gen_range(1usize..9);
            let stride = n + rng.gen_range(0usize..4); // padded rows must be fine
            let mut slab = vec![0.0; nrhs * stride];
            for row in slab.chunks_mut(stride) {
                for v in row.iter_mut() {
                    *v = rng.gen_range(-4.0..4.0);
                }
            }
            let mut expect = slab.clone();
            for row in expect.chunks_mut(stride) {
                ws.solve_in_place(&mut row[..n]).unwrap();
            }
            ws.solve_many_in_place(&mut slab, stride).unwrap();
            for (r, (got, want)) in slab.chunks(stride).zip(expect.chunks(stride)).enumerate() {
                for i in 0..n {
                    assert_eq!(
                        got[i].to_bits(),
                        want[i].to_bits(),
                        "trial {trial} rhs {r} entry {i}: {} vs {}",
                        got[i],
                        want[i]
                    );
                }
                // Padding past n is untouched.
                assert_eq!(&got[n..], &want[n..]);
            }
        }
    }

    #[test]
    fn solve_many_rejects_bad_shapes() {
        let mut ws = LdltWorkspace::new();
        assert!(matches!(
            ws.solve_many_in_place(&mut [1.0], 1).unwrap_err(),
            LinalgError::Empty
        ));
        ws.factor(&[2.0, 1.0, 1.0, 3.0], 2).unwrap();
        // Stride shorter than the dimension.
        assert!(ws.solve_many_in_place(&mut [1.0, 2.0], 1).is_err());
        // Slab not a whole number of rows.
        assert!(ws.solve_many_in_place(&mut [1.0, 2.0, 3.0], 2).is_err());
        // Empty slab is a no-op.
        ws.solve_many_in_place(&mut [], 2).unwrap();
    }

    #[test]
    fn large_kriging_shaped_systems_are_accurate() {
        // Realistic Γ: off-diagonal entries γ(d) from an increasing model,
        // unit border, zero corner — the exact hot-path matrix at n = 32.
        let mut rng = StdRng::seed_from_u64(99);
        let mut ws = LdltWorkspace::new();
        for _ in 0..20 {
            let n = 33usize; // 32 sites + Lagrange row
            let sites: Vec<Vec<f64>> = (0..n - 1)
                .map(|_| (0..10).map(|_| f64::from(rng.gen_range(4..15))).collect())
                .collect();
            let mut a = vec![0.0; n * n];
            for i in 0..n - 1 {
                for j in 0..n - 1 {
                    if i != j {
                        let d: f64 = sites[i]
                            .iter()
                            .zip(&sites[j])
                            .map(|(x, y)| (x - y).abs())
                            .sum();
                        a[i * n + j] = 0.5 * d; // linear variogram
                    }
                }
                a[i * n + (n - 1)] = 1.0;
                a[(n - 1) * n + i] = 1.0;
            }
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..30.0)).collect();
            if ws.factor(&a, n).is_err() {
                continue; // duplicate random sites — legitimately singular
            }
            let mut x = b.clone();
            ws.solve_in_place(&mut x).unwrap();
            let r = residual(&a, n, &x, &b);
            assert!(r < 1e-7 * 30.0 * n as f64, "residual {r}");
        }
    }
}
