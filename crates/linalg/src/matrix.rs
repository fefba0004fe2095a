//! Dense row-major matrix.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::LinalgError;

/// Dense, row-major, `f64` matrix: the input of [`crate::QrDecomposition`]
/// in the variogram fit. The kriging solve works on flat row-major slices
/// in [`crate::LdltWorkspace`] instead. Both are small, so a contiguous
/// `Vec<f64>` with row-major indexing is both simple and cache-friendly.
///
/// # Examples
///
/// ```
/// use krigeval_linalg::Matrix;
///
/// # fn main() -> Result<(), krigeval_linalg::LinalgError> {
/// let b = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]])?;
/// assert_eq!(b.mul_vec(&[1.0, 1.0, 1.0])?, vec![6.0, 15.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// use krigeval_linalg::Matrix;
    /// let z = Matrix::zeros(2, 3);
    /// assert_eq!(z.shape(), (2, 3));
    /// assert_eq!(z[(1, 2)], 0.0);
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    ///
    /// # Examples
    ///
    /// ```
    /// use krigeval_linalg::Matrix;
    /// let i = Matrix::identity(2);
    /// assert_eq!(i[(0, 0)], 1.0);
    /// assert_eq!(i[(0, 1)], 0.0);
    /// ```
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] if `rows` is empty or the first row is
    /// empty, and [`LinalgError::ShapeMismatch`] if the rows have unequal
    /// lengths.
    ///
    /// # Examples
    ///
    /// ```
    /// use krigeval_linalg::Matrix;
    /// # fn main() -> Result<(), krigeval_linalg::LinalgError> {
    /// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
    /// assert_eq!(m[(1, 0)], 3.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_rows(rows: &[&[f64]]) -> Result<Matrix, LinalgError> {
        let nrows = rows.len();
        if nrows == 0 || rows[0].is_empty() {
            return Err(LinalgError::Empty);
        }
        let ncols = rows[0].len();
        let mut data = Vec::with_capacity(nrows * ncols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != ncols {
                return Err(LinalgError::ShapeMismatch {
                    expected: format!("row of length {ncols}"),
                    actual: format!("row {i} of length {}", row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `data.len() != rows * cols`
    /// and [`LinalgError::Empty`] if either dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Matrix, LinalgError> {
        if rows == 0 || cols == 0 {
            return Err(LinalgError::Empty);
        }
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("{} elements", rows * cols),
                actual: format!("{} elements", data.len()),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(
            i < self.rows,
            "row {i} out of bounds for {} rows",
            self.rows
        );
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns the transposed matrix.
    ///
    /// # Examples
    ///
    /// ```
    /// use krigeval_linalg::Matrix;
    /// # fn main() -> Result<(), krigeval_linalg::LinalgError> {
    /// let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]])?;
    /// let t = m.transpose();
    /// assert_eq!(t.shape(), (3, 2));
    /// assert_eq!(t[(2, 1)], 6.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix–vector product `self · v`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if v.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("vector of length {}", self.cols),
                actual: format!("vector of length {}", v.len()),
            });
        }
        Ok((0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Maximum absolute element, or 0 for an all-zero matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// `true` if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            writeln!(f, "  {:?}", self.row(i))?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>12.6}", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(1, 1)], 1.0);
        assert_eq!(i[(1, 2)], 0.0);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0][..]]).unwrap_err();
        assert!(matches!(err, LinalgError::ShapeMismatch { .. }));
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert_eq!(Matrix::from_rows(&[]).unwrap_err(), LinalgError::Empty);
        let empty_row: &[f64] = &[];
        assert_eq!(
            Matrix::from_rows(&[empty_row]).unwrap_err(),
            LinalgError::Empty
        );
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(matches!(
            Matrix::from_vec(2, 2, vec![1.0; 3]).unwrap_err(),
            LinalgError::ShapeMismatch { .. }
        ));
        assert_eq!(
            Matrix::from_vec(0, 2, vec![]).unwrap_err(),
            LinalgError::Empty
        );
    }

    #[test]
    fn transpose_round_trips() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(0, 1)], 4.0);
    }

    #[test]
    fn mul_vec_matches() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.mul_vec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(a.mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn row_access() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m[(2, 0)];
    }

    #[test]
    fn max_abs_and_finiteness() {
        let m = Matrix::from_rows(&[&[3.0, -4.0]]).unwrap();
        assert_eq!(m.max_abs(), 4.0);
        assert!(m.is_finite());
        let mut bad = m.clone();
        bad[(0, 0)] = f64::NAN;
        assert!(!bad.is_finite());
    }

    #[test]
    fn debug_and_display_nonempty() {
        let m = Matrix::identity(2);
        assert!(!format!("{m:?}").is_empty());
        assert!(format!("{m}").contains("1.000000"));
    }
}
