//! Minimal dense linear algebra: just enough for policy evaluation.
//!
//! Implemented in-repo (no external linear-algebra crate) per the
//! reproduction's dependency policy. Systems here are small (hundreds of
//! unknowns), so an LU factorization with partial pivoting is plenty.
//!
//! The matrices policy evaluation builds, `I - beta * P_pi`, are sparse
//! and stay sparse under elimination: at the optimal policies of the
//! 99-state DPM model (three-state device, queue capacity 8), 700 to 900
//! elimination updates have a nonzero pivot-row entry, of the 18k to 20k
//! a dense row update performs. The solver therefore skips every
//! exactly-zero pivot-row entry in the elimination update and every
//! exactly-zero `U` entry in back substitution. Pivots, and the order of
//! the updates each entry receives, are those of the dense elimination,
//! and a skipped update would only have subtracted a signed zero: every
//! solution matches the dense one bit for bit, up to the sign of zero
//! entries. Policy iteration reuses one matrix buffer across its
//! evaluations.

use crate::MdpError;

/// Dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an identity matrix of order `n`.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        m.set_identity();
        m
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix-vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    #[must_use]
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        self.data
            .chunks_exact(self.cols)
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Overwrites the matrix with the identity (keeping its allocation).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub(crate) fn set_identity(&mut self) {
        assert_eq!(self.rows, self.cols, "identity needs a square matrix");
        self.data.fill(0.0);
        for i in 0..self.rows {
            self.data[i * self.cols + i] = 1.0;
        }
    }

    /// Solves `A x = b` via LU with partial pivoting (zero entries
    /// skipped, see the module docs), leaving `self` untouched.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::SingularSystem`] when no pivot above `1e-12` can
    /// be found.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `b.len() != rows`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, MdpError> {
        let mut lu = self.clone();
        let mut x = b.to_vec();
        lu.solve_in_place(&mut x)?;
        Ok(x)
    }

    /// Solves `A x = b` via LU with partial pivoting, overwriting `b` with
    /// `x` and `self` with the eliminated (row-swapped, upper-triangular)
    /// system, so callers solving many systems can reuse one buffer.
    ///
    /// The pivot of each column is the last row of largest magnitude at or
    /// below the diagonal. Zero pivot-row entries are skipped in the
    /// elimination update, and zero `U` entries in back substitution; see
    /// the module docs for why that changes no result.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::SingularSystem`] when no pivot above `1e-12` can
    /// be found; `self` and `b` are then left partly eliminated.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `b.len() != rows`.
    pub(crate) fn solve_in_place(&mut self, b: &mut [f64]) -> Result<(), MdpError> {
        assert_eq!(self.rows, self.cols, "solve needs a square matrix");
        assert_eq!(b.len(), self.rows, "rhs length mismatch");
        let n = self.rows;
        let a = &mut self.data;
        let x = b;
        // Columns right of the diagonal where the pivot row is nonzero.
        let mut nonzero: Vec<usize> = Vec::with_capacity(n);

        for col in 0..n {
            // Partial pivot: largest magnitude in this column at/below row.
            let (pivot_row, pivot_val) = (col..n)
                .map(|r| (r, a[r * n + col]))
                .max_by(|l, r| l.1.abs().total_cmp(&r.1.abs()))
                .expect("non-empty range");
            if pivot_val.abs() < 1e-12 {
                return Err(MdpError::SingularSystem);
            }
            if pivot_row != col {
                for k in 0..n {
                    a.swap(col * n + k, pivot_row * n + k);
                }
                x.swap(col, pivot_row);
            }
            let (upper, lower) = a.split_at_mut((col + 1) * n);
            let pivot = &upper[col * n..];
            nonzero.clear();
            nonzero.extend(((col + 1)..n).filter(|&k| pivot[k] != 0.0));
            let inv = 1.0 / pivot[col];
            for (row, r) in lower.chunks_exact_mut(n).zip((col + 1)..n) {
                let factor = row[col] * inv;
                if factor == 0.0 {
                    continue;
                }
                row[col] = 0.0;
                for &k in &nonzero {
                    row[k] -= factor * pivot[k];
                }
                x[r] -= factor * x[col];
            }
        }
        // Back substitution, a row at a time: x[r] takes its updates from
        // columns n-1 down to r+1, then its division, as in the
        // column-oriented dense form.
        for r in (0..n).rev() {
            let row = &a[r * n..(r + 1) * n];
            for c in ((r + 1)..n).rev() {
                if row[c] != 0.0 {
                    x[r] -= row[c] * x[c];
                }
            }
            x[r] /= row[r];
        }
        Ok(())
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// The dense elimination `Matrix::solve` ran before zero entries were
    /// skipped, kept verbatim as the reference the exactness property
    /// compares against. Also counts the row swaps and the pivot columns
    /// whose largest magnitude was tied, so the generator's coverage can
    /// be checked.
    fn dense_reference(m: &Matrix, b: &[f64]) -> (Result<Vec<f64>, MdpError>, usize, usize) {
        let n = m.rows;
        let mut a = m.data.clone();
        let mut x: Vec<f64> = b.to_vec();
        let (mut swaps, mut ties) = (0, 0);

        for col in 0..n {
            let (pivot_row, pivot_val) = (col..n)
                .map(|r| (r, a[r * n + col]))
                .max_by(|l, r| l.1.abs().total_cmp(&r.1.abs()))
                .expect("non-empty range");
            if (col..n)
                .filter(|&r| a[r * n + col].abs() == pivot_val.abs())
                .count()
                > 1
            {
                ties += 1;
            }
            if pivot_val.abs() < 1e-12 {
                return (Err(MdpError::SingularSystem), swaps, ties);
            }
            if pivot_row != col {
                swaps += 1;
                for k in 0..n {
                    a.swap(col * n + k, pivot_row * n + k);
                }
                x.swap(col, pivot_row);
            }
            let inv = 1.0 / a[col * n + col];
            for r in (col + 1)..n {
                let factor = a[r * n + col] * inv;
                if factor == 0.0 {
                    continue;
                }
                a[r * n + col] = 0.0;
                for k in (col + 1)..n {
                    a[r * n + k] -= factor * a[col * n + k];
                }
                x[r] -= factor * x[col];
            }
        }
        for col in (0..n).rev() {
            x[col] /= a[col * n + col];
            for r in 0..col {
                x[r] -= a[r * n + col] * x[col];
            }
        }
        (Ok(x), swaps, ties)
    }

    /// A random sparse system of order `n` with no diagonal dominance:
    /// entries come from a small palette of magnitudes (so pivot
    /// candidates tie), diagonals are often zero (so rows swap), and a
    /// row is sometimes a copy or multiple of another (so some systems
    /// are singular).
    fn sparse_system(seed: u64, n: usize, density: f64) -> (Matrix, Vec<f64>) {
        const PALETTE: [f64; 8] = [1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 0.95, -0.3];
        let mut rng = TestRng::new(seed);
        let pick = |rng: &mut TestRng| -> f64 {
            if rng.unit_f64() >= density {
                0.0
            } else if rng.unit_f64() < 0.7 {
                PALETTE[(rng.next_u64() % PALETTE.len() as u64) as usize]
            } else {
                rng.unit_f64() * 6.0 - 3.0
            }
        };
        let mut data: Vec<f64> = (0..n * n).map(|_| pick(&mut rng)).collect();
        for i in 0..n {
            if rng.unit_f64() < 0.5 {
                data[i * n + i] = 0.0;
            }
        }
        if n > 1 && rng.unit_f64() < 0.15 {
            let (from, to) = (
                (rng.next_u64() % n as u64) as usize,
                (rng.next_u64() % n as u64) as usize,
            );
            let scale = if rng.unit_f64() < 0.5 { 1.0 } else { -2.0 };
            for k in 0..n {
                data[to * n + k] = scale * data[from * n + k];
            }
        }
        let b = (0..n).map(|_| pick(&mut rng)).collect();
        (Matrix::from_rows(n, n, data), b)
    }

    /// Bitwise equality, except that +0.0 and -0.0 are equal.
    fn same_bits(l: &[f64], r: &[f64]) -> bool {
        l.len() == r.len()
            && l.iter()
                .zip(r)
                .all(|(a, b)| a.to_bits() == b.to_bits() || (*a == 0.0 && *b == 0.0))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        #[test]
        fn zero_skipping_lu_matches_dense_elimination_bit_for_bit(
            seed in 0u64..u64::MAX,
            n in 1usize..=14,
            density in 0.1f64..0.9,
        ) {
            let (m, b) = sparse_system(seed, n, density);
            let (dense, _, _) = dense_reference(&m, &b);
            match (m.solve(&b), dense) {
                (Ok(x), Ok(y)) => prop_assert!(same_bits(&x, &y), "{x:?} != {y:?}"),
                (Err(e), Err(f)) => prop_assert_eq!(e, f),
                (got, want) => prop_assert!(false, "solve gave {got:?}, dense gave {want:?}"),
            }
        }
    }

    #[test]
    fn sparse_systems_swap_rows_tie_pivots_and_go_singular() {
        let (mut swaps, mut ties, mut singular, mut solved) = (0, 0, 0, 0);
        for seed in 0..500 {
            let (m, b) = sparse_system(seed, 2 + (seed % 12) as usize, 0.4);
            let (result, s, t) = dense_reference(&m, &b);
            swaps += s;
            ties += t;
            if result.is_ok() {
                solved += 1;
            } else {
                singular += 1;
            }
        }
        assert!(swaps > 500 && ties > 100, "swaps {swaps}, ties {ties}");
        assert!(
            singular > 50 && solved > 50,
            "singular {singular}, solved {solved}"
        );
    }

    #[test]
    fn solve_in_place_reuses_one_buffer() {
        let mut buf = Matrix::zeros(3, 3);
        for shift in [0.0, 1.0, 2.5] {
            buf.set_identity();
            buf[(0, 1)] = shift;
            buf[(2, 0)] = -shift;
            let a = buf.clone();
            let mut x = vec![1.0, 2.0, 3.0];
            buf.solve_in_place(&mut x).unwrap();
            assert_eq!(x, a.solve(&[1.0, 2.0, 3.0]).unwrap());
            let back = a.mul_vec(&x);
            for (bi, yi) in [1.0, 2.0, 3.0].iter().zip(&back) {
                assert!((bi - yi).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn identity_solves_trivially() {
        let a = Matrix::identity(3);
        let x = a.solve(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solves_hand_system() {
        // 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
        let a = Matrix::from_rows(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        let x = a.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solves_system_requiring_pivot() {
        // First pivot is zero: forces a row swap.
        let a = Matrix::from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = a.solve(&[2.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn detects_singularity() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert_eq!(a.solve(&[1.0, 2.0]).unwrap_err(), MdpError::SingularSystem);
    }

    #[test]
    fn mul_vec_matches_hand() {
        let a = Matrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.mul_vec(&[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
    }

    #[test]
    fn solve_then_multiply_round_trip() {
        let a = Matrix::from_rows(3, 3, vec![4.0, 1.0, 0.5, 1.0, 3.0, 1.0, 0.5, 1.0, 5.0]);
        let b = [7.0, -2.0, 3.5];
        let x = a.solve(&b).unwrap();
        let back = a.mul_vec(&x);
        for (bi, yi) in b.iter().zip(&back) {
            assert!((bi - yi).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "matrix dimensions must be positive")]
    fn zero_dimension_panics() {
        let _ = Matrix::zeros(0, 3);
    }
}
