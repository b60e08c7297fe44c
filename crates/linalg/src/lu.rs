//! LU factorization with partial pivoting.
//!
//! The factorization is computed once and reused for many right-hand
//! sides; AWE moment generation performs `2q` back-substitutions against a
//! single factored conductance matrix, which is where the method's speed
//! advantage over a per-frequency complex solve comes from.

use crate::matrix::{Mat, Scalar};
use std::error::Error;
use std::fmt;

/// Error returned when a matrix is numerically singular.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SingularMatrixError {
    /// Pivot column at which elimination broke down.
    pub column: usize,
}

impl fmt::Display for SingularMatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "matrix is singular at pivot column {}", self.column)
    }
}

impl Error for SingularMatrixError {}

/// An LU factorization `P·A = L·U` with partial pivoting.
///
/// # Examples
///
/// ```
/// use oblx_linalg::{Mat, Lu};
///
/// # fn main() -> Result<(), oblx_linalg::SingularMatrixError> {
/// let a = Mat::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]);
/// let lu = Lu::factor(a)?;
/// let x = lu.solve(&[10.0, 12.0]);
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu<T: Scalar> {
    lu: Mat<T>,
    perm: Vec<usize>,
    sign_flips: usize,
}

impl<T: Scalar> Lu<T> {
    /// Factors `a` in place, consuming it.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] when no usable pivot exists in some
    /// column (the matrix is singular to working precision).
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn factor(mut a: Mat<T>) -> Result<Self, SingularMatrixError> {
        let n = a.rows();
        assert_eq!(n, a.cols(), "LU requires a square matrix");
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign_flips = 0usize;
        // The chosen pivot magnitudes are exactly the magnitudes of U's
        // diagonal (row k is final once column k is eliminated), so the
        // recorded pivot ratio needs no second pass over the factor.
        let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);

        for k in 0..n {
            // Partial pivot: largest magnitude in column k at/below row k.
            let mut p = k;
            let mut best = a.get(k, k).magnitude();
            for r in (k + 1)..n {
                let m = a.get(r, k).magnitude();
                if m > best {
                    best = m;
                    p = r;
                }
            }
            // `!(best > 0.0)` (rather than `best <= 0.0`) deliberately
            // catches NaN pivots as singular.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(best > 0.0) || !best.is_finite() {
                return Err(SingularMatrixError { column: k });
            }
            lo = lo.min(best);
            hi = hi.max(best);
            if p != k {
                for c in 0..n {
                    let tmp = a.get(k, c);
                    a[(k, c)] = a.get(p, c);
                    a[(p, c)] = tmp;
                }
                perm.swap(k, p);
                sign_flips += 1;
            }
            let pivot = a.get(k, k);
            for r in (k + 1)..n {
                let factor = a.get(r, k) / pivot;
                a[(r, k)] = factor;
                if factor == T::ZERO {
                    continue;
                }
                for c in (k + 1)..n {
                    let v = a.get(r, c) - factor * a.get(k, c);
                    a[(r, c)] = v;
                }
            }
        }
        let lu = Lu {
            lu: a,
            perm,
            sign_flips,
        };
        debug_assert_eq!(ratio_of(lo, hi).to_bits(), lu.pivot_ratio().to_bits());
        if oblx_telemetry::enabled() {
            oblx_telemetry::record_pivot_ratio(ratio_of(lo, hi));
        }
        Ok(lu)
    }

    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b` for one right-hand side.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        let mut x = Vec::with_capacity(self.dim());
        self.solve_into(b, &mut x);
        x
    }

    /// [`Lu::solve`] into a caller-owned buffer (cleared and refilled),
    /// so repeated solves against one factorization — the AWE moment
    /// recurrence performs `2q` of them — reuse a single allocation.
    /// The summation order is exactly the historical per-element loop's
    /// (ascending column index), walked over contiguous row slices.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve_into(&self, b: &[T], x: &mut Vec<T>) {
        let n = self.dim();
        assert_eq!(b.len(), n, "rhs dimension mismatch");
        x.clear();
        x.extend(self.perm.iter().map(|&p| b[p]));
        let lud = self.lu.as_slice();
        // Forward substitution with unit-diagonal L.
        for r in 1..n {
            let row = &lud[r * n..r * n + r];
            let mut acc = x[r];
            for (l, xc) in row.iter().zip(x.iter()) {
                acc = acc - *l * *xc;
            }
            x[r] = acc;
        }
        // Back substitution with U.
        for r in (0..n).rev() {
            let row = &lud[r * n..(r + 1) * n];
            let mut acc = x[r];
            for (u, xc) in row[r + 1..].iter().zip(x[r + 1..].iter()) {
                acc = acc - *u * *xc;
            }
            x[r] = acc / row[r];
        }
    }

    /// Solves `Aᵀ·x = b`, used for adjoint (transfer-function) analyses.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve_transpose(&self, b: &[T]) -> Vec<T> {
        let mut x = Vec::with_capacity(self.dim());
        let mut scratch = Vec::with_capacity(self.dim());
        self.solve_transpose_into(b, &mut x, &mut scratch);
        x
    }

    /// [`Lu::solve_transpose`] into a caller-owned buffer with a
    /// caller-owned scratch vector, so the adjoint moment recurrence
    /// reuses two allocations across its `2q` solves. The triangular
    /// passes run in saxpy (row-access) form: once an unknown is final,
    /// its contribution is subtracted from every remaining entry using
    /// one contiguous row of the factor.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve_transpose_into(&self, b: &[T], x: &mut Vec<T>, scratch: &mut Vec<T>) {
        let n = self.dim();
        assert_eq!(b.len(), n, "rhs dimension mismatch");
        scratch.clear();
        scratch.extend_from_slice(b);
        let y = &mut scratch[..];
        let lud = self.lu.as_slice();
        // Solve Uᵀ·z = b (forward, since Uᵀ is lower-triangular).
        for r in 0..n {
            let (head, tail) = y.split_at_mut(r + 1);
            let yr = head[r] / lud[r * n + r];
            head[r] = yr;
            let row = &lud[r * n + r + 1..(r + 1) * n];
            for (t, u) in tail.iter_mut().zip(row.iter()) {
                *t = *t - *u * yr;
            }
        }
        // Solve Lᵀ·w = z (backward, Lᵀ upper-triangular with unit diag).
        for r in (1..n).rev() {
            let (head, tail) = y.split_at_mut(r);
            let yr = tail[0];
            let row = &lud[r * n..r * n + r];
            for (t, l) in head.iter_mut().zip(row.iter()) {
                *t = *t - *l * yr;
            }
        }
        // Undo the row permutation: x[perm[i]] = w[i].
        x.clear();
        x.resize(n, T::ZERO);
        for (i, &p) in self.perm.iter().enumerate() {
            x[p] = y[i];
        }
    }

    /// The determinant of the original matrix.
    pub fn det(&self) -> T {
        let mut d = if self.sign_flips.is_multiple_of(2) {
            T::ONE
        } else {
            -T::ONE
        };
        for i in 0..self.dim() {
            d = d * self.lu.get(i, i);
        }
        d
    }

    /// A cheap conditioning indicator: ratio of largest to smallest pivot
    /// magnitude. Large values flag near-singular systems (used by AWE to
    /// stop growing the model order).
    pub fn pivot_ratio(&self) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for i in 0..self.dim() {
            let m = self.lu.get(i, i).magnitude();
            lo = lo.min(m);
            hi = hi.max(m);
        }
        ratio_of(lo, hi)
    }
}

/// `hi / lo` of the pivot magnitudes, infinite when a pivot is zero.
fn ratio_of(lo: f64, hi: f64) -> f64 {
    if lo == 0.0 {
        f64::INFINITY
    } else {
        hi / lo
    }
}

/// Convenience single-shot solve of `A·x = b`.
///
/// # Errors
///
/// Returns [`SingularMatrixError`] if `a` is singular.
pub fn solve_once<T: Scalar>(a: Mat<T>, b: &[T]) -> Result<Vec<T>, SingularMatrixError> {
    Ok(Lu::factor(a)?.solve(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex;
    use proptest::prelude::*;

    #[test]
    fn solves_small_real_system() {
        let a = Mat::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
        let lu = Lu::factor(a).unwrap();
        let x = lu.solve(&[8.0, -11.0, -3.0]);
        let expect = [2.0, 3.0, -1.0];
        for (xi, ei) in x.iter().zip(expect.iter()) {
            assert!((xi - ei).abs() < 1e-12, "{x:?}");
        }
    }

    #[test]
    fn transpose_solve_matches_explicit_transpose() {
        let a = Mat::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
        let mut at = Mat::zeros(3, 3);
        for r in 0..3 {
            for c in 0..3 {
                at[(r, c)] = a.get(c, r);
            }
        }
        let b = [1.0, -2.0, 0.5];
        let x1 = Lu::factor(a).unwrap().solve_transpose(&b);
        let x2 = Lu::factor(at).unwrap().solve(&b);
        for (a, b) in x1.iter().zip(x2.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn complex_system() {
        // (1+j)x = 2j  =>  x = 2j/(1+j) = 1 + j
        let a = Mat::from_rows(&[&[Complex::new(1.0, 1.0)]]);
        let x = Lu::factor(a).unwrap().solve(&[Complex::new(0.0, 2.0)]);
        assert!((x[0] - Complex::new(1.0, 1.0)).norm() < 1e-14);
    }

    #[test]
    fn determinant() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let d = Lu::factor(a).unwrap().det();
        assert!((d - (-2.0)).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(Lu::factor(a).is_err());
    }

    #[test]
    fn needs_pivoting() {
        // Zero on the diagonal forces a row swap.
        let a = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = Lu::factor(a).unwrap().solve(&[3.0, 7.0]);
        assert!((x[0] - 7.0).abs() < 1e-14 && (x[1] - 3.0).abs() < 1e-14);
    }

    proptest! {
        /// Round trip A·x = b on diagonally dominant random systems.
        #[test]
        fn prop_solve_round_trip(seed in 0u64..500) {
            let n = 1 + (seed as usize % 8);
            // Simple LCG so the test is self-contained and deterministic.
            let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            };
            let mut a = Mat::<f64>::zeros(n, n);
            for r in 0..n {
                let mut row_sum = 0.0;
                for c in 0..n {
                    let v = next();
                    a[(r, c)] = v;
                    row_sum += v.abs();
                }
                a[(r, r)] += row_sum + 1.0; // diagonal dominance
            }
            let xtrue: Vec<f64> = (0..n).map(|_| next()).collect();
            let b = a.mul_vec(&xtrue);
            let x = Lu::factor(a).unwrap().solve(&b);
            for (xi, ti) in x.iter().zip(xtrue.iter()) {
                prop_assert!((xi - ti).abs() < 1e-8);
            }
        }
    }
}
