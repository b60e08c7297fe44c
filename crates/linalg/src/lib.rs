//! Real and complex linear algebra for the astrx-oblx analog synthesis
//! toolkit.
//!
//! The circuits handled by ASTRX/OBLX are cell-level (tens of devices, at
//! most a few hundred MNA unknowns). The AWE jigs, refactored on every
//! move with a fixed pattern, go through the sparse LU; the dense LU
//! with partial pivoting serves the small or one-off solves (the Newton
//! move's free-node block, the dc and transient Newton iterations, the
//! complex ac sweep). The crate provides:
//!
//! * [`Complex`] — a minimal `f64`-based complex number,
//! * [`Mat`] — a dense row-major matrix generic over [`Scalar`]
//!   (instantiated at `f64` and `Complex`),
//! * [`Lu`] — LU factorization with partial pivoting, reusable for the
//!   repeated back-substitutions at the heart of AWE moment generation,
//! * [`SparseLu`] — sparse LU with a one-time symbolic factorization
//!   (structural Markowitz pivot order + fill-in pattern) and an
//!   allocation-free numeric refactor, for the fixed-pattern refactor-
//!   per-move workload of the incremental cost evaluator,
//! * [`Poly`] — polynomial arithmetic and Aberth–Ehrlich root finding,
//!   used to turn Padé denominators into pole sets,
//! * [`solve_hankel`] / [`solve_vandermonde`] — the two structured solves
//!   of the AWE moment-matching step.
//!
//! # Examples
//!
//! ```
//! use oblx_linalg::{Mat, Lu};
//!
//! # fn main() -> Result<(), oblx_linalg::SingularMatrixError> {
//! let a = Mat::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
//! let lu = Lu::factor(a)?;
//! let x = lu.solve(&[5.0, 10.0]);
//! assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 3.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

mod complex;
mod lu;
mod matrix;
mod poly;
mod sparse;
mod structured;

pub use complex::Complex;
pub use lu::{solve_once, Lu, SingularMatrixError};
pub use matrix::{Mat, Scalar};
pub use poly::{aberth_roots, reference_aberth_roots, Poly};
pub use sparse::SparseLu;
pub use structured::{solve_hankel, solve_vandermonde};
