//! Polynomials and the Aberth–Ehrlich simultaneous root finder.
//!
//! AWE produces a Padé denominator polynomial whose roots are the
//! reduced-order model's poles. Orders are small (q ≤ 8 in practice),
//! but the iteration count grows with the degree: on the denominators
//! the seven benchmark circuits fit, the mean is 2 iterations at
//! degree 1, ~6 at degree 2, 9–11 at degree 3, 16–26 at degree 6 and
//! up to 38 at degree 7, where up to 3.5% of calls stop at the
//! 80-iteration cap.
//!
//! [`aberth_roots`] decides each threshold test of the iteration from
//! squared moduli ([`Complex::norm_below`], [`Complex::norm_above`]),
//! calling `hypot` only where the squares cannot tell.
//! [`reference_aberth_roots`] is the same iteration with every test
//! written through `norm()`; it is kept as the reference that tests and
//! the `pade_roots` bench compare against, root for root and bit for
//! bit.

use crate::Complex;

/// A polynomial with complex coefficients stored in ascending order:
/// `c[0] + c[1]·x + c[2]·x² + …`.
///
/// # Examples
///
/// ```
/// use oblx_linalg::{Poly, Complex};
///
/// // p(x) = x² - 1
/// let p = Poly::from_real(&[-1.0, 0.0, 1.0]);
/// let roots = p.roots();
/// assert_eq!(roots.len(), 2);
/// for r in roots {
///     assert!((r.norm() - 1.0).abs() < 1e-9);
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Poly {
    coeffs: Vec<Complex>,
}

impl Poly {
    /// Creates a polynomial from ascending complex coefficients.
    ///
    /// Trailing (highest-order) zero coefficients are trimmed.
    pub fn new(coeffs: Vec<Complex>) -> Self {
        let mut p = Poly { coeffs };
        p.trim();
        p
    }

    /// Creates a polynomial from ascending real coefficients.
    pub fn from_real(coeffs: &[f64]) -> Self {
        Poly::new(coeffs.iter().map(|&c| Complex::from_real(c)).collect())
    }

    /// Builds the monic polynomial with the given roots.
    pub fn from_roots(roots: &[Complex]) -> Self {
        let mut coeffs = vec![Complex::ONE];
        for &r in roots {
            // multiply by (x - r)
            let mut next = vec![Complex::ZERO; coeffs.len() + 1];
            for (i, &c) in coeffs.iter().enumerate() {
                next[i + 1] += c;
                next[i] += -r * c;
            }
            coeffs = next;
        }
        Poly::new(coeffs)
    }

    /// Drops highest-order zero coefficients, keeping at least one.
    fn trim(&mut self) {
        while self.coeffs.len() > 1 && self.coeffs.last().is_some_and(|&c| is_zero(c)) {
            self.coeffs.pop();
        }
    }

    /// The polynomial degree (0 for constants, including the zero poly).
    pub fn degree(&self) -> usize {
        self.coeffs.len().saturating_sub(1)
    }

    /// Ascending coefficient slice.
    pub fn coeffs(&self) -> &[Complex] {
        &self.coeffs
    }

    /// Evaluates the polynomial at `x` by Horner's rule.
    pub fn eval(&self, x: Complex) -> Complex {
        let mut acc = Complex::ZERO;
        for &c in self.coeffs.iter().rev() {
            acc = acc * x + c;
        }
        acc
    }

    /// The formal derivative.
    pub fn derivative(&self) -> Poly {
        if self.coeffs.len() <= 1 {
            return Poly::new(vec![Complex::ZERO]);
        }
        Poly::new(
            self.coeffs[1..]
                .iter()
                .enumerate()
                .map(|(i, &c)| c * (i as f64 + 1.0))
                .collect(),
        )
    }

    /// All complex roots via [`aberth_roots`].
    ///
    /// Returns an empty vector for constant polynomials.
    pub fn roots(&self) -> Vec<Complex> {
        aberth_roots(&self.coeffs)
    }
}

/// `|c| == 0`, exactly as `c.norm() == 0.0` decides it: both components
/// are ±0 (`hypot` is NaN or `+∞` when either is NaN or infinite).
#[inline]
fn is_zero(c: Complex) -> bool {
    c.re == 0.0 && c.im == 0.0
}

/// Iteration cap and convergence tolerance of the Aberth iteration.
const MAX_ITERS: usize = 80;
const TOL: f64 = 1e-13;

/// Finds all roots of the polynomial with ascending coefficients `coeffs`
/// using the Aberth–Ehrlich simultaneous iteration.
///
/// Leading zero (highest-order) coefficients are ignored; exact zero roots
/// are deflated first for accuracy. The iteration stops when every step
/// is below `1e-13` relative to its root, or after 80 sweeps; one Newton
/// polish step per root follows. See the module docs for measured
/// iteration counts.
///
/// The result equals [`reference_aberth_roots`] bit for bit. The
/// arithmetic is the same expression for expression; only the threshold
/// tests differ in how they decide. Each decides from squared moduli or
/// components and falls back to the reference's `hypot` expression
/// where those cannot tell, so every branch goes the same way.
pub fn aberth_roots(coeffs: &[Complex]) -> Vec<Complex> {
    // Trim highest-order zeros, then deflate exact zero roots.
    let mut hi = coeffs.len();
    while hi > 1 && is_zero(coeffs[hi - 1]) {
        hi -= 1;
    }
    let n = hi.saturating_sub(1);
    if n == 0 {
        return Vec::new();
    }
    let mut lo = 0usize;
    while lo < n && is_zero(coeffs[lo]) {
        lo += 1;
    }
    let c = &coeffs[lo..hi];
    let m = c.len() - 1;
    let mut roots = Vec::with_capacity(lo + m);
    roots.resize(lo, Complex::ZERO);
    if m == 0 {
        return roots;
    }

    // Normalize to monic (`x / lead` is `x · lead⁻¹`).
    let inv_lead = c[m].recip();
    let monic: Vec<Complex> = c.iter().map(|&x| x * inv_lead).collect();
    // Initial guesses on a circle with radius from the Cauchy bound,
    // slightly perturbed to break symmetry. The radius is the one
    // modulus that feeds arithmetic, so it keeps `norm()`.
    let radius = 1.0 + monic[..m].iter().map(|x| x.norm()).fold(0.0f64, f64::max);
    let p = Poly::new(monic);
    let dp = p.derivative();
    roots.extend((0..m).map(|k| {
        let theta = 2.0 * std::f64::consts::PI * (k as f64 + 0.25) / m as f64 + 0.4;
        Complex::from_polar(radius * 0.8, theta)
    }));
    let z = &mut roots[lo..];

    for _ in 0..MAX_ITERS {
        // Converged when every root's step is below TOL relative to the
        // root (a NaN ratio counts as converged, as `f64::max` skips it
        // in the reference's running maximum).
        let mut converged = true;
        for i in 0..m {
            let zi = z[i];
            let pv = p.eval(zi);
            if below_rel(pv, TOL, zi).unwrap_or_else(|| pv.norm() < TOL * (1.0 + zi.norm())) {
                continue;
            }
            let dv = dp.eval(zi);
            let newton = if dv.norm_above(0.0) {
                pv / dv
            } else {
                Complex::new(TOL, TOL)
            };
            let mut sum = Complex::ZERO;
            for (j, &zj) in z.iter().enumerate() {
                if j != i {
                    let d = zi - zj;
                    if d.norm_above(1e-300) {
                        sum += d.recip();
                    }
                }
            }
            let denom = Complex::ONE - newton * sum;
            let step = if denom.norm_above(1e-300) {
                newton / denom
            } else {
                newton
            };
            z[i] -= step;
            let zn = z[i];
            if converged {
                converged = below_rel(step, TOL, zn).unwrap_or_else(|| {
                    let ratio = step.norm() / (1.0 + zn.norm());
                    ratio < TOL || ratio.is_nan()
                });
            }
        }
        if converged {
            break;
        }
    }

    // One polishing Newton step per root.
    for zi in z.iter_mut() {
        let dv = dp.eval(*zi);
        if dv.norm_above(0.0) {
            let corr = p.eval(*zi) / dv;
            if below_rel(corr, 0.1, *zi).unwrap_or_else(|| corr.norm() < 0.1 * (1.0 + zi.norm())) {
                *zi -= corr;
            }
        }
    }
    roots
}

/// `|w| < k·(1 + |z|)` — the form of every tolerance test in the
/// iteration — decided from squared moduli, or `None` in the band
/// around the threshold (see [`Complex::norm_below`]). An infinite or
/// NaN `|z|²` makes the threshold non-finite, which `norm_below` passes
/// back as `None`; a subnormal or zero `|z|²` is harmless, because
/// `1 + |z|` rounds to 1 for `|z|` that small.
#[inline]
fn below_rel(w: Complex, k: f64, z: Complex) -> Option<bool> {
    w.norm_below(k * (1.0 + z.norm_sqr().sqrt()))
}

/// The reference Aberth–Ehrlich iteration: [`aberth_roots`] with every
/// threshold test computed through `norm()` (`hypot`), six times per
/// root per sweep and once per root pair. Kept, unchanged, as the
/// reference that the `poly.rs` proptest and the `pade_roots` bench
/// compare [`aberth_roots`] against; nothing else calls it.
pub fn reference_aberth_roots(coeffs: &[Complex]) -> Vec<Complex> {
    // Trim trailing zeros (highest order).
    let mut c: Vec<Complex> = coeffs.to_vec();
    while c.len() > 1 && c.last().is_some_and(|x| x.norm() == 0.0) {
        c.pop();
    }
    let n = c.len().saturating_sub(1);
    if n == 0 {
        return Vec::new();
    }

    // Deflate exact zero roots (constant coefficient == 0).
    let mut zero_roots = 0usize;
    while zero_roots < n && c[0].norm() == 0.0 {
        c.remove(0);
        zero_roots += 1;
    }
    let m = c.len() - 1;
    let mut roots = vec![Complex::ZERO; zero_roots];
    if m == 0 {
        return roots;
    }

    // Normalize to monic for stability.
    let lead = c[m];
    let monic: Vec<Complex> = c.iter().map(|&x| x / lead).collect();
    let p = Poly::new(monic.clone());
    let dp = p.derivative();

    // Initial guesses on a circle with radius from the Cauchy bound,
    // slightly perturbed to break symmetry.
    let radius = 1.0 + monic[..m].iter().map(|x| x.norm()).fold(0.0f64, f64::max);
    let mut z: Vec<Complex> = (0..m)
        .map(|k| {
            let theta = 2.0 * std::f64::consts::PI * (k as f64 + 0.25) / m as f64 + 0.4;
            Complex::from_polar(radius * 0.8, theta)
        })
        .collect();

    for _ in 0..MAX_ITERS {
        let mut max_step = 0.0f64;
        for i in 0..m {
            let pv = p.eval(z[i]);
            let dv = dp.eval(z[i]);
            if pv.norm() < TOL * (1.0 + z[i].norm()) {
                continue;
            }
            let newton = if dv.norm() > 0.0 {
                pv / dv
            } else {
                Complex::new(TOL, TOL)
            };
            let mut sum = Complex::ZERO;
            for j in 0..m {
                if j != i {
                    let d = z[i] - z[j];
                    if d.norm() > 1e-300 {
                        sum += d.recip();
                    }
                }
            }
            let denom = Complex::ONE - newton * sum;
            let step = if denom.norm() > 1e-300 {
                newton / denom
            } else {
                newton
            };
            z[i] -= step;
            max_step = max_step.max(step.norm() / (1.0 + z[i].norm()));
        }
        if max_step < TOL {
            break;
        }
    }

    // One polishing Newton step per root.
    for zi in z.iter_mut() {
        let dv = dp.eval(*zi);
        if dv.norm() > 0.0 {
            let corr = p.eval(*zi) / dv;
            if corr.norm() < 0.1 * (1.0 + zi.norm()) {
                *zi -= corr;
            }
        }
    }

    roots.extend(z);
    roots
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sort_by_re(mut v: Vec<Complex>) -> Vec<Complex> {
        v.sort_by(|a, b| {
            a.re.partial_cmp(&b.re)
                .unwrap()
                .then(a.im.partial_cmp(&b.im).unwrap())
        });
        v
    }

    #[test]
    fn eval_horner() {
        // p(x) = 1 + 2x + 3x²; p(2) = 17
        let p = Poly::from_real(&[1.0, 2.0, 3.0]);
        assert!((p.eval(Complex::from_real(2.0)) - Complex::from_real(17.0)).norm() < 1e-14);
    }

    #[test]
    fn derivative_rule() {
        let p = Poly::from_real(&[5.0, 1.0, 2.0, 3.0]); // 5 + x + 2x² + 3x³
        let d = p.derivative(); // 1 + 4x + 9x²
        assert_eq!(d.coeffs().len(), 3);
        assert!((d.eval(Complex::from_real(1.0)) - Complex::from_real(14.0)).norm() < 1e-14);
    }

    #[test]
    fn quadratic_real_roots() {
        // (x-1)(x-3) = 3 - 4x + x²
        let r = sort_by_re(Poly::from_real(&[3.0, -4.0, 1.0]).roots());
        assert!((r[0] - Complex::from_real(1.0)).norm() < 1e-9);
        assert!((r[1] - Complex::from_real(3.0)).norm() < 1e-9);
    }

    #[test]
    fn complex_conjugate_pair() {
        // x² + 1 → ±j
        let r = Poly::from_real(&[1.0, 0.0, 1.0]).roots();
        assert_eq!(r.len(), 2);
        for root in &r {
            assert!((root.norm() - 1.0).abs() < 1e-9);
            assert!(root.re.abs() < 1e-9);
        }
    }

    #[test]
    fn zero_roots_deflated() {
        // x²(x - 2) = -2x² + x³
        let r = sort_by_re(Poly::from_real(&[0.0, 0.0, -2.0, 1.0]).roots());
        assert_eq!(r.len(), 3);
        assert!(r[0].norm() < 1e-12);
        assert!(r[1].norm() < 1e-12);
        assert!((r[2] - Complex::from_real(2.0)).norm() < 1e-9);
    }

    #[test]
    fn widely_spread_poles_like_awe() {
        // Poles at -1e3, -1e6, -1e9 after frequency scaling to -1, -1e3, -1e6:
        // AWE always scales, so test the scaled flavor.
        let roots_true = [
            Complex::from_real(-1.0),
            Complex::from_real(-1e3),
            Complex::from_real(-1e6),
        ];
        let p = Poly::from_roots(&roots_true);
        let r = sort_by_re(p.roots());
        let t = sort_by_re(roots_true.to_vec());
        for (a, b) in r.iter().zip(t.iter()) {
            assert!((*a - *b).norm() / b.norm().max(1.0) < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn from_roots_round_trip_eval() {
        let roots = [Complex::new(-1.0, 2.0), Complex::new(-1.0, -2.0)];
        let p = Poly::from_roots(&roots);
        for r in roots {
            assert!(p.eval(r).norm() < 1e-12);
        }
    }

    #[test]
    fn constant_poly_has_no_roots() {
        assert!(Poly::from_real(&[7.0]).roots().is_empty());
        assert_eq!(Poly::from_real(&[7.0]).degree(), 0);
    }

    /// Wherever `below_rel` decides — the tests at `TOL·(1+|z|)` and
    /// `0.1·(1+|z|)` — its answer is `hypot`'s, in the product form of
    /// the skip and polish tests and in the ratio form of the
    /// convergence test, at ±1…3 ulps around the threshold and on
    /// non-normal values of both `w` and `z`.
    #[test]
    fn below_rel_matches_hypot_at_its_thresholds() {
        use crate::complex::tests::{ring, specials};
        let zs = [
            Complex::ZERO,
            Complex::new(0.0, 5e-324),
            Complex::new(1e-170, -1e-170),
            Complex::new(-0.5, 0.0),
            Complex::new(3.0, 4.0),
            Complex::new(-2.5e3, 7.0e2),
            Complex::new(1e100, 1e100),
            Complex::new(2e154, 0.0), // |z|² overflows, |z| does not
            Complex::new(1e300, 1.0),
            Complex::new(f64::INFINITY, 0.0),
            Complex::new(f64::NAN, 1.0),
        ];
        let mut decided = 0;
        for k in [TOL, 0.1] {
            for z in zs {
                let t = k * (1.0 + z.norm());
                let mut ws = specials();
                ws.push(Complex::new(1e150, 0.0));
                if t.is_finite() {
                    ws.extend(ring(t));
                }
                for w in ws {
                    let Some(below) = below_rel(w, k, z) else {
                        continue;
                    };
                    decided += 1;
                    assert_eq!(
                        below,
                        w.norm() < k * (1.0 + z.norm()),
                        "|{w}| < {k}(1+|{z}|)"
                    );
                    let ratio = w.norm() / (1.0 + z.norm());
                    assert_eq!(below, ratio < k || ratio.is_nan(), "|{w}|/(1+|{z}|) < {k}");
                }
            }
        }
        assert!(decided > 1000, "{decided}");
    }

    /// One random coefficient set of degree 1–12 for the reference
    /// comparison, from one of three sources (see the proptest).
    fn random_coeffs(next: &mut impl FnMut() -> f64) -> Vec<Complex> {
        let deg = 1 + (next() * 12.0) as usize;
        let complex = next() < 0.5;
        let mut c = match (next() * 3.0) as usize {
            0 => {
                // AWE-like: left-half-plane roots with magnitudes spread
                // over four decades, half the sets with conjugate pairs,
                // some with a repeated root.
                let pairs = next() < 0.5;
                let mut roots = Vec::new();
                while roots.len() < deg {
                    let mag = 10f64.powf(4.0 * next() - 2.0);
                    if pairs && roots.len() + 2 <= deg && next() < 0.6 {
                        let r =
                            Complex::from_polar(mag, std::f64::consts::PI * (0.55 + 0.4 * next()));
                        roots.push(r);
                        roots.push(r.conj());
                    } else if !roots.is_empty() && next() < 0.15 {
                        roots.push(roots[roots.len() - 1]);
                    } else {
                        roots.push(Complex::from_real(-mag));
                    }
                }
                Poly::from_roots(&roots).coeffs().to_vec()
            }
            1 => {
                // Raw coefficients with exponents across ±300, so that
                // |c|² overflows and underflows, with exact zeros at
                // both ends (deflated zero roots, trimmed leading terms).
                let mut c: Vec<Complex> = (0..=deg)
                    .map(|_| {
                        let e = 600.0 * next() - 300.0;
                        let v = (next() - 0.5) * 10f64.powf(e);
                        Complex::new(v, v * (next() - 0.5) * 10f64.powf(4.0 * next() - 2.0))
                    })
                    .collect();
                let zeros_low = (next() * 3.0) as usize;
                let zeros_high = (next() * 3.0) as usize;
                for x in c.iter_mut().take(zeros_low) {
                    *x = Complex::ZERO;
                }
                for x in c.iter_mut().rev().take(zeros_high) {
                    *x = Complex::new(-0.0, 0.0);
                }
                c
            }
            _ => {
                // Well-scaled coefficients with NaN, ±∞ and subnormal
                // entries planted among them.
                let mut c: Vec<Complex> = (0..=deg)
                    .map(|_| Complex::new(next() - 0.5, next() - 0.5))
                    .collect();
                let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 5e-324, -1e-310];
                for _ in 0..1 + (next() * 2.0) as usize {
                    let i = (next() * c.len() as f64) as usize;
                    let v = specials[(next() * specials.len() as f64) as usize];
                    if next() < 0.5 {
                        c[i].re = v;
                    } else {
                        c[i].im = v;
                    }
                }
                c
            }
        };
        if !complex {
            for x in &mut c {
                x.im = 0.0;
            }
        }
        c
    }

    /// Same root count, and bit-equal components, where any NaN equals
    /// any NaN: LLVM may commute float operands, so a NaN's sign and
    /// payload are not stable even between two builds of one function.
    fn same_roots(a: &[Complex], b: &[Complex]) -> bool {
        let same = |x: f64, y: f64| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| same(x.re, y.re) && same(x.im, y.im))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The roots `aberth_roots` finds equal the reference
        /// iteration's bit for bit, on AWE-like root sets, on raw
        /// coefficients spanning the exponent range, and on NaN, ±∞ and
        /// subnormal coefficients; real and complex; degrees 1–12.
        #[test]
        fn prop_aberth_matches_reference(seed in 0u64..u64::MAX) {
            let mut state = seed | 1;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            for _ in 0..30 {
                let c = random_coeffs(&mut next);
                let reference = reference_aberth_roots(&c);
                let roots = aberth_roots(&c);
                prop_assert!(same_roots(&roots, &reference), "{:?}: {:?} vs {:?}", c, roots, reference);
            }
        }
    }

    proptest! {
        /// Roots of a monic polynomial built from random roots are recovered.
        #[test]
        fn prop_root_round_trip(seed in 0u64..300) {
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(12345);
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
            };
            let n = 1 + (seed as usize % 5);
            // Well-separated roots to keep the conditioning sane.
            let mut roots: Vec<Complex> = Vec::new();
            for _ in 0..n {
                let mut cand = Complex::new(next(), next());
                let mut guard = 0;
                while roots.iter().any(|r| (*r - cand).norm() < 0.3) && guard < 50 {
                    cand = Complex::new(next(), next());
                    guard += 1;
                }
                roots.push(cand);
            }
            let p = Poly::from_roots(&roots);
            let found = p.roots();
            prop_assert_eq!(found.len(), roots.len());
            for r in &roots {
                let best = found.iter().map(|f| (*f - *r).norm()).fold(f64::INFINITY, f64::min);
                prop_assert!(best < 1e-5, "root {} unmatched (best {})", r, best);
            }
        }
    }
}
