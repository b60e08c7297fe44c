//! A minimal `f64` complex number.
//!
//! Only the operations required by circuit analysis are provided; this is
//! deliberately not a general-purpose numerics type.

use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Relative half-width of the band around a threshold inside which
/// [`Complex::norm_below`] leaves the decision to `norm()`. The squared
/// modulus and `hypot` each carry a few ulps (~1e-16) of error, so a
/// decision from `|z|²` outside this band matches `hypot`'s.
const NORM_BAND: f64 = 1e-13;

/// A complex number with `f64` components.
///
/// # Examples
///
/// ```
/// use oblx_linalg::Complex;
///
/// let s = Complex::new(0.0, 1.0);
/// assert!((s * s + Complex::ONE).norm() < 1e-15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit `j` (electrical-engineering spelling of `i`).
    pub const J: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates.
    ///
    /// # Examples
    ///
    /// ```
    /// use oblx_linalg::Complex;
    /// let z = Complex::from_polar(2.0, std::f64::consts::FRAC_PI_2);
    /// assert!(z.re.abs() < 1e-15 && (z.im - 2.0).abs() < 1e-15);
    /// ```
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex::new(r * theta.cos(), r * theta.sin())
    }

    /// The modulus `|z|`.
    #[inline]
    pub fn norm(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// The squared modulus `|z|²`, cheaper than [`Complex::norm`].
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Decides `self.norm() < t` from [`Complex::norm_sqr`], without
    /// the libm `hypot` call behind `norm()`.
    ///
    /// `Some(true)` when `|z|` is clearly below `t`, `Some(false)` when
    /// clearly above, and `None` when the squares cannot tell: `|z|`
    /// lies within a relative 1e-13 of `t`, `|z|²` is NaN or
    /// infinite, or `t²` is not a normal number. The caller then
    /// decides from `norm()`, so a test written as
    /// `z.norm_below(t).unwrap_or_else(|| z.norm() < t)` takes the
    /// same branch as `z.norm() < t` on every input.
    ///
    /// `t` may itself be an estimate carrying a few ulps of relative
    /// error against the threshold the caller compares with (say
    /// `k·(1 + √|w|²)` standing in for `k·(1 + |w|)`): the band is
    /// hundreds of times wider than that error plus the rounding of
    /// `|z|²` and of `hypot`. A zero or subnormal `|z|²` still decides: with
    /// `t²` normal, `|z|` is then below `t` by far more than the band.
    ///
    /// # Examples
    ///
    /// ```
    /// use oblx_linalg::Complex;
    ///
    /// assert_eq!(Complex::new(0.3, 0.4).norm_below(1.0), Some(true));
    /// assert_eq!(Complex::new(3.0, 4.0).norm_below(1.0), Some(false));
    /// assert_eq!(Complex::new(0.6, 0.8).norm_below(1.0), None);
    /// ```
    #[inline]
    pub fn norm_below(self, t: f64) -> Option<bool> {
        let tt = t * t;
        let n = self.norm_sqr();
        if !(t > 0.0 && tt.is_normal() && n.is_finite()) {
            return None;
        }
        if n < tt * (1.0 - 2.0 * NORM_BAND) {
            Some(true)
        } else if n > tt * (1.0 + 2.0 * NORM_BAND) {
            Some(false)
        } else {
            None
        }
    }

    /// `self.norm() > t`, bit for bit, for a tiny threshold such as 0
    /// or `1e-300`, decided from the components: `|z|` is at least the
    /// larger component and at most `√2` times it, so `hypot` runs only
    /// when both components lie within `(t/√2, t]` (or an infinite
    /// component meets a NaN, where `hypot` is `+∞`).
    ///
    /// # Examples
    ///
    /// ```
    /// use oblx_linalg::Complex;
    ///
    /// assert!(Complex::new(0.0, 5e-324).norm_above(0.0));
    /// assert!(!Complex::new(-0.0, 0.0).norm_above(0.0));
    /// assert!(!Complex::new(f64::NAN, 1.0).norm_above(0.0));
    /// ```
    #[inline]
    pub fn norm_above(self, t: f64) -> bool {
        let (a, b) = (self.re.abs(), self.im.abs());
        if a.is_nan() || b.is_nan() {
            return a == f64::INFINITY || b == f64::INFINITY;
        }
        if a > t || b > t {
            return true;
        }
        if a.max(b) * std::f64::consts::SQRT_2 * (1.0 + NORM_BAND) <= t {
            return false;
        }
        self.norm() > t
    }

    /// The argument (phase) in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// The complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }

    /// The multiplicative inverse `1/z`.
    ///
    /// Returns infinities when `z` is zero, matching `f64` division
    /// semantics.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        Complex::new(self.re / d, -self.im / d)
    }

    /// The principal square root.
    #[inline]
    pub fn sqrt(self) -> Self {
        Complex::from_polar(self.norm().sqrt(), self.arg() / 2.0)
    }

    /// Returns `true` when either component is NaN or infinite.
    #[inline]
    pub fn is_bad(self) -> bool {
        !self.re.is_finite() || !self.im.is_finite()
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}{}j", self.re, self.im)
        }
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::from_real(re)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z/w = z·w⁻¹ by definition
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        Complex::new(self.re * rhs, self.im * rhs)
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex {
    #[inline]
    fn div_assign(&mut self, rhs: Complex) {
        *self = *self / rhs;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn close(a: Complex, b: Complex) -> bool {
        (a - b).norm() < 1e-12
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex::new(3.0, -4.0);
        assert_eq!(z.norm(), 5.0);
        assert_eq!(z.norm_sqr(), 25.0);
        assert!(close(z * z.recip(), Complex::ONE));
        assert!(close(z + (-z), Complex::ZERO));
        assert!(close(z.conj().conj(), z));
        assert!(close((z * z).sqrt(), z)); // |arg z| < π/2 ⇒ principal branch returns z
    }

    #[test]
    fn division_matches_multiplication() {
        let a = Complex::new(1.5, 2.5);
        let b = Complex::new(-0.5, 3.0);
        assert!(close(a / b * b, a));
    }

    #[test]
    fn polar_round_trip() {
        let z = Complex::from_polar(2.0, 0.7);
        assert!((z.norm() - 2.0).abs() < 1e-14);
        assert!((z.arg() - 0.7).abs() < 1e-14);
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2j");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2j");
    }

    #[test]
    fn bad_detection() {
        assert!(Complex::new(f64::NAN, 0.0).is_bad());
        assert!(Complex::new(0.0, f64::INFINITY).is_bad());
        assert!(!Complex::new(1.0, 1.0).is_bad());
    }

    /// `x` moved by `ulps` representable values (up when positive).
    fn nudge(mut x: f64, ulps: i32) -> f64 {
        for _ in 0..ulps.abs() {
            x = if ulps > 0 { x.next_up() } else { x.next_down() };
        }
        x
    }

    /// Points whose modulus lies within a few ulps of `t`: on both axes
    /// and at 97 angles, one component at a time moved by −3…+3 ulps.
    pub(crate) fn ring(t: f64) -> Vec<Complex> {
        let mut pts = Vec::new();
        for k in -3..=3 {
            pts.push(Complex::new(nudge(t, k), 0.0));
            pts.push(Complex::new(-0.0, -nudge(t, k)));
        }
        for i in 0..97 {
            let theta = 0.0647 * i as f64 + 0.003;
            let (re, im) = (t * theta.cos(), t * theta.sin());
            for k in -3..=3 {
                pts.push(Complex::new(nudge(re, k), im));
                pts.push(Complex::new(re, nudge(im, k)));
            }
        }
        pts
    }

    /// Every pairing of zeros, subnormals, values whose squares
    /// underflow or overflow, infinities and NaN.
    pub(crate) fn specials() -> Vec<Complex> {
        let vals = [
            0.0,
            -0.0,
            5e-324,
            -1e-310,
            f64::MIN_POSITIVE,
            1e-170,
            1e-300,
            1.0,
            -3.0,
            1e160,
            -1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        vals.iter()
            .flat_map(|&re| vals.iter().map(move |&im| Complex::new(re, im)))
            .collect()
    }

    /// `norm_above` is `norm() > t` on every input, at ±1…3 ulps around
    /// the two thresholds the root finder uses and on non-normal values.
    #[test]
    fn norm_above_matches_hypot_at_its_thresholds() {
        for t in [0.0, 1e-300] {
            let mut pts = specials();
            if t > 0.0 {
                pts.extend(ring(t));
                // Both components inside (t/√2, t]: only `hypot` can tell.
                pts.extend(ring(t * std::f64::consts::FRAC_1_SQRT_2 * 1.2));
            }
            for w in pts {
                assert_eq!(w.norm_above(t), w.norm() > t, "|{w}| > {t}");
            }
        }
    }

    /// Wherever `norm_below(1)` decides — the unity-gain test — its
    /// answer is `hypot`'s for `<`, `<=` and (negated) `>`.
    #[test]
    fn norm_below_matches_hypot_at_unity() {
        let (mut decided, mut deferred) = (0, 0);
        for h in ring(1.0).into_iter().chain(specials()) {
            match h.norm_below(1.0) {
                Some(below) => {
                    decided += 1;
                    assert_eq!(below, h.norm() < 1.0, "|{h}| < 1");
                    assert_eq!(below, h.norm() <= 1.0, "|{h}| <= 1");
                    assert_eq!(!below, h.norm() > 1.0, "|{h}| > 1");
                }
                None => deferred += 1,
            }
        }
        assert!(decided > 50 && deferred > 1000, "{decided} / {deferred}");
    }
}
