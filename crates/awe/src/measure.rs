//! Measurement functions over reduced-order models — the vocabulary
//! available to `.obj`/`.spec` expressions (`ugf(tf)`, `phase_margin(tf)`
//! …).
//!
//! Each evaluation costs `O(q)` per frequency point, so scanning for a
//! unity crossing is essentially free compared to re-solving the
//! circuit.

use crate::model::ReducedModel;
use oblx_linalg::Complex;

/// Gain magnitude `|H(j·2π·f)|` at frequency `f` (Hz).
pub fn gain_at(model: &ReducedModel, f: f64) -> f64 {
    response_at(model, f).norm()
}

/// `H(j·2π·f)` at frequency `f` (Hz).
fn response_at(model: &ReducedModel, f: f64) -> Complex {
    model.eval(Complex::new(0.0, 2.0 * std::f64::consts::PI * f))
}

/// `gain_at(model, f) <= 1.0`, decided from `|H|²` and falling back to
/// `hypot` only near `|H| = 1` (see [`Complex::norm_below`]).
fn gain_at_most_unity(model: &ReducedModel, f: f64) -> bool {
    let h = response_at(model, f);
    h.norm_below(1.0).unwrap_or_else(|| h.norm() <= 1.0)
}

/// `gain_at(model, f) > 1.0`, decided as [`gain_at_most_unity`]. Not its
/// negation: a NaN gain is neither at most nor above unity.
fn gain_above_unity(model: &ReducedModel, f: f64) -> bool {
    let h = response_at(model, f);
    h.norm_below(1.0)
        .map_or_else(|| h.norm() > 1.0, |below| !below)
}

/// Unity-gain frequency (Hz): lowest `f` where `|H|` crosses 1.
///
/// Returns 0 when the dc gain is already ≤ 1, and `1e12` when no
/// crossing is found below a THz (an effectively-unbounded response —
/// the cost function treats it as "very fast").
///
/// A *pole-free* model (the `constant(µ0)` fit fallback, or a model
/// whose every pole was dropped as non-finite) carries no frequency
/// information at all, so it returns 0 rather than 1e12: "no pole
/// found" must never be scored as "infinitely fast circuit".
pub fn unity_gain_frequency(model: &ReducedModel) -> f64 {
    if let Some(f) = model.cached_ugf() {
        return f;
    }
    let f = unity_gain_frequency_uncached(model);
    model.store_ugf(f);
    f
}

fn unity_gain_frequency_uncached(model: &ReducedModel) -> f64 {
    const F_MAX: f64 = 1.0e12;
    if model.poles().is_empty() {
        return 0.0;
    }
    if model.dc_gain() <= 1.0 {
        return 0.0;
    }
    let mut lo = 1.0e-1;
    let mut hi = lo;
    let mut found = false;
    while hi < F_MAX {
        hi *= 10.0;
        if gain_at_most_unity(model, hi) {
            found = true;
            break;
        }
        lo = hi;
    }
    if !found {
        return F_MAX;
    }
    for _ in 0..60 {
        let mid = (lo * hi).sqrt();
        if gain_above_unity(model, mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo * hi).sqrt()
}

/// Phase margin in degrees: `180° − (phase lag accumulated from dc to
/// the unity-gain crossing)`.
///
/// Measuring the lag *relative to the dc phase* makes the result
/// independent of the output sign convention — an inverting
/// single-ended probe (dc phase 180°) reports the same margin as the
/// non-inverted measurement.
///
/// By convention returns 90° when there is no unity crossing, and 0°
/// when the model is unstable (an unstable fit means the proposed
/// circuit is unusable, and the penalty must reflect that).
pub fn phase_margin(model: &ReducedModel) -> f64 {
    if !model.is_stable() {
        return 0.0;
    }
    let f = unity_gain_frequency(model);
    if f <= 0.0 || f >= 1.0e12 {
        return 90.0;
    }
    let h0 = model.eval(Complex::new(0.0, 0.0));
    let h = model.eval(Complex::new(0.0, 2.0 * std::f64::consts::PI * f));
    180.0 - phase_lag_degrees(h0.arg(), h.arg())
}

/// Principal-value phase lag `|∠H(jω) − ∠H(0)|` in degrees, wrapped
/// into `[0, 360)`.
pub(crate) fn phase_lag_degrees(arg0: f64, arg_f: f64) -> f64 {
    let mut d = (arg_f - arg0).to_degrees();
    while d > 180.0 {
        d -= 360.0;
    }
    while d < -180.0 {
        d += 360.0;
    }
    d.abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ReducedModel;

    fn model(poles: &[(f64, f64)], residues: &[(f64, f64)], mu0: f64) -> ReducedModel {
        ReducedModel::new(
            poles.iter().map(|&(r, i)| Complex::new(r, i)).collect(),
            residues.iter().map(|&(r, i)| Complex::new(r, i)).collect(),
            mu0,
            vec![],
            poles.len(),
        )
    }

    #[test]
    fn single_pole_ugf_is_gbw() {
        // A0 = 1000, pole at 1 kHz ⇒ ugf ≈ 1 MHz (f_p·A0).
        let wp = 2.0 * std::f64::consts::PI * 1.0e3;
        let m = model(&[(-wp, 0.0)], &[(1000.0 * wp, 0.0)], 1000.0);
        let f = unity_gain_frequency(&m);
        assert!((f - 1.0e6).abs() / 1.0e6 < 1e-3, "ugf = {f}");
        // PM ≈ 90° for a single pole crossing a decade+ past the pole.
        let pm = phase_margin(&m);
        assert!((pm - 90.0).abs() < 1.0, "pm = {pm}");
    }

    #[test]
    fn two_pole_phase_margin() {
        // Poles at 1 kHz and 1 MHz, A0 = 1000: crossing at the second
        // pole gives PM ≈ 45–52°.
        let w1 = 2.0 * std::f64::consts::PI * 1.0e3;
        let w2 = 2.0 * std::f64::consts::PI * 1.0e6;
        // H = A0·w1·w2/((s+w1)(s+w2)) → residues via partial fractions.
        let a0 = 1000.0;
        let k1 = a0 * w1 * w2 / (w2 - w1);
        let k2 = -a0 * w1 * w2 / (w2 - w1);
        let m = model(&[(-w1, 0.0), (-w2, 0.0)], &[(k1, 0.0), (k2, 0.0)], a0);
        let pm = phase_margin(&m);
        assert!(pm > 40.0 && pm < 60.0, "pm = {pm}");
    }

    #[test]
    fn low_gain_has_no_crossing() {
        let m = model(&[(-1000.0, 0.0)], &[(500.0, 0.0)], 0.5);
        assert_eq!(unity_gain_frequency(&m), 0.0);
        assert_eq!(phase_margin(&m), 90.0);
    }

    #[test]
    fn unstable_model_zero_margin() {
        let m = model(&[(1000.0, 0.0)], &[(1e6, 0.0)], 1000.0);
        assert_eq!(phase_margin(&m), 0.0);
    }

    /// The unity-gain scan with every `|H|` test taken through
    /// `gain_at` (`hypot`): the reference the hypot-free scan must
    /// match bit for bit.
    fn reference_ugf(model: &ReducedModel) -> f64 {
        const F_MAX: f64 = 1.0e12;
        if model.poles().is_empty() || model.dc_gain() <= 1.0 {
            return 0.0;
        }
        let mut lo = 1.0e-1;
        let mut hi = lo;
        let mut found = false;
        while hi < F_MAX {
            hi *= 10.0;
            if gain_at(model, hi) <= 1.0 {
                found = true;
                break;
            }
            lo = hi;
        }
        if !found {
            return F_MAX;
        }
        for _ in 0..60 {
            let mid = (lo * hi).sqrt();
            if gain_at(model, mid) > 1.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (lo * hi).sqrt()
    }

    /// The scan finds the same crossing as the reference, bit for bit,
    /// on random stable and unstable pole/residue models of order 1–6
    /// with dc gains from 0.1 to 1e6: every bisection step lands on the
    /// same side of `|H| = 1`.
    #[test]
    fn ugf_scan_matches_reference_scan() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut crossings = 0;
        for _ in 0..3000 {
            let q = 1 + (next() * 6.0) as usize;
            let mut poles = Vec::new();
            let mut residues = Vec::new();
            while poles.len() < q {
                let w = 10f64.powf(2.0 + 8.0 * next());
                let sign = if next() < 0.05 { 1.0 } else { -1.0 };
                let k = Complex::new(w * (next() - 0.3) * 10f64.powf(3.0 * next()), 0.0);
                if poles.len() + 2 <= q && next() < 0.4 {
                    let p = Complex::new(sign * w * next(), w);
                    let k = Complex::new(k.re, w * (next() - 0.5));
                    poles.extend([p, p.conj()]);
                    residues.extend([k, k.conj()]);
                } else {
                    poles.push(Complex::from_real(sign * w));
                    residues.push(k);
                }
            }
            let mu0 = 10f64.powf(7.0 * next() - 1.0) * if next() < 0.5 { -1.0 } else { 1.0 };
            let m = ReducedModel::new(poles, residues, mu0, vec![], q);
            let f = unity_gain_frequency(&m);
            assert_eq!(f.to_bits(), reference_ugf(&m).to_bits(), "{m}");
            if f > 0.0 && f < 1.0e12 {
                crossings += 1;
            }
        }
        assert!(crossings > 1000, "{crossings} crossings found");
    }

    #[test]
    fn gain_at_matches_eval() {
        let wp = 1.0e4;
        let m = model(&[(-wp, 0.0)], &[(10.0 * wp, 0.0)], 10.0);
        let g = gain_at(&m, wp / (2.0 * std::f64::consts::PI));
        assert!((g - 10.0 / 2.0f64.sqrt()).abs() < 1e-9);
    }
}
