//! The Padé root-finder benchmark: `aberth_roots` against
//! `reference_aberth_roots`, the same Aberth–Ehrlich iteration with
//! every threshold test computed through `hypot`.
//!
//! The corpus is fixed-seed real polynomials of degrees 1–8, each built
//! from an AWE-like pole set as the fit sees it after frequency
//! scaling: left-half-plane poles whose magnitudes spread over four
//! decades above the dominant one (near −1), 40% of them in conjugate
//! pairs. Degrees appear in the proportion in which real fits call the
//! root finder ([`ROOT_CALLS`]), and the whole-corpus ratio is a ratio
//! of total times, as the fits' root time is. The corpus's high-degree
//! polynomials take more Aberth sweeps than the fits' own denominators,
//! so it reads somewhat above a replay of those (EXPERIMENTS.md). Both
//! finders return the same roots bit for bit (checked here on the whole
//! corpus first).
//!
//! Output: criterion timings of one pass over the corpus per finder, a
//! per-degree table of µs per call and the reference/new ratio, then
//! the CI gate on the whole-corpus ratio measured in interleaved rounds
//! (as `newton_step` does): `PADE_ROOTS_OK ratio=…` when the reference
//! is at least 2× slower, `PADE_ROOTS_FAIL ratio=…` otherwise.
//!
//! Set `OBLX_BENCH_QUICK=1` to cut sample counts (CI smoke mode).

use criterion::{criterion_group, criterion_main, Criterion};
use oblx_linalg::{aberth_roots, reference_aberth_roots, Complex, Poly};
use std::hint::black_box;
use std::time::Instant;

/// Root-finder calls per degree 1–8 in real fits: the fits that tried
/// each Padé order q, as `astrx profile --bench <name> --moves 8000
/// --seed 3` prints them (`awe orders tried by q`), summed over the
/// seven benchmark circuits (EXPERIMENTS.md). Every tried order whose
/// Hankel solve succeeds finds the roots of a degree-q denominator.
const ROOT_CALLS: [u64; 8] = [
    218_042, 218_041, 147_108, 66_322, 31_952, 17_519, 10_639, 8_673,
];

/// Polynomials in the corpus, split over the degrees as [`ROOT_CALLS`].
const CORPUS: u64 = 1024;

/// Polynomials of `degree` in the corpus (at least one).
fn per_degree(degree: usize) -> usize {
    let total: u64 = ROOT_CALLS.iter().sum();
    ((CORPUS * ROOT_CALLS[degree - 1] + total / 2) / total).max(1) as usize
}

/// `(degree, ascending coefficients)` for degrees 1–8.
fn corpus() -> Vec<(usize, Vec<Complex>)> {
    let mut state = 0x5EED_0FAB_E27F_u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut out = Vec::new();
    for degree in 1..=8 {
        for _ in 0..per_degree(degree) {
            let mut poles = vec![Complex::from_real(-(0.5 + next()))];
            while poles.len() < degree {
                let mag = 10f64.powf(4.0 * next());
                if poles.len() + 2 <= degree && next() < 0.4 {
                    let p = Complex::from_polar(mag, std::f64::consts::PI * (0.55 + 0.4 * next()));
                    poles.extend([p, p.conj()]);
                } else {
                    poles.push(Complex::from_real(-mag));
                }
            }
            let coeffs = Poly::from_roots(&poles)
                .coeffs()
                .iter()
                .map(|c| Complex::from_real(c.re))
                .collect();
            out.push((degree, coeffs));
        }
    }
    out
}

/// Reference over new time for `polys`, as the median of `rounds`
/// rounds that each time one pass with each finder, back to back.
fn interleaved(polys: &[&[Complex]], rounds: usize) -> (f64, f64, f64) {
    let pass = |f: fn(&[Complex]) -> Vec<Complex>| {
        let t = Instant::now();
        for c in polys {
            black_box(f(black_box(c)));
        }
        t.elapsed().as_secs_f64()
    };
    let mut new = Vec::with_capacity(rounds);
    let mut reference = Vec::with_capacity(rounds);
    let mut ratios = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let n = pass(aberth_roots);
        let r = pass(reference_aberth_roots);
        new.push(n);
        reference.push(r);
        ratios.push(r / n);
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    (
        median(&mut new),
        median(&mut reference),
        median(&mut ratios),
    )
}

fn bench(c: &mut Criterion) {
    let quick = std::env::var_os("OBLX_BENCH_QUICK").is_some();
    let corpus = corpus();
    for (_, coeffs) in &corpus {
        let (a, b) = (aberth_roots(coeffs), reference_aberth_roots(coeffs));
        let same = |x: f64, y: f64| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
        assert!(
            a.len() == b.len()
                && a.iter()
                    .zip(&b)
                    .all(|(x, y)| same(x.re, y.re) && same(x.im, y.im)),
            "roots differ from the reference on {coeffs:?}"
        );
    }
    let all: Vec<&[Complex]> = corpus.iter().map(|(_, c)| c.as_slice()).collect();

    let mut g = c.benchmark_group("pade_roots");
    if quick {
        g.sample_size(5);
    }
    g.bench_function("aberth_corpus", |bench| {
        bench.iter(|| {
            for p in &all {
                black_box(aberth_roots(black_box(p)));
            }
        })
    });
    g.bench_function("reference_corpus", |bench| {
        bench.iter(|| {
            for p in &all {
                black_box(reference_aberth_roots(black_box(p)));
            }
        })
    });
    g.finish();

    let rounds = if quick { 9 } else { 21 };
    println!("\nAberth roots vs reference (µs/call over fixed-seed real polynomials):");
    println!("  degree  polys  share      new  reference  ratio");
    for degree in 1..=8 {
        let polys: Vec<&[Complex]> = corpus
            .iter()
            .filter(|(d, _)| *d == degree)
            .map(|(_, c)| c.as_slice())
            .collect();
        let (n, r, ratio) = interleaved(&polys, rounds);
        let per_call = |t: f64| t / polys.len() as f64 * 1e6;
        println!(
            "  {degree:>6} {:>6} {:>5.1}% {:>8.3} {:>10.3} {ratio:>5.2}×",
            polys.len(),
            100.0 * polys.len() as f64 / corpus.len() as f64,
            per_call(n),
            per_call(r)
        );
    }

    // CI smoke gate on the within-run ratio over the whole corpus
    // (machine-independent; absolute µs swing ±30% on shared VMs). The
    // two finders share the iteration and its arithmetic, so the ratio
    // is what the hypot-free threshold tests save on the fits' degree
    // mix; it is smallest at degrees 1–2, where the iteration is short
    // and most calls are (EXPERIMENTS.md).
    let (n, r, ratio) = interleaved(&all, rounds);
    println!(
        "\nwhole corpus: new {:.3} µs/call, reference {:.3} µs/call",
        n / all.len() as f64 * 1e6,
        r / all.len() as f64 * 1e6
    );
    let verdict = if ratio >= 2.0 {
        "PADE_ROOTS_OK"
    } else {
        "PADE_ROOTS_FAIL"
    };
    println!("{verdict} ratio={ratio:.2}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
