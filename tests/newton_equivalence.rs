//! Property test for the relaxed-dc Newton step through the bias plan:
//! after an arbitrary sequence of single-variable, multi-variable and
//! node-voltage moves — including exact revisits and variables that
//! feed the linear bias elements — the Newton Δ of one persistent
//! [`OblxProblem`] must equal the from-scratch reference step
//! ([`reference_newton_delta`]) bit for bit, `None` included.
//!
//! The decks are every benchmark circuit plus the test decks: the diff
//! amp, its junction-diode variant, and a variant whose load resistor
//! `'R-1k'` fails to assemble for R ≤ 1k — a failed step leaves the
//! patched template partly written, so the next step must re-patch
//! every binding.

use astrx_oblx::astrx::{compile, compile_source, CompiledProblem};
use astrx_oblx::bench_suite;
use astrx_oblx::oblx::{reference_newton_delta, OblxProblem, OblxState, SynthesisOptions};
use oblx_anneal::AnnealProblem;
use oblx_netlist::ElementKind;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Deck names: every benchmark circuit, then the files under
/// `crates/core/src/testdata/`.
fn deck_names() -> Vec<String> {
    let mut names: Vec<String> = bench_suite::all()
        .iter()
        .map(|b| b.name.to_string())
        .collect();
    names.extend(
        ["diffamp.ox", "diffamp_diode.ox", "diffamp_rload.ox"]
            .iter()
            .map(|s| s.to_string()),
    );
    names
}

/// Each deck compiled once per test binary.
fn compiled(deck: &str) -> &'static CompiledProblem {
    static DECKS: OnceLock<Vec<(String, CompiledProblem)>> = OnceLock::new();
    let decks = DECKS.get_or_init(|| {
        deck_names()
            .into_iter()
            .map(|name| {
                let c = match name.as_str() {
                    "diffamp.ox" => {
                        compile_source(include_str!("../crates/core/src/testdata/diffamp.ox"))
                    }
                    "diffamp_diode.ox" => {
                        compile_source(include_str!("../crates/core/src/testdata/diffamp_diode.ox"))
                    }
                    "diffamp_rload.ox" => {
                        compile_source(include_str!("../crates/core/src/testdata/diffamp_rload.ox"))
                    }
                    bench => compile(
                        bench_suite::by_name(bench)
                            .expect("benchmark exists")
                            .problem()
                            .expect("parses"),
                    ),
                };
                (name.clone(), c.unwrap_or_else(|e| panic!("{name}: {e}")))
            })
            .collect()
    });
    &decks.iter().find(|(n, _)| n == deck).expect("known deck").1
}

/// User variables that feed a linear bias element (a resistor, source or
/// capacitor value): moving one of them changes the determined voltages
/// or the linear stamps.
fn linear_vars(c: &CompiledProblem) -> Vec<usize> {
    let mut out = Vec::new();
    for el in &c.bias_netlist.elements {
        let expr = match &el.kind {
            ElementKind::Resistor { value } | ElementKind::Capacitor { value } => value,
            ElementKind::Vsource { dc, .. } | ElementKind::Isource { dc, .. } => dc,
            _ => continue,
        };
        for name in expr.variables() {
            if let Some(i) = c.user_vars.iter().position(|v| v.name == name) {
                if !out.contains(&i) {
                    out.push(i);
                }
            }
        }
    }
    out
}

fn bits(d: Option<&[f64]>) -> Option<Vec<u64>> {
    d.map(|d| d.iter().map(|v| v.to_bits()).collect())
}

/// The bias-plan step of `p` and the reference step at `state` agree
/// bit for bit; returns the step.
fn check_step(
    p: &mut OblxProblem<'_>,
    c: &CompiledProblem,
    state: &OblxState,
) -> Result<Option<Vec<f64>>, TestCaseError> {
    let got = p.newton_delta(state);
    let want = reference_newton_delta(c, state);
    prop_assert!(
        bits(got.as_deref()) == bits(want.as_deref()),
        "Newton Δ diverged at {state:?}: bias plan {got:?}, reference {want:?}"
    );
    Ok(got)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Replay a pseudo-random move sequence through one persistent
    /// problem and compare its Newton step with the reference at every
    /// visited state.
    #[test]
    fn prop_bias_plan_newton_step_matches_reference(
        deck in proptest::sample::select(deck_names()),
        seed in 0u64..10_000,
    ) {
        let c = compiled(&deck);
        let mut p = OblxProblem::new(c, SynthesisOptions::default());
        let linear = linear_vars(c);

        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let draw = |i: usize, r: f64| {
            let v = &c.user_vars[i];
            if v.min > 0.0 {
                v.min * (v.max / v.min).powf(r)
            } else {
                v.min + r * (v.max - v.min)
            }
        };

        let mut state = p.initial_state();
        let nu = state.user.len();
        let mut visited: Vec<OblxState> = Vec::new();
        let mut step = check_step(&mut p, c, &state)?;
        for _ in 0..24 {
            match (next() * 7.0) as usize {
                0 if !visited.is_empty() => {
                    // Exact revisit of an earlier state.
                    let k = (next() * visited.len() as f64) as usize % visited.len();
                    state = visited[k].clone();
                }
                1 => {
                    let i = (next() * nu as f64) as usize % nu;
                    state.user[i] = draw(i, next());
                }
                2 => {
                    for _ in 0..2 + (next() * 2.0) as usize {
                        let i = (next() * nu as f64) as usize % nu;
                        state.user[i] = draw(i, next());
                    }
                }
                3 if !linear.is_empty() => {
                    // A linear bias variable (a bias current, a load).
                    let i = linear[(next() * linear.len() as f64) as usize % linear.len()];
                    state.user[i] = draw(i, next());
                }
                4 if !state.nodes.is_empty() => {
                    let k = (next() * state.nodes.len() as f64) as usize % state.nodes.len();
                    state.nodes[k] += 2.0 * (next() - 0.5);
                }
                5 => {
                    for v in state.nodes.iter_mut() {
                        *v += 0.2 * (next() - 0.5);
                    }
                }
                _ => {
                    // Follow the last Newton step, as the annealer does.
                    if let Some(d) = &step {
                        for (v, dv) in state.nodes.iter_mut().zip(d) {
                            *v += dv.clamp(-1.0, 1.0);
                        }
                    }
                }
            }
            visited.push(state.clone());
            step = check_step(&mut p, c, &state)?;
        }
    }
}

/// A state that fails to assemble aborts the patch partway: the W
/// bindings before the load resistor land in the template, the tail
/// current binding after it does not. Whichever state comes next, every
/// binding must be current again.
#[test]
fn failed_patch_is_followed_by_a_full_repatch() {
    let c = compiled("diffamp_rload.ox");
    let mut p = OblxProblem::new(c, SynthesisOptions::default());
    let idx = |name: &str| c.user_vars.iter().position(|v| v.name == name).unwrap();
    let (w, i, r) = (idx("w"), idx("i"), idx("r"));
    let mut check = |s: &OblxState| {
        let got = p.newton_delta(s);
        let want = reference_newton_delta(c, s);
        assert_eq!(bits(got.as_deref()), bits(want.as_deref()));
        got.is_some()
    };
    let ok = OblxProblem::new(c, SynthesisOptions::default()).initial_state();
    let mut bad = ok.clone();
    bad.user[w] *= 3.0;
    bad.user[i] *= 2.0;
    bad.user[r] = 800.0;
    let mut fixed = bad.clone();
    fixed.user[r] = 1.8e3;

    assert!(check(&ok), "the initial point steps");
    assert!(!check(&bad), "R < 1k must fail to assemble");
    // Same user vector as the last successful step, but the failed
    // patch rewrote W.
    assert!(check(&ok));
    assert!(!check(&bad));
    // Differs from the failed state in R alone, but I never landed.
    assert!(check(&fixed));
}
