//! Property test for the demand pass: an analysis that the goals read
//! only through `dc_gain`/`dcv` runs no Padé fit, and that changes no
//! number a goal reads.
//!
//! Every benchmark circuit is evaluated on two decks: the deck as is,
//! and the deck plus one goal reading `gain_at(h, 1)` for every
//! analysis handle `h`. The extra goal makes every analysis a model
//! analysis, so the second deck fits everything, as the evaluator did
//! before the demand pass. Random walks from each circuit's initial
//! state (with Newton steps, as the annealer takes them) visit the
//! states compared.

use astrx_oblx::astrx::{compile, CompiledProblem};
use astrx_oblx::bench_suite;
use astrx_oblx::cost::{CostEvaluator, EvalFailure};
use astrx_oblx::oblx::{OblxProblem, OblxState, SynthesisOptions};
use astrx_oblx::AdaptiveWeights;
use oblx_anneal::AnnealProblem;
use oblx_awe::{AweError, Demand};
use oblx_mna::{LinearSystem, SizedCircuit};
use oblx_netlist::{BinOp, Expr, Goal, SpecKind};
use proptest::prelude::*;
use std::sync::OnceLock;

/// A benchmark compiled as is and with the extra goal that forces a
/// fit of every analysis.
struct Decks {
    as_is: CompiledProblem,
    forced: CompiledProblem,
}

/// The benchmark names, in suite order.
fn bench_names() -> Vec<String> {
    bench_suite::all()
        .iter()
        .map(|b| b.name.to_string())
        .collect()
}

/// Each benchmark's two decks, compiled once per test binary.
fn decks(bench: &str) -> &'static Decks {
    static DECKS: OnceLock<Vec<(String, Decks)>> = OnceLock::new();
    let all = DECKS.get_or_init(|| {
        bench_names()
            .into_iter()
            .map(|name| {
                let problem = bench_suite::by_name(&name)
                    .expect("benchmark exists")
                    .problem()
                    .expect("parses");
                let mut forced = problem.clone();
                let reads = forced
                    .jigs
                    .iter()
                    .flat_map(|j| j.analyses.iter())
                    .map(|a| Expr::Call("gain_at".into(), vec![Expr::var(&a.name), Expr::num(1.0)]))
                    .reduce(|a, b| Expr::Bin(BinOp::Add, Box::new(a), Box::new(b)))
                    .expect("every benchmark has an analysis");
                forced.specs.push(Goal {
                    name: "fit_every_analysis".into(),
                    expr: reads,
                    good: 1.0,
                    bad: 0.0,
                    kind: SpecKind::Constraint,
                });
                let decks = Decks {
                    as_is: compile(problem).unwrap_or_else(|e| panic!("{name}: {e}")),
                    forced: compile(forced).unwrap_or_else(|e| panic!("{name}: {e}")),
                };
                assert!(
                    decks.forced.demand.values().all(|d| *d == Demand::Model),
                    "{name}: the extra goal must force every fit"
                );
                (name, decks)
            })
            .collect()
    });
    &all.iter().find(|(n, _)| n == bench).expect("known bench").1
}

/// The handle an AWE failure names (`"<handle>: <error>"`).
fn failed_handle(e: &EvalFailure) -> Option<&str> {
    match e {
        EvalFailure::Awe(msg) => msg.split(": ").next(),
        _ => None,
    }
}

/// The two decks agree on `state`: where the forced deck scores, every
/// original goal, `kcl_max` and `failed` are bit-equal; where it fails
/// through a fit of an analysis the original deck reads as dc-only, the
/// original deck scores unless that analysis's µ0 is not finite, or a
/// goal expression is not finite. The forced deck runs the same goals
/// first, so it would have failed on that goal too had the fit held.
fn check_state(
    d: &Decks,
    ev: &mut CostEvaluator<'_>,
    forced_ev: &mut CostEvaluator<'_>,
    w: &AdaptiveWeights,
    forced_w: &AdaptiveWeights,
    state: &OblxState,
) -> Result<(), TestCaseError> {
    let got = ev.try_evaluate(&state.user, &state.nodes, w);
    let forced = forced_ev.try_evaluate(&state.user, &state.nodes, forced_w);
    match (&forced, &got) {
        (Ok(f), Ok(g)) => {
            prop_assert!(f.failed == g.failed, "failed flag diverged at {state:?}");
            prop_assert!(
                f.kcl_max.to_bits() == g.kcl_max.to_bits(),
                "kcl_max diverged at {state:?}"
            );
            prop_assert!(f.measured.len() == g.measured.len() + 1);
            for (i, (a, b)) in g.measured.iter().zip(&f.measured).enumerate() {
                prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "goal {i} diverged at {state:?}: {a} vs forced {b}"
                );
            }
            Ok(())
        }
        (Ok(_), Err(e)) => Err(TestCaseError::fail(format!(
            "only the original deck failed at {state:?}: {e}"
        ))),
        (Err(fe), _) => {
            let Some(h) = failed_handle(fe) else {
                return Ok(());
            };
            if d.as_is.demand.get(h) != Some(&Demand::DcOnly) {
                return Ok(());
            }
            let singular = fe.to_string().ends_with(&AweError::SingularG.to_string());
            match &got {
                Ok(_) | Err(EvalFailure::Goal(_)) => Ok(()),
                // A dc-only analysis fails only on a singular `G`, which
                // fails the fit too, or on a non-finite µ0.
                Err(e) => {
                    let mu0_failure = format!("{h}: {}", AweError::NoModel);
                    prop_assert!(
                        (singular && e.to_string().ends_with(&AweError::SingularG.to_string()))
                            || matches!(e, EvalFailure::Awe(m) if *m == mu0_failure),
                        "the forced fit of dc-only `{h}` failed ({fe}), and so did \
                         the original deck, with {e}"
                    );
                    Ok(())
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(42))]

    /// Walks one benchmark's state space through both decks and checks
    /// every visited state with [`check_state`].
    #[test]
    fn prop_dc_only_analyses_change_only_failed_fits(
        bench in proptest::sample::select(bench_names()),
        seed in 0u64..10_000,
    ) {
        let d = decks(&bench);
        let c = &d.as_is;
        let mut ev = CostEvaluator::new(c);
        let mut forced_ev = CostEvaluator::new(&d.forced);
        let w = AdaptiveWeights::new(c);
        let forced_w = AdaptiveWeights::new(&d.forced);
        let mut p = OblxProblem::new(c, SynthesisOptions::default());

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
        for _ in 0..24 {
            match (next() * 5.0) as usize {
                0 => {
                    let i = (next() * nu as f64) as usize % nu;
                    state.user[i] = draw(i, next());
                }
                1 => {
                    for _ in 0..2 + (next() * 2.0) as usize {
                        let i = (next() * nu as f64) as usize % nu;
                        state.user[i] = draw(i, next());
                    }
                }
                2 if !state.nodes.is_empty() => {
                    let k = (next() * state.nodes.len() as f64) as usize % state.nodes.len();
                    state.nodes[k] += 2.0 * (next() - 0.5);
                }
                _ => {
                    // Follow the Newton step, as the annealer does.
                    if let Some(step) = p.newton_delta(&state) {
                        for (v, dv) in state.nodes.iter_mut().zip(step) {
                            *v += dv.clamp(-1.0, 1.0);
                        }
                    }
                }
            }
            check_state(d, &mut ev, &mut forced_ev, &w, &forced_w, &state)?;
        }
    }
}

/// A Two-Stage state, visited by the walk above (seed 0), at which the
/// fit of the PSRR⁺ analysis `tfvdd` finds no model: the evaluator that
/// fitted every analysis failed this evaluation, although its only goal
/// reading `tfvdd` is `db(dc_gain(tf))-db(dc_gain(tfvdd))`.
const TWO_STAGE_USER: [u64; 12] = [
    0x3f290ff77aa009ca,
    0x3edbc6fc978994ee,
    0x3f20426148936764,
    0x3edbc6fc978994ee,
    0x3f0e50254b425b66,
    0x3edf522646beb6cc,
    0x3f13bbfb4a859a21,
    0x3ecac9da2a338997,
    0x3f04f8b588e368f1,
    0x3edbc6fc978994ee,
    0x3f4d6a0fffac578f,
    0x3d90ae697fbb7cad,
];
const TWO_STAGE_NODES: [u64; 21] = [
    0x40026d16663fe6bc,
    0x400b6fa4aa3bde7a,
    0x40019c11d3d88502,
    0x4004000000000000,
    0x4012000000000000,
    0x4012000000000000,
    0x4004000000000000,
    0x40039fa5a382e1f3,
    0x4012000000000000,
    0x4012000000000000,
    0x40132fd70cc904bd,
    0x4001c1b900579e7d,
    0x4001c1b90046d744,
    0x400231f247a92930,
    0x400cac05e3a4981e,
    0x4001c1b900630f0b,
    0x400112a264047d22,
    0x4004000000000000,
    0x3fe0000000000000,
    0x400b98438ddf12bb,
    0x3fe0000000000000,
];

#[test]
fn dc_only_analysis_scores_where_its_fit_found_no_model() {
    let d = decks("Two-Stage");
    let c = &d.as_is;
    let state = OblxState {
        user: TWO_STAGE_USER.iter().map(|&b| f64::from_bits(b)).collect(),
        nodes: TWO_STAGE_NODES.iter().map(|&b| f64::from_bits(b)).collect(),
    };
    // Fitting every analysis fails on `tfvdd`.
    let forced = CostEvaluator::new(&d.forced)
        .try_evaluate(&state.user, &state.nodes, &AdaptiveWeights::new(&d.forced))
        .expect_err("the fit of tfvdd finds no model");
    assert_eq!(
        forced.to_string(),
        format!("awe failed: tfvdd: {}", AweError::NoModel)
    );
    // Reading tfvdd only through dc_gain, the evaluation scores.
    let mut ev = CostEvaluator::new(c);
    let b = ev
        .try_evaluate(&state.user, &state.nodes, &AdaptiveWeights::new(c))
        .expect("the dc-only analysis scores");
    assert!(!b.failed);
    // Its dc gain is the jig's exact dc transfer.
    let record = ev.record(&state.user, &state.nodes).expect("evaluates");
    let dc_gain = record.models["tfvdd"].dc_gain();
    let jig = c
        .jigs
        .iter()
        .find(|j| j.analyses.iter().any(|a| a.name == "tfvdd"))
        .expect("a jig runs tfvdd");
    let a = jig.analyses.iter().find(|a| a.name == "tfvdd").unwrap();
    let ckt = SizedCircuit::build(&jig.netlist, &record.vars, &c.lib).expect("assembles");
    let op = |name: &str| record.bias.mosfets.iter().position(|m| m.name == name);
    let mos: Vec<_> = ckt
        .mosfets
        .iter()
        .map(|m| record.mos_ops[op(&m.name).expect("biased")])
        .collect();
    assert!(ckt.bjts.is_empty() && ckt.diodes.is_empty());
    let sys = LinearSystem::from_device_ops(&ckt, &mos, &[], &[]);
    let out = sys.output_selector(&a.out_p, a.out_m.as_deref()).unwrap();
    let exact = sys.transfer(&a.source, out, 0.0).unwrap().norm();
    assert!(
        (dc_gain - exact).abs() <= 1e-9 * exact,
        "dc_gain(tfvdd) = {dc_gain}, exact dc transfer {exact}"
    );
}
