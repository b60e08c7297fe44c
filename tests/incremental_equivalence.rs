//! Property test for the precompiled-plan evaluator: after an arbitrary
//! sequence of single-variable, multi-variable and node-voltage moves —
//! including exact revisits that hit the state cache — the persistent
//! incremental evaluator must report the same `CostBreakdown` as a
//! from-scratch full evaluation of the final state, component by
//! component, within 1e-12 relative.
//!
//! The deck is an input too: the diff amp alone puts MOS devices on the
//! plan path, its variant with a junction diode in the tail bias (sized
//! by `W`, so geometry moves dirty it) adds a diode, its variant with a
//! supply-rejection jig puts a fitted analysis and a dc-only one on one
//! probe, and its variant with a load resistor `'R-1k'` fails to
//! assemble for every R ≤ 1k, partway through the bias bindings, so a
//! slot whose bias patch failed must recover on its next update.

use astrx_oblx::cost::{CostBreakdown, CostEvaluator};
use astrx_oblx::{AdaptiveWeights, CompiledProblem};
use proptest::prelude::*;

/// Compiles one of the property's decks, named by its file under
/// `crates/core/src/testdata/`.
fn compiled(deck: &str) -> CompiledProblem {
    let source = match deck {
        "diffamp.ox" => include_str!("../crates/core/src/testdata/diffamp.ox"),
        "diffamp_diode.ox" => include_str!("../crates/core/src/testdata/diffamp_diode.ox"),
        "diffamp_psrr.ox" => include_str!("../crates/core/src/testdata/diffamp_psrr.ox"),
        "diffamp_rload.ox" => include_str!("../crates/core/src/testdata/diffamp_rload.ox"),
        _ => unreachable!("unknown deck {deck}"),
    };
    astrx_oblx::astrx::compile_source(source).expect("deck compiles")
}

fn close(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
}

fn check_equal(plan: &CostBreakdown, full: &CostBreakdown) -> Result<(), TestCaseError> {
    prop_assert!(plan.failed == full.failed, "failed flag diverged");
    for (name, a, b) in [
        ("c_obj", plan.c_obj, full.c_obj),
        ("c_perf", plan.c_perf, full.c_perf),
        ("c_dev", plan.c_dev, full.c_dev),
        ("c_dc", plan.c_dc, full.c_dc),
        ("total", plan.total, full.total),
        ("kcl_max", plan.kcl_max, full.kcl_max),
    ] {
        prop_assert!(close(a, b), "{name}: incremental {a} vs full {b}");
    }
    for (vec_name, pv, fv) in [
        ("measured", &plan.measured, &full.measured),
        ("violation", &plan.violation, &full.violation),
        ("kcl_violation", &plan.kcl_violation, &full.kcl_violation),
    ] {
        prop_assert!(pv.len() == fv.len(), "{vec_name} length diverged");
        for (i, (a, b)) in pv.iter().zip(fv.iter()).enumerate() {
            prop_assert!(
                close(*a, *b),
                "{vec_name}[{i}]: incremental {a} vs full {b}"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replay a pseudo-random move sequence through one persistent
    /// evaluator (exercising its incremental, full and cached
    /// paths) and cross-check every visited state against the cold
    /// full-rebuild path of a second evaluator.
    #[test]
    fn prop_incremental_matches_full_after_move_sequence(
        deck in proptest::sample::select(vec![
            "diffamp.ox",
            "diffamp_diode.ox",
            "diffamp_psrr.ox",
            "diffamp_rload.ox",
        ]),
        seed in 0u64..10_000,
    ) {
        let c = compiled(deck);
        let mut ev = CostEvaluator::new(&c);
        prop_assert!(ev.has_plan(), "{deck} must compile to an eval plan");
        let cold = CostEvaluator::new(&c);
        let w = AdaptiveWeights::new(&c);

        // Deterministic pseudo-random walk from the seed.
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };

        let mut user = c.initial_user_values();
        let mut nodes: Vec<f64> = (0..c.node_vars.len()).map(|_| -1.0 + 7.0 * next()).collect();
        let mut visited: Vec<(Vec<f64>, Vec<f64>)> = Vec::new();

        for _ in 0..24 {
            // Pick a move kind; occasionally revisit an old state
            // exactly, which must be served from the slot cache.
            let kind = (next() * 5.0) as usize;
            match kind {
                0 if !visited.is_empty() => {
                    let k = (next() * visited.len() as f64) as usize % visited.len();
                    let (u, n) = visited[k].clone();
                    user = u;
                    nodes = n;
                }
                1 => {
                    // Single user variable, in range.
                    let i = (next() * user.len() as f64) as usize % user.len();
                    let v = &c.user_vars[i];
                    let r = next();
                    user[i] = if v.min > 0.0 {
                        v.min * (v.max / v.min).powf(r)
                    } else {
                        v.min + r * (v.max - v.min)
                    };
                }
                2 => {
                    // A couple of user variables at once.
                    for _ in 0..2 {
                        let i = (next() * user.len() as f64) as usize % user.len();
                        let v = &c.user_vars[i];
                        let r = next();
                        user[i] = if v.min > 0.0 {
                            v.min * (v.max / v.min).powf(r)
                        } else {
                            v.min + r * (v.max - v.min)
                        };
                    }
                }
                3 => {
                    // Single node voltage — the incremental sweet spot.
                    if !nodes.is_empty() {
                        let k = (next() * nodes.len() as f64) as usize % nodes.len();
                        nodes[k] = -1.0 + 7.0 * next();
                    }
                }
                _ => {
                    // Jitter all nodes.
                    for v in nodes.iter_mut() {
                        *v += 0.2 * (next() - 0.5);
                    }
                }
            }
            visited.push((user.clone(), nodes.clone()));

            let plan_path = ev.try_evaluate(&user, &nodes, &w);
            let full_path = cold
                .record(&user, &nodes)
                .and_then(|r| cold.cost_of_record(&r, &w));
            match (plan_path, full_path) {
                (Ok(p), Ok(f)) => check_equal(&p, &f)?,
                (Err(_), Err(_)) => {}
                (p, f) => prop_assert!(
                    false,
                    "paths disagree on evaluability: plan {:?} vs full {:?}",
                    p.map(|b| b.total),
                    f.map(|b| b.total)
                ),
            }
        }

        // The walk above must actually have exercised the fast paths.
        let stats = ev.stats();
        prop_assert!(stats.total() > 0);
    }
}
