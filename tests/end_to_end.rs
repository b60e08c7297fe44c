//! End-to-end synthesis: description text → ASTRX → OBLX → independent
//! verification, on the real benchmark suite.
//!
//! The Table 2 quality gate lives here: each of the paper's five Table 2
//! circuits is synthesized from a fixed seed and budget, and its design
//! must stay dc-correct and its predictions must match the simulator
//! within the row's bounds. A change that keeps determinism but makes
//! designs or predictions worse fails here.

use astrx_oblx::bench_suite;
use astrx_oblx::oblx::{synthesize, SynthesisOptions, SynthesisResult};
use astrx_oblx::verify::verify_result;
use astrx_oblx::CompiledProblem;
use oblx_netlist::SpecKind;

fn run(name: &str, moves: usize, seed: u64) -> (CompiledProblem, SynthesisResult) {
    let b = bench_suite::by_name(name).expect("benchmark exists");
    let compiled = astrx_oblx::astrx::compile(b.problem().expect("parses")).expect("compiles");
    let result = synthesize(
        &compiled,
        &SynthesisOptions {
            moves_budget: moves,
            seed,
            quench_patience: 500,
            ..SynthesisOptions::default()
        },
    )
    .expect("synthesis completes");
    (compiled, result)
}

/// One row of the Table 2 gate: a fixed run and the bounds its design
/// must meet.
struct Row {
    bench: &'static str,
    seed: u64,
    moves: usize,
    /// Bound on the worst KCL residual at the selected design (A).
    kcl_max: f64,
    /// Bound on the worst relative OBLX-vs-simulation error over all
    /// goals.
    worst_error: f64,
}

/// The five Table 2 circuits. Where a row folds in an older test, it
/// keeps that test's run and bounds; the others were set from their
/// measured values: the KCL bound at ten times the residual, rounded up
/// to a decade, and the error bound at 1.1 times the worst error, but
/// at least 1%.
const TABLE2: [Row; 5] = [
    Row {
        bench: "Simple OTA",
        seed: 1,
        moves: 15_000,
        kcl_max: 1e-8,
        worst_error: 0.05,
    },
    // A crossing-region outlier: at this seed's design OBLX reads
    // gbw 25.2 MHz and pm 73.0° where the simulator measures 15.0 MHz
    // and 12.4°. The bound keeps that error from growing; it does not
    // accept it.
    Row {
        bench: "OTA",
        seed: 1,
        moves: 12_000,
        kcl_max: 1e-9,
        worst_error: 5.4,
    },
    // The older test's 25% bound, set for the crossing-derived PM row.
    Row {
        bench: "Two-Stage",
        seed: 2,
        moves: 12_000,
        kcl_max: 1e-7,
        worst_error: 0.25,
    },
    Row {
        bench: "Folded Cascode",
        seed: 1,
        moves: 12_000,
        kcl_max: 1e-10,
        worst_error: 0.01,
    },
    Row {
        bench: "BiCMOS Two-Stage",
        seed: 1,
        moves: 8_000,
        kcl_max: 1e-8,
        worst_error: 0.01,
    },
];

/// Runs the Table 2 row of `bench` and checks it against its bounds.
fn table2_row(bench: &str) -> (CompiledProblem, SynthesisResult) {
    let row = TABLE2
        .iter()
        .find(|r| r.bench == bench)
        .expect("Table 2 row exists");
    let (compiled, result) = run(row.bench, row.moves, row.seed);
    // The relaxed-dc formulation must end dc-correct.
    assert!(
        result.kcl_max < row.kcl_max,
        "{bench}: kcl = {:.3e} A, bound {:.0e}",
        result.kcl_max,
        row.kcl_max
    );
    let verified = verify_result(&compiled, &result).expect("verifies");
    let worst = verified.worst_relative_error();
    assert!(
        worst < row.worst_error,
        "{bench}: worst OBLX-vs-sim error {:.2}% (bound {:.0}%), rows {:?}",
        100.0 * worst,
        100.0 * row.worst_error,
        verified.rows
    );
    (compiled, result)
}

#[test]
fn simple_ota_synthesis_meets_most_constraints() {
    let (compiled, result) = table2_row("Simple OTA");

    // Count met constraints at the synthesized point.
    let mut met = 0;
    let mut total = 0;
    for (goal, value) in compiled
        .problem
        .specs
        .iter()
        .zip(result.breakdown.measured.iter())
    {
        if goal.kind == SpecKind::Constraint {
            total += 1;
            let z = astrx_oblx::cost::normalized(goal, *value);
            if z <= 0.05 {
                met += 1;
            }
        }
    }
    assert!(
        met * 10 >= total * 8,
        "at least 80% of constraints met: {met}/{total}"
    );
}

#[test]
fn ota_synthesis_meets_table2_bounds() {
    table2_row("OTA");
}

#[test]
fn two_stage_synthesis_converges_dc_and_verifies() {
    table2_row("Two-Stage");
}

#[test]
fn folded_cascode_synthesis_meets_table2_bounds() {
    table2_row("Folded Cascode");
}

#[test]
fn bicmos_synthesis_runs_with_bipolar_devices() {
    // The paper's protocol is 5–10 annealing runs with the best kept;
    // two short runs suffice here. The first is the Table 2 row.
    let (compiled, a) = table2_row("BiCMOS Two-Stage");
    let (_, b) = run("BiCMOS Two-Stage", 8_000, 3);
    let result = if a.best_cost <= b.best_cost { a } else { b };
    assert!(result.evaluations > 5_000);
    // The npn must end up forward-active in the verified design.
    let verified = verify_result(&compiled, &result).expect("verifies");
    assert!(verified.op_residual < 1e-7);
    // Gain of a two-stage with a bipolar second stage should be
    // substantial once biased.
    let adm = verified
        .rows
        .iter()
        .find(|(n, _, _)| n == "adm")
        .map(|(_, _, s)| *s)
        .expect("adm row");
    assert!(adm > 20.0, "adm = {adm} dB");
}

#[test]
fn synthesis_repeatable_and_seed_sensitive() {
    let (_, a) = run("Simple OTA", 2_000, 7);
    let (_, b) = run("Simple OTA", 2_000, 7);
    let (_, c) = run("Simple OTA", 2_000, 8);
    assert_eq!(a.best_cost.to_bits(), b.best_cost.to_bits());
    assert_ne!(a.best_cost.to_bits(), c.best_cost.to_bits());
}

#[test]
fn per_evaluation_time_is_milliseconds_scale() {
    // The paper reports 36–116 ms/eval on 1994 hardware; on modern
    // hardware the same work lands well under 10 ms. This guards
    // against pathological slowdowns.
    let (_, result) = run("Simple OTA", 3_000, 4);
    assert!(result.ms_per_eval < 10.0, "{} ms/eval", result.ms_per_eval);
}

/// Diagnostic (run with --ignored): dump |H| near the unity crossing of
/// the two-stage design where AWE and the simulator disagreed on ugf.
#[test]
#[ignore]
fn diag_two_stage_crossing() {
    use astrx_oblx::cost::CostEvaluator;
    let (compiled, result) = run("Two-Stage", 12_000, 2);
    let ev = CostEvaluator::new(&compiled);
    let record = ev.record(&result.state.user, &result.state.nodes).unwrap();
    let model = &record.models["tf"];
    println!("model order {}, poles:", model.order());
    for p in model.poles() {
        println!(
            "  {:.4e} + {:.4e} j (|p|/2pi = {:.4e} Hz)",
            p.re,
            p.im,
            p.norm() / (2.0 * std::f64::consts::PI)
        );
    }
    // Simulator-side magnitudes via verify path: rebuild the jig system.
    let v = verify_result(&compiled, &result).unwrap();
    println!("verify rows: {:?}", v.rows);
    for f in [3e6, 5e6, 7e6, 7.5e6, 8e6, 9e6, 10e6, 10.4e6, 12e6, 15e6] {
        let awe = oblx_awe::gain_at(model, f);
        println!("f = {:.2e}: awe |H| = {:.5}", f, awe);
    }
}
