//! The Newton-move speedup benchmark: one relaxed-dc Newton step,
//! through the bias plan and from scratch.
//!
//! * `bias_plan` — `OblxProblem::propose` with the `newton_partial`
//!   move class: the problem's patched copy of the bias template, its
//!   cached determined voltages and linear stamps, a fresh device
//!   linearization and the dense LU of the free-node block;
//! * `reference` — `reference_newton_delta`: variable map, bias-circuit
//!   build from the netlist, determined voltages, `linearize_at` and the
//!   same dense LU (the pre-plan step, bit-identical to `bias_plan`).
//!
//! Both run on Two-Stage at its Newton-solved bias point. A table of
//! the same ratio on every benchmark circuit (at each problem's initial
//! state) follows. The last line is the CI gate on the within-run
//! ratio, measured in interleaved rounds: `NEWTON_SPEEDUP_OK ratio=…`
//! when the reference step is at least 2× slower,
//! `NEWTON_SPEEDUP_FAIL ratio=…` otherwise.
//!
//! Set `OBLX_BENCH_QUICK=1` to cut sample counts (CI smoke mode).

use astrx_oblx::bench_suite;
use astrx_oblx::oblx::{
    move_class, reference_newton_delta, OblxProblem, OblxState, SynthesisOptions,
};
use astrx_oblx::CompiledProblem;
use criterion::{criterion_group, criterion_main, Criterion};
use oblx_anneal::AnnealProblem;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Times both steps at `state` under `group/<label>_{bias_plan,reference}`
/// and returns their medians (seconds).
fn time_pair(
    c: &mut Criterion,
    quick: bool,
    label: &str,
    compiled: &CompiledProblem,
    state: &OblxState,
) -> (f64, f64) {
    let mut problem = OblxProblem::new(compiled, SynthesisOptions::default());
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let class = move_class::NEWTON_PARTIAL;
    assert!(
        problem.propose(state, class, 1.0, &mut rng).is_some(),
        "{label}: the bias-plan step applies"
    );
    assert!(
        reference_newton_delta(compiled, state).is_some(),
        "{label}: the reference step applies"
    );
    let mut g = c.benchmark_group("newton_step");
    if quick {
        g.sample_size(5);
    }
    g.bench_function(format!("{label}_bias_plan"), |bench| {
        bench.iter(|| black_box(problem.propose(black_box(state), class, 1.0, &mut rng)))
    });
    g.bench_function(format!("{label}_reference"), |bench| {
        bench.iter(|| black_box(reference_newton_delta(compiled, black_box(state))))
    });
    g.finish();
    let median = |name: String| {
        c.results()
            .iter()
            .find(|(n, _)| *n == format!("newton_step/{name}"))
            .map(|(_, t)| *t)
            .expect("bench ran")
    };
    (
        median(format!("{label}_bias_plan")),
        median(format!("{label}_reference")),
    )
}

/// Reference over bias-plan time for the same step, as the median of
/// `rounds` rounds that each time `batch` steps of one and then of the
/// other: a VM that slows down between two criterion runs cannot tilt
/// it, as it can tilt the ratio of two criterion medians.
fn interleaved_ratio(
    compiled: &CompiledProblem,
    state: &OblxState,
    rounds: usize,
    batch: usize,
) -> f64 {
    let mut problem = OblxProblem::new(compiled, SynthesisOptions::default());
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let class = move_class::NEWTON_PARTIAL;
    let mut ratios: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(problem.propose(black_box(state), class, 1.0, &mut rng));
            }
            let plan = t.elapsed().as_secs_f64();
            let t = Instant::now();
            for _ in 0..batch {
                black_box(reference_newton_delta(compiled, black_box(state)));
            }
            t.elapsed().as_secs_f64() / plan
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[rounds / 2]
}

fn bench(c: &mut Criterion) {
    let quick = std::env::var_os("OBLX_BENCH_QUICK").is_some();

    let b = bench_suite::by_name("Two-Stage").expect("Two-Stage benchmark exists");
    let compiled = oblx_bench::compiled(&b);
    let state = OblxState {
        user: compiled.initial_user_values(),
        nodes: oblx_bench::newton_nodes(&compiled),
    };
    let (plan, reference) = time_pair(c, quick, "two_stage_solved", &compiled, &state);

    println!("\nNewton step, bias plan vs reference (µs/step, initial state):");
    for b in bench_suite::all() {
        let compiled = oblx_bench::compiled(&b);
        let state = OblxProblem::new(&compiled, SynthesisOptions::default()).initial_state();
        let label = b.name.to_lowercase().replace([' ', '-'], "_");
        let (p, r) = time_pair(c, quick, &label, &compiled, &state);
        println!(
            "  {:<22} {:>7.2} vs {:>7.2}  {:>5.2}×",
            b.name,
            p * 1e6,
            r * 1e6,
            r / p
        );
    }

    // CI smoke gate on the *within-run* ratio (machine-independent;
    // absolute µs swing ±30% on shared VMs while the ratio holds).
    // The bias-plan step skips the netlist walk and the bias-circuit
    // build, which are most of the reference step; 2× leaves headroom
    // below the ~3× measured on Two-Stage (EXPERIMENTS.md).
    println!(
        "\nTwo-Stage at the Newton-solved point: bias plan {:.2} µs/step, reference {:.2} µs/step ({:.2}×)",
        plan * 1e6,
        reference * 1e6,
        reference / plan
    );
    let ratio = interleaved_ratio(&compiled, &state, 21, 200);
    let verdict = if ratio >= 2.0 {
        "NEWTON_SPEEDUP_OK"
    } else {
        "NEWTON_SPEEDUP_FAIL"
    };
    println!("{verdict} ratio={ratio:.2}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
