//! Telemetry hot-path overhead check: the same incremental cost
//! evaluation measured with recording disabled and enabled.
//!
//! The contract is that disabled telemetry costs one relaxed atomic
//! load per instrumented site and enabled telemetry stays under 5%
//! on the `cost_eval_incremental` hot path. Criterion times each mode
//! for the µs/eval line; the verdict comes from interleaved rounds (as
//! `newton_step` measures its ratio), because two criterion medians
//! taken seconds apart swing by tens of percent on a shared VM. The
//! final line prints a machine-greppable verdict
//! (`TELEMETRY_OVERHEAD_OK pct=…` or `TELEMETRY_OVERHEAD_FAIL pct=…`)
//! for the CI smoke job.

use astrx_oblx::bench_suite;
use astrx_oblx::cost::CostEvaluator;
use astrx_oblx::AdaptiveWeights;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

/// Enabled over disabled time per evaluation, minus one, in percent:
/// the median of `rounds` rounds that each time `batch` evaluations
/// with recording off and `batch` with it on, the two in alternating
/// order, continuing one walk. A VM that slows down for a second or two
/// tilts a few rounds, not the median.
fn interleaved_overhead(mut batch_time: impl FnMut(bool) -> f64, rounds: usize) -> f64 {
    let mut pct: Vec<f64> = (0..rounds)
        .map(|r| {
            let (off, on) = if r % 2 == 0 {
                let off = batch_time(false);
                (off, batch_time(true))
            } else {
                let on = batch_time(true);
                (batch_time(false), on)
            };
            100.0 * (on - off) / off
        })
        .collect();
    pct.sort_by(f64::total_cmp);
    pct[rounds / 2]
}

fn bench(c: &mut Criterion) {
    let b = bench_suite::by_name("Two-Stage").expect("Two-Stage benchmark exists");
    let compiled = oblx_bench::compiled(&b);
    let w = AdaptiveWeights::new(&compiled);
    let user0 = compiled.initial_user_values();
    let nodes0 = oblx_bench::newton_nodes(&compiled);

    let mut ev = CostEvaluator::new(&compiled);
    assert!(ev.has_plan(), "Two-Stage must compile to an eval plan");

    let mut g = c.benchmark_group("telemetry_overhead");

    // Incremental node-move evaluation, recording off (the default).
    {
        oblx_telemetry::set_enabled(false);
        let user = user0.clone();
        let mut nodes = nodes0.clone();
        g.bench_function("incremental_node_off", |bench| {
            bench.iter(|| {
                nodes[0] += 1e-12;
                black_box(ev.evaluate(&user, &nodes, &w).total)
            })
        });
    }

    // The same walk with every counter, histogram and span recording.
    {
        oblx_telemetry::reset();
        oblx_telemetry::set_enabled(true);
        let user = user0.clone();
        let mut nodes = nodes0.clone();
        g.bench_function("incremental_node_on", |bench| {
            bench.iter(|| {
                nodes[0] += 1e-12;
                black_box(ev.evaluate(&user, &nodes, &w).total)
            })
        });
        oblx_telemetry::set_enabled(false);
        let snap = oblx_telemetry::Snapshot::capture();
        assert!(
            snap.counter("eval_incremental") > 0,
            "the enabled pass must actually record"
        );
    }
    g.finish();

    // The gate: interleaved rounds on the same walk.
    let pct = {
        let user = user0.clone();
        let mut nodes = nodes0.clone();
        let batch_time = |on: bool| {
            oblx_telemetry::set_enabled(on);
            let t = Instant::now();
            for _ in 0..200 {
                nodes[0] += 1e-12;
                black_box(ev.evaluate(&user, &nodes, &w).total);
            }
            oblx_telemetry::set_enabled(false);
            t.elapsed().as_secs_f64()
        };
        interleaved_overhead(batch_time, 101)
    };

    let median = |name: &str| {
        c.results()
            .iter()
            .find(|(n, _)| n == &format!("telemetry_overhead/{name}"))
            .map(|(_, t)| *t)
            .expect("bench ran")
    };
    let off = median("incremental_node_off");
    let on = median("incremental_node_on");
    println!(
        "\ntelemetry off {:.2} µs/eval, on {:.2} µs/eval (criterion medians)",
        off * 1e6,
        on * 1e6
    );
    println!("interleaved rounds: recording costs {pct:.2}% per evaluation");
    let verdict = if pct < 5.0 {
        "TELEMETRY_OVERHEAD_OK"
    } else {
        "TELEMETRY_OVERHEAD_FAIL"
    };
    println!("{verdict} pct={pct:.2}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
