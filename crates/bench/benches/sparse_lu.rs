//! Sparse vs dense LU on the Two-Stage jig system: the primitive costs
//! behind the plan's incremental evaluation path.
//!
//! Measures, on the same `(G, b)` the synthesis hot path factors:
//!
//! * `dense_factor` — `Lu::factor` including the `G` clone the cold
//!   path pays per evaluation;
//! * `sparse_symbolic` — Markowitz ordering + fill-in computation (paid
//!   once per plan compile, never per move);
//! * `sparse_refactor` — numeric-only refactorization on the fixed
//!   pivot order (paid once per dirty jig per move);
//! * `dense_solve_t16` / `sparse_solve_t16` — the 2q = 16 transpose
//!   solves of one AWE moment chain.
//!
//! The final line prints a machine-greppable verdict for the CI smoke
//! job (`SPARSE_LU_OK …` / `SPARSE_LU_FAIL …`). The gates are
//! *within-run ratios* — sparse refactor vs dense factor, sparse vs
//! dense solve chain — so they hold across machines of different
//! absolute speed. Thresholds carry ≥25% headroom over the ratios
//! recorded in EXPERIMENTS.md (the "Sparse MNA round" table); crossing
//! one means the sparse path regressed structurally, not that the VM
//! had a slow day.
//!
//! Set `OBLX_BENCH_QUICK=1` to cut sample counts (CI smoke mode).

use criterion::{criterion_group, criterion_main, Criterion};
use oblx_linalg::{Lu, SparseLu};
use std::hint::black_box;

/// Refactor must stay well under a dense factor; recorded ratio ≈ 0.13.
const MAX_REFACTOR_RATIO: f64 = 0.625;
/// Sparse transpose solves must not fall behind dense; recorded ≈ 0.40.
const MAX_SOLVE_RATIO: f64 = 1.0;

fn bench(c: &mut Criterion) {
    let b = astrx_oblx::bench_suite::by_name("Two-Stage").expect("Two-Stage benchmark exists");
    let compiled = oblx_bench::compiled(&b);
    let (sys, src, _out) = oblx_bench::first_jig_system(&compiled);
    let bvec = sys.input_vector(&src).expect("stimulus resolves");

    let map = sys.stamp_map();
    let (mut g_vals, mut c_vals) = (Vec::new(), Vec::new());
    sys.sparse_vals_into(&mut g_vals, &mut c_vals);

    // Cross-check before timing anything: the two factorizations must
    // agree on this system (they use different pivot orders, so exact
    // bit-identity is not expected here — the plan gets bit-identity by
    // never mixing engines on one circuit).
    {
        let lu = Lu::factor(sys.g.clone()).expect("dense factors");
        let slu = SparseLu::symbolic(map.dim(), map.entries())
            .and_then(|mut s| s.refactor(&g_vals).map(|_| s))
            .expect("sparse factors");
        let (mut xd, mut xs) = (Vec::new(), Vec::new());
        let mut scratch = Vec::new();
        lu.solve_transpose_into(&bvec, &mut xd, &mut scratch);
        slu.solve_transpose_into(&bvec, &mut xs, &mut scratch);
        for (a, b) in xd.iter().zip(&xs) {
            assert!(
                (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                "sparse and dense transpose solves disagree: {a} vs {b}"
            );
        }
    }

    let quick = std::env::var_os("OBLX_BENCH_QUICK").is_some();
    let mut g = c.benchmark_group("sparse_lu");
    if quick {
        g.sample_size(5);
    }

    g.bench_function("dense_factor", |bench| {
        bench.iter(|| black_box(Lu::factor(sys.g.clone()).expect("factors")))
    });

    g.bench_function("sparse_symbolic", |bench| {
        bench.iter(|| black_box(SparseLu::symbolic(map.dim(), map.entries()).expect("orders")))
    });

    {
        let mut slu = SparseLu::symbolic(map.dim(), map.entries()).expect("orders");
        g.bench_function("sparse_refactor", |bench| {
            bench.iter(|| slu.refactor(black_box(&g_vals)).expect("refactors"))
        });
    }

    {
        let lu = Lu::factor(sys.g.clone()).expect("factors");
        let (mut x, mut scratch) = (Vec::new(), Vec::new());
        g.bench_function("dense_solve_t16", |bench| {
            bench.iter(|| {
                for _ in 0..16 {
                    lu.solve_transpose_into(black_box(&bvec), &mut x, &mut scratch);
                    black_box(&x);
                }
            })
        });
    }

    {
        let mut slu = SparseLu::symbolic(map.dim(), map.entries()).expect("orders");
        slu.refactor(&g_vals).expect("refactors");
        let (mut x, mut scratch) = (Vec::new(), Vec::new());
        g.bench_function("sparse_solve_t16", |bench| {
            bench.iter(|| {
                for _ in 0..16 {
                    slu.solve_transpose_into(black_box(&bvec), &mut x, &mut scratch);
                    black_box(&x);
                }
            })
        });
        println!(
            "  system dim {}, nnz {} -> fill {}",
            map.dim(),
            slu.nnz(),
            slu.fill_nnz()
        );
    }
    g.finish();

    let median = |name: &str| {
        c.results()
            .iter()
            .find(|(n, _)| n == &format!("sparse_lu/{name}"))
            .map(|(_, t)| *t)
            .expect("bench ran")
    };
    let refactor_ratio = median("sparse_refactor") / median("dense_factor");
    let solve_ratio = median("sparse_solve_t16") / median("dense_solve_t16");
    println!(
        "\nsparse_refactor/dense_factor = {refactor_ratio:.3} (gate < {MAX_REFACTOR_RATIO}), \
         sparse/dense solve_t16 = {solve_ratio:.3} (gate < {MAX_SOLVE_RATIO})"
    );
    let verdict = if refactor_ratio < MAX_REFACTOR_RATIO && solve_ratio < MAX_SOLVE_RATIO {
        "SPARSE_LU_OK"
    } else {
        "SPARSE_LU_FAIL"
    };
    println!("{verdict} refactor_ratio={refactor_ratio:.3} solve_ratio={solve_ratio:.3}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
