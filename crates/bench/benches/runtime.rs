//! Runtime subsystem benchmark: the cost of crash-safety.
//!
//! Measures the three prices `oblxd` pays for resumability and prints
//! them:
//!
//! * **checkpoint write latency** — serializing a live
//!   `SynthesisCheckpoint` to hex-bit JSON plus the atomic
//!   temp-and-rename persist (what every in-flight seed pays once per
//!   `--checkpoint-interval` proposals);
//! * **resume cost** — parsing a checkpoint back and finishing the run
//!   from it, against the cold uninterrupted run of the same budget
//!   (the `runtime/resume_fraction` line gives the ratio);
//! * **queue throughput** — submitting 100 small jobs into a spool and
//!   draining them through the work-stealing pool.

use astrx_oblx::jobs::{checkpoint_from_json, checkpoint_to_json, JobRequest};
use astrx_oblx::oblx::synthesize_controlled;
use astrx_oblx::{synthesize, SynthesisOptions, SynthesisOutcome};
use criterion::{criterion_group, criterion_main, Criterion};
use oblx_anneal::Directive;
use oblx_runtime::pool::{self, PoolOptions};
use oblx_runtime::spool::{write_atomic, Spool};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::time::Instant;

const DIFFAMP: &str = include_str!("../../core/src/testdata/diffamp.ox");

fn opts(seed: u64, moves_budget: usize) -> SynthesisOptions {
    SynthesisOptions {
        moves_budget,
        quench_patience: 100,
        trace_every: 50,
        seed,
        ..SynthesisOptions::default()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oblx-bench-rt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bench(c: &mut Criterion) {
    let compiled = astrx_oblx::compile_source(DIFFAMP).expect("diffamp compiles");

    // Cut one real mid-run checkpoint to serialize/persist/parse.
    let outcome = synthesize_controlled(&compiled, &opts(7, 2_000), None, 500, |_| Directive::Stop)
        .expect("diffamp synthesizes");
    let SynthesisOutcome::Interrupted(ck) = outcome else {
        panic!("hook stops at the first checkpoint");
    };
    let text = checkpoint_to_json(&ck);
    let ck_bytes = text.len();
    let dir = temp_dir("ckpt");

    let mut g = c.benchmark_group("runtime");
    g.bench_function("checkpoint_serialize", |b| {
        b.iter(|| black_box(checkpoint_to_json(&ck)))
    });
    let ck_spool = Spool::open(&dir).expect("spool opens");
    let path = ck_spool.checkpoint_path("j000001", 7, 1);
    std::fs::create_dir_all(ck_spool.ckpt_dir("j000001")).expect("checkpoint dir");
    g.bench_function("checkpoint_write_atomic", |b| {
        b.iter(|| write_atomic(&path, &text).expect("checkpoint persists"))
    });
    g.bench_function("checkpoint_parse", |b| {
        b.iter(|| black_box(checkpoint_from_json(&text).expect("round-trips")))
    });
    g.finish();

    // Resume cost: finish a 400-proposal run from a checkpoint cut at
    // proposal 300, against the cold run of the full budget. The gap
    // between (cold − resumed) and the skipped ¾ of the budget is the
    // restore overhead.
    let small = opts(7, 400);
    let cut = match synthesize_controlled(&compiled, &small, None, 300, |_| Directive::Stop)
        .expect("diffamp synthesizes")
    {
        SynthesisOutcome::Interrupted(ck) => ck,
        SynthesisOutcome::Complete(_) => panic!("400-proposal run passes proposal 300"),
    };
    let mut g = c.benchmark_group("runtime_resume");
    g.sample_size(10);
    g.bench_function("cold_400", |b| {
        b.iter(|| black_box(synthesize(&compiled, &small).expect("synthesizes")))
    });
    g.bench_function("resumed_from_300", |b| {
        b.iter(|| {
            let out =
                synthesize_controlled(&compiled, &small, Some(&cut), 0, |_| Directive::Continue)
                    .expect("resumes");
            black_box(out)
        })
    });
    g.finish();

    // Queue throughput: 100 small jobs through submit + pool drain.
    let spool_dir = temp_dir("spool");
    let spool = Spool::open(&spool_dir).expect("spool opens");
    let n_jobs = 100usize;
    let submit_start = Instant::now();
    for i in 0..n_jobs {
        spool
            .submit(JobRequest {
                name: format!("bench-{i}"),
                source: DIFFAMP.to_string(),
                deck: String::new(),
                options: opts(0, 60),
                seeds: vec![1],
                priority: 0,
            })
            .expect("submit succeeds");
    }
    let submit_s = submit_start.elapsed().as_secs_f64();
    let drain_start = Instant::now();
    let stats = pool::run(
        &spool,
        &PoolOptions {
            workers: 0,
            checkpoint_every: 1_000,
            drain: true,
            ..PoolOptions::default()
        },
        &AtomicBool::new(false),
    );
    let drain_s = drain_start.elapsed().as_secs_f64();
    assert_eq!(stats.jobs_completed, n_jobs, "every job drains");
    println!(
        "runtime/queue_throughput                 {n_jobs} jobs: submit {:.2} ms, drain {:.2} s ({:.1} jobs/s)",
        submit_s * 1e3,
        drain_s,
        n_jobs as f64 / drain_s
    );

    let median = |name: &str| {
        c.results()
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| *t)
            .expect("bench ran")
    };
    let cold = median("runtime_resume/cold_400");
    let resumed = median("runtime_resume/resumed_from_300");
    println!(
        "runtime/resume_fraction                  resumed {:.2} ms / cold {:.2} ms = {:.3} (checkpoint {ck_bytes} bytes)",
        resumed * 1e3,
        cold * 1e3,
        resumed / cold
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&spool_dir);
}

criterion_group!(benches, bench);
criterion_main!(benches);
