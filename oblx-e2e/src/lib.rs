//! **oblx-e2e** — one benchmark for the whole synthesis service, from
//! `POST /v1/jobs` to the fetched result, with the job's wall time split
//! across every layer it passes through.
//!
//! # Running it
//!
//! ```text
//! cargo bench --offline --manifest-path oblx-e2e/Cargo.toml --bench e2e -- \
//!     [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
//! ```
//!
//! Without `--workload` all three workloads run in turn. `--seed`
//! (default 1) derives every job seed and arrival time; `--seconds`
//! (default 30) sizes each workload's load; `--quick` cuts the load and
//! every move budget to a tenth, for smoke tests that check correctness
//! only. Each metric is printed as `metric <workload> <name> <value>
//! <unit>`; the last line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Reports, traces and temporary spools go to
//! `$CARGO_TARGET_DIR/oblx-e2e/` (`target/oblx-e2e/` in this package by
//! default); the benchmark writes nothing else.
//!
//! # What a run does
//!
//! 1. **Set-up** ([`service`]): composes the service in-process exactly
//!    as `oblx-api serve --pool-workers 2 --rate 0` does — the spool, the
//!    binary's startup hygiene, the HTTP edge, and the worker pool on a
//!    thread, with telemetry on. It does so [`run::SETUP_REPEATS`] times
//!    on an empty spool, each first connect after a pause spread evenly
//!    over the edge's accept poll; `setup_s` is the median time to a 200
//!    on `GET /v1/metrics` with the pool's workers listed.
//! 2. **Timed window** ([`drive`]): a submitter thread and a status
//!    poller, each on one keep-alive connection, drive the workload's
//!    jobs until every result is fetched. Reconnects after the server
//!    closes a connection are counted, not failures.
//! 3. **Oracle** ([`oracle`]), outside the window: every job is `ok`, its
//!    `runs` cover the requested seeds, `best_seed` follows the pool's
//!    winner rule, and the first job's winning seed, re-run with
//!    `astrx_oblx::synthesize`, gives a bit-equal `fixed_cost`. Any
//!    failure exits non-zero.
//! 4. **Trace** (`--trace` only, outside the window): each job's span
//!    tree from its event log ([`trace`]), written to
//!    `<workload>.trace.jsonl`, and an in-process replay of the leading
//!    jobs' seeds through an adapter that times the anneal's layers
//!    ([`replay`]); every replayed `fixed_cost` must be bit-equal to the
//!    service's.
//!
//! # Workloads
//!
//! * `svc_steady` — open loop, seeded Poisson arrivals of tiny Simple OTA
//!   jobs (1 seed, 60 moves, quench 100) at 15 jobs/s, about 40% of what
//!   two workers sustain: low enough that a slow patch on a shared machine
//!   does not tip the queue into overload. Jobs are timed from when they
//!   were due. The edge, spool, pool and compile are ~30% of each job, so
//!   this is the service layers' workload; Simple OTA jigs are below
//!   `SPARSE_DIM_MIN`, so the anneal runs the dense AWE engine.
//! * `two_stage` — the canonical job, closed loop, one client: Two-Stage,
//!   4 distinct seeds per job, 8000 moves, quench 200. Anneal, cost, AWE
//!   and sparse linalg are over 99% of job time; service-layer changes
//!   should not move it.
//! * `suite` — closed loop: Simple OTA, OTA, Folded Cascode, Comparator,
//!   BiCMOS Two-Stage and Novel Folded Cascode, 2 seeds × 3000 moves,
//!   quench 200, in passes with new seeds. It varies jig dimension (dense
//!   to the largest sparse jig), device mix (BJT lanes) and eval-failure
//!   rates, so a change aimed at one engine shows here and not on
//!   `two_stage`.
//!
//! The closed loops use a quench patience of 200 rather than the default
//! 2000 so that every seed does about the same work (see
//! `workload::QUENCH`); a burst workload was dropped because its median
//! latency only repeated `moves_per_s` with more noise.
//!
//! # Metrics
//!
//! End-to-end ([`report::END_TO_END`]): `setup_s`, `job_p50_s` (due →
//! the job's `done` event) and `moves_per_s` (`runs[].attempted` over
//! first POST → last `done`). Per-layer metrics ([`report::PER_LAYER`])
//! are named `<layer>.<metric>`; the package README maps each to the
//! end-to-end metric and workload it should move. Two unbounded
//! end-to-end numbers lead that list: `job_tail_s`, the highest latency
//! percentile with at least ten samples beyond it (never below the
//! median), and `jobs_per_s`.
//!
//! # The known 404 window
//!
//! `GET /v1/jobs/:id` answers 404 for a job that is still live while it
//! is being finalized: `Spool::claim_finalize` moves `running/<id>.json`
//! into `ckpt/<id>/job.json`, and the route's `state_of` does not look
//! there until `Spool::complete` writes `done/`. The poller counts each
//! such answer as `api.live_404` and in `failed_ratio`, and keeps
//! polling; the job itself completes, so it is not a failed job.

pub mod client;
pub mod drive;
pub mod oracle;
pub mod replay;
pub mod report;
pub mod run;
pub mod service;
pub mod stats;
pub mod trace;
pub mod workload;
