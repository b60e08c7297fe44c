//! One run of one workload: set up, drive the timed window, check every
//! result, and, when traced, rebuild span trees and replay seeds.

use crate::client::Client;
use crate::drive::{self, Window};
use crate::oracle::{self, Checked};
use crate::replay::{self, LayerTimes};
use crate::report::Report;
use crate::service::{Service, POOL_WORKERS};
use crate::stats::{mean, median, tail, SplitMix};
use crate::trace::{self, JobEvents};
use crate::workload::Plan;
use oblx_telemetry::{HistStats, Snapshot};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Fresh services started per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 41;

/// A run that has not finished by then is abandoned with an error.
const RUN_DEADLINE: Duration = Duration::from_secs(150);

/// Where reports, traces and temporary spools go: `oblx-e2e/` in the
/// Cargo target directory this binary was built in (it runs from
/// `<target>/<profile>/deps/`). Cargo starts bench and test binaries in
/// the package directory, so a relative `$CARGO_TARGET_DIR` cannot be
/// reused as is.
pub fn out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.ancestors().nth(3).map(Path::to_path_buf))
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"))
        .join("oblx-e2e")
}

/// One finished job: what the client saw, its checked result, and its
/// event log.
struct Done {
    id: String,
    index: usize,
    due: f64,
    late_s: f64,
    checked: Checked,
    events: JobEvents,
}

/// Runs `plan` once; `seed` draws the set-up pauses (see
/// [`Service::start_ready`]). With `trace`, also writes `<workload>.trace.jsonl`
/// and measures every per-layer metric. Oracle failures are collected
/// in the report's `errors`; only a run that could not complete at all
/// is an `Err`.
///
/// # Errors
///
/// Set-up or connection failures, or a run past its deadline.
pub fn run_workload(plan: &Plan, seed: u64, trace: bool, out: &Path) -> Result<Report, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {out:?}: {e}"))?;
    let name = plan.workload.name();
    let spool = out.join(format!("spool-{name}"));
    let deadline = Instant::now() + RUN_DEADLINE;
    let mut report = Report {
        workload: name,
        attempted: plan.jobs.len(),
        ..Report::default()
    };

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut service = None;
    // Pauses are stratified over 0..20 ms, one per slot at a seeded
    // offset, so every run samples the edge's 10 ms accept poll at
    // evenly spread phases and the median does not hang on the draw.
    let shift = SplitMix::new(seed, 0).next_f64();
    for i in 0..SETUP_REPEATS {
        let slot = (i as f64 + shift) / SETUP_REPEATS as f64;
        let pause = Duration::from_secs_f64(0.02 * slot);
        let (s, secs) = Service::start_ready(&spool, pause)?;
        setups.push(secs);
        if i + 1 == SETUP_REPEATS {
            service = Some(s);
        } else {
            s.stop();
        }
    }
    let service = service.expect("at least one set-up");
    report.set("setup_s", median(&setups));

    oblx_telemetry::reset();
    let window = drive::run_window(service.addr(), plan, deadline);
    let snapshot = Snapshot::capture();
    let window = match window {
        Ok(w) => w,
        Err(e) => {
            service.stop();
            return Err(e);
        }
    };
    let events = fetch_events(service.addr(), &window);
    service.stop();
    let _ = std::fs::remove_dir_all(&spool);
    let events = events?;

    let mut done = Vec::new();
    for (job, events) in window.jobs.iter().zip(events) {
        let spec = &plan.jobs[job.index];
        let checked = job
            .result
            .as_ref()
            .ok_or_else(|| "no result fetched".to_string())
            .and_then(|r| oracle::check_result(r, &spec.seeds))
            .and_then(|c| events.map(|e| (c, e)));
        match checked {
            Ok((checked, events)) => done.push(Done {
                id: job.id.clone(),
                index: job.index,
                due: job.due_wall,
                late_s: job.late_s,
                checked,
                events,
            }),
            Err(e) => report
                .errors
                .push(format!("job {} ({}): {e}", job.index, job.id)),
        }
    }
    if window.rejected > 0 {
        report
            .errors
            .push(format!("{} POSTs were not accepted", window.rejected));
    }
    report.failed = plan.jobs.len() - done.len();
    if done.is_empty() {
        report.errors.push("no job finished".to_string());
        return Ok(report);
    }
    let oracle_wall = check_first_job(plan, &done, &mut report);
    end_to_end(&window, &done, &setups, &mut report);
    if trace {
        per_layer(plan, &window, &snapshot, &done, oracle_wall, &mut report);
        write_trace(out, plan, &done, &mut report)?;
    }
    report.check_complete(trace);
    Ok(report)
}

/// Reads every job's event log over the API, after the window.
fn fetch_events(
    addr: std::net::SocketAddr,
    window: &Window,
) -> Result<Vec<Result<JobEvents, String>>, String> {
    let mut client = Client::new(addr);
    window
        .jobs
        .iter()
        .map(|job| {
            let r = client
                .request("GET", &format!("/v1/jobs/{}/events?follow=0", job.id), "")
                .map_err(|e| format!("GET events of {}: {e}", job.id))?;
            Ok(if r.status == 200 {
                JobEvents::parse(&r.text())
            } else {
                Err(format!("events answered {}", r.status))
            })
        })
        .collect()
}

/// Re-runs the first job's winning seed in-process; it must match the
/// service bit for bit. Returns the re-run's anneal seconds.
fn check_first_job(plan: &Plan, done: &[Done], report: &mut Report) -> Option<f64> {
    let first = done.iter().find(|d| d.index == 0)?;
    let spec = &plan.jobs[0];
    let compiled = match oblx_runtime::validate_job(&spec.request(&first.id)) {
        Ok(c) => c,
        Err(e) => {
            report
                .errors
                .push(format!("first job does not compile: {e}"));
            return None;
        }
    };
    let opts = spec.seed_options(first.checked.best_seed);
    match oracle::rerun_best(&compiled, &opts, &first.checked) {
        Ok(wall) => Some(wall),
        Err(e) => {
            report.errors.push(format!("first job: {e}"));
            None
        }
    }
}

/// Seconds from the first POST to the last `done` event.
fn window_span(window: &Window, done: &[Done]) -> f64 {
    done.iter().map(|d| d.events.done).fold(f64::MIN, f64::max) - window.first_send_wall
}

/// A span kind's histogram in `snap`.
fn hist(snap: &Snapshot, name: &str) -> HistStats {
    snap.spans
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, h)| h.clone())
        .unwrap_or_default()
}

fn end_to_end(window: &Window, done: &[Done], setups: &[f64], report: &mut Report) {
    let latency: Vec<f64> = done.iter().map(|d| d.events.done - d.due).collect();
    let (tail_v, tail_p) = tail(&latency);
    let span = window_span(window, done);
    let moves: usize = done
        .iter()
        .flat_map(|d| &d.checked.runs)
        .map(|r| r.attempted)
        .sum();
    report.set("job_p50_s", median(&latency));
    report.set("job_tail_s", tail_v);
    report.set("jobs_per_s", done.len() as f64 / span);
    report.set("moves_per_s", moves as f64 / span);
    let (lo, hi) = setups
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &s| (lo.min(s), hi.max(s)));
    report.info.push(format!(
        "{} jobs in {span:.3} s ({} reconnects); job_tail_s is p{tail_p:.1}; setup_s is the \
         median of {} set-ups ({:.2} to {:.2} ms)",
        done.len(),
        window.reconnects,
        setups.len(),
        lo * 1e3,
        hi * 1e3
    ));
}

fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn per_layer(
    plan: &Plan,
    window: &Window,
    snapshot: &Snapshot,
    done: &[Done],
    oracle_wall: Option<f64>,
    report: &mut Report,
) {
    let phases: Vec<_> = done.iter().map(|d| d.events.phases(d.due)).collect();
    let pick = |f: fn(&trace::Phases) -> f64| phases.iter().map(f).collect::<Vec<f64>>();
    let runs = || done.iter().flat_map(|d| &d.checked.runs);

    // api
    let rtts: Vec<f64> = [&window.submit_rtt, &window.status_rtt, &window.result_rtt]
        .into_iter()
        .flatten()
        .copied()
        .collect();
    let handler = hist(snapshot, "http_request");
    let handler_ms = ratio(handler.sum as f64, handler.count as f64) / 1e6;
    report.set("api.submit_p50_ms", ms(median(&window.submit_rtt)));
    report.set("api.submit_tail_ms", ms(tail(&window.submit_rtt).0));
    report.set("api.status_p50_ms", ms(median(&window.status_rtt)));
    report.set("api.status_tail_ms", ms(tail(&window.status_rtt).0));
    report.set("api.handler_mean_ms", handler_ms);
    report.set("api.wait_mean_ms", ms(mean(&rtts)) - handler_ms);
    report.set("api.edge_p50_ms", ms(median(&pick(|p| p.edge))));
    report.set("api.live_404", window.live_404 as f64);
    let seed_runs = runs().count();
    let seed_failed = runs().filter(|r| r.failed).count();
    report.set(
        "failed_ratio",
        (window.live_404 + window.http_failed + seed_failed) as f64
            / (window.http_ops() + seed_runs) as f64,
    );

    // runtime
    let busy: f64 = done.iter().map(|d| d.events.seed_busy()).sum();
    let overhead: Vec<f64> = done
        .iter()
        .flat_map(|d| {
            d.events.seeds.iter().filter_map(|s| {
                let run = d.checked.runs.iter().find(|r| r.seed == s.seed)?;
                Some(s.end - s.start - run.wall_seconds)
            })
        })
        .collect();
    report.set("runtime.queue_p50_ms", ms(median(&pick(|p| p.queue))));
    report.set("runtime.queue_tail_ms", ms(tail(&pick(|p| p.queue)).0));
    report.set("runtime.dispatch_p50_ms", ms(median(&pick(|p| p.dispatch))));
    report.set("runtime.finalize_p50_ms", ms(median(&pick(|p| p.finalize))));
    report.set("runtime.seed_overhead_ms", ms(mean(&overhead)));
    report.set(
        "runtime.worker_util",
        busy / (POOL_WORKERS as f64 * window_span(window, done)),
    );
    report.set(
        "runtime.checkpoints_per_job",
        mean(
            &done
                .iter()
                .map(|d| d.events.checkpoints as f64)
                .collect::<Vec<_>>(),
        ),
    );

    // core, from the service's own records
    let walls: Vec<f64> = runs().map(|r| r.wall_seconds).collect();
    let attempted: Vec<f64> = runs().map(|r| r.attempted as f64).collect();
    let costs: Vec<f64> = done.iter().map(|d| d.checked.fixed_cost).collect();
    report.set("core.anneal_ms", ms(mean(&walls)));
    report.set("core.design_cost", median(&costs));
    report.set("anneal.moves_per_seed", mean(&attempted));

    let late: Vec<f64> = done.iter().map(|d| d.late_s).collect();
    report.set("bench.gen_late_tail_ms", ms(tail(&late).0));

    replay_layers(plan, done, oracle_wall, report);
}

/// Replays the seeds of the plan's leading jobs in-process and fills in
/// the core, anneal, cost, awe and linalg metrics from the adapter's
/// timers and the telemetry the replay recorded.
fn replay_layers(plan: &Plan, done: &[Done], oracle_wall: Option<f64>, report: &mut Report) {
    let mut compile_ms = Vec::new();
    let mut times = LayerTimes::default();
    let (mut anneal_ns, mut attempted) = (0u64, 0usize);
    let (mut replay_wall, mut service_wall) = (0.0, 0.0);
    let mut overhead = None;
    oblx_telemetry::reset();
    for d in done.iter().filter(|d| d.index < plan.replay_jobs) {
        let spec = &plan.jobs[d.index];
        let request = spec.request(&d.id);
        let t = Instant::now();
        let compiled = match oblx_runtime::validate_job(&request) {
            Ok(c) => c,
            Err(e) => {
                report
                    .errors
                    .push(format!("job {} does not compile: {e}", d.index));
                continue;
            }
        };
        compile_ms.push(ms(t.elapsed().as_secs_f64()));
        for run in &d.checked.runs {
            let r = replay::replay_seed(&compiled, &spec.seed_options(run.seed));
            if r.fixed_cost.to_bits() != run.fixed_cost.to_bits() {
                report.errors.push(format!(
                    "replay of job {} seed {}: fixed_cost {} != service {}",
                    d.index, run.seed, r.fixed_cost, run.fixed_cost
                ));
            }
            if d.index == 0 && run.seed == d.checked.best_seed {
                overhead = oracle_wall.map(|w| r.wall_s / w);
            }
            times += r.times;
            anneal_ns += r.anneal_ns;
            attempted += r.attempted;
            replay_wall += r.wall_s;
            service_wall += run.wall_seconds;
        }
    }
    let snap = Snapshot::capture();
    let counter = |name: &str| snap.counter(name) as f64;
    let (evals, awe) = (hist(&snap, "cost_eval"), hist(&snap, "awe_analyze"));
    let moves = attempted as f64;
    let (accepts, tries) = snap
        .moves
        .iter()
        .fold((0, 0), |(a, t), m| (a + m.accepts, t + m.attempts));
    let engine_self = anneal_ns as f64 - (times.propose_ns + times.cost_ns + times.other_ns) as f64;
    let plan_evals = counter("eval_full") + counter("eval_incremental") + counter("eval_cached");

    report.set("core.compile_ms", median(&compile_ms));
    report.set(
        "anneal.propose_us",
        ratio(times.propose_ns as f64, times.propose_calls as f64) / 1e3,
    );
    report.set("anneal.engine_self_us", ratio(engine_self, moves) / 1e3);
    report.set("anneal.accept_ratio", ratio(accepts as f64, tries as f64));
    report.set(
        "cost.eval_us",
        ratio(times.cost_ns as f64, times.cost_calls as f64) / 1e3,
    );
    report.set("cost.evals_per_move", ratio(times.cost_calls as f64, moves));
    report.set(
        "cost.reuse_ratio",
        ratio(
            counter("eval_incremental") + counter("eval_cached"),
            plan_evals,
        ),
    );
    report.set(
        "cost.devices_stamp_score_us",
        ratio(
            times.cost_ns as f64 - awe.sum as f64,
            times.cost_calls as f64,
        ) / 1e3,
    );
    report.set(
        "cost.failure_ratio",
        ratio(counter("eval_failure"), evals.count as f64),
    );
    report.set("awe.analyze_us", awe.mean() / 1e3);
    report.set(
        "awe.fits_per_eval",
        ratio(counter("awe_fit"), evals.count as f64),
    );
    report.set(
        "awe.unstable_ratio",
        ratio(counter("awe_unstable"), counter("awe_fit")),
    );
    report.set(
        "linalg.sparse_refactor_share",
        ratio(hist(&snap, "sparse_refactor").sum as f64, anneal_ns as f64),
    );
    report.set(
        "linalg.lu_factors_per_move",
        ratio(counter("lu_factor"), moves),
    );
    report.set("linalg.sparse_fallbacks", counter("sparse_fallback"));
    report.set("trace.replay_fidelity", ratio(replay_wall, service_wall));
    if let Some(o) = overhead {
        report.set("trace.overhead", o);
    }
    report.info.push(format!(
        "replayed {attempted} moves of the first {} jobs: propose {:.1}%, cost {:.1}%, \
         engine self {:.1}% of anneal wall",
        plan.replay_jobs,
        100.0 * ratio(times.propose_ns as f64, anneal_ns as f64),
        100.0 * ratio(times.cost_ns as f64, anneal_ns as f64),
        100.0 * ratio(engine_self, anneal_ns as f64),
    ));
}

/// Writes one span tree per job to `<workload>.trace.jsonl`, and checks
/// that each job's phases sum to its latency within 1 ms.
fn write_trace(out: &Path, plan: &Plan, done: &[Done], report: &mut Report) -> Result<(), String> {
    let path = out.join(format!("{}.trace.jsonl", plan.workload.name()));
    let mut text = String::new();
    for d in done {
        let phases = d.events.phases(d.due);
        let latency = d.events.done - d.due;
        if (phases.total() - latency).abs() > 1e-3 {
            report.errors.push(format!(
                "job {}: phases sum to {} s, latency is {} s",
                d.index,
                phases.total(),
                latency
            ));
        }
        let walls: Vec<(u64, f64)> = d
            .checked
            .runs
            .iter()
            .map(|r| (r.seed, r.wall_seconds))
            .collect();
        text.push_str(&trace::trace_line(
            &d.id,
            plan.jobs[d.index].bench,
            d.due,
            &d.events,
            &walls,
        ));
        text.push('\n');
    }
    std::fs::write(&path, text).map_err(|e| format!("cannot write {path:?}: {e}"))?;
    report.info.push(format!("trace: {}", path.display()));
    Ok(())
}

/// Writes the report as `<workload>.json` beside the traces.
///
/// # Errors
///
/// The file cannot be written.
pub fn write_report(out: &Path, report: &Report, trace: bool) -> Result<PathBuf, String> {
    let path = out.join(format!("{}.json", report.workload));
    let mut all = report.result_json(trace);
    if let astrx_oblx::json::Value::Obj(members) = &mut all {
        members.push((
            "errors".to_string(),
            report.errors.iter().map(String::as_str).collect(),
        ));
    }
    std::fs::write(&path, format!("{}\n", all.to_json()))
        .map_err(|e| format!("cannot write {path:?}: {e}"))?;
    Ok(path)
}
