//! `oblxd` — the synthesis job daemon.
//!
//! ```text
//! oblxd submit --dir SPOOL (--bench NAME | file.ox)
//!              [--name N] [--seeds N|a,b,c] [--moves N] [--priority P]
//! oblxd run    --dir SPOOL [--workers N] [--checkpoint-interval N] [--drain]
//!              [--host-id H] [--lease-timeout SECS]
//! oblxd cancel --dir SPOOL JOB_ID
//! oblxd status --dir SPOOL [--metrics]
//! ```
//!
//! `submit` spools a job; `run` starts the worker pool (one worker per
//! core by default) and, in `--drain` mode, exits when the spool is
//! empty. A killed `run` restarted over the same spool with the same
//! host id recovers that host's orphaned jobs and seeds and resumes
//! them from their last checkpoints, bit-identically.
//!
//! Several daemons may share one spool directory (NFS-style): each
//! needs a distinct `--host-id` (defaults to the hostname), claims
//! individual seeds, and steals idle peers' work. Every daemon starts
//! with `run`: startup recovery touches only work leased to its own
//! host id, and a dead peer's work is the cluster reaper's once that
//! peer's beat has stopped for `--lease-timeout`.

use astrx_oblx::jobs::JobRequest;
use astrx_oblx::{bench_suite, SynthesisOptions};
use oblx_runtime::events::{last_metrics, render_metrics, status, EventLog};
use oblx_runtime::pool::{self, PoolOptions};
use oblx_runtime::spool::Spool;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  oblxd submit --dir SPOOL (--bench NAME | file.ox) [--name N] \
         [--seeds N|a,b,c] [--moves N] [--priority P]\n  \
         oblxd run --dir SPOOL [--workers N] [--checkpoint-interval N] [--drain]\n            \
         [--host-id H] [--lease-timeout SECS]\n  \
         oblxd cancel --dir SPOOL JOB_ID\n  \
         oblxd status --dir SPOOL [--metrics]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        return usage();
    };
    let rest: Vec<&String> = it.collect();
    let Some(dir) = opt(&rest, "--dir") else {
        eprintln!("error: --dir SPOOL is required");
        return usage();
    };
    let spool = match Spool::open(dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot open spool `{dir}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spool = match opt(&rest, "--host-id") {
        Some(host) => spool.with_host(host),
        None => spool,
    };
    match cmd.as_str() {
        "submit" => cmd_submit(&spool, &rest),
        "run" => cmd_run(&spool, &rest),
        "cancel" => cmd_cancel(&spool, &rest),
        "status" => {
            print!("{}", status(&spool).render());
            if flag(&rest, "--metrics") {
                match last_metrics(&spool) {
                    Some(data) => print!("{}", render_metrics(&data)),
                    None => println!("metrics: none recorded yet"),
                }
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

fn flag(rest: &[&String], name: &str) -> bool {
    rest.iter().any(|a| a.as_str() == name)
}

fn opt<'a>(rest: &'a [&String], name: &str) -> Option<&'a str> {
    rest.iter()
        .position(|a| a.as_str() == name)
        .and_then(|i| rest.get(i + 1))
        .map(|s| s.as_str())
}

fn parse_seeds(rest: &[&String]) -> Result<Vec<u64>, String> {
    match opt(rest, "--seeds") {
        Some(s) if !s.contains(',') => match s.trim().parse::<u64>() {
            Ok(n) if n > 0 => Ok((1..=n).collect()),
            _ => Err(format!("--seeds wants a count or a comma list, got `{s}`")),
        },
        Some(s) => {
            let seeds: Vec<u64> = s.split(',').filter_map(|x| x.trim().parse().ok()).collect();
            if seeds.is_empty() {
                Err(format!("--seeds parsed to an empty list from `{s}`"))
            } else {
                Ok(seeds)
            }
        }
        None => Ok(vec![1, 2, 3]),
    }
}

fn cmd_submit(spool: &Spool, rest: &[&String]) -> ExitCode {
    let (source, deck, default_name) = if let Some(name) = opt(rest, "--bench") {
        let Some(b) = bench_suite::by_name(name) else {
            eprintln!("error: unknown benchmark `{name}` — see `astrx list`");
            return ExitCode::FAILURE;
        };
        (
            b.source.to_string(),
            b.deck.label().to_string(),
            b.name.to_string(),
        )
    } else {
        let Some(path) = positional(rest) else {
            eprintln!("error: submit needs --bench NAME or a .ox file");
            return usage();
        };
        match std::fs::read_to_string(path) {
            Ok(text) => (text, String::new(), path.to_string()),
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let seeds = match parse_seeds(rest) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let options = SynthesisOptions {
        moves_budget: opt(rest, "--moves")
            .and_then(|s| s.parse().ok())
            .unwrap_or(60_000),
        ..SynthesisOptions::default()
    };
    let request = JobRequest {
        name: opt(rest, "--name")
            .map(str::to_string)
            .unwrap_or(default_name),
        source,
        deck,
        options,
        seeds,
        priority: opt(rest, "--priority")
            .and_then(|s| s.parse().ok())
            .unwrap_or(0),
    };
    // Validate before spooling: a malformed deck is the submitter's
    // error and should be rejected here with line/column diagnostics,
    // not discovered later by a worker.
    if let Err(e) = oblx_runtime::compile_job(&request) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    match spool.submit(request) {
        Ok(job) => {
            EventLog::open(spool, &job.id).emit(
                "submitted",
                &[
                    ("name", job.request.name.as_str().into()),
                    ("seeds", job.request.seeds.len().into()),
                    ("priority", job.request.priority.into()),
                ],
            );
            println!("{}", job.id);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: submit failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The first bare positional argument — one that neither starts with
/// `--` nor sits in the value slot of a preceding `--opt`.
fn positional<'a>(rest: &'a [&String]) -> Option<&'a str> {
    rest.iter().enumerate().find_map(|(i, a)| {
        let is_opt_value = i > 0 && rest[i - 1].starts_with("--");
        (!a.starts_with("--") && !is_opt_value).then_some(a.as_str())
    })
}

fn cmd_cancel(spool: &Spool, rest: &[&String]) -> ExitCode {
    use oblx_runtime::spool::CancelOutcome;
    let Some(id) = positional(rest) else {
        eprintln!("error: cancel needs a JOB_ID");
        return usage();
    };
    let name = spool
        .pending()
        .into_iter()
        .chain(spool.running())
        .find(|j| j.id == id)
        .map(|j| j.request.name)
        .unwrap_or_else(|| id.to_string());
    match spool.cancel(id, &name) {
        Ok(CancelOutcome::Dequeued) => {
            println!("{id}: cancelled (dequeued)");
            ExitCode::SUCCESS
        }
        Ok(CancelOutcome::Requested) => {
            println!("{id}: cancel requested (stops at the next checkpoint)");
            ExitCode::SUCCESS
        }
        Ok(CancelOutcome::AlreadyCancelled) => {
            println!("{id}: already cancelled");
            ExitCode::SUCCESS
        }
        Ok(CancelOutcome::AlreadyDone) => {
            eprintln!("error: {id} already finished; its result stands");
            ExitCode::FAILURE
        }
        Ok(CancelOutcome::Unknown) => {
            eprintln!("error: no job {id} in this spool");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: cancel {id} failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_run(spool: &Spool, rest: &[&String]) -> ExitCode {
    // The daemon always records telemetry: the per-run overhead is
    // within noise and `status --metrics` depends on the snapshots.
    oblx_telemetry::set_enabled(true);
    // Quarantine before recover so startup-time corruption is counted
    // and logged like worker-time corruption, not silently filed away.
    let mut startup_corrupt = 0usize;
    for id in spool.quarantine_corrupt() {
        EventLog::open(spool, &id).emit("job_corrupt", &[]);
        oblx_telemetry::incr(oblx_telemetry::Counter::JobCorrupt);
        eprintln!("quarantined corrupt spool entry {id}");
        startup_corrupt += 1;
    }
    for id in spool.recover() {
        EventLog::open(spool, &id).emit("recovered", &[]);
        eprintln!("recovered orphaned job {id}");
    }
    let opts = PoolOptions {
        workers: opt(rest, "--workers")
            .and_then(|s| s.parse().ok())
            .unwrap_or(0),
        checkpoint_every: opt(rest, "--checkpoint-interval")
            .and_then(|s| s.parse().ok())
            .unwrap_or(2_000),
        drain: flag(rest, "--drain"),
        lease_timeout: std::time::Duration::from_secs_f64(
            opt(rest, "--lease-timeout")
                .and_then(|s| s.parse().ok())
                .unwrap_or(30.0),
        ),
    };
    if opts.checkpoint_every == 0 {
        eprintln!("error: --checkpoint-interval must be positive");
        return ExitCode::from(2);
    }
    if opts.lease_timeout < std::time::Duration::from_millis(100) {
        eprintln!("error: --lease-timeout must be at least 0.1s");
        return ExitCode::from(2);
    }
    // SIGTERM/SIGINT drain gracefully: workers stop claiming, every
    // in-flight seed checkpoints and stops, events flush, and the
    // process exits 0 — jobs left in running/ resume bit-identically
    // on the next start.
    let shutdown = oblx_runtime::signal::install_shutdown_handler();
    let stats = pool::run(spool, &opts, shutdown);
    if shutdown.load(std::sync::atomic::Ordering::SeqCst) {
        eprintln!("shutdown: checkpointed in-flight seeds; restart to resume");
    }
    println!(
        "done: {} job(s) completed, {} failed, {} cancelled, {} seed task(s) run \
         ({} stolen), {} corrupt file(s) quarantined, {} panic(s) caught, \
         {} lease(s) reaped",
        stats.jobs_completed,
        stats.jobs_failed,
        stats.jobs_cancelled,
        stats.seeds_run,
        stats.seeds_stolen,
        stats.jobs_corrupt + startup_corrupt,
        stats.seeds_panicked,
        stats.leases_reaped
    );
    ExitCode::SUCCESS
}
