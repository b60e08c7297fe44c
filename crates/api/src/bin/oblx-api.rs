//! `oblx-api` — the synthesis-as-a-service daemon.
//!
//! ```text
//! oblx-api serve --dir SPOOL [--addr HOST:PORT] [--threads N]
//!                [--pool-workers N | --no-pool]
//!                [--rate R] [--burst B] [--admission N]
//! ```
//!
//! `serve` binds the HTTP edge (default `127.0.0.1:8080`; port 0 picks
//! a free port) and, unless `--no-pool`, runs an in-process `oblxd`
//! worker pool over the same spool so a single process accepts decks
//! over HTTP *and* synthesizes them. The bound address is printed to
//! stdout (`listening on HOST:PORT`) before requests are served, so
//! wrappers scripting a port-0 server can scrape it. SIGTERM/SIGINT
//! drain gracefully: the edge stops accepting, in-flight requests
//! finish, in-flight seeds checkpoint, and the process exits 0.

use oblx_api::server::{Server, ServerOptions};
use oblx_runtime::pool::{self, PoolOptions};
use oblx_runtime::spool::Spool;
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  oblx-api serve --dir SPOOL [--addr HOST:PORT] [--threads N] \
         [--pool-workers N | --no-pool] [--rate R] [--burst B] [--admission N] \
         [--checkpoint-interval N]"
    );
    ExitCode::from(2)
}

fn opt<'a>(rest: &'a [&String], name: &str) -> Option<&'a str> {
    rest.iter()
        .position(|a| a.as_str() == name)
        .and_then(|i| rest.get(i + 1))
        .map(|s| s.as_str())
}

fn flag(rest: &[&String], name: &str) -> bool {
    rest.iter().any(|a| a.as_str() == name)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    if it.next().map(String::as_str) != Some("serve") {
        return usage();
    }
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
    oblx_telemetry::set_enabled(true);

    let server_opts = ServerOptions {
        addr: opt(&rest, "--addr").unwrap_or("127.0.0.1:8080").to_string(),
        threads: opt(&rest, "--threads")
            .and_then(|s| s.parse().ok())
            .unwrap_or(4),
        admission_capacity: opt(&rest, "--admission")
            .and_then(|s| s.parse().ok())
            .unwrap_or(64),
        quota_rate: opt(&rest, "--rate")
            .and_then(|s| s.parse().ok())
            .unwrap_or(50.0),
        quota_burst: opt(&rest, "--burst")
            .and_then(|s| s.parse().ok())
            .unwrap_or(100.0),
        ..ServerOptions::default()
    };

    // One flag fans out to everything: the signal handler raises the
    // process-wide static, the main loop mirrors it into the Arc the
    // server and pool poll.
    let signal_flag = oblx_runtime::signal::install_shutdown_handler();
    let shutdown = Arc::new(AtomicBool::new(false));

    let server = match Server::start(spool, &server_opts, Arc::clone(&shutdown)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind `{}`: {e}", server_opts.addr);
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", server.addr());
    let _ = std::io::stdout().flush();

    let pool_thread = if flag(&rest, "--no-pool") {
        None
    } else {
        let pool_spool = match Spool::open(dir) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot open spool `{dir}`: {e}");
                return ExitCode::FAILURE;
            }
        };
        pool::recover_at_startup(&pool_spool);
        let pool_opts = PoolOptions {
            workers: opt(&rest, "--pool-workers")
                .and_then(|s| s.parse().ok())
                .unwrap_or(0),
            checkpoint_every: opt(&rest, "--checkpoint-interval")
                .and_then(|s| s.parse().ok())
                .unwrap_or(2_000),
            drain: false,
            ..PoolOptions::default()
        };
        if pool_opts.checkpoint_every == 0 {
            eprintln!("error: --checkpoint-interval must be positive");
            return ExitCode::from(2);
        }
        let pool_shutdown = Arc::clone(&shutdown);
        Some(std::thread::spawn(move || {
            pool::run(&pool_spool, &pool_opts, &pool_shutdown)
        }))
    };

    while !signal_flag.load(Ordering::SeqCst) && !shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("shutdown: draining connections and checkpointing seeds");
    shutdown.store(true, Ordering::SeqCst);
    server.join();
    if let Some(t) = pool_thread {
        match t.join() {
            Ok(stats) => eprintln!(
                "pool: {} job(s) completed, {} failed, {} cancelled, {} seed task(s) run",
                stats.jobs_completed, stats.jobs_failed, stats.jobs_cancelled, stats.seeds_run
            ),
            Err(_) => eprintln!("pool thread panicked"),
        }
    }
    ExitCode::SUCCESS
}
