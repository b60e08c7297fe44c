//! The service under test, composed in-process exactly as
//! `oblx-api serve --pool-workers 2 --rate 0` composes it: the HTTP edge
//! over one spool handle and the worker pool, on its own thread, over a
//! second handle to the same directory.

use crate::client::Client;
use oblx_api::server::{Server, ServerOptions};
use oblx_runtime::events::EventLog;
use oblx_runtime::pool::{self, PoolOptions, RunStats};
use oblx_runtime::spool::Spool;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pool worker threads: one per core of the 2-core box the workloads
/// were sized on.
pub const POOL_WORKERS: usize = 2;

/// The edge's settings: the binary's defaults, except that quotas are
/// off because all load comes from one client address.
fn server_options() -> ServerOptions {
    ServerOptions {
        addr: "127.0.0.1:0".to_string(),
        quota_rate: 0.0,
        ..ServerOptions::default()
    }
}

/// The pool's settings: the binary's defaults with two workers.
fn pool_options() -> PoolOptions {
    PoolOptions {
        workers: POOL_WORKERS,
        checkpoint_every: 2_000,
        drain: false,
        ..PoolOptions::default()
    }
}

/// A running service: the edge plus the pool thread.
pub struct Service {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    server: Server,
    pool: JoinHandle<RunStats>,
}

impl Service {
    /// Opens the spool at `dir`, runs the binary's startup hygiene
    /// (quarantine, then recover), and starts the edge and the pool.
    ///
    /// # Errors
    ///
    /// Spool or bind failures, as text.
    fn start(dir: &Path) -> Result<Service, String> {
        let open = || Spool::open(dir).map_err(|e| format!("cannot open spool {dir:?}: {e}"));
        let shutdown = Arc::new(AtomicBool::new(false));
        let server = Server::start(open()?, &server_options(), Arc::clone(&shutdown))
            .map_err(|e| format!("cannot bind the edge: {e}"))?;
        let pool_spool = open()?;
        for id in pool_spool.quarantine_corrupt() {
            EventLog::open(&pool_spool, &id).emit("job_corrupt", &[]);
        }
        for id in pool_spool.recover() {
            EventLog::open(&pool_spool, &id).emit("recovered", &[]);
        }
        let pool_shutdown = Arc::clone(&shutdown);
        let pool =
            std::thread::spawn(move || pool::run(&pool_spool, &pool_options(), &pool_shutdown));
        Ok(Service {
            addr: server.addr(),
            shutdown,
            server,
            pool,
        })
    }

    /// Starts a service on a fresh, empty spool at `dir` and waits until
    /// it is ready: `GET /v1/cluster` lists the pool's host and
    /// `GET /v1/metrics` answers 200. Returns the service and its set-up
    /// seconds: the time to start it plus the time from the first
    /// connect to ready.
    ///
    /// The client first waits `pause` (not counted). The edge's accept
    /// loop polls every 10 ms, so a client that connects right after
    /// start waits for whatever is left of the loop's first sleep, and
    /// that depends on thread start order; connecting at a seeded random
    /// offset instead makes the wait an honest sample of the accept
    /// delay any first client sees.
    ///
    /// # Errors
    ///
    /// Start failures, or readiness not reached within 10 s.
    pub fn start_ready(dir: &Path, pause: Duration) -> Result<(Service, f64), String> {
        let _ = std::fs::remove_dir_all(dir);
        let t = Instant::now();
        let service = Service::start(dir)?;
        let started = t.elapsed();
        std::thread::sleep(pause);
        let t = Instant::now();
        let mut client = Client::new(service.addr);
        let deadline = t + Duration::from_secs(10);
        loop {
            let get = |c: &mut Client, path: &str| c.request("GET", path, "").ok();
            let pool_up = get(&mut client, "/v1/cluster")
                .is_some_and(|r| r.status == 200 && r.text().contains("\"worker_state\":[{"));
            if pool_up && get(&mut client, "/v1/metrics").is_some_and(|r| r.status == 200) {
                return Ok((service, (started + t.elapsed()).as_secs_f64()));
            }
            if Instant::now() > deadline {
                service.stop();
                return Err("service not ready within 10 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The edge's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Raises the shutdown flag and joins the edge and the pool.
    pub fn stop(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.server.join();
        self.pool.join().expect("the pool thread does not panic");
    }
}
