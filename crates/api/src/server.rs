//! The TCP front: a nonblocking accept loop, a bounded admission
//! queue, and a small worker-thread pool.
//!
//! The shape is a textbook bounded producer/consumer, and the bound is
//! the point: under a flood the queue fills, further connections get
//! an immediate `429` written from the accept thread, and the workers
//! keep draining at their own pace — load sheds at the door instead of
//! accumulating open sockets until the process falls over. Per-client
//! token buckets ([`crate::quota`]) sit behind admission, so one noisy
//! client is throttled before it can crowd out the rest.

use crate::http::{self, HttpError};
use crate::quota::Quota;
use crate::routes::{self, Ctx};
use oblx_runtime::spool::Spool;
use oblx_telemetry::{Counter, SpanKind};
use std::collections::VecDeque;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Bind address (`host:port`; port 0 picks a free one).
    pub addr: String,
    /// Worker threads handling requests.
    pub threads: usize,
    /// Connections allowed to wait for a worker before new ones are
    /// shed with 429.
    pub admission_capacity: usize,
    /// Sustained per-client requests/second (`<= 0` disables quotas).
    pub quota_rate: f64,
    /// Per-client burst allowance.
    pub quota_burst: f64,
    /// Socket read timeout (slow-loris bound).
    pub read_timeout: Duration,
    /// Socket write timeout (dead-client bound).
    pub write_timeout: Duration,
    /// Maximum accepted request body, bytes.
    pub max_body: usize,
    /// Requests served per keep-alive connection before the server
    /// closes it (`1` disables keep-alive entirely). The cap bounds how
    /// long one client can monopolize a worker thread.
    pub keepalive_max_requests: usize,
    /// How long a keep-alive connection may sit idle between requests
    /// before the server closes it.
    pub keepalive_idle_timeout: Duration,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            admission_capacity: 64,
            quota_rate: 50.0,
            quota_burst: 100.0,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_body: 1024 * 1024,
            keepalive_max_requests: 100,
            keepalive_idle_timeout: Duration::from_secs(5),
        }
    }
}

/// The admission queue: accepted connections waiting for a worker.
struct Admission {
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    capacity: usize,
}

/// A running HTTP edge. Dropping the handle does not stop it; raise
/// the shutdown flag (or send the process SIGTERM when using the flag
/// from [`oblx_runtime::signal`]) and call [`Server::join`].
pub struct Server {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the accept loop and worker pool, and returns.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(
        spool: Spool,
        opts: &ServerOptions,
        shutdown: Arc<AtomicBool>,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let admission = Arc::new(Admission {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            capacity: opts.admission_capacity.max(1),
        });
        let ctx = Arc::new(Ctx {
            spool,
            shutdown: Arc::clone(&shutdown),
        });
        let quota = Arc::new(Quota::new(opts.quota_rate, opts.quota_burst));

        let workers = (0..opts.threads.max(1))
            .map(|_| {
                let admission = Arc::clone(&admission);
                let ctx = Arc::clone(&ctx);
                let quota = Arc::clone(&quota);
                let opts = opts.clone();
                let shutdown = Arc::clone(&shutdown);
                std::thread::spawn(move || worker_loop(&admission, &ctx, &quota, &opts, &shutdown))
            })
            .collect();

        let accept_thread = {
            let admission = Arc::clone(&admission);
            let shutdown = Arc::clone(&shutdown);
            let write_timeout = opts.write_timeout;
            std::thread::spawn(move || {
                accept_loop(&listener, &admission, &shutdown, write_timeout);
            })
        };
        Ok(Server {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Raises the shutdown flag and waits for the accept loop and all
    /// workers to drain and exit.
    pub fn join(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    admission: &Admission,
    shutdown: &AtomicBool,
    write_timeout: Duration,
) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                let mut queue = admission.queue.lock().unwrap();
                if queue.len() >= admission.capacity {
                    drop(queue);
                    // Shed at the door: a one-line 429 written from the
                    // accept thread, bounded by the write timeout.
                    oblx_telemetry::incr(Counter::HttpAdmissionRejected);
                    let _ = stream.set_write_timeout(Some(write_timeout));
                    let _ = stream.set_nodelay(true);
                    let body = routes::error_body("admission", "server is at capacity, retry");
                    let _ = http::respond_json(&mut stream, 429, &body, false);
                    continue;
                }
                queue.push_back(stream);
                drop(queue);
                admission.ready.notify_one();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    // Wake every worker so they observe the flag and exit.
    admission.ready.notify_all();
}

fn worker_loop(
    admission: &Admission,
    ctx: &Ctx,
    quota: &Quota,
    opts: &ServerOptions,
    shutdown: &AtomicBool,
) {
    loop {
        let stream = {
            let mut queue = admission.queue.lock().unwrap();
            loop {
                if let Some(stream) = queue.pop_front() {
                    break Some(stream);
                }
                if shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                let (q, _) = admission
                    .ready
                    .wait_timeout(queue, Duration::from_millis(100))
                    .unwrap();
                queue = q;
            }
        };
        let Some(mut stream) = stream else { return };
        let _ = stream.set_write_timeout(Some(opts.write_timeout));
        // Responses go out as two small writes (head, then body); with
        // Nagle on, the second would stall ~40 ms behind the peer's
        // delayed ACK on a reused keep-alive connection.
        let _ = stream.set_nodelay(true);
        // Keep-alive: serve up to `keepalive_max_requests` requests off
        // this connection. The first head read runs under the ordinary
        // read timeout; between requests the shorter idle timeout
        // applies, so a parked client gives the thread back quickly.
        let mut served = 0usize;
        loop {
            let timeout = if served == 0 {
                opts.read_timeout
            } else {
                opts.read_timeout.min(opts.keepalive_idle_timeout)
            };
            let _ = stream.set_read_timeout(Some(timeout));
            let last = served + 1 >= opts.keepalive_max_requests.max(1);
            let offer = !last && !shutdown.load(Ordering::SeqCst);
            let Some((status, keep)) = serve_one(ctx, quota, opts, &mut stream, offer, served > 0)
            else {
                break;
            };
            served += 1;
            if (400..500).contains(&status) {
                oblx_telemetry::incr(Counter::Http4xx);
            } else if status >= 500 {
                oblx_telemetry::incr(Counter::Http5xx);
            }
            if !keep {
                break;
            }
        }
    }
}

/// Reads, quota-checks, and dispatches one request. `offer_keep_alive`
/// is the server's willingness to serve another request afterwards;
/// the response persists the connection only when the client agrees.
/// Returns the response status and whether the connection stays open,
/// or `None` when the socket died (or, on a kept-alive connection,
/// went idle past the timeout) before an answer could be written.
fn serve_one(
    ctx: &Ctx,
    quota: &Quota,
    opts: &ServerOptions,
    stream: &mut TcpStream,
    offer_keep_alive: bool,
    idle_wait: bool,
) -> Option<(u16, bool)> {
    // Quota key: the peer IP. Behind a reverse proxy every request
    // shares one IP and the bucket becomes a global limiter — still
    // the safe failure direction for an edge this small.
    let key = stream
        .peer_addr()
        .map(|a| a.ip().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let req = match http::read_request(stream, opts.max_body) {
        Ok(req) => req,
        Err(HttpError::BadRequest(msg)) => {
            // A clean EOF between keep-alive requests is the client
            // hanging up, not a malformed request.
            if idle_wait && msg == "connection closed mid-head" {
                return None;
            }
            let _ =
                http::respond_json(stream, 400, &routes::error_body("bad_request", &msg), false);
            return Some((400, false));
        }
        Err(HttpError::HeadTooLarge) => {
            let body = routes::error_body("head_too_large", "request head over 8 KiB");
            let _ = http::respond_json(stream, 431, &body, false);
            return Some((431, false));
        }
        Err(HttpError::LengthRequired) => {
            let body = routes::error_body(
                "length_required",
                "Transfer-Encoding is not supported; send the body with Content-Length",
            );
            let _ = http::respond_json(stream, 411, &body, false);
            return Some((411, false));
        }
        Err(HttpError::BodyTooLarge(n)) => {
            let body = routes::error_body(
                "body_too_large",
                &format!("body of {n} bytes over the {}-byte cap", opts.max_body),
            );
            let _ = http::respond_json(stream, 413, &body, false);
            return Some((413, false));
        }
        Err(HttpError::Io(_)) => return None,
    };
    let _span = oblx_telemetry::span(SpanKind::HttpRequest);
    oblx_telemetry::incr(Counter::HttpRequest);
    let keep_alive = offer_keep_alive && req.keep_alive;
    if !quota.admit(&key) {
        oblx_telemetry::incr(Counter::HttpQuotaRejected);
        let body = routes::error_body("quota", "per-client rate limit exceeded, slow down");
        let _ = http::respond_json(stream, 429, &body, keep_alive);
        return Some((429, keep_alive));
    }
    routes::handle(ctx, &req, stream, keep_alive).ok()
}
