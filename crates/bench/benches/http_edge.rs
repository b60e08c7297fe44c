//! HTTP-edge benchmark: what the network front costs over the raw
//! spool, printed one line per measurement.
//!
//! * **submit→accept latency** — client-observed wall time of a
//!   `POST /v1/jobs` (connect, edge-side parse + validate + compile,
//!   atomic spool write, 201), reported as p50/p90/p99 — measured
//!   both with a fresh connection per request and over a single
//!   keep-alive connection, so the connect/teardown cost is visible;
//! * **queue throughput through the edge** — the same 100-small-job
//!   drain the runtime suite times against the bare spool (its
//!   `runtime/queue_throughput` line), but with every job entering over
//!   HTTP;
//! * **quota under flood** — a burst far past the token bucket,
//!   counting how many requests the limiter turned away.
//!
//! Set `OBLX_BENCH_QUICK=1` to cut request counts (CI smoke mode).

use astrx_oblx::json::{ObjBuilder, Value};
use criterion::{criterion_group, criterion_main, Criterion};
use oblx_api::server::{Server, ServerOptions};
use oblx_runtime::pool::{self, PoolOptions};
use oblx_runtime::spool::Spool;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

const DIFFAMP: &str = include_str!("../../core/src/testdata/diffamp.ox");

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oblx-bench-api-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One request, client side: connect, send, read the full response.
/// Asks for `Connection: close` so the read-to-EOF framing works;
/// this is the fresh-connection-per-request path. Returns the status.
fn roundtrip(addr: SocketAddr, method: &str, path: &str, body: &str) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes()).expect("send");
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("receive");
    let head = std::str::from_utf8(&bytes[..bytes.len().min(16)]).unwrap_or("");
    head.split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// One request on an already-open keep-alive connection: send, then
/// read exactly one `Content-Length`-framed response, leaving the
/// socket usable for the next request. Returns the status code.
fn roundtrip_on(stream: &mut TcpStream, method: &str, path: &str, body: &str) -> u16 {
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes()).expect("send");
    let mut bytes = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(head_end) = bytes.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&bytes[..head_end]).to_ascii_lowercase();
            let need: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("content-length:"))
                .and_then(|v| v.trim().parse().ok())
                .expect("keep-alive response has Content-Length");
            if bytes.len() >= head_end + 4 + need {
                return head
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0);
            }
        }
        let n = stream.read(&mut chunk).expect("receive");
        assert!(n > 0, "server closed mid-response");
        bytes.extend_from_slice(&chunk[..n]);
    }
}

/// Matches the job shape of the runtime suite's queue-throughput bench
/// (60 moves, quench patience 100) so the drain rates are comparable.
fn submit_body(i: usize, moves: usize) -> String {
    ObjBuilder::new()
        .field("name", format!("edge-{i}"))
        .field("source", DIFFAMP)
        .field("seeds", Value::Arr(vec![Value::Int(1)]))
        .field("moves", i64::try_from(moves).unwrap())
        .field("quench", 100i64)
        .build()
        .to_json()
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn bench(_c: &mut Criterion) {
    let quick = std::env::var_os("OBLX_BENCH_QUICK").is_some();
    let n_latency = if quick { 40 } else { 200 };
    let n_jobs = if quick { 20 } else { 100 };
    let n_flood: usize = if quick { 60 } else { 200 };

    // --- submit→accept latency -------------------------------------
    let dir = temp_dir("latency");
    let shutdown = Arc::new(AtomicBool::new(false));
    let opts = ServerOptions {
        quota_rate: 0.0,
        // High enough for the whole keep-alive run on one connection.
        keepalive_max_requests: 10_000,
        ..ServerOptions::default()
    };
    let server = Server::start(
        Spool::open(dir.join("spool")).unwrap(),
        &opts,
        Arc::clone(&shutdown),
    )
    .unwrap();
    let addr = server.addr();
    let mut lat_s: Vec<f64> = (0..n_latency)
        .map(|i| {
            let body = submit_body(i, 60);
            let t = Instant::now();
            let status = roundtrip(addr, "POST", "/v1/jobs", &body);
            let dt = t.elapsed().as_secs_f64();
            assert_eq!(status, 201, "submit accepted");
            dt
        })
        .collect();
    lat_s.sort_by(|a, b| a.total_cmp(b));
    let (p50, p90, p99) = (
        percentile(&lat_s, 0.50),
        percentile(&lat_s, 0.90),
        percentile(&lat_s, 0.99),
    );
    let submit_rate = n_latency as f64 / lat_s.iter().sum::<f64>();
    println!(
        "api/submit_accept_latency                {n_latency} posts: p50 {:.2} ms, p90 {:.2} ms, p99 {:.2} ms ({:.1} submits/s sustained)",
        p50 * 1e3,
        p90 * 1e3,
        p99 * 1e3,
        submit_rate
    );
    // --- the same submits over one keep-alive connection -----------
    // Same server, same job shape; the only variable is connection
    // reuse, so the delta against the fresh-connection numbers above
    // is the per-request connect + teardown cost.
    let mut conn = TcpStream::connect(addr).expect("connect");
    let mut ka_s: Vec<f64> = (0..n_latency)
        .map(|i| {
            let body = submit_body(n_latency + i, 60);
            let t = Instant::now();
            let status = roundtrip_on(&mut conn, "POST", "/v1/jobs", &body);
            let dt = t.elapsed().as_secs_f64();
            assert_eq!(status, 201, "keep-alive submit accepted");
            dt
        })
        .collect();
    drop(conn);
    ka_s.sort_by(|a, b| a.total_cmp(b));
    let ka_p50 = percentile(&ka_s, 0.50);
    let ka_rate = n_latency as f64 / ka_s.iter().sum::<f64>();
    println!(
        "api/submit_keepalive                     {n_latency} posts on one connection: p50 {:.2} ms ({:.1} submits/s sustained)",
        ka_p50 * 1e3,
        ka_rate
    );
    shutdown.store(true, Ordering::SeqCst);
    server.join();
    let _ = std::fs::remove_dir_all(&dir);

    // --- queue throughput through the edge -------------------------
    // Mirrors the runtime suite's 100-job drain so the jobs/s here are
    // directly comparable to the direct-spool baseline there.
    let dir = temp_dir("queue");
    let shutdown = Arc::new(AtomicBool::new(false));
    let opts = ServerOptions {
        quota_rate: 0.0,
        ..ServerOptions::default()
    };
    let server = Server::start(
        Spool::open(dir.join("spool")).unwrap(),
        &opts,
        Arc::clone(&shutdown),
    )
    .unwrap();
    let addr = server.addr();
    let submit_start = Instant::now();
    for i in 0..n_jobs {
        assert_eq!(
            roundtrip(addr, "POST", "/v1/jobs", &submit_body(i, 60)),
            201
        );
    }
    let submit_s = submit_start.elapsed().as_secs_f64();
    let spool = Spool::open(dir.join("spool")).unwrap();
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
        "api/queue_throughput                     {n_jobs} jobs over HTTP: submit {:.2} s ({:.1} jobs/s in), drain {:.2} s ({:.1} jobs/s)",
        submit_s,
        n_jobs as f64 / submit_s,
        drain_s,
        n_jobs as f64 / drain_s
    );
    shutdown.store(true, Ordering::SeqCst);
    server.join();
    let _ = std::fs::remove_dir_all(&dir);

    // --- quota limiter under flood ----------------------------------
    let dir = temp_dir("flood");
    let shutdown = Arc::new(AtomicBool::new(false));
    let opts = ServerOptions {
        quota_rate: 50.0,
        quota_burst: 20.0,
        ..ServerOptions::default()
    };
    let server = Server::start(
        Spool::open(dir.join("spool")).unwrap(),
        &opts,
        Arc::clone(&shutdown),
    )
    .unwrap();
    let addr = server.addr();
    let flood_start = Instant::now();
    let mut rejected = 0usize;
    let mut served = 0usize;
    for _ in 0..n_flood {
        match roundtrip(addr, "GET", "/v1/metrics", "") {
            200 => served += 1,
            429 => rejected += 1,
            other => panic!("unexpected status {other} under flood"),
        }
    }
    let flood_s = flood_start.elapsed().as_secs_f64();
    assert!(rejected > 0, "the limiter engaged under flood");
    println!(
        "api/quota_flood                          {n_flood} reqs in {:.2} s: {served} served, {rejected} rejected 429",
        flood_s
    );
    shutdown.store(true, Ordering::SeqCst);
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench);
criterion_main!(benches);
