//! The hand-rolled router and the seven endpoint handlers.
//!
//! ```text
//! POST   /v1/jobs             submit a deck; edge-validated, 4xx on bad input
//! GET    /v1/jobs/:id         job state + per-seed progress
//! GET    /v1/jobs/:id/result  the persistent result record (done/ or cancelled/)
//! DELETE /v1/jobs/:id         cancel (tombstone honored by the pool)
//! GET    /v1/jobs/:id/events  chunked streaming tail of the JSONL event log
//! GET    /v1/metrics          live telemetry snapshot
//! GET    /v1/cluster          daemon membership + per-host worker state
//! ```
//!
//! Every error body has one shape — `{"error":{"kind":…,"message":…}}`
//! with `line`/`column` added for parse errors — so clients branch on
//! `kind`, not on prose.

use crate::http::{self, ChunkedWriter, Request};
use astrx_oblx::jobs::JobRequest;
use astrx_oblx::json::{ObjBuilder, Value};
use astrx_oblx::SynthesisOptions;
use oblx_runtime::events::{job_progress, EventLog};
use oblx_runtime::spool::{CancelOutcome, Spool};
use oblx_runtime::JobError;
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Shared state every handler sees.
pub struct Ctx {
    /// The spool this edge fronts.
    pub spool: Spool,
    /// Raised to stop streaming endpoints at shutdown.
    pub shutdown: Arc<AtomicBool>,
}

/// An error body: `{"error":{"kind":…,"message":…}}`.
pub fn error_body(kind: &str, message: &str) -> String {
    ObjBuilder::new()
        .field(
            "error",
            ObjBuilder::new()
                .field("kind", kind)
                .field("message", message)
                .build(),
        )
        .build()
        .to_json()
}

/// Dispatches one request. Returns the response status (for the
/// telemetry counters) and whether the connection stays open; the
/// response itself has already been written. `keep_alive` is the
/// server's offer (client willing, caps not hit) — handlers echo it
/// except the streaming endpoint, which always closes behind itself.
///
/// # Errors
///
/// Socket-level failures only — protocol-level problems are answered
/// with a 4xx/5xx, not returned.
pub fn handle(
    ctx: &Ctx,
    req: &Request,
    stream: &mut TcpStream,
    keep_alive: bool,
) -> io::Result<(u16, bool)> {
    let ka = keep_alive;
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["v1", "jobs"]) => submit(ctx, req, stream, ka),
        ("GET", ["v1", "jobs", id]) => job_state(ctx, id, stream, ka),
        ("GET", ["v1", "jobs", id, "result"]) => job_result(ctx, id, stream, ka),
        ("GET", ["v1", "jobs", id, "events"]) => job_events(ctx, req, id, stream),
        ("DELETE", ["v1", "jobs", id]) => job_cancel(ctx, id, stream, ka),
        ("GET", ["v1", "metrics"]) => metrics(stream, ka),
        ("GET", ["v1", "cluster"]) => cluster(ctx, stream, ka),
        (_, ["v1", "jobs"])
        | (_, ["v1", "jobs", ..])
        | (_, ["v1", "metrics"])
        | (_, ["v1", "cluster"]) => {
            let body = error_body(
                "method_not_allowed",
                &format!("{} not allowed here", req.method),
            );
            http::respond_json(stream, 405, &body, ka)?;
            Ok((405, ka))
        }
        _ => {
            let body = error_body("not_found", &format!("no route for {}", req.path));
            http::respond_json(stream, 404, &body, ka)?;
            Ok((404, ka))
        }
    }
}

/// Decodes the submit body into a [`JobRequest`].
///
/// Accepted fields: `source` (an `.ox` deck) **or** `bench` (a named
/// benchmark from the built-in suite, resolved server-side); plus
/// `name`, `deck`, `seeds` (count or explicit array), `moves`,
/// `quench`, `priority`. Unknown fields are rejected so typos fail
/// loudly instead of silently running defaults.
fn parse_submit_body(body: &[u8]) -> Result<JobRequest, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let v = astrx_oblx::json::parse(text).map_err(|e| format!("body is not JSON: {e}"))?;
    let Value::Obj(members) = &v else {
        return Err("body must be a JSON object".to_string());
    };
    for (key, _) in members {
        if !matches!(
            key.as_str(),
            "source" | "bench" | "name" | "deck" | "seeds" | "moves" | "quench" | "priority"
        ) {
            return Err(format!("unknown field `{key}`"));
        }
    }
    let (source, deck, default_name) = match v.get("bench").and_then(Value::as_str) {
        Some(bench) => {
            if v.get("source").is_some() || v.get("deck").is_some() {
                return Err("`bench` and `source`/`deck` are mutually exclusive".to_string());
            }
            let b = astrx_oblx::bench_suite::by_name(bench)
                .ok_or_else(|| format!("unknown benchmark `{bench}`"))?;
            (b.source.to_string(), b.deck.label().to_string(), b.name)
        }
        None => (
            v.get("source")
                .and_then(Value::as_str)
                .ok_or("`source` (string) or `bench` (string) is required")?
                .to_string(),
            v.get("deck")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            "api-job",
        ),
    };
    let seeds = match v.get("seeds") {
        None => vec![1, 2, 3],
        Some(Value::Int(n)) if *n > 0 && *n <= 1024 => (1..=*n as u64).collect(),
        Some(Value::Arr(items)) if !items.is_empty() && items.len() <= 1024 => {
            let mut seeds = Vec::with_capacity(items.len());
            for item in items {
                match item.as_int() {
                    Some(s) if s > 0 => seeds.push(s as u64),
                    _ => return Err("`seeds` array wants positive integers".to_string()),
                }
            }
            seeds
        }
        Some(_) => {
            return Err("`seeds` wants a positive count or a non-empty array of them".to_string())
        }
    };
    let moves = match v.get("moves") {
        None => 60_000,
        Some(m) => match m.as_int() {
            Some(n) if n > 0 => n as usize,
            _ => return Err("`moves` wants a positive integer".to_string()),
        },
    };
    let default_opts = SynthesisOptions::default();
    let quench = match v.get("quench") {
        None => default_opts.quench_patience,
        Some(q) => match q.as_int() {
            Some(n) if n > 0 => n as usize,
            _ => return Err("`quench` wants a positive integer".to_string()),
        },
    };
    let priority = match v.get("priority") {
        None => 0,
        Some(p) => p.as_int().ok_or("`priority` wants an integer")?,
    };
    Ok(JobRequest {
        name: v
            .get("name")
            .and_then(Value::as_str)
            .unwrap_or(default_name)
            .to_string(),
        source,
        deck,
        options: SynthesisOptions {
            moves_budget: moves,
            quench_patience: quench,
            ..default_opts
        },
        seeds,
        priority,
    })
}

/// `POST /v1/jobs` — validate at the edge, spool on success.
fn submit(ctx: &Ctx, req: &Request, stream: &mut TcpStream, ka: bool) -> io::Result<(u16, bool)> {
    let request = match parse_submit_body(&req.body) {
        Ok(r) => r,
        Err(msg) => {
            http::respond_json(stream, 400, &error_body("bad_request", &msg), ka)?;
            return Ok((400, ka));
        }
    };
    // The same validation the worker pool would run, pulled forward to
    // the edge: a deck that cannot compile never enters the queue, and
    // the submitter gets the parser's line/column back as JSON.
    if let Err(e) = oblx_runtime::validate_job(&request) {
        let (status, body) = match &e {
            JobError::Parse(pe) => {
                let mut err = ObjBuilder::new()
                    .field("kind", "parse")
                    .field("message", pe.message.as_str());
                if let Some((line, column)) = pe.location() {
                    err = err.field("line", line);
                    if let Some(column) = column {
                        err = err.field("column", column);
                    }
                }
                (
                    422,
                    ObjBuilder::new()
                        .field("error", err.build())
                        .build()
                        .to_json(),
                )
            }
            JobError::UnknownDeck(_) => (422, error_body("unknown_deck", &e.to_string())),
            JobError::Compile(_) => (422, error_body("compile", &e.to_string())),
        };
        http::respond_json(stream, status, &body, ka)?;
        return Ok((status, ka));
    }
    match ctx.spool.submit(request) {
        Ok(job) => {
            EventLog::open(&ctx.spool, &job.id).emit(
                "submitted",
                &[
                    ("name", job.request.name.as_str().into()),
                    ("seeds", job.request.seeds.len().into()),
                    ("priority", job.request.priority.into()),
                    ("via", "api".into()),
                ],
            );
            let body = ObjBuilder::new()
                .field("id", job.id.as_str())
                .field("name", job.request.name.as_str())
                .field("seeds", job.request.seeds.len())
                .field("events_url", format!("/v1/jobs/{}/events", job.id))
                .build()
                .to_json();
            http::respond_json(stream, 201, &body, ka)?;
            Ok((201, ka))
        }
        Err(e) => {
            let body = error_body("spool", &format!("submit failed: {e}"));
            http::respond_json(stream, 500, &body, ka)?;
            Ok((500, ka))
        }
    }
}

/// The job's current lifecycle state, resolved in terminal-first order
/// so a job mid-transition reads as its most-final state. Each lookup
/// reads one place, and the job can move on between two of them (queue
/// → running → parked for finalize → done or cancelled), so a job the
/// first pass misses in flight is looked up once more before a 404.
fn state_of(spool: &Spool, id: &str) -> Option<Value> {
    (0..2).find_map(|_| lookup_state(spool, id))
}

fn lookup_state(spool: &Spool, id: &str) -> Option<Value> {
    if let Some(record) = spool.done(id) {
        let status = record
            .get("status")
            .and_then(Value::as_str)
            .unwrap_or("ok")
            .to_string();
        return Some(
            ObjBuilder::new()
                .field("id", id)
                .field("state", "done")
                .field("status", status)
                .field("result_url", format!("/v1/jobs/{id}/result"))
                .build(),
        );
    }
    if spool.cancelled(id).is_some() {
        return Some(
            ObjBuilder::new()
                .field("id", id)
                .field("state", "cancelled")
                .field("result_url", format!("/v1/jobs/{id}/result"))
                .build(),
        );
    }
    // A parked spec (`Spool::claim_finalize`) is a job whose terminal
    // record is being written: it is still running until that lands.
    if let Some(job) = spool
        .read_running_job(id)
        .or_else(|| spool.read_parked_job(id))
    {
        let p = job_progress(spool, &job);
        let attempted = Value::Obj(
            p.seed_attempted
                .iter()
                .map(|(seed, moves)| (seed.to_string(), Value::from(*moves)))
                .collect(),
        );
        return Some(
            ObjBuilder::new()
                .field("id", id)
                .field("state", "running")
                .field("name", p.name.as_str())
                .field("seeds_total", p.seeds_total)
                .field("seeds_done", p.seeds_done)
                .field("seed_moves_attempted", attempted)
                .field("moves_budget", p.moves_budget)
                .field("cancel_requested", spool.cancel_requested(id))
                .build(),
        );
    }
    let pending = spool.pending();
    if let Some(position) = pending.iter().position(|j| j.id == id) {
        let job = &pending[position];
        return Some(
            ObjBuilder::new()
                .field("id", id)
                .field("state", "queued")
                .field("name", job.request.name.as_str())
                .field("priority", job.request.priority)
                .field("position", position)
                .build(),
        );
    }
    None
}

/// `GET /v1/jobs/:id`.
fn job_state(ctx: &Ctx, id: &str, stream: &mut TcpStream, ka: bool) -> io::Result<(u16, bool)> {
    match state_of(&ctx.spool, id) {
        Some(state) => {
            http::respond_json(stream, 200, &state.to_json(), ka)?;
            Ok((200, ka))
        }
        None => {
            let body = error_body("not_found", &format!("no job {id}"));
            http::respond_json(stream, 404, &body, ka)?;
            Ok((404, ka))
        }
    }
}

/// `GET /v1/jobs/:id/result` — the terminal record, verbatim from the
/// result store (`done/` or `cancelled/`).
fn job_result(ctx: &Ctx, id: &str, stream: &mut TcpStream, ka: bool) -> io::Result<(u16, bool)> {
    if let Some(record) = ctx.spool.done(id).or_else(|| ctx.spool.cancelled(id)) {
        http::respond_json(stream, 200, &record.to_json(), ka)?;
        return Ok((200, ka));
    }
    if state_of(&ctx.spool, id).is_some() {
        let body = error_body("not_ready", &format!("job {id} has not finished"));
        http::respond_json(stream, 409, &body, ka)?;
        return Ok((409, ka));
    }
    let body = error_body("not_found", &format!("no job {id}"));
    http::respond_json(stream, 404, &body, ka)?;
    Ok((404, ka))
}

/// `DELETE /v1/jobs/:id`.
fn job_cancel(ctx: &Ctx, id: &str, stream: &mut TcpStream, ka: bool) -> io::Result<(u16, bool)> {
    let name = ctx
        .spool
        .pending()
        .into_iter()
        .chain(ctx.spool.running())
        .find(|j| j.id == id)
        .map(|j| j.request.name)
        .unwrap_or_else(|| id.to_string());
    let (status, body) = match ctx.spool.cancel(id, &name) {
        Ok(
            outcome @ (CancelOutcome::Dequeued
            | CancelOutcome::Requested
            | CancelOutcome::AlreadyCancelled),
        ) => {
            let phase = match outcome {
                CancelOutcome::Dequeued => "dequeued",
                CancelOutcome::Requested => "requested",
                _ => "already_cancelled",
            };
            (
                200,
                ObjBuilder::new()
                    .field("id", id)
                    .field("cancelled", true)
                    .field("phase", phase)
                    .build()
                    .to_json(),
            )
        }
        Ok(CancelOutcome::AlreadyDone) => (
            409,
            error_body("already_done", &format!("job {id} already finished")),
        ),
        Ok(CancelOutcome::Unknown) => (404, error_body("not_found", &format!("no job {id}"))),
        Err(e) => (500, error_body("spool", &format!("cancel failed: {e}"))),
    };
    http::respond_json(stream, status, &body, ka)?;
    Ok((status, ka))
}

/// `GET /v1/jobs/:id/events` — a chunked tail of the JSONL event log.
/// With `?follow=0` the current log is dumped and the stream closes;
/// otherwise new lines stream as they land until the job reaches a
/// terminal state (or the server shuts down / the client hangs up).
fn job_events(
    ctx: &Ctx,
    req: &Request,
    id: &str,
    stream: &mut TcpStream,
) -> io::Result<(u16, bool)> {
    let log = EventLog::open(&ctx.spool, id);
    let known = state_of(&ctx.spool, id).is_some()
        || ctx.spool.events_dir().join(format!("{id}.jsonl")).exists();
    if !known {
        let body = error_body("not_found", &format!("no job {id}"));
        http::respond_json(stream, 404, &body, false)?;
        return Ok((404, false));
    }
    let follow = !req.query.split('&').any(|kv| kv == "follow=0");
    let mut writer = ChunkedWriter::start(stream, 200, "application/x-ndjson")?;
    let mut offset = 0u64;
    loop {
        // Read the terminal marker *before* draining the log so the
        // job_cancelled/done line written just before the state flip
        // cannot slip between our read and our exit.
        let terminal = ctx.spool.done(id).is_some() || ctx.spool.cancelled(id).is_some();
        let (text, new_offset) = log.read_raw_from(offset);
        offset = new_offset;
        // A client that went away surfaces as a write error here; stop
        // streaming quietly rather than spinning on a dead socket.
        writer.write_chunk(text.as_bytes())?;
        if !follow || terminal || ctx.shutdown.load(Ordering::SeqCst) {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    writer.finish()?;
    Ok((200, false))
}

/// `GET /v1/cluster` — who is draining this spool right now: one entry
/// per host heartbeat, each with its pid, beat counter, and the live
/// worker snapshot, plus the spool-wide lease count. This is the
/// API-side view of `oblxd status` on a multi-host spool.
fn cluster(ctx: &Ctx, stream: &mut TcpStream, ka: bool) -> io::Result<(u16, bool)> {
    let workers = oblx_runtime::events::read_workers(&ctx.spool);
    let hosts: Vec<Value> = ctx
        .spool
        .hosts()
        .into_iter()
        .map(|h| {
            let rows: Vec<Value> = workers
                .iter()
                .filter(|w| w.host == h.host)
                .map(|w| {
                    ObjBuilder::new()
                        .field("worker", w.worker)
                        .field("busy", w.busy)
                        .field("job", w.job.clone().map(Value::Str).unwrap_or(Value::Null))
                        .field(
                            "seed",
                            w.seed
                                .and_then(|s| i64::try_from(s).ok())
                                .map(Value::Int)
                                .unwrap_or(Value::Null),
                        )
                        .field("tasks_done", w.tasks_done)
                        .build()
                })
                .collect();
            ObjBuilder::new()
                .field("host", h.host.as_str())
                .field("pid", i64::from(h.pid))
                .field("workers", h.workers)
                .field("beat", i64::try_from(h.beat).unwrap_or(i64::MAX))
                .field("worker_state", Value::Arr(rows))
                .build()
        })
        .collect();
    let body = ObjBuilder::new()
        .field("hosts", Value::Arr(hosts))
        .field("leases", ctx.spool.leases().len())
        .build()
        .to_json();
    http::respond_json(stream, 200, &body, ka)?;
    Ok((200, ka))
}

/// `GET /v1/metrics` — the live telemetry snapshot, same JSON the
/// daemon appends to `metrics.jsonl`.
fn metrics(stream: &mut TcpStream, ka: bool) -> io::Result<(u16, bool)> {
    let snapshot = oblx_telemetry::Snapshot::capture();
    http::respond_json(stream, 200, &snapshot.to_json(), ka)?;
    Ok((200, ka))
}
