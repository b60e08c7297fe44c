//! A job's span tree, rebuilt from its own event log
//! (`GET /v1/jobs/:id/events?follow=0`).
//!
//! The five phases are contiguous, so they sum to the job's latency:
//!
//! ```text
//! due ── edge ──▶ submitted ── runtime.queue ──▶ started
//!     ── runtime.dispatch ──▶ first seed_started ── seeds ──▶ last seed_done
//!     ── runtime.finalize ──▶ done
//! ```
//!
//! `edge` is the client's wait plus the edge's parse, validate, compile
//! and spool write; `runtime.queue` is time in `queue/` until a worker
//! claims it; `runtime.dispatch` is the claim-side compile and sharding;
//! `seeds` is the annealing, per seed on up to two workers;
//! `runtime.finalize` is the winner pick and the result write.

use astrx_oblx::jobs;
use astrx_oblx::json::{self, ObjBuilder, Value};

/// One seed's run as its events place it.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedSpan {
    /// The seed.
    pub seed: u64,
    /// `seed_started` time (Unix seconds).
    pub start: f64,
    /// `seed_done` time (Unix seconds).
    pub end: f64,
}

/// The lifecycle timestamps of one job (Unix seconds).
#[derive(Debug, Clone, PartialEq)]
pub struct JobEvents {
    /// `submitted`.
    pub submitted: f64,
    /// `started` (claimed and sharded).
    pub started: f64,
    /// Per-seed spans, in the order the seeds started.
    pub seeds: Vec<SeedSpan>,
    /// `done`.
    pub done: f64,
    /// `checkpoint` events.
    pub checkpoints: usize,
}

/// The contiguous phases of one job, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phases {
    /// Due → `submitted`.
    pub edge: f64,
    /// `submitted` → `started`.
    pub queue: f64,
    /// `started` → first `seed_started`.
    pub dispatch: f64,
    /// First `seed_started` → last `seed_done`.
    pub seeds: f64,
    /// Last `seed_done` → `done`.
    pub finalize: f64,
}

impl Phases {
    /// Phase names, in order, as written to trace files.
    pub const NAMES: [&'static str; 5] = [
        "edge",
        "runtime.queue",
        "runtime.dispatch",
        "seeds",
        "runtime.finalize",
    ];

    /// The phases in [`Phases::NAMES`] order.
    pub fn as_array(&self) -> [f64; 5] {
        [
            self.edge,
            self.queue,
            self.dispatch,
            self.seeds,
            self.finalize,
        ]
    }

    /// Their sum: the job's latency from due to done.
    pub fn total(&self) -> f64 {
        self.as_array().iter().sum()
    }
}

impl JobEvents {
    /// Parses an NDJSON event log.
    ///
    /// # Errors
    ///
    /// A lifecycle event is missing (the job did not finish normally).
    pub fn parse(ndjson: &str) -> Result<JobEvents, String> {
        let mut ev = JobEvents {
            submitted: f64::NAN,
            started: f64::NAN,
            seeds: Vec::new(),
            done: f64::NAN,
            checkpoints: 0,
        };
        for line in json::parse_lines(ndjson) {
            let ts = line.get("ts").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let seed = line.get("seed").and_then(|s| jobs::u64_from_value(s).ok());
            match (line.get("event").and_then(Value::as_str), seed) {
                (Some("submitted"), _) => ev.submitted = ts,
                (Some("started"), _) => ev.started = ts,
                (Some("seed_started"), Some(seed)) => ev.seeds.push(SeedSpan {
                    seed,
                    start: ts,
                    end: f64::NAN,
                }),
                (Some("seed_done"), Some(seed)) => {
                    if let Some(s) = ev.seeds.iter_mut().rev().find(|s| s.seed == seed) {
                        s.end = ts;
                    }
                }
                (Some("checkpoint"), _) => ev.checkpoints += 1,
                (Some("done"), _) => ev.done = ts,
                _ => {}
            }
        }
        let complete = [ev.submitted, ev.started, ev.done]
            .iter()
            .chain(ev.seeds.iter().flat_map(|s| [&s.start, &s.end]))
            .all(|t| t.is_finite());
        if !complete || ev.seeds.is_empty() {
            return Err("event log lacks a lifecycle event".to_string());
        }
        Ok(ev)
    }

    /// The job's phases for a job due at `due` (Unix seconds).
    pub fn phases(&self, due: f64) -> Phases {
        let first_seed = self.seeds.iter().map(|s| s.start).fold(f64::MAX, f64::min);
        let last_seed = self.seeds.iter().map(|s| s.end).fold(f64::MIN, f64::max);
        Phases {
            edge: self.submitted - due,
            queue: self.started - self.submitted,
            dispatch: first_seed - self.started,
            seeds: last_seed - first_seed,
            finalize: self.done - last_seed,
        }
    }

    /// Busy seconds of every seed run.
    pub fn seed_busy(&self) -> f64 {
        self.seeds.iter().map(|s| s.end - s.start).sum()
    }
}

/// One trace-file line: the job's span tree, the phases as children of
/// the job span, and each seed's span under `seeds`.
pub fn trace_line(id: &str, name: &str, due: f64, ev: &JobEvents, walls: &[(u64, f64)]) -> String {
    let phases = ev.phases(due);
    let mut start = due;
    let mut spans = Vec::new();
    for (name, dur) in Phases::NAMES.iter().zip(phases.as_array()) {
        spans.push(span(name, "job", start, start + dur));
        start += dur;
    }
    for s in &ev.seeds {
        let wall = walls
            .iter()
            .find(|(seed, _)| *seed == s.seed)
            .map_or(f64::NAN, |(_, w)| *w);
        spans.push(
            ObjBuilder::new()
                .field("name", format!("seed {}", s.seed))
                .field("parent", "seeds")
                .field("start", s.start)
                .field("end", s.end)
                .field("anneal_s", wall)
                .build(),
        );
    }
    ObjBuilder::new()
        .field("job", id)
        .field("name", name)
        .field("due", due)
        .field("latency_s", ev.done - due)
        .field("checkpoints", ev.checkpoints)
        .field("spans", Value::Arr(spans))
        .build()
        .to_json()
}

fn span(name: &str, parent: &str, start: f64, end: f64) -> Value {
    ObjBuilder::new()
        .field("name", name)
        .field("parent", parent)
        .field("start", start)
        .field("end", end)
        .build()
}
