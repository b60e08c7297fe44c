//! Structured JSONL event logs and the `oblxd status` aggregation.
//!
//! Every job gets `events/<id>.jsonl` in the spool: one JSON object per
//! line, appended with a single `write` each so concurrent workers
//! interleave whole lines. A torn final line (crash mid-append) is
//! skipped on read by `json::parse_lines` — the log is an audit trail,
//! not a source of truth; job state lives in the spool directories and
//! checkpoint files.

use crate::spool::Spool;
use astrx_oblx::jobs;
use astrx_oblx::json::{self, ObjBuilder, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{SystemTime, UNIX_EPOCH};

/// Append-only JSONL log for one job.
#[derive(Debug, Clone)]
pub struct EventLog {
    path: PathBuf,
}

impl EventLog {
    /// The log of job `id` in `spool`.
    pub fn open(spool: &Spool, id: &str) -> EventLog {
        EventLog {
            path: spool.events_dir().join(format!("{id}.jsonl")),
        }
    }

    /// Appends one event line (`ts` + `event` + the given fields). Log
    /// failures are deliberately swallowed: a full disk must not take
    /// down a synthesis run whose real state is checkpointed elsewhere.
    pub fn emit(&self, event: &str, fields: &[(&str, Value)]) {
        let ts = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs_f64())
            .unwrap_or(0.0);
        let mut obj = ObjBuilder::new().field("ts", ts).field("event", event);
        for (key, value) in fields {
            obj = obj.field(key, value.clone());
        }
        let mut line = obj.build().to_json();
        line.push('\n');
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
        {
            let _ = f.write_all(line.as_bytes());
        }
    }

    /// All intact event lines, in order.
    pub fn read(&self) -> Vec<Value> {
        std::fs::read_to_string(&self.path)
            .map(|text| json::parse_lines(&text))
            .unwrap_or_default()
    }

    /// Reads the complete lines appended since byte `offset`, returning
    /// them verbatim (JSONL text, trailing newline included) together
    /// with the offset to resume from next time. A partial final line —
    /// a concurrent append caught mid-write — is left for the next
    /// call, so a tailer never observes a torn event. This is the
    /// polling primitive behind the HTTP edge's streaming
    /// `GET /v1/jobs/:id/events`.
    pub fn read_raw_from(&self, offset: u64) -> (String, u64) {
        use std::io::{Read as _, Seek as _, SeekFrom};
        let Ok(mut f) = std::fs::File::open(&self.path) else {
            return (String::new(), offset);
        };
        if f.seek(SeekFrom::Start(offset)).is_err() {
            return (String::new(), offset);
        }
        let mut bytes = Vec::new();
        if f.read_to_end(&mut bytes).is_err() {
            return (String::new(), offset);
        }
        let Some(last_nl) = bytes.iter().rposition(|&b| b == b'\n') else {
            return (String::new(), offset);
        };
        bytes.truncate(last_nl + 1);
        let new_offset = offset + bytes.len() as u64;
        (String::from_utf8_lossy(&bytes).into_owned(), new_offset)
    }
}

/// Appends the current telemetry snapshot to `events/metrics.jsonl` in
/// the spool as one `{"ts":…,"event":"metrics","data":{…}}` line.
/// No-op while telemetry is disabled; write failures are swallowed like
/// every other log append.
pub fn append_metrics(spool: &Spool) {
    if !oblx_telemetry::enabled() {
        return;
    }
    let ts = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0);
    let line = format!(
        "{{\"ts\":{ts},\"event\":\"metrics\",\"data\":{}}}\n",
        oblx_telemetry::Snapshot::capture().to_json()
    );
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(spool.events_dir().join("metrics.jsonl"))
    {
        let _ = f.write_all(line.as_bytes());
    }
}

/// The `data` object of the newest intact `metrics` line in the spool,
/// if any daemon has written one.
pub fn last_metrics(spool: &Spool) -> Option<Value> {
    let text = std::fs::read_to_string(spool.events_dir().join("metrics.jsonl")).ok()?;
    json::parse_lines(&text)
        .into_iter()
        .rev()
        .find(|v| v.get("event").and_then(Value::as_str) == Some("metrics"))
        .and_then(|v| v.get("data").cloned())
}

/// Renders a `metrics` snapshot object (as written by
/// [`append_metrics`]) for `oblxd status --metrics`.
pub fn render_metrics(data: &Value) -> String {
    let mut out = String::new();
    let counter = |name: &str| -> i64 {
        data.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_int)
            .unwrap_or(0)
    };
    if let Some(moves) = data.get("moves").and_then(Value::as_arr) {
        if !moves.is_empty() {
            let _ = writeln!(out, "move classes:");
        }
        for m in moves {
            let class = m.get("class").and_then(Value::as_str).unwrap_or("?");
            let attempts = m.get("attempts").and_then(Value::as_int).unwrap_or(0);
            let accepts = m.get("accepts").and_then(Value::as_int).unwrap_or(0);
            let rate = if attempts > 0 {
                100.0 * accepts as f64 / attempts as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {class:<18} {attempts:>9} attempts  {accepts:>9} accepts  ({rate:.1}% accept)"
            );
        }
    }
    if let Some(cost) = data.get("cost") {
        let samples = cost.get("samples").and_then(Value::as_int).unwrap_or(0);
        if samples > 0 {
            let _ = writeln!(out, "cost terms (mean over {samples} evals):");
            for key in ["c_obj", "c_perf", "c_dev", "c_dc", "total"] {
                let sum = cost
                    .get(&format!("{key}_sum"))
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0);
                let _ = writeln!(out, "  {:<8} {:>14.6}", key, sum / samples as f64);
            }
        }
    }
    let _ = writeln!(
        out,
        "eval paths: {} cold / {} full / {} incremental / {} cached / {} failed",
        counter("eval_cold"),
        counter("eval_full"),
        counter("eval_incremental"),
        counter("eval_cached"),
        counter("eval_failure"),
    );
    let _ = writeln!(
        out,
        "awe: {} fits ({} no-model, {} unstable, {} dropped poles), {} dc-only   \
         lu: {} factors, {} ill-conditioned",
        counter("awe_fit"),
        counter("awe_no_model"),
        counter("awe_unstable"),
        counter("awe_dropped_poles"),
        counter("awe_dc_only"),
        counter("lu_factor"),
        counter("lu_ill_conditioned"),
    );
    let _ = writeln!(
        out,
        "jobs: {} corrupt quarantined, {} seed panics caught, {} cancelled",
        counter("job_corrupt"),
        counter("seed_panic"),
        counter("job_cancelled"),
    );
    if counter("lease_acquired") > 0 || counter("lease_reaped") > 0 || counter("seed_stolen") > 0 {
        let _ = writeln!(
            out,
            "cluster: {} leases acquired ({} released, {} reaped, {} lost), \
             {} seeds stolen",
            counter("lease_acquired"),
            counter("lease_released"),
            counter("lease_reaped"),
            counter("lease_lost"),
            counter("seed_stolen"),
        );
    }
    if counter("http_request") > 0
        || counter("http_quota_rejected") > 0
        || counter("http_admission_rejected") > 0
    {
        let _ = writeln!(
            out,
            "http: {} requests ({} 4xx, {} 5xx), {} quota-rejected, {} shed at admission",
            counter("http_request"),
            counter("http_4xx"),
            counter("http_5xx"),
            counter("http_quota_rejected"),
            counter("http_admission_rejected"),
        );
    }
    if let Some(workers) = data.get("workers").and_then(Value::as_arr) {
        for w in workers {
            let idx = w.get("worker").and_then(Value::as_int).unwrap_or(0);
            let busy = w.get("busy_ns").and_then(Value::as_int).unwrap_or(0) as f64;
            let idle = w.get("idle_ns").and_then(Value::as_int).unwrap_or(0) as f64;
            let tasks = w.get("tasks").and_then(Value::as_int).unwrap_or(0);
            let util = if busy + idle > 0.0 {
                100.0 * busy / (busy + idle)
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  w{idx}: {util:.0}% busy ({:.1}s busy / {:.1}s idle, {tasks} tasks)",
                busy / 1e9,
                idle / 1e9,
            );
        }
    }
    out
}

/// Progress of one claimed job, reconstructed from its event log.
#[derive(Debug, Clone)]
pub struct JobProgress {
    /// Job id.
    pub id: String,
    /// Job name.
    pub name: String,
    /// Seeds in the job.
    pub seeds_total: usize,
    /// Seeds finished so far.
    pub seeds_done: usize,
    /// Latest checkpointed proposal count per in-flight seed.
    pub seed_attempted: BTreeMap<u64, usize>,
    /// Per-seed proposal budget.
    pub moves_budget: usize,
}

/// One worker's live state, from its pool's host file
/// (`hosts/<host>.json`; every host sharing the spool writes one).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerState {
    /// Host the worker belongs to.
    pub host: String,
    /// Worker index within its host.
    pub worker: usize,
    /// `true` while running a seed task.
    pub busy: bool,
    /// Job id of the current task, if busy.
    pub job: Option<String>,
    /// Seed of the current task, if busy.
    pub seed: Option<u64>,
    /// Seed tasks completed by this worker so far.
    pub tasks_done: usize,
}

/// Aggregated spool state behind `oblxd status`.
#[derive(Debug, Clone)]
pub struct Status {
    /// Pending jobs in claim order: `(id, name, priority, seeds)`.
    pub queued: Vec<(String, String, i64, usize)>,
    /// Claimed jobs with their per-seed progress.
    pub running: Vec<JobProgress>,
    /// Finished jobs by id, as `(id, name, status, fixed_cost)`: the
    /// status is `ok` or `failed`, and the cost is the winning seed's
    /// (none for a failed job).
    pub done: Vec<(String, String, String, Option<f64>)>,
    /// Jobs retired into the `cancelled` terminal state.
    pub cancelled: usize,
    /// Live worker states, across every host that wrote a host file.
    pub workers: Vec<WorkerState>,
    /// Host files (host id, worker count, beat counter).
    pub hosts: Vec<crate::spool::HostInfo>,
}

impl Status {
    /// Queue depth (pending jobs).
    pub fn queue_depth(&self) -> usize {
        self.queued.len()
    }

    /// Busy worker fraction in `[0, 1]`, or `None` without worker rows.
    pub fn utilization(&self) -> Option<f64> {
        if self.workers.is_empty() {
            return None;
        }
        let busy = self.workers.iter().filter(|w| w.busy).count();
        Some(busy as f64 / self.workers.len() as f64)
    }

    /// Renders the human-readable status report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let done_ok = self.done.iter().filter(|d| d.2 == "ok").count();
        let _ = writeln!(
            out,
            "queue depth {}   running {}   done {} ok / {} failed   cancelled {}",
            self.queue_depth(),
            self.running.len(),
            done_ok,
            self.done.len() - done_ok,
            self.cancelled
        );
        match self.utilization() {
            Some(u) => {
                let busy = self.workers.iter().filter(|w| w.busy).count();
                let _ = writeln!(
                    out,
                    "workers {}/{} busy ({:.0}% utilization)",
                    busy,
                    self.workers.len(),
                    100.0 * u
                );
                let multi_host = self.hosts.len() > 1
                    || self.workers.iter().any(|w| w.host != self.workers[0].host);
                for w in &self.workers {
                    let tag = if multi_host {
                        format!("{}/w{}", w.host, w.worker)
                    } else {
                        format!("w{}", w.worker)
                    };
                    match (&w.job, w.seed) {
                        (Some(job), Some(seed)) => {
                            let _ = writeln!(
                                out,
                                "  {tag}: {} seed {} ({} tasks done)",
                                job, seed, w.tasks_done
                            );
                        }
                        _ => {
                            let _ = writeln!(out, "  {tag}: idle ({} tasks done)", w.tasks_done);
                        }
                    }
                }
            }
            None => {
                let _ = writeln!(out, "workers: no live snapshot (daemon not running?)");
            }
        }
        if !self.hosts.is_empty() {
            let _ = write!(out, "hosts:");
            for h in &self.hosts {
                let _ = write!(out, " {} ({} workers, beat {})", h.host, h.workers, h.beat);
            }
            let _ = writeln!(out);
        }
        for job in &self.running {
            let moved: usize = job.seed_attempted.values().sum();
            let _ = writeln!(
                out,
                "  running {} ({}): {}/{} seeds done, {} proposals checkpointed \
                 (budget {}/seed)",
                job.id, job.name, job.seeds_done, job.seeds_total, moved, job.moves_budget
            );
        }
        for (id, name, priority, seeds) in &self.queued {
            let _ = writeln!(
                out,
                "  queued  {id} ({name}): {seeds} seed(s), priority {priority}"
            );
        }
        for (id, name, status, cost) in &self.done {
            let cost = cost.map(|c| format!(", cost {c:.4}")).unwrap_or_default();
            let _ = writeln!(out, "  done    {id} ({name}): {status}{cost}");
        }
        out
    }
}

/// Reconstructs one job's progress from its event log.
pub fn job_progress(spool: &Spool, job: &jobs::JobFile) -> JobProgress {
    let mut progress = JobProgress {
        id: job.id.clone(),
        name: job.request.name.clone(),
        seeds_total: job.request.seeds.len(),
        seeds_done: 0,
        seed_attempted: BTreeMap::new(),
        moves_budget: job.request.options.moves_budget,
    };
    for event in EventLog::open(spool, &job.id).read() {
        let kind = event.get("event").and_then(Value::as_str).unwrap_or("");
        let seed = event
            .get("seed")
            .and_then(Value::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok());
        match (kind, seed) {
            ("checkpoint", Some(seed)) => {
                if let Some(attempted) = event
                    .get("attempted")
                    .and_then(Value::as_int)
                    .and_then(|i| usize::try_from(i).ok())
                {
                    progress.seed_attempted.insert(seed, attempted);
                }
            }
            ("seed_done", Some(seed)) => {
                progress.seeds_done += 1;
                progress.seed_attempted.remove(&seed);
            }
            _ => {}
        }
    }
    progress
}

/// Aggregates the whole spool into a [`Status`].
pub fn status(spool: &Spool) -> Status {
    let queued = spool
        .pending()
        .into_iter()
        .map(|j| {
            (
                j.id,
                j.request.name,
                j.request.priority,
                j.request.seeds.len(),
            )
        })
        .collect();
    let running = spool
        .running()
        .iter()
        .map(|j| job_progress(spool, j))
        .collect();
    let done = spool
        .done_ids()
        .into_iter()
        .map(|id| {
            let record = spool.done(&id);
            let field = |key: &str| -> Option<&Value> { record.as_ref()?.get(key) };
            let text = |key: &str| {
                field(key)
                    .and_then(Value::as_str)
                    .unwrap_or("?")
                    .to_string()
            };
            let cost = field("fixed_cost").and_then(|v| jobs::f64_from_value(v).ok());
            (id, text("name"), text("status"), cost)
        })
        .collect();
    let workers = read_workers(spool);
    Status {
        queued,
        running,
        done,
        cancelled: spool.cancelled_ids().len(),
        workers,
        hosts: spool.hosts(),
    }
}

/// Every host's worker rows, read from the host files. Pub because
/// the HTTP edge's cluster view reuses it.
pub fn read_workers(spool: &Spool) -> Vec<WorkerState> {
    spool
        .hosts()
        .into_iter()
        .flat_map(|h| h.worker_state)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use astrx_oblx::jobs::JobRequest;
    use astrx_oblx::SynthesisOptions;

    fn temp_spool(tag: &str) -> Spool {
        let root = std::env::temp_dir().join(format!(
            "oblx-events-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        Spool::open(root).unwrap()
    }

    #[test]
    fn events_append_and_skip_torn_tail() {
        let spool = temp_spool("append");
        let log = EventLog::open(&spool, "j1");
        log.emit("submitted", &[("name", "amp".into())]);
        log.emit("started", &[]);
        // Simulate a crash mid-append.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(spool.events_dir().join("j1.jsonl"))
                .unwrap();
            f.write_all(b"{\"ts\":12,\"event\":\"chec").unwrap();
        }
        let events = log.read();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("event").unwrap().as_str(), Some("submitted"));
        assert_eq!(events[1].get("event").unwrap().as_str(), Some("started"));
        std::fs::remove_dir_all(spool.root()).unwrap();
    }

    #[test]
    fn read_raw_from_tails_complete_lines_only() {
        let spool = temp_spool("tail");
        let log = EventLog::open(&spool, "j1");
        let (chunk, offset) = log.read_raw_from(0);
        assert_eq!((chunk.as_str(), offset), ("", 0), "no log yet");
        log.emit("submitted", &[]);
        log.emit("started", &[]);
        let (chunk, offset) = log.read_raw_from(0);
        assert_eq!(chunk.lines().count(), 2);
        assert_eq!(offset, chunk.len() as u64);
        // Nothing new: same offset back.
        let (chunk2, offset2) = log.read_raw_from(offset);
        assert_eq!((chunk2.as_str(), offset2), ("", offset));
        // A torn append is held back until its newline lands.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(spool.events_dir().join("j1.jsonl"))
                .unwrap();
            f.write_all(b"{\"ts\":9,\"event\":\"par").unwrap();
        }
        let (chunk3, offset3) = log.read_raw_from(offset);
        assert_eq!((chunk3.as_str(), offset3), ("", offset));
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(spool.events_dir().join("j1.jsonl"))
                .unwrap();
            f.write_all(b"tial\"}\n").unwrap();
        }
        let (chunk4, offset4) = log.read_raw_from(offset);
        assert_eq!(chunk4, "{\"ts\":9,\"event\":\"partial\"}\n");
        assert_eq!(offset4, offset + chunk4.len() as u64);
        std::fs::remove_dir_all(spool.root()).unwrap();
    }

    #[test]
    fn status_aggregates_queue_and_progress() {
        let spool = temp_spool("status");
        let req = |name: &str| JobRequest {
            name: name.into(),
            source: ".end\n".into(),
            deck: String::new(),
            options: SynthesisOptions {
                moves_budget: 1000,
                ..SynthesisOptions::default()
            },
            seeds: vec![1, 2],
            priority: 0,
        };
        spool.submit(req("waiting")).unwrap();
        spool.submit(req("active")).unwrap();
        let job = spool.claim_next().unwrap();
        let log = EventLog::open(&spool, &job.id);
        log.emit(
            "checkpoint",
            &[("seed", "1".into()), ("attempted", 400usize.into())],
        );
        log.emit("seed_done", &[("seed", "2".into())]);
        let record = ObjBuilder::new()
            .field("name", "finished")
            .field("status", "ok")
            .field("fixed_cost", jobs::f64_to_value(1.5))
            .build();
        spool.complete("j000009", &record).unwrap();

        let s = status(&spool);
        assert_eq!(s.queue_depth(), 1);
        assert_eq!(s.running.len(), 1);
        assert_eq!(s.running[0].seeds_done, 1);
        assert_eq!(s.running[0].seed_attempted.get(&1), Some(&400));
        assert_eq!(s.utilization(), None, "no worker snapshot yet");
        let text = s.render();
        assert!(text.contains("queue depth 1"));
        assert!(text.contains("done 1 ok / 0 failed"), "{text}");
        assert!(
            text.contains("  done    j000009 (finished): ok, cost 1.5000\n"),
            "{text}"
        );
        std::fs::remove_dir_all(spool.root()).unwrap();
    }
}
