//! The timed window: one submitter thread and one status poller, each
//! on its own keep-alive connection, driving a [`Plan`] through the
//! service until every job's result has been fetched.

use crate::client::{Client, Response};
use crate::workload::{Load, Plan};
use astrx_oblx::json::{self, Value};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Status reads per second, round-robin over outstanding jobs.
const POLL_RATE: f64 = 100.0;

/// One submitted job, as the client saw it.
#[derive(Debug, Clone)]
pub struct JobRun {
    /// Index into the plan's jobs.
    pub index: usize,
    /// Spool id from the 201.
    pub id: String,
    /// Unix time the job was due.
    pub due_wall: f64,
    /// Seconds from due to the start of the POST.
    pub late_s: f64,
    /// The result record, once fetched.
    pub result: Option<Value>,
}

/// Everything the window measured.
#[derive(Debug, Default)]
pub struct Window {
    /// Jobs that were accepted, in submission order.
    pub jobs: Vec<JobRun>,
    /// POSTs that were not answered 201.
    pub rejected: usize,
    /// Round-trip seconds of each `POST /v1/jobs`.
    pub submit_rtt: Vec<f64>,
    /// Round-trip seconds of each `GET /v1/jobs/:id`.
    pub status_rtt: Vec<f64>,
    /// Round-trip seconds of each `GET /v1/jobs/:id/result`.
    pub result_rtt: Vec<f64>,
    /// Status reads answered 404 for a job the edge had accepted.
    pub live_404: usize,
    /// HTTP requests answered with any other unexpected status.
    pub http_failed: usize,
    /// Connections the client had to open again.
    pub reconnects: usize,
    /// Unix time the first POST started.
    pub first_send_wall: f64,
}

impl Window {
    /// HTTP requests made in the window.
    pub fn http_ops(&self) -> usize {
        self.submit_rtt.len() + self.status_rtt.len() + self.result_rtt.len()
    }
}

struct Shared {
    window: Window,
    /// Indices into `window.jobs` not yet seen done.
    outstanding: VecDeque<usize>,
    /// Jobs finished (result fetched or POST rejected).
    finished: usize,
    submitting: bool,
    error: Option<String>,
}

/// Unix time now, in seconds.
fn unix_now() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}

/// Drives `plan` against the service at `addr`. Returns once every
/// accepted job's result is fetched.
///
/// # Errors
///
/// Connection failures, or a run still unfinished at `deadline`.
pub fn run_window(addr: SocketAddr, plan: &Plan, deadline: Instant) -> Result<Window, String> {
    let shared = Mutex::new(Shared {
        window: Window::default(),
        outstanding: VecDeque::new(),
        finished: 0,
        submitting: true,
        error: None,
    });
    let progress = Condvar::new();
    let t0 = Instant::now();
    let w0 = unix_now();
    let fail = |msg: String| {
        let mut s = shared.lock().expect("no generator thread panics");
        s.error.get_or_insert(msg);
        s.submitting = false;
        progress.notify_all();
    };
    std::thread::scope(|scope| {
        scope.spawn(|| {
            if let Err(e) = submit_all(addr, plan, t0, w0, &shared, &progress, deadline) {
                fail(e);
            }
        });
        scope.spawn(|| {
            if let Err(e) = poll_all(addr, &shared, &progress, deadline) {
                fail(e);
            }
        });
    });
    let shared = shared.into_inner().expect("no generator thread panics");
    match shared.error {
        Some(e) => Err(e),
        None => Ok(shared.window),
    }
}

fn submit_all(
    addr: SocketAddr,
    plan: &Plan,
    t0: Instant,
    w0: f64,
    shared: &Mutex<Shared>,
    progress: &Condvar,
    deadline: Instant,
) -> Result<(), String> {
    let mut client = Client::new(addr);
    let lock = || shared.lock().expect("no generator thread panics");
    for (index, spec) in plan.jobs.iter().enumerate() {
        let due = match plan.load {
            Load::Open => {
                let due = t0 + Duration::from_secs_f64(spec.due_s);
                sleep_until(due);
                due
            }
            Load::Closed => {
                let mut s = lock();
                while s.finished < index && s.error.is_none() {
                    let (guard, _) = progress
                        .wait_timeout(s, Duration::from_millis(50))
                        .expect("no generator thread panics");
                    s = guard;
                    if Instant::now() > deadline {
                        return Err("closed loop: previous job not done by the deadline".into());
                    }
                }
                if s.error.is_some() {
                    return Ok(());
                }
                Instant::now()
            }
        };
        let name = format!("{}-{index}", plan.workload.name());
        let body = spec.body(&name);
        let send = Instant::now();
        let send_wall = w0 + (send - t0).as_secs_f64();
        let response = client
            .request("POST", "/v1/jobs", &body)
            .map_err(|e| format!("POST /v1/jobs: {e}"))?;
        let rtt = send.elapsed().as_secs_f64();
        let id = (response.status == 201)
            .then(|| field(&response, "id"))
            .flatten();
        let mut s = lock();
        if s.window.submit_rtt.is_empty() {
            s.window.first_send_wall = send_wall;
        }
        s.window.submit_rtt.push(rtt);
        match id {
            Some(id) => {
                let slot = s.window.jobs.len();
                s.window.jobs.push(JobRun {
                    index,
                    id,
                    due_wall: w0 + (due - t0).as_secs_f64(),
                    late_s: (send - due).as_secs_f64(),
                    result: None,
                });
                s.outstanding.push_back(slot);
            }
            None => {
                s.window.rejected += 1;
                s.window.http_failed += 1;
                s.finished += 1;
                progress.notify_all();
            }
        }
    }
    let mut s = lock();
    s.submitting = false;
    s.window.reconnects += client.reconnects;
    Ok(())
}

fn poll_all(
    addr: SocketAddr,
    shared: &Mutex<Shared>,
    progress: &Condvar,
    deadline: Instant,
) -> Result<(), String> {
    let mut client = Client::new(addr);
    let lock = || shared.lock().expect("no generator thread panics");
    let interval = Duration::from_secs_f64(1.0 / POLL_RATE);
    let mut next = Instant::now();
    loop {
        sleep_until(next);
        next = (next + interval).max(Instant::now());
        let picked = {
            let mut s = lock();
            if s.error.is_some() || (!s.submitting && s.outstanding.is_empty()) {
                s.window.reconnects += client.reconnects;
                return Ok(());
            }
            s.outstanding
                .pop_front()
                .map(|slot| (slot, s.window.jobs[slot].id.clone()))
        };
        if Instant::now() > deadline {
            return Err("jobs still outstanding at the deadline".into());
        }
        let Some((slot, id)) = picked else { continue };
        let t = Instant::now();
        let status = client
            .request("GET", &format!("/v1/jobs/{id}"), "")
            .map_err(|e| format!("GET /v1/jobs/{id}: {e}"))?;
        let rtt = t.elapsed().as_secs_f64();
        let done = status.status == 200 && field(&status, "state").as_deref() == Some("done");
        let result = if done {
            let t = Instant::now();
            let r = client
                .request("GET", &format!("/v1/jobs/{id}/result"), "")
                .map_err(|e| format!("GET /v1/jobs/{id}/result: {e}"))?;
            Some((r, t.elapsed().as_secs_f64()))
        } else {
            None
        };
        let mut s = lock();
        s.window.status_rtt.push(rtt);
        match status.status {
            200 => {}
            // The job was accepted with a 201, so it is live: this is
            // the finalize window, where the job file has left
            // `running/` and its result is not yet in `done/`.
            404 => s.window.live_404 += 1,
            _ => s.window.http_failed += 1,
        }
        match result {
            Some((r, rtt)) => {
                s.window.result_rtt.push(rtt);
                if r.status == 200 {
                    s.window.jobs[slot].result = json::parse(&r.text()).ok();
                } else {
                    s.window.http_failed += 1;
                }
                s.finished += 1;
                progress.notify_all();
            }
            None => s.outstanding.push_back(slot),
        }
    }
}

/// A top-level string field of a JSON response body.
fn field(response: &Response, key: &str) -> Option<String> {
    json::parse(&response.text())
        .ok()?
        .get(key)?
        .as_str()
        .map(str::to_string)
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}
