//! The cluster worker pool.
//!
//! A claimed job is *sharded* onto disk: one `seeds/<id>/s<seed>.open`
//! entry per unfinished seed (see [`Spool::shard_job`]). Workers — in
//! this process **and in every other daemon sharing the spool** — claim
//! entries by atomic rename, so an 8-seed job claimed by one host
//! immediately spreads across every idle core of every host. The local
//! claim path keeps a cached scan ([`ClaimCursor`] for jobs, a shared
//! deque for seed entries) so contention costs O(1) per lost claim,
//! not a directory rescan.
//!
//! Determinism: a per-seed run is a pure function of (problem, options,
//! seed) — workers never share annealing state — so neither the worker
//! count, the steal order, nor the host placement can change any
//! result, only wall-clock time. Interruption (shutdown flag, SIGKILL,
//! a lease taken over) leaves fence-named per-seed checkpoints behind;
//! any daemon resumes each unfinished seed bit-identically, and
//! completed seeds are replayed from their `seed_<s>.done.json` records
//! rather than re-run.
//!
//! Liveness: the thread that calls [`run`] beats this host's file
//! (`hosts/<host>.json`) on every tick while the workers run, busy or
//! idle. An idle worker's reaper tick takes over the leases of every
//! host whose beat has not changed for the lease timeout, through the
//! same [`Spool::take_over`] a restarted host runs in
//! [`Spool::recover`]: seeds re-open at a bumped fence, jobs go back to
//! the queue. A holder whose lease was taken over finds out at its next
//! checkpoint and abandons the seed; its stale checkpoints carry a
//! lower fence in their *filenames*, so they can never shadow the new
//! holder's state.

use crate::compile_job;
use crate::events::EventLog;
use crate::spool::{ClaimCursor, LeaseName, SeedEntry, Spool};
use astrx_oblx::jobs::{self, JobFile};
use astrx_oblx::json::{ObjBuilder, Value};
use astrx_oblx::oblx::{fixed_cost, OblxState};
use astrx_oblx::{CompiledProblem, SynthesisOptions, SynthesisOutcome};
use oblx_anneal::Directive;
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Pool configuration.
#[derive(Debug, Clone)]
pub struct PoolOptions {
    /// Worker threads; `0` means one per available core.
    pub workers: usize,
    /// Proposals between checkpoints of each per-seed run.
    pub checkpoint_every: usize,
    /// When `true`, return once the spool is drained; otherwise keep
    /// polling for new jobs until `shutdown` is raised.
    pub drain: bool,
    /// How long a host's beat may sit unchanged before its peers take
    /// over its leases.
    pub lease_timeout: Duration,
}

impl Default for PoolOptions {
    fn default() -> Self {
        PoolOptions {
            workers: 0,
            checkpoint_every: 2_000,
            drain: false,
            lease_timeout: Duration::from_secs(30),
        }
    }
}

/// What a `run` accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Jobs finished with a result.
    pub jobs_completed: usize,
    /// Jobs finished in failure (compile error or every seed failed).
    pub jobs_failed: usize,
    /// Jobs retired into the `cancelled` terminal state.
    pub jobs_cancelled: usize,
    /// Undecodable job files quarantined out of the spool.
    pub jobs_corrupt: usize,
    /// Seed tasks executed to completion.
    pub seeds_run: usize,
    /// Seed tasks that panicked (caught; the worker survived).
    pub seeds_panicked: usize,
    /// Seed tasks claimed from a job another host shard-owns.
    pub seeds_stolen: usize,
    /// Leases of dead hosts taken over (work re-opened for the cluster).
    pub leases_reaped: usize,
}

/// One finished (or failed) per-seed run — the plain-data record that
/// survives in `ckpt/<id>/seed_<seed>.done.json` until the whole job
/// finalizes.
#[derive(Debug, Clone)]
struct SeedRecord {
    seed: u64,
    fixed_cost: f64,
    best_cost: f64,
    kcl_max: f64,
    evaluations: usize,
    attempted: usize,
    wall_seconds: f64,
    state: OblxState,
    failed: bool,
}

/// A job spec with its compiled problem, cached per pool run so a host
/// compiles each job at most once however many of its seeds it runs.
struct PreparedJob {
    file: JobFile,
    compiled: CompiledProblem,
}

#[derive(Debug, Clone, Default)]
struct WorkerSnap {
    busy: bool,
    job: Option<String>,
    seed: Option<u64>,
    tasks_done: usize,
}

/// What this host's file says: its beat and one row per worker.
struct HostState {
    beat: u64,
    snaps: Vec<WorkerSnap>,
}

/// Why a per-seed run's checkpoint hook said [`Directive::Stop`].
#[derive(Debug, Clone, Copy)]
enum StopCause {
    /// It didn't (the run finished, failed, or panicked).
    Ran,
    /// Shutdown flag raised.
    Shutdown,
    /// Cancel tombstone appeared.
    Cancelled,
    /// The seed's lease is gone or someone else's: fenced out.
    LeaseLost,
}

/// Claim-path state shared by the local workers.
#[derive(Default)]
struct ClaimState {
    jobs: ClaimCursor,
    seeds: VecDeque<SeedEntry>,
}

/// Reaper state: each lease owner's `(pid, beat)` (`None`: no host
/// file) and when this host first saw it, plus the tick clock.
struct Reaper {
    beats: HashMap<String, (Option<(u32, u64)>, Instant)>,
    last_tick: Option<Instant>,
}

struct Shared<'a> {
    spool: &'a Spool,
    opts: &'a PoolOptions,
    shutdown: &'a AtomicBool,
    claim: Mutex<ClaimState>,
    prepared: Mutex<HashMap<String, Option<Arc<PreparedJob>>>>,
    /// Local seed tasks and job claims not yet finished or handed back.
    inflight: AtomicUsize,
    host: Mutex<HostState>,
    stats: Mutex<RunStats>,
    reaper: Mutex<Reaper>,
}

/// Runs the pool over `spool` until drained (with
/// [`PoolOptions::drain`]) or until `shutdown` is raised. Call
/// [`Spool::recover`] first, as every daemon does at startup. Several
/// daemons may run this concurrently over one spool; drain mode waits
/// for the *whole* spool (including peers' in-flight work, which it
/// will take over and finish if they die).
pub fn run(spool: &Spool, opts: &PoolOptions, shutdown: &AtomicBool) -> RunStats {
    let workers = if opts.workers == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        opts.workers
    };
    let shared = Shared {
        spool,
        opts,
        shutdown,
        claim: Mutex::new(ClaimState::default()),
        prepared: Mutex::new(HashMap::new()),
        inflight: AtomicUsize::new(0),
        host: Mutex::new(HostState {
            beat: 0,
            snaps: vec![WorkerSnap::default(); workers],
        }),
        stats: Mutex::new(RunStats::default()),
        reaper: Mutex::new(Reaper {
            beats: HashMap::new(),
            last_tick: None,
        }),
    };
    // Written before any worker starts, so readers see every row.
    write_host(&shared, |_| {});
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..workers)
            .map(|w| {
                let shared = &shared;
                scope.spawn(move || worker_loop(shared, w))
            })
            .collect();
        // This thread beats the host file until the last worker is done.
        let mut next = Instant::now() + tick(opts);
        while !workers.iter().all(|w| w.is_finished()) {
            if Instant::now() >= next {
                write_host(&shared, |h| h.beat += 1);
                next = Instant::now() + tick(opts);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    });
    let stats = *shared.stats.lock().unwrap();
    write_host(&shared, |_| {}); // final rows: everyone idle
    crate::events::append_metrics(spool);
    stats
}

/// The period of the beat and of the reaper: a quarter of the lease
/// timeout, within [10 ms, 5 s].
fn tick(opts: &PoolOptions) -> Duration {
    (opts.lease_timeout / 4).clamp(Duration::from_millis(10), Duration::from_secs(5))
}

/// Whether the pool must stop: shutdown, or (in tests) a crashed spool.
fn stopping(shared: &Shared<'_>) -> bool {
    shared.shutdown.load(Ordering::SeqCst) || shared.spool.crashed()
}

fn worker_loop(shared: &Shared<'_>, w: usize) {
    let mut idle_since = Instant::now();
    loop {
        if stopping(shared) {
            return;
        }
        // Per-seed entries first: they are ready-to-run work (possibly
        // another host's), while a queue claim costs a compile.
        if let Some(entry) = claim_seed_task(shared) {
            let start = Instant::now();
            oblx_telemetry::record_worker_time(w, 0, (start - idle_since).as_nanos() as u64);
            run_seed_entry(shared, w, entry);
            oblx_telemetry::record_worker_task(w);
            idle_since = Instant::now();
            oblx_telemetry::record_worker_time(w, (idle_since - start).as_nanos() as u64, 0);
            continue;
        }
        let mut pause = Duration::from_millis(5);
        let claimed = {
            let mut claim = shared.claim.lock().unwrap();
            let job = shared.spool.claim_next_from(&mut claim.jobs);
            if job.is_none() {
                pause = pause.max(claim.jobs.backoff());
            }
            job
        };
        if let Some(job) = claimed {
            shared.inflight.fetch_add(1, Ordering::SeqCst);
            claim_and_shard(shared, job);
            shared.inflight.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        // Anything left in queue/ that didn't claim is undecodable:
        // quarantine it so it stops haunting every scan, and leave an
        // operator-visible trace instead of the old silent skip.
        let corrupt = shared.spool.quarantine_corrupt();
        if !corrupt.is_empty() {
            for id in &corrupt {
                EventLog::open(shared.spool, id).emit("job_corrupt", &[]);
                oblx_telemetry::incr(oblx_telemetry::Counter::JobCorrupt);
            }
            shared.stats.lock().unwrap().jobs_corrupt += corrupt.len();
        }
        reap(shared);
        if shared.opts.drain && drained(shared) {
            return;
        }
        std::thread::sleep(pause);
    }
}

/// Claims one open seed entry, preferring the shared cached scan.
/// Claim losers advance to the next cached candidate in O(1); the
/// scan is refreshed only when the cache runs dry.
fn claim_seed_task(shared: &Shared<'_>) -> Option<SeedEntry> {
    let mut claim = shared.claim.lock().unwrap();
    for _ in 0..2 {
        if claim.seeds.is_empty() {
            claim.seeds = shared.spool.open_seed_entries().into();
        }
        while let Some(entry) = claim.seeds.pop_front() {
            if shared.spool.claim_seed(&entry) {
                shared.inflight.fetch_add(1, Ordering::SeqCst);
                return Some(entry);
            }
            // A peer won the claim; the next candidate is O(1) away.
        }
    }
    None
}

/// Whether the whole spool is quiescent. Scanned twice so a rename
/// straddling one scan (queue→running, open→run) cannot slip through;
/// the claim lock freezes local claimers meanwhile. A parked spec is a
/// retirement still under way.
fn drained(shared: &Shared<'_>) -> bool {
    if shared.inflight.load(Ordering::SeqCst) != 0 {
        return false;
    }
    let _guard = shared.claim.lock().unwrap();
    (0..2).all(|_| {
        shared.spool.pending().is_empty()
            && shared.spool.running().is_empty()
            && shared.spool.open_seed_entries().is_empty()
            && shared.spool.running_seed_entries().is_empty()
            && shared.spool.parked_job_ids().is_empty()
    })
}

fn claim_and_shard(shared: &Shared<'_>, job: JobFile) {
    let spool = shared.spool;
    // A tombstone that raced the claim: retire the job before wasting
    // a compile on it.
    if spool.cancel_requested(&job.id) {
        if spool
            .try_retire_cancelled(&job.id, &job.request.name)
            .unwrap_or(false)
        {
            shared.stats.lock().unwrap().jobs_cancelled += 1;
        }
        return;
    }
    let log = EventLog::open(spool, &job.id);
    let compiled = match compile_job(&job.request) {
        Ok(c) => c,
        Err(e) => {
            log.emit("failed", &[("error", e.as_str().into())]);
            let record = ObjBuilder::new()
                .field("format", "oblx-result")
                .field("version", 1i64)
                .field("id", job.id.as_str())
                .field("name", job.request.name.as_str())
                .field("status", "failed")
                .field("error", e.as_str())
                .build();
            let _ = spool.complete(&job.id, &record);
            shared.stats.lock().unwrap().jobs_failed += 1;
            return;
        }
    };
    let ckdir = spool.ckpt_dir(&job.id);
    let _ = std::fs::create_dir_all(&ckdir);
    let replayed = job
        .request
        .seeds
        .iter()
        .filter(|&&s| seed_done_path(&ckdir, s).exists())
        .count();
    let _ = spool.shard_job(&job);
    log.emit(
        "started",
        &[
            ("seeds", job.request.seeds.len().into()),
            ("replayed", replayed.into()),
        ],
    );
    let prep = Arc::new(PreparedJob {
        file: job,
        compiled,
    });
    shared
        .prepared
        .lock()
        .unwrap()
        .insert(prep.file.id.clone(), Some(prep));
}

/// The compile cache: a host compiles each job at most once, whoever
/// sharded it. `None` is a remembered compile failure.
fn prepared_job(shared: &Shared<'_>, id: &str) -> Option<Arc<PreparedJob>> {
    if let Some(cached) = shared.prepared.lock().unwrap().get(id) {
        return cached.clone();
    }
    // A job taken over and requeued keeps its claimed seeds running: its
    // next claimer re-shards only the seeds with no entry, so dropping
    // the claim of a host that had not compiled the job could lose one.
    let file = shared.spool.read_live_job(id)?;
    // Compile deterministically fails everywhere or nowhere, and a
    // sharded job compiled on its sharding host — a failure here means
    // the spec changed under us, which cannot happen; remember it
    // defensively anyway.
    let prep = compile_job(&file.request)
        .ok()
        .map(|compiled| Arc::new(PreparedJob { file, compiled }));
    shared
        .prepared
        .lock()
        .unwrap()
        .entry(id.to_string())
        .or_insert_with(|| prep.clone());
    prep
}

fn run_seed_entry(shared: &Shared<'_>, w: usize, entry: SeedEntry) {
    let spool = shared.spool;
    let seed = entry.seed;
    let Some(prep) = prepared_job(shared, &entry.job) else {
        // Job spec gone (terminal under us) or uncompilable: drop the
        // claim so the entry cannot wedge drain.
        spool.finish_seed(&entry);
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        return;
    };
    let log = EventLog::open(spool, &entry.job);
    if let Some(lease) = spool.read_lease(&LeaseName::job(&entry.job)) {
        if lease.owner != spool.host() {
            oblx_telemetry::incr(oblx_telemetry::Counter::SeedStolen);
            shared.stats.lock().unwrap().seeds_stolen += 1;
            log.emit(
                "seed_stolen",
                &[
                    ("seed", jobs::u64_to_value(seed)),
                    ("from", lease.owner.as_str().into()),
                ],
            );
        }
    }
    if spool.cancel_requested(&entry.job) {
        log.emit("seed_cancelled", &[("seed", jobs::u64_to_value(seed))]);
        spool.finish_seed(&entry);
        retire_if_cancelled(shared, &prep.file);
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        return;
    }
    set_snap(shared, w, |s| {
        s.busy = true;
        s.job = Some(entry.job.clone());
        s.seed = Some(seed);
    });
    log.emit(
        "seed_started",
        &[
            ("seed", jobs::u64_to_value(seed)),
            ("fence", jobs::u64_to_value(entry.fence)),
        ],
    );
    let run_opts = SynthesisOptions {
        seed,
        ..prep.file.request.options.clone()
    };
    let ckdir = spool.ckpt_dir(&entry.job);
    let _ = std::fs::create_dir_all(&ckdir);
    // A panicking seed (a bug, or pathological numerics) must not
    // unwind through `std::thread::scope` and take the whole daemon —
    // and every sibling seed — down with it. Catch it and record the
    // seed as failed; determinism is untouched since the seed produced
    // no result either way.
    let mut cause = StopCause::Ran;
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        jobs::run_seed_resumable(
            &prep.compiled,
            &run_opts,
            &ckdir,
            shared.opts.checkpoint_every,
            entry.fence,
            |ck| {
                log.emit(
                    "checkpoint",
                    &[
                        ("seed", jobs::u64_to_value(seed)),
                        ("attempted", ck.engine.attempted.into()),
                        ("cost", ck.engine.cost.into()),
                        ("best_cost", ck.engine.best_cost.into()),
                    ],
                );
                if stopping(shared) {
                    cause = StopCause::Shutdown;
                    return Directive::Stop;
                }
                if spool.cancel_requested(&entry.job) {
                    cause = StopCause::Cancelled;
                    return Directive::Stop;
                }
                if !spool.holds_lease(&LeaseName::seed(&entry.job, seed), entry.fence) {
                    cause = StopCause::LeaseLost;
                    return Directive::Stop;
                }
                Directive::Continue
            },
        )
    }));
    let record = match attempt {
        Err(payload) => {
            let msg = panic_message(payload.as_ref());
            log.emit(
                "seed_panic",
                &[
                    ("seed", jobs::u64_to_value(seed)),
                    ("error", msg.as_str().into()),
                ],
            );
            oblx_telemetry::incr(oblx_telemetry::Counter::SeedPanic);
            shared.stats.lock().unwrap().seeds_panicked += 1;
            Some(failed_seed_record(seed))
        }
        Ok(Ok(SynthesisOutcome::Complete(result))) => {
            let fc = fixed_cost(&prep.compiled, &result.state);
            Some(SeedRecord {
                seed,
                fixed_cost: fc,
                best_cost: result.best_cost,
                kcl_max: result.kcl_max,
                evaluations: result.evaluations,
                attempted: result.attempted,
                wall_seconds: result.wall_seconds,
                state: result.state,
                failed: false,
            })
        }
        Ok(Ok(SynthesisOutcome::Interrupted(_))) => {
            match cause {
                StopCause::Cancelled => {
                    // Cancelled mid-run: abandoned for good, no done
                    // record — the job retires into `cancelled/` once
                    // its last live seed stops.
                    log.emit("seed_cancelled", &[("seed", jobs::u64_to_value(seed))]);
                    spool.finish_seed(&entry);
                    retire_if_cancelled(shared, &prep.file);
                }
                StopCause::LeaseLost => {
                    // Fenced out: the entry was taken over and belongs
                    // to someone else now. Touch nothing.
                    log.emit("seed_lost", &[("seed", jobs::u64_to_value(seed))]);
                }
                _ => {
                    // Shutdown: the checkpoint stays behind; re-open
                    // the entry (bumped fence) so live peers can pick
                    // it up immediately instead of waiting out the
                    // lease timeout.
                    log.emit("interrupted", &[("seed", jobs::u64_to_value(seed))]);
                    spool.reopen_seed(&entry);
                }
            }
            None
        }
        Ok(Err(e)) => {
            log.emit(
                "seed_failed",
                &[
                    ("seed", jobs::u64_to_value(seed)),
                    ("error", e.to_string().as_str().into()),
                ],
            );
            Some(failed_seed_record(seed))
        }
    };
    if let Some(record) = record {
        let _ = spool.write(&seed_done_path(&ckdir, seed), &seed_record_to_json(&record));
        let _ = spool.apply(|| {
            jobs::remove_checkpoints(&ckdir, seed);
            Ok(())
        });
        log.emit(
            "seed_done",
            &[
                ("seed", jobs::u64_to_value(seed)),
                ("fixed_cost", record.fixed_cost.into()),
                ("evaluations", record.evaluations.into()),
                ("failed", record.failed.into()),
            ],
        );
        shared.stats.lock().unwrap().seeds_run += 1;
        spool.finish_seed(&entry);
        maybe_finalize(shared, &prep.file);
    }
    shared.inflight.fetch_sub(1, Ordering::SeqCst);
    set_snap(shared, w, |s| {
        s.busy = false;
        s.job = None;
        s.seed = None;
        s.tasks_done += 1;
    });
}

/// Retires a tombstoned job once no live seed entry (any host's)
/// remains; the retirement itself is arbitrated cluster-wide by
/// [`Spool::try_retire_cancelled`].
fn retire_if_cancelled(shared: &Shared<'_>, file: &JobFile) {
    let spool = shared.spool;
    if !spool.cancel_requested(&file.id) || spool.has_live_seed_entries(&file.id) {
        return;
    }
    if spool
        .try_retire_cancelled(&file.id, &file.request.name)
        .unwrap_or(false)
    {
        shared.prepared.lock().unwrap().remove(&file.id);
        shared.stats.lock().unwrap().jobs_cancelled += 1;
        crate::events::append_metrics(spool);
    }
}

/// Finalizes the job once every seed carries a done record; the
/// arbitration rename ([`Spool::claim_finalize`]) picks one winner
/// across all hosts.
fn maybe_finalize(shared: &Shared<'_>, file: &JobFile) {
    let spool = shared.spool;
    if spool.cancel_requested(&file.id) {
        retire_if_cancelled(shared, file);
        return;
    }
    if all_seeds_done(spool, file) && spool.claim_finalize(&file.id) {
        finalize_from(shared, file);
    }
}

/// Whether every seed of the job carries a done record.
fn all_seeds_done(spool: &Spool, file: &JobFile) -> bool {
    let ckdir = spool.ckpt_dir(&file.id);
    file.request
        .seeds
        .iter()
        .all(|&s| seed_done_path(&ckdir, s).exists())
}

/// Aggregates the per-seed done records into the job's result file —
/// exactly [`astrx_oblx::oblx::synthesize_multi`]'s winner rule: lowest
/// frozen-final cost, NaN last, ties to the earlier seed in the list.
/// The caller must hold the finalize claim (the parked job spec).
///
/// A done record that exists but does not read back fails the job, with
/// an error naming its seed: a result never leaves out a requested run.
/// Retrying would not help, because the finalize claim is already taken
/// and the record will not change.
fn finalize_from(shared: &Shared<'_>, file: &JobFile) {
    let spool = shared.spool;
    let ckdir = spool.ckpt_dir(&file.id);
    let (records, error) = match file
        .request
        .seeds
        .iter()
        .map(|&s| read_seed_done(&ckdir, s).ok_or(s))
        .collect::<Result<Vec<SeedRecord>, u64>>()
    {
        Ok(records) => (records, "every seed failed".to_string()),
        Err(seed) => (
            Vec::new(),
            format!("seed {seed}: done record is unreadable"),
        ),
    };
    let mut best: Option<(f64, usize)> = None;
    for (i, rec) in records.iter().enumerate() {
        if rec.failed {
            continue;
        }
        let key = if rec.fixed_cost.is_nan() {
            f64::INFINITY
        } else {
            rec.fixed_cost
        };
        if best.is_none_or(|(bk, _)| key < bk) {
            best = Some((key, i));
        }
    }
    let runs: Vec<Value> = records
        .iter()
        .map(|r| {
            ObjBuilder::new()
                .field("seed", jobs::u64_to_value(r.seed))
                .field("fixed_cost", jobs::f64_to_value(r.fixed_cost))
                .field("evaluations", r.evaluations)
                .field("attempted", r.attempted)
                .field("wall_seconds", r.wall_seconds)
                .field("failed", r.failed)
                .build()
        })
        .collect();
    let mut record = ObjBuilder::new()
        .field("format", "oblx-result")
        .field("version", 1i64)
        .field("id", file.id.as_str())
        .field("name", file.request.name.as_str());
    let status;
    match best {
        Some((_, i)) => {
            let r = &records[i];
            status = "ok";
            record = record
                .field("status", status)
                .field("best_seed", jobs::u64_to_value(r.seed))
                .field("fixed_cost", jobs::f64_to_value(r.fixed_cost))
                .field("best_cost", jobs::f64_to_value(r.best_cost))
                .field("kcl_max", jobs::f64_to_value(r.kcl_max))
                .field(
                    "state",
                    ObjBuilder::new()
                        .field(
                            "user",
                            Value::Arr(
                                r.state
                                    .user
                                    .iter()
                                    .map(|&v| jobs::f64_to_value(v))
                                    .collect(),
                            ),
                        )
                        .field(
                            "nodes",
                            Value::Arr(
                                r.state
                                    .nodes
                                    .iter()
                                    .map(|&v| jobs::f64_to_value(v))
                                    .collect(),
                            ),
                        )
                        .build(),
                );
        }
        None => {
            status = "failed";
            record = record
                .field("status", status)
                .field("error", error.as_str());
        }
    }
    let record = record.field("runs", Value::Arr(runs)).build();
    let _ = spool.complete(&file.id, &record);
    EventLog::open(spool, &file.id).emit("done", &[("status", status.into())]);
    crate::events::append_metrics(spool);
    shared.prepared.lock().unwrap().remove(&file.id);
    let mut stats = shared.stats.lock().unwrap();
    if status == "ok" {
        stats.jobs_completed += 1;
    } else {
        stats.jobs_failed += 1;
    }
}

/// The reaper tick, run by idle workers: takes over the leases of every
/// host whose beat has not changed for the lease timeout, and finishes
/// the retirements a crash left half done.
fn reap(shared: &Shared<'_>) {
    let Ok(mut reaper) = shared.reaper.try_lock() else {
        return;
    };
    let now = Instant::now();
    if reaper
        .last_tick
        .is_some_and(|t| now.duration_since(t) < tick(shared.opts))
    {
        return;
    }
    reaper.last_tick = Some(now);
    let spool = shared.spool;

    // A host is dead once its beat (with its pid, so a restart that
    // counts from 0 again is no repeat) has sat unchanged for the lease
    // timeout on this host's clock; a host without a file beats `None`.
    let beats: HashMap<String, (u32, u64)> = spool
        .hosts()
        .into_iter()
        .map(|h| (h.host, (h.pid, h.beat)))
        .collect();
    for (name, lease) in spool.leases() {
        if lease.owner == spool.host() {
            continue;
        }
        let beat = beats.get(&lease.owner).copied();
        let seen = reaper
            .beats
            .entry(lease.owner.clone())
            .or_insert((beat, now));
        if seen.0 != beat {
            *seen = (beat, now);
        }
        if now.duration_since(seen.1) < shared.opts.lease_timeout {
            continue;
        }
        spool.take_over(&name, &lease, "reaped");
        oblx_telemetry::incr(oblx_telemetry::Counter::LeaseReaped);
        shared.stats.lock().unwrap().leases_reaped += 1;
    }

    // A retirement killed after its claim rename left the parked spec:
    // finish it, but not while a local worker may be finalizing it
    // (that would count the job twice). Redoing the aggregation is
    // byte-identical from the same done records, so a live peer's
    // finalize racing this costs nothing.
    let parked = if shared.inflight.load(Ordering::SeqCst) == 0 {
        spool.parked_job_ids()
    } else {
        Vec::new()
    };
    for id in parked {
        if spool.done(&id).is_some() || spool.cancelled(&id).is_some() {
            spool.retire(&id);
        } else if let Some(file) = spool.read_parked_job(&id) {
            if spool.cancel_requested(&id) {
                if spool.complete_cancelled(&id, &file.request.name).is_ok() {
                    shared.stats.lock().unwrap().jobs_cancelled += 1;
                }
            } else if all_seeds_done(spool, &file) {
                finalize_from(shared, &file);
            }
        }
    }

    // A claimed job with every seed done and no seed entry left: its
    // last seed's runner was killed between retiring the seed and
    // claiming the finalize, so no entry is left to drive the finalize.
    for job in spool.running() {
        if !spool.has_live_seed_entries(&job.id) && all_seeds_done(spool, &job) {
            maybe_finalize(shared, &job);
        }
    }
}

/// The failed-seed sentinel record: infinite fixed cost keeps it out of
/// winner selection; the empty state marks it as result-free.
fn failed_seed_record(seed: u64) -> SeedRecord {
    SeedRecord {
        seed,
        fixed_cost: f64::INFINITY,
        best_cost: f64::NAN,
        kcl_max: f64::NAN,
        evaluations: 0,
        attempted: 0,
        wall_seconds: 0.0,
        state: OblxState {
            user: Vec::new(),
            nodes: Vec::new(),
        },
        failed: true,
    }
}

/// Best-effort text of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn set_snap(shared: &Shared<'_>, w: usize, update: impl FnOnce(&mut WorkerSnap)) {
    write_host(shared, |h| update(&mut h.snaps[w]));
}

/// Updates this host's state and writes its file, under one lock: the
/// beat and the worker rows share the file, and no write of it can
/// land out of order.
fn write_host(shared: &Shared<'_>, update: impl FnOnce(&mut HostState)) {
    let mut host = shared.host.lock().unwrap();
    update(&mut host);
    let rows: Vec<Value> = host
        .snaps
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut b = ObjBuilder::new()
                .field("worker", i)
                .field("busy", s.busy)
                .field("tasks_done", s.tasks_done);
            if let Some(job) = &s.job {
                b = b.field("job", job.as_str());
            }
            if let Some(seed) = s.seed {
                b = b.field("seed", jobs::u64_to_value(seed));
            }
            b.build()
        })
        .collect();
    shared.spool.write_host(host.beat, rows);
}

fn seed_done_path(ckdir: &Path, seed: u64) -> PathBuf {
    ckdir.join(format!("seed_{seed}.done.json"))
}

fn seed_record_to_json(r: &SeedRecord) -> String {
    ObjBuilder::new()
        .field("format", "oblx-seed-result")
        .field("version", 1i64)
        .field("seed", jobs::u64_to_value(r.seed))
        .field("fixed_cost", jobs::f64_to_value(r.fixed_cost))
        .field("best_cost", jobs::f64_to_value(r.best_cost))
        .field("kcl_max", jobs::f64_to_value(r.kcl_max))
        .field("evaluations", r.evaluations)
        .field("attempted", r.attempted)
        .field("wall_seconds", jobs::f64_to_value(r.wall_seconds))
        .field(
            "user",
            Value::Arr(
                r.state
                    .user
                    .iter()
                    .map(|&v| jobs::f64_to_value(v))
                    .collect(),
            ),
        )
        .field(
            "nodes",
            Value::Arr(
                r.state
                    .nodes
                    .iter()
                    .map(|&v| jobs::f64_to_value(v))
                    .collect(),
            ),
        )
        .field("failed", r.failed)
        .build()
        .to_json()
}

fn read_seed_done(ckdir: &Path, seed: u64) -> Option<SeedRecord> {
    let text = std::fs::read_to_string(seed_done_path(ckdir, seed)).ok()?;
    let v = astrx_oblx::json::parse(&text).ok()?;
    if v.get("format")?.as_str()? != "oblx-seed-result" || v.get("version")?.as_int()? != 1 {
        return None;
    }
    let bits = |key: &str| -> Option<f64> { jobs::f64_from_value(v.get(key)?).ok() };
    let vec_bits = |key: &str| -> Option<Vec<f64>> {
        v.get(key)?
            .as_arr()?
            .iter()
            .map(|x| jobs::f64_from_value(x).ok())
            .collect()
    };
    Some(SeedRecord {
        seed: jobs::u64_from_value(v.get("seed")?).ok()?,
        fixed_cost: bits("fixed_cost")?,
        best_cost: bits("best_cost")?,
        kcl_max: bits("kcl_max")?,
        evaluations: usize::try_from(v.get("evaluations")?.as_int()?).ok()?,
        attempted: usize::try_from(v.get("attempted")?.as_int()?).ok()?,
        wall_seconds: bits("wall_seconds")?,
        state: OblxState {
            user: vec_bits("user")?,
            nodes: vec_bits("nodes")?,
        },
        failed: v.get("failed")?.as_bool()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use astrx_oblx::jobs::JobRequest;

    const DIFFAMP: &str = include_str!("../../core/src/testdata/diffamp.ox");

    fn temp_spool(tag: &str) -> Spool {
        let root = std::env::temp_dir().join(format!(
            "oblx-pool-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        Spool::open(root).unwrap()
    }

    fn small_job(name: &str, seeds: Vec<u64>) -> JobRequest {
        JobRequest {
            name: name.into(),
            source: DIFFAMP.into(),
            deck: String::new(),
            options: SynthesisOptions {
                moves_budget: 400,
                quench_patience: 100,
                ..SynthesisOptions::default()
            },
            seeds,
            priority: 0,
        }
    }

    fn drain_opts(workers: usize) -> PoolOptions {
        PoolOptions {
            workers,
            checkpoint_every: 100,
            drain: true,
            ..PoolOptions::default()
        }
    }

    /// Drains `spool`, raising shutdown after `secs` so that a stalled
    /// drain fails the test instead of hanging it.
    fn drain_within(spool: &Spool, opts: &PoolOptions, secs: u64) -> RunStats {
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let pool = scope.spawn(|| run(spool, opts, &shutdown));
            let deadline = Instant::now() + Duration::from_secs(secs);
            while !pool.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
            shutdown.store(true, Ordering::SeqCst);
            pool.join().unwrap()
        })
    }

    /// Claims the open entry of `seed` through `spool` and writes its
    /// done record, as a worker does just before `finish_seed`. A failed
    /// record is still a done record, and keeps the setup short.
    fn claim_and_record_seed(spool: &Spool, job: &str, seed: u64) -> SeedEntry {
        let entry = spool
            .open_seed_entries()
            .into_iter()
            .find(|e| e.job == job && e.seed == seed)
            .unwrap();
        assert!(spool.claim_seed(&entry));
        std::fs::create_dir_all(spool.ckpt_dir(job)).unwrap();
        jobs::write_atomic(
            &seed_done_path(&spool.ckpt_dir(job), seed),
            &seed_record_to_json(&failed_seed_record(seed)),
        )
        .unwrap();
        entry
    }

    #[test]
    fn drains_queue_and_matches_synthesize_multi() {
        let spool = temp_spool("drain");
        let job = spool.submit(small_job("amp", vec![3, 4])).unwrap();
        let stats = run(&spool, &drain_opts(2), &AtomicBool::new(false));
        assert_eq!(stats.jobs_completed, 1);
        assert_eq!(stats.seeds_run, 2);
        let record = spool.done(&job.id).unwrap();
        assert_eq!(record.get("status").unwrap().as_str(), Some("ok"));

        // The pool must pick the same winner as the in-process API.
        let compiled = compile_job(&job.request).unwrap();
        let multi =
            astrx_oblx::synthesize_multi(&compiled, &job.request.options, &[3, 4], 1).unwrap();
        assert_eq!(
            jobs::u64_from_value(record.get("best_seed").unwrap()).unwrap(),
            multi.best_seed
        );
        assert_eq!(
            jobs::f64_from_value(record.get("fixed_cost").unwrap())
                .unwrap()
                .to_bits(),
            fixed_cost(&compiled, &multi.best.state).to_bits()
        );
        std::fs::remove_dir_all(spool.root()).unwrap();
    }

    #[test]
    fn compile_failure_fails_the_job() {
        let spool = temp_spool("badjob");
        let mut req = small_job("broken", vec![1]);
        req.source = "not a netlist at all".into();
        let job = spool.submit(req).unwrap();
        let stats = run(&spool, &drain_opts(1), &AtomicBool::new(false));
        assert_eq!(stats.jobs_failed, 1);
        let record = spool.done(&job.id).unwrap();
        assert_eq!(record.get("status").unwrap().as_str(), Some("failed"));
        std::fs::remove_dir_all(spool.root()).unwrap();
    }

    #[test]
    fn corrupt_spool_entry_is_quarantined_and_drain_completes() {
        let spool = temp_spool("corrupt-drain");
        let good = spool.submit(small_job("amp", vec![5])).unwrap();
        // A torn write, as left behind by a submitter killed mid-write.
        std::fs::write(spool.queue_dir().join("torn.json"), "{\"format\":\"oblx-j").unwrap();
        let stats = run(&spool, &drain_opts(2), &AtomicBool::new(false));
        // Pre-fix: the torn file was skipped silently and sat in queue/
        // forever with no trace. Now it is quarantined, counted, and
        // leaves a `job_corrupt` event — and the good job still drains.
        assert_eq!(stats.jobs_completed, 1);
        assert_eq!(stats.jobs_corrupt, 1);
        assert!(spool.corrupt_dir().join("torn.json").exists());
        assert!(!spool.queue_dir().join("torn.json").exists());
        let events = EventLog::open(&spool, "torn").read();
        assert!(
            events
                .iter()
                .any(|e| e.get("event").and_then(Value::as_str) == Some("job_corrupt")),
            "job_corrupt event missing: {events:?}"
        );
        let record = spool.done(&good.id).unwrap();
        assert_eq!(record.get("status").unwrap().as_str(), Some("ok"));
        std::fs::remove_dir_all(spool.root()).unwrap();
    }

    #[test]
    fn tombstone_racing_the_claim_retires_the_job_unrun() {
        let spool = temp_spool("cancel-claim");
        let job = spool.submit(small_job("victim", vec![1])).unwrap();
        // A tombstone landing after submit but before any worker claims
        // (as `Spool::cancel` leaves behind when it loses the dequeue
        // race): the pool must retire the job without running a seed.
        jobs::write_atomic(&spool.tombstone_path(&job.id), "").unwrap();
        let stats = run(&spool, &drain_opts(1), &AtomicBool::new(false));
        assert_eq!(stats.jobs_cancelled, 1);
        assert_eq!(stats.seeds_run, 0);
        assert_eq!(stats.jobs_completed, 0);
        let record = spool.cancelled(&job.id).unwrap();
        assert_eq!(record.get("status").unwrap().as_str(), Some("cancelled"));
        assert!(spool.done(&job.id).is_none());
        let events = EventLog::open(&spool, &job.id).read();
        assert!(events
            .iter()
            .any(|e| e.get("event").and_then(Value::as_str) == Some("job_cancelled")));
        std::fs::remove_dir_all(spool.root()).unwrap();
    }

    #[test]
    fn a_cancel_retirement_killed_after_its_park_is_finished_on_restart() {
        let spool = temp_spool("cancel-park").with_host("a");
        let job = spool.submit(small_job("victim", vec![1])).unwrap();
        jobs::write_atomic(&spool.tombstone_path(&job.id), "").unwrap();
        // Mutations 0–3 claim the job, 4 parks its spec for the
        // retirement, and 5 would write the cancelled record.
        let crashing = spool.clone().crashing_at(5);
        drain_within(&crashing, &drain_opts(1), 30);
        assert!(crashing.crashed());
        assert!(spool.parked_job_path(&job.id).exists());
        assert!(spool.cancelled(&job.id).is_none());

        spool.recover();
        let stats = drain_within(&spool, &drain_opts(1), 30);
        assert_eq!(stats.jobs_cancelled, 1);
        assert!(spool.cancelled(&job.id).is_some());
        assert!(!spool.ckpt_dir(&job.id).exists());
        assert!(spool.leases().is_empty());
        std::fs::remove_dir_all(spool.root()).unwrap();
    }

    #[test]
    fn cancel_mid_run_stops_seeds_at_the_next_checkpoint() {
        let spool = temp_spool("cancel-midrun");
        let mut req = small_job("victim", vec![1, 2]);
        // A budget far beyond what drains quickly, so the cancel always
        // lands while seeds are in flight.
        req.options.moves_budget = 200_000;
        req.options.quench_patience = 200_000;
        let job = spool.submit(req).unwrap();
        let id = job.id.clone();
        let opts = PoolOptions {
            workers: 2,
            checkpoint_every: 50,
            drain: true,
            ..PoolOptions::default()
        };
        std::thread::scope(|scope| {
            let spool_ref = &spool;
            let handle = scope.spawn(move || run(spool_ref, &opts, &AtomicBool::new(false)));
            // Wait until a seed has checkpointed (the job is claimed
            // and running), then cancel.
            let ckdir = spool.ckpt_dir(&id);
            let deadline = std::time::Instant::now() + Duration::from_secs(60);
            while !ckdir.exists() && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
            assert_eq!(
                spool.cancel(&id, "victim").unwrap(),
                crate::spool::CancelOutcome::Requested
            );
            let stats = handle.join().unwrap();
            assert_eq!(stats.jobs_cancelled, 1);
            assert_eq!(stats.jobs_completed, 0);
        });
        assert!(spool.cancelled(&job.id).is_some());
        assert!(spool.done(&job.id).is_none());
        assert!(!spool.cancel_requested(&job.id), "tombstone retired");
        assert!(
            !spool.ckpt_dir(&job.id).exists(),
            "checkpoints of a cancelled job are reclaimed"
        );
        assert!(
            !spool.job_seeds_dir(&job.id).exists(),
            "seed entries of a cancelled job are reclaimed"
        );
        std::fs::remove_dir_all(spool.root()).unwrap();
    }

    #[test]
    fn interrupted_job_resumes_bit_identically_through_the_pool() {
        let opts = drain_opts(1);
        let opts = PoolOptions {
            checkpoint_every: 50,
            ..opts
        };
        // Reference: the same job run uninterrupted in a fresh spool.
        let reference = {
            let spool = temp_spool("ref");
            let job = spool.submit(small_job("amp", vec![7])).unwrap();
            run(&spool, &opts, &AtomicBool::new(false));
            let record = spool.done(&job.id).unwrap();
            std::fs::remove_dir_all(spool.root()).unwrap();
            record
        };

        // Interrupted run: cut a checkpoint at a known point (as a
        // killed worker holding the first fence would leave behind),
        // then let the pool pick the job up and resume it.
        let spool = temp_spool("resume");
        let job = spool.submit(small_job("amp", vec![7])).unwrap();
        let compiled = compile_job(&job.request).unwrap();
        let run_opts = SynthesisOptions {
            seed: 7,
            ..job.request.options.clone()
        };
        let ckdir = spool.ckpt_dir(&job.id);
        std::fs::create_dir_all(&ckdir).unwrap();
        let outcome = jobs::run_seed_resumable(&compiled, &run_opts, &ckdir, 50, 1, |ck| {
            if ck.engine.attempted >= 150 {
                Directive::Stop
            } else {
                Directive::Continue
            }
        })
        .unwrap();
        assert!(matches!(outcome, SynthesisOutcome::Interrupted(_)));
        assert!(jobs::fenced_checkpoint_path(&ckdir, 7, 1).exists());

        let stats = run(&spool, &opts, &AtomicBool::new(false));
        assert_eq!(stats.jobs_completed, 1);
        let resumed = spool.done(&job.id).unwrap();
        for key in [
            "status",
            "best_seed",
            "fixed_cost",
            "best_cost",
            "kcl_max",
            "state",
        ] {
            assert_eq!(
                resumed.get(key),
                reference.get(key),
                "field `{key}` differs between resumed and uninterrupted runs"
            );
        }
        std::fs::remove_dir_all(spool.root()).unwrap();
    }

    #[test]
    fn stolen_seeds_finish_a_dead_peers_job_bit_identically() {
        // Reference result, single host.
        let reference = {
            let spool = temp_spool("steal-ref");
            let job = spool.submit(small_job("amp", vec![3, 4])).unwrap();
            run(&spool, &drain_opts(2), &AtomicBool::new(false));
            let record = spool.done(&job.id).unwrap();
            std::fs::remove_dir_all(spool.root()).unwrap();
            record
        };
        // Host `a` claims and shards the job, then "dies" before
        // running a single seed (its open entries and job lease stay
        // behind). Host `b` steals every seed and finalizes.
        let spool_a = temp_spool("steal").with_host("a");
        let job = spool_a.submit(small_job("amp", vec![3, 4])).unwrap();
        let claimed = spool_a.claim_next().unwrap();
        std::fs::create_dir_all(spool_a.ckpt_dir(&claimed.id)).unwrap();
        assert_eq!(spool_a.shard_job(&claimed).unwrap(), 2);

        let spool_b = Spool::open(spool_a.root()).unwrap().with_host("b");
        let stats = run(&spool_b, &drain_opts(2), &AtomicBool::new(false));
        assert_eq!(stats.jobs_completed, 1);
        assert_eq!(stats.seeds_run, 2);
        assert_eq!(stats.seeds_stolen, 2, "both seeds came from a's job");
        let record = spool_b.done(&job.id).unwrap();
        for key in ["status", "best_seed", "fixed_cost", "best_cost", "state"] {
            assert_eq!(
                record.get(key),
                reference.get(key),
                "field `{key}` differs between stolen and single-host runs"
            );
        }
        std::fs::remove_dir_all(spool_a.root()).unwrap();
    }

    #[test]
    fn reaper_reopens_an_expired_foreign_lease_and_recovers_the_seed() {
        // Reference result, single host.
        let reference = {
            let spool = temp_spool("reap-ref");
            let job = spool.submit(small_job("amp", vec![9])).unwrap();
            run(&spool, &drain_opts(1), &AtomicBool::new(false));
            let record = spool.done(&job.id).unwrap();
            std::fs::remove_dir_all(spool.root()).unwrap();
            record
        };
        // Host `a` claims the job AND its only seed, then dies without
        // ever heartbeating again. Host `b` must wait out the lease
        // timeout, reap, re-open at a higher fence, and finish.
        let spool_a = temp_spool("reap").with_host("a");
        let job = spool_a.submit(small_job("amp", vec![9])).unwrap();
        let claimed = spool_a.claim_next().unwrap();
        std::fs::create_dir_all(spool_a.ckpt_dir(&claimed.id)).unwrap();
        spool_a.shard_job(&claimed).unwrap();
        let entry = spool_a.open_seed_entries().pop().unwrap();
        assert!(spool_a.claim_seed(&entry));
        spool_a.write_host(1, Vec::new());

        let spool_b = Spool::open(spool_a.root()).unwrap().with_host("b");
        let opts = PoolOptions {
            lease_timeout: Duration::from_millis(300),
            ..drain_opts(1)
        };
        let stats = run(&spool_b, &opts, &AtomicBool::new(false));
        assert!(stats.leases_reaped >= 1, "a's seed lease was reaped");
        assert_eq!(stats.jobs_completed, 1);
        let record = spool_b.done(&job.id).unwrap();
        for key in ["status", "fixed_cost", "best_cost", "state"] {
            assert_eq!(
                record.get(key),
                reference.get(key),
                "field `{key}` differs between reaped and healthy runs"
            );
        }
        std::fs::remove_dir_all(spool_a.root()).unwrap();
    }

    #[test]
    fn a_busy_host_is_not_dead() {
        // Host `a` runs one long seed on its only worker, so it is never
        // idle; its peer `b` drains beside it with the same short lease
        // timeout. `a`'s beat alone must keep `b` off its leases.
        let spool_a = temp_spool("busy").with_host("a");
        let mut req = small_job("amp", vec![5]);
        // Over a second either way: debug builds cross-check every move.
        req.options.moves_budget = if cfg!(debug_assertions) {
            1_200
        } else {
            10_000
        };
        req.options.quench_patience = req.options.moves_budget;
        let job = spool_a.submit(req).unwrap();
        let spool_b = Spool::open(spool_a.root()).unwrap().with_host("b");
        let opts = PoolOptions {
            lease_timeout: Duration::from_millis(200),
            ..drain_opts(1)
        };
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| drain_within(&spool_a, &opts, 60));
            // `b` starts once `a` runs the seed.
            let deadline = Instant::now() + Duration::from_secs(30);
            while spool_a.running_seed_entries().is_empty() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
            let b = drain_within(&spool_b, &opts, 60);
            (a.join().unwrap(), b)
        });
        let record = spool_a.done(&job.id).expect("the job finished");
        let wall = record.get("runs").and_then(Value::as_arr).unwrap()[0]
            .get("wall_seconds")
            .and_then(Value::as_f64)
            .unwrap();
        assert!(
            wall > 0.6,
            "the seed outlasts three lease timeouts: {wall} s"
        );
        assert_eq!(b.leases_reaped, 0, "b reaped a live host's lease");
        assert_eq!((a.seeds_run, b.seeds_run), (1, 0), "a ran the seed");
        let taken: Vec<String> = EventLog::open(&spool_a, &job.id)
            .read()
            .iter()
            .filter_map(|e| e.get("event").and_then(Value::as_str))
            .filter(|e| matches!(*e, "job_adopted" | "job_reaped" | "seed_reaped"))
            .map(str::to_string)
            .collect();
        assert!(taken.is_empty(), "taken over: {taken:?}");
        std::fs::remove_dir_all(spool_a.root()).unwrap();
    }

    #[test]
    fn last_seed_killed_before_finalize_on_a_non_owner_still_drains() {
        // Host `b` claims and shards the job, so it holds the job lease
        // and stays alive. Host `a` finishes the only seed — done
        // record, run entry and lease retired — and is killed before
        // `maybe_finalize`. No seed entry is left to run, and the live
        // lease owner is never reaped: the reaper must finalize.
        let spool_b = temp_spool("finalize-orphan").with_host("b");
        let job = spool_b.submit(small_job("amp", vec![5])).unwrap();
        let claimed = spool_b.claim_next().unwrap();
        spool_b.shard_job(&claimed).unwrap();
        let spool_a = Spool::open(spool_b.root()).unwrap().with_host("a");
        let entry = claim_and_record_seed(&spool_a, &job.id, 5);
        spool_a.finish_seed(&entry);

        let stats = drain_within(&spool_b, &drain_opts(1), 30);
        assert!(
            spool_b.done(&job.id).is_some(),
            "the job stalled in running/"
        );
        assert_eq!(stats.jobs_failed, 1, "its only seed's record is a failure");
        assert!(spool_b.running().is_empty());
        std::fs::remove_dir_all(spool_b.root()).unwrap();
    }

    #[test]
    fn unreadable_done_record_fails_the_job_naming_its_seed() {
        // Seed 3 finishes with a good record; seed 4's record exists but
        // is torn. Finalizing must not report the job done with seed 3's
        // run alone.
        let spool_b = temp_spool("torn-done").with_host("b");
        let job = spool_b.submit(small_job("amp", vec![3, 4])).unwrap();
        let claimed = spool_b.claim_next().unwrap();
        spool_b.shard_job(&claimed).unwrap();
        let spool_a = Spool::open(spool_b.root()).unwrap().with_host("a");
        let ckdir = spool_a.ckpt_dir(&job.id);
        let e3 = claim_and_record_seed(&spool_a, &job.id, 3);
        let good = SeedRecord {
            fixed_cost: 1.5,
            best_cost: 1.5,
            kcl_max: 1e-12,
            state: OblxState {
                user: vec![1.0],
                nodes: vec![2.0],
            },
            failed: false,
            ..failed_seed_record(3)
        };
        jobs::write_atomic(&seed_done_path(&ckdir, 3), &seed_record_to_json(&good)).unwrap();
        let e4 = claim_and_record_seed(&spool_a, &job.id, 4);
        std::fs::write(seed_done_path(&ckdir, 4), "{\"format\":\"oblx-seed-res").unwrap();
        spool_a.finish_seed(&e3);
        spool_a.finish_seed(&e4);

        let stats = drain_within(&spool_b, &drain_opts(1), 30);
        let record = spool_b.done(&job.id).expect("the job is finalized");
        assert_eq!(record.get("status").unwrap().as_str(), Some("failed"));
        assert_eq!(
            record.get("error").unwrap().as_str(),
            Some("seed 4: done record is unreadable")
        );
        assert_eq!(stats.jobs_failed, 1);
        assert_eq!(stats.jobs_completed, 0);
        std::fs::remove_dir_all(spool_b.root()).unwrap();
    }

    #[test]
    fn seed_lease_left_by_a_kill_inside_finish_seed_is_released_at_finalize() {
        // A holder killed inside `finish_seed` has removed its run entry
        // but not its lease. The lease names this live host, so the
        // reaper never clears it; finalizing the job must.
        let spool = temp_spool("stray-lease");
        let job = spool.submit(small_job("amp", vec![3, 4])).unwrap();
        let claimed = spool.claim_next().unwrap();
        spool.shard_job(&claimed).unwrap();
        claim_and_record_seed(&spool, &job.id, 3);
        std::fs::remove_file(spool.job_seeds_dir(&job.id).join("s3.run.json")).unwrap();

        let stats = run(&spool, &drain_opts(1), &AtomicBool::new(false));
        assert_eq!(stats.jobs_completed, 1, "seed 4 ran and won");
        assert!(
            spool.leases().is_empty(),
            "leases left: {:?}",
            spool.leases()
        );
        std::fs::remove_dir_all(spool.root()).unwrap();
    }
}
