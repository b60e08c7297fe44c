//! The crash-point sweep of the spool protocol.
//!
//! Every mutation a spool handle makes — each rename, link, removal,
//! and each atomic write as two steps, its temporary file then its
//! rename — goes through one choke point, whose test-only seam makes
//! the handle's mutation `k` its crash: that mutation and every later
//! write of the handle, its host file included, never reach disk, and
//! its pool stops. The sweep drains two jobs × two seeds of an RC deck
//! once to count the points, then crashes at every `k` and recovers two
//! ways: the host restarts under its own id (with a lease timeout of an
//! hour, so it may wait for none), or a peer drains (with a 200 ms
//! one). Every recovery must converge:
//!
//! * before it, every job is where `GET /v1/jobs/:id` looks: queued,
//!   running, parked for its finalize, done or cancelled;
//! * the drain finishes within a fixed deadline;
//! * each job has exactly one terminal record, equal on
//!   [`RESULT_FIELDS`] to an uninterrupted run's;
//! * `queue/`, `running/`, `leases/`, `seeds/` and `ckpt/` end empty,
//!   temporary files included, and `done/` holds the records alone.
//!
//! Two setups. In [`Setup::Solo`], host `a` claims, shards and runs both
//! jobs on one worker. In [`Setup::Stolen`], host `b` has claimed and
//! sharded both jobs and never runs; `a` runs every seed and the
//! finalizes, with an hour's lease timeout so it never takes over `b`'s
//! jobs.
//!
//! Tier-1 runs a fixed sample of the points; the full sweep is
//! `cargo test --release -p oblx-runtime --lib crash_sweep -- --ignored
//! --nocapture`.

use crate::pool::{self, PoolOptions};
use crate::spool::Spool;
use astrx_oblx::jobs::JobRequest;
use astrx_oblx::json::Value;
use astrx_oblx::SynthesisOptions;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A two-variable RC lowpass, as in `tests/cluster.rs`.
const RC_LOWPASS: &str = "\
.title rc lowpass crash sweep
.var R 1k 1Meg log
.var C 1p 1n log
.jig acjig
vin in 0 0 ac 1
r1 in out 'R'
c1 out 0 'C'
.pz tf v(out) vin
.endjig
.bias
vin in 0 1
r1 in out 'R'
c1 out 0 'C'
.endbias
.obj bw 'ugf(tf)' good=1Meg bad=1k
.spec rc 'R*C' good=1u bad=1m
";

/// Fields of a done record that must match the uninterrupted run.
const RESULT_FIELDS: [&str; 6] = [
    "status",
    "best_seed",
    "fixed_cost",
    "best_cost",
    "kcl_max",
    "state",
];

const HOUR: Duration = Duration::from_secs(3600);
const PEER_TIMEOUT: Duration = Duration::from_millis(200);
const DEADLINE: Duration = Duration::from_secs(30);

#[derive(Debug, Clone, Copy)]
enum Setup {
    /// `a` claims, shards and runs both jobs.
    Solo,
    /// `b` claimed and sharded both jobs; `a` runs them.
    Stolen,
}

/// A fresh directory of its own for each call.
fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("oblx-sweep-{}-{n}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A fresh spool at `dir` holding both jobs as `setup` starts them.
/// Returns the job ids.
fn prepare(dir: &Path, setup: Setup) -> Vec<String> {
    let spool = Spool::open(dir).unwrap().with_host("b");
    let ids = [[1, 2], [3, 4]].map(|seeds| {
        let request = JobRequest {
            name: format!("rc-{}", seeds[0]),
            source: RC_LOWPASS.to_string(),
            deck: String::new(),
            options: SynthesisOptions {
                moves_budget: 300,
                quench_patience: 100,
                ..SynthesisOptions::default()
            },
            seeds: seeds.to_vec(),
            priority: 0,
        };
        spool.submit(request).unwrap().id
    });
    if let Setup::Stolen = setup {
        for _ in &ids {
            let job = spool.claim_next().unwrap();
            spool.shard_job(&job).unwrap();
        }
    }
    ids.to_vec()
}

/// Drains `spool` on one worker; `false` when the drain missed the
/// deadline (its pool is then shut down).
fn drain(spool: &Spool, lease_timeout: Duration) -> bool {
    let opts = PoolOptions {
        workers: 1,
        checkpoint_every: 100,
        drain: true,
        lease_timeout,
    };
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let pool = scope.spawn(|| pool::run(spool, &opts, &shutdown));
        let deadline = Instant::now() + DEADLINE;
        while !pool.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let finished = pool.is_finished();
        shutdown.store(true, Ordering::SeqCst);
        pool.join().unwrap();
        finished
    })
}

fn entries(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map(|d| {
            d.flatten()
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    names
}

/// Whether a status request would find job `id`.
fn findable(spool: &Spool, id: &str) -> bool {
    let file = format!("{id}.json");
    spool.queue_dir().join(&file).exists()
        || spool.running_dir().join(&file).exists()
        || spool.parked_job_path(id).exists()
        || spool.done(id).is_some()
        || spool.cancelled(id).is_some()
}

/// Checks a drained spool against the uninterrupted `reference`
/// records.
fn converged(spool: &Spool, ids: &[String], reference: &[Value]) -> Result<(), String> {
    for (id, want) in ids.iter().zip(reference) {
        let Some(got) = spool.done(id) else {
            return Err(format!("{id} has no done record"));
        };
        if spool.cancelled(id).is_some() {
            return Err(format!("{id} is also cancelled"));
        }
        if let Some(key) = RESULT_FIELDS.iter().find(|k| got.get(k) != want.get(k)) {
            return Err(format!("{id}: `{key}` differs from the reference"));
        }
    }
    for dir in ["queue", "running", "leases", "seeds", "ckpt"] {
        let left = entries(&spool.root().join(dir));
        if !left.is_empty() {
            return Err(format!("{dir}/ holds {left:?}"));
        }
    }
    let done = entries(&spool.done_dir());
    if done.len() != ids.len() {
        return Err(format!("done/ holds {done:?}"));
    }
    Ok(())
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap().flatten() {
        let dest = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &dest);
        } else {
            std::fs::copy(entry.path(), dest).unwrap();
        }
    }
}

/// Drains `setup` uninterrupted: the number of its crash points, and
/// its done records.
fn count(setup: Setup) -> (usize, Vec<Value>) {
    let dir = scratch(&format!("{setup:?}-count"));
    let ids = prepare(&dir, setup);
    let a = Spool::open(&dir)
        .unwrap()
        .with_host("a")
        .crashing_at(usize::MAX);
    assert!(
        drain(&a, HOUR),
        "{setup:?}: the uninterrupted drain stalled"
    );
    let reference: Vec<Value> = ids.iter().map(|id| a.done(id).unwrap()).collect();
    assert!(
        reference
            .iter()
            .all(|r| r.get("status").and_then(Value::as_str) == Some("ok")),
        "{reference:?}"
    );
    converged(&a, &ids, &reference).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    (a.mutations(), reference)
}

/// Crashes `a` at mutation `k` of `setup`, then recovers both ways.
fn crash_at(setup: Setup, k: usize, reference: &[Value]) -> Result<(), String> {
    let dir = scratch(&format!("{setup:?}-{k}"));
    let crashed = dir.join("crashed");
    let ids = prepare(&crashed, setup);
    let a = Spool::open(&crashed).unwrap().with_host("a").crashing_at(k);
    drain(&a, HOUR);
    if !a.crashed() {
        return Err("no crash: the point is past the drain".to_string());
    }
    if let Some(id) = ids.iter().find(|id| !findable(&a, id)) {
        return Err(format!("{id} is nowhere before recovery"));
    }
    for (host, lease_timeout) in [("a", HOUR), ("peer", PEER_TIMEOUT)] {
        let root = dir.join(host);
        copy_dir(&crashed, &root);
        let spool = Spool::open(&root).unwrap().with_host(host);
        spool.recover();
        if !drain(&spool, lease_timeout) {
            return Err(format!("recovery by `{host}` stalled"));
        }
        converged(&spool, &ids, reference).map_err(|e| format!("after `{host}`: {e}"))?;
    }
    std::fs::remove_dir_all(&dir).unwrap();
    Ok(())
}

/// Crashes `setup` at every point `pick` selects; panics naming every
/// point that did not converge.
fn sweep(setup: Setup, pick: impl Fn(usize) -> bool) {
    let start = Instant::now();
    let (n, reference) = count(setup);
    let points: Vec<usize> = (0..n).filter(|&k| pick(k)).collect();
    let failed: Vec<String> = points
        .iter()
        .filter_map(|&k| {
            crash_at(setup, k, &reference)
                .err()
                .map(|e| format!("{k}: {e}"))
        })
        .collect();
    println!(
        "crash sweep {setup:?}: {n} points, {} crashed and recovered two ways in {:.1} s",
        points.len(),
        start.elapsed().as_secs_f64()
    );
    assert!(failed.is_empty(), "{setup:?}: {failed:#?}");
}

#[test]
fn the_count_of_crash_points_is_stable() {
    for setup in [Setup::Solo, Setup::Stolen] {
        assert_eq!(count(setup).0, count(setup).0, "{setup:?}");
    }
}

#[test]
fn sampled_crash_points_converge() {
    sweep(Setup::Solo, |k| k % 9 == 4);
    sweep(Setup::Stolen, |k| k % 9 == 2);
}

#[test]
#[ignore = "the full sweep: run in release"]
fn every_crash_point_converges() {
    sweep(Setup::Solo, |_| true);
    sweep(Setup::Stolen, |_| true);
}
