//! Multi-host integration tests: several real `oblxd` processes over
//! one shared spool directory.
//!
//! * **Chaos**: three daemons drain a queue, one is SIGKILLed
//!   mid-drain, and the final records must be **bit-identical** to an
//!   uninterrupted single-daemon run — placement and failure must not
//!   change results. Two inputs: the survivors' reapers recover the
//!   victim's leases, or the victim restarts at once under its own host
//!   id and its startup recovery finishes its orphans.
//! * **Race**: four daemons drain cheap jobs while the test fires
//!   concurrent `oblxd cancel` processes at half of them; every job
//!   must end with exactly one terminal record (done XOR cancelled),
//!   the spool's work directories must come out clean, and a re-drain
//!   must change nothing.

use astrx_oblx::jobs::JobRequest;
use astrx_oblx::json::Value;
use astrx_oblx::SynthesisOptions;
use oblx_runtime::spool::{LeaseName, Spool};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A two-variable RC lowpass — cheap enough that multi-process
/// coordination, not synthesis, dominates the test's wall time.
const RC_LOWPASS: &str = "\
.title rc lowpass cluster test
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

/// Fields of a done record that must match across placements. The ids
/// differ between spools, so the comparison is field-wise.
const RESULT_FIELDS: [&str; 6] = [
    "status",
    "best_seed",
    "fixed_cost",
    "best_cost",
    "kcl_max",
    "state",
];

fn oblxd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_oblxd"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oblx-cluster-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Submits `n_jobs` identical RC jobs and returns their ids in
/// submission order.
fn submit_batch(spool_dir: &Path, n_jobs: usize, moves: usize, seeds: &[u64]) -> Vec<String> {
    let spool = Spool::open(spool_dir).expect("spool opens");
    (0..n_jobs)
        .map(|i| {
            spool
                .submit(JobRequest {
                    name: format!("rc-{i}"),
                    source: RC_LOWPASS.to_string(),
                    deck: String::new(),
                    options: SynthesisOptions {
                        moves_budget: moves,
                        quench_patience: 100,
                        trace_every: 50,
                        seed: 0,
                        ..SynthesisOptions::default()
                    },
                    seeds: seeds.to_vec(),
                    priority: 0,
                })
                .expect("submit succeeds")
                .id
        })
        .collect()
}

/// Spawns one `oblxd run` daemon over `spool_dir` as host `host`.
fn spawn_daemon(spool_dir: &Path, host: &str, lease_timeout: &str) -> Child {
    oblxd()
        .arg("run")
        .arg("--dir")
        .arg(spool_dir)
        .args(["--drain", "--workers", "1", "--checkpoint-interval", "500"])
        .args(["--host-id", host, "--lease-timeout", lease_timeout])
        .stdout(Stdio::null())
        .spawn()
        .expect("oblxd spawns")
}

/// Waits for every child to exit successfully, with a deadline so a
/// stuck drain fails loudly.
fn wait_all(mut children: Vec<Child>, secs: u64) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !children.is_empty() {
        children.retain_mut(|c| match c.try_wait().expect("try_wait") {
            Some(status) => {
                assert!(status.success(), "daemon exited with {status}");
                false
            }
            None => true,
        });
        assert!(
            Instant::now() < deadline,
            "daemons did not drain within {secs}s"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn done_count(spool_dir: &Path) -> usize {
    std::fs::read_dir(spool_dir.join("done"))
        .map(|d| d.flatten().count())
        .unwrap_or(0)
}

fn done_record(spool_dir: &Path, id: &str) -> Option<Value> {
    let text = std::fs::read_to_string(spool_dir.join("done").join(format!("{id}.json"))).ok()?;
    astrx_oblx::json::parse(&text).ok()
}

/// How the chaos test takes host `b` down mid-drain.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Outage {
    /// SIGKILL once results start landing; the survivors' reapers
    /// (1 s lease timeout) recover whatever `b` held.
    Reaped,
    /// SIGKILL once `b` holds a seed lease, then restart it at once
    /// under the same host id. The lease timeout outlasts the test
    /// deadline, so only `b`'s own startup recovery can finish its
    /// orphans.
    Restarted,
}

fn chaos(tag: &str, outage: Outage) {
    let dir = temp_dir(tag);
    let n_jobs = 6;
    let moves = 12_000;
    let seeds = [1u64, 2];

    // Reference: the same queue drained by one uninterrupted daemon.
    let ref_dir = dir.join("reference");
    let ref_ids = submit_batch(&ref_dir, n_jobs, moves, &seeds);
    let solo = spawn_daemon(&ref_dir, "solo", "30");
    wait_all(vec![solo], 300);
    assert_eq!(done_count(&ref_dir), n_jobs);

    // Victim cluster: three daemons; SIGKILL `b` so it dies holding
    // live leases.
    let lease_timeout = match outage {
        Outage::Reaped => "1",
        Outage::Restarted => "600",
    };
    let spool_dir = dir.join("cluster");
    let ids = submit_batch(&spool_dir, n_jobs, moves, &seeds);
    let spool = Spool::open(&spool_dir).unwrap();
    let mut children = vec![
        spawn_daemon(&spool_dir, "a", lease_timeout),
        spawn_daemon(&spool_dir, "b", lease_timeout),
        spawn_daemon(&spool_dir, "c", lease_timeout),
    ];
    let strike = || match outage {
        Outage::Reaped => done_count(&spool_dir) >= 1,
        Outage::Restarted => spool
            .leases()
            .iter()
            .any(|(name, lease)| matches!(name, LeaseName::Seed(..)) && lease.owner == "b"),
    };
    let deadline = Instant::now() + Duration::from_secs(120);
    while !strike() {
        assert!(
            Instant::now() < deadline,
            "cluster stuck for 120s before the kill"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut victim = children.remove(1);
    victim.kill().expect("SIGKILL delivered");
    let _ = victim.wait();
    if outage == Outage::Restarted {
        children.push(spawn_daemon(&spool_dir, "b", lease_timeout));
    }
    // --drain exits only once everything is terminal.
    wait_all(children, 300);

    assert_eq!(done_count(&spool_dir), n_jobs, "every job completed");
    for (id, ref_id) in ids.iter().zip(&ref_ids) {
        let got = done_record(&spool_dir, id).expect("job done");
        let want = done_record(&ref_dir, ref_id).expect("reference done");
        for key in RESULT_FIELDS {
            assert_eq!(
                got.get(key),
                want.get(key),
                "field `{key}` differs from the uninterrupted reference"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn killing_a_host_mid_drain_completes_all_jobs_bit_identically() {
    chaos("chaos", Outage::Reaped);
}

#[test]
fn restarting_a_killed_host_under_its_own_id_completes_all_jobs_bit_identically() {
    chaos("restart", Outage::Restarted);
}

#[test]
fn concurrent_cancels_across_four_daemons_leave_one_terminal_record_per_job() {
    let dir = temp_dir("race");
    let spool_dir = dir.join("spool");
    let n_jobs = 16;
    let ids = submit_batch(&spool_dir, n_jobs, 2_000, &[1]);

    let daemons = vec![
        spawn_daemon(&spool_dir, "a", "5"),
        spawn_daemon(&spool_dir, "b", "5"),
        spawn_daemon(&spool_dir, "c", "5"),
        spawn_daemon(&spool_dir, "d", "5"),
    ];
    // Fire cancels at every other job while the drain is in full
    // flight. Some land before the claim (dequeued), some mid-run
    // (tombstone honored at the next checkpoint), some after the job
    // finished (already done) — all three must be safe.
    let cancels: Vec<Child> = ids
        .iter()
        .step_by(2)
        .map(|id| {
            oblxd()
                .args(["cancel", "--dir"])
                .arg(&spool_dir)
                .arg(id)
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .expect("oblxd cancel spawns")
        })
        .collect();
    for mut c in cancels {
        let _ = c.wait();
    }
    wait_all(daemons, 300);

    // Exactly one terminal record per job, never both.
    let spool = Spool::open(&spool_dir).unwrap();
    for id in &ids {
        let done = spool.done(id).is_some();
        let cancelled = spool.cancelled(id).is_some();
        assert!(
            done ^ cancelled,
            "job {id}: done={done} cancelled={cancelled} — want exactly one terminal record"
        );
    }
    // The work directories came out clean: nothing pending, running,
    // or leased survives the drain.
    assert!(spool.pending().is_empty(), "queue is empty");
    assert!(spool.running().is_empty(), "running/ is empty");
    assert!(spool.leases().is_empty(), "no leases survive the drain");

    // A fresh drain over the settled spool is a no-op: every terminal
    // record is byte-identical before and after.
    let before: Vec<(String, Vec<u8>)> = ids
        .iter()
        .map(|id| {
            let done = spool_dir.join("done").join(format!("{id}.json"));
            let cancelled = spool_dir.join("cancelled").join(format!("{id}.json"));
            let path = if done.exists() { done } else { cancelled };
            (id.clone(), std::fs::read(path).unwrap())
        })
        .collect();
    let redrain = spawn_daemon(&spool_dir, "e", "5");
    wait_all(vec![redrain], 120);
    for (id, bytes) in before {
        let done = spool_dir.join("done").join(format!("{id}.json"));
        let cancelled = spool_dir.join("cancelled").join(format!("{id}.json"));
        let path = if done.exists() { done } else { cancelled };
        assert_eq!(
            std::fs::read(path).unwrap(),
            bytes,
            "job {id}: re-drain must not touch a terminal record"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
