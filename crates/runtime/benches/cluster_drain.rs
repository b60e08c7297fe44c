//! Cluster drain benchmark: the same job queue drained by one `oblxd`
//! process and by three `oblxd` processes sharing the spool, each drain
//! printed with its jobs/s.
//!
//! This is a plain-main harness (no criterion) because it measures
//! whole child processes, not functions: it spawns the real `oblxd`
//! binary via `CARGO_BIN_EXE_oblxd`, three `run` daemons over a single
//! spool directory, and times the drain from first spawn to last exit.
//! The workload is a tiny RC-lowpass deck (~1 ms of synthesis per job)
//! so the number measures the cluster machinery — claim arbitration,
//! leases, seed sharding, finalize — rather than the annealer.
//!
//! Set `OBLX_BENCH_QUICK=1` to cut the job count (CI smoke mode).
//! Run with `cargo bench -p oblx-runtime --bench cluster_drain`.

use astrx_oblx::jobs::JobRequest;
use astrx_oblx::SynthesisOptions;
use oblx_runtime::spool::Spool;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A two-variable RC lowpass: one pole, one objective, one spec. Each
/// seed costs about a millisecond, which is the point — the bench
/// should be bound by spool coordination, not by circuit evaluation.
const RC_LOWPASS: &str = "\
.title rc lowpass bench
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

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oblx-bench-cluster-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn submit_jobs(spool: &Spool, n_jobs: usize) {
    for i in 0..n_jobs {
        spool
            .submit(JobRequest {
                name: format!("rc-{i}"),
                source: RC_LOWPASS.to_string(),
                deck: String::new(),
                options: SynthesisOptions {
                    moves_budget: 60,
                    quench_patience: 100,
                    trace_every: 50,
                    seed: 0,
                    ..SynthesisOptions::default()
                },
                seeds: vec![1],
                priority: 0,
            })
            .expect("submit succeeds");
    }
}

/// Spawns one `oblxd run` daemon over `spool` as host `host`.
fn spawn_daemon(spool: &Path, host: &str) -> Child {
    Command::new(env!("CARGO_BIN_EXE_oblxd"))
        .arg("run")
        .arg("--dir")
        .arg(spool)
        .args(["--drain", "--workers", "1", "--checkpoint-interval", "1000"])
        .args(["--host-id", host, "--lease-timeout", "30"])
        .stdout(Stdio::null())
        .spawn()
        .expect("oblxd spawns")
}

/// Waits for every child to exit successfully, with a watchdog so a
/// drain bug hangs the bench loudly instead of forever.
fn wait_all(children: Vec<Child>, secs: u64) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    let mut children = children;
    while !children.is_empty() {
        children.retain_mut(|c| match c.try_wait().expect("try_wait") {
            Some(status) => {
                assert!(status.success(), "daemon exited with {status}");
                false
            }
            None => true,
        });
        if Instant::now() > deadline {
            for c in &mut children {
                let _ = c.kill();
            }
            panic!("daemons did not drain within {secs}s");
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn done_count(spool: &Path) -> usize {
    std::fs::read_dir(spool.join("done"))
        .map(|d| d.flatten().count())
        .unwrap_or(0)
}

/// Submits `n_jobs`, drains them with `hosts` daemon processes, and
/// returns the drain wall time (spawn of the first daemon to exit of
/// the last).
fn drain(tag: &str, n_jobs: usize, hosts: usize) -> f64 {
    let dir = temp_dir(tag);
    let spool_dir = dir.join("spool");
    let spool = Spool::open(&spool_dir).expect("spool opens");
    submit_jobs(&spool, n_jobs);
    let start = Instant::now();
    let children: Vec<Child> = (0..hosts)
        .map(|h| spawn_daemon(&spool_dir, &format!("h{h}")))
        .collect();
    wait_all(children, 600);
    let drain_s = start.elapsed().as_secs_f64();
    assert_eq!(done_count(&spool_dir), n_jobs, "every job drains");
    let _ = std::fs::remove_dir_all(&dir);
    drain_s
}

fn main() {
    let quick = std::env::var_os("OBLX_BENCH_QUICK").is_some();
    let n_jobs = if quick { 40 } else { 150 };
    let n_hosts = 3usize;

    let single_s = drain("single", n_jobs, 1);
    let single_rate = n_jobs as f64 / single_s;
    println!(
        "cluster/single_host                      {n_jobs} jobs, 1 daemon: {:.2} s ({:.1} jobs/s)",
        single_s, single_rate
    );

    let cluster_s = drain("cluster", n_jobs, n_hosts);
    let cluster_rate = n_jobs as f64 / cluster_s;
    println!(
        "cluster/shared_spool                     {n_jobs} jobs, {n_hosts} daemons: {:.2} s ({:.1} jobs/s)",
        cluster_s, cluster_rate
    );
}
