//! The spool: a directory-backed, crash-safe job queue.
//!
//! Layout under the spool root:
//!
//! ```text
//! queue/<id>.json            submitted jobs awaiting a worker
//! running/<id>.json          jobs claimed by a daemon
//! done/<id>.json             result records (success or failure)
//! cancelled/<id>.json        terminal records of cancelled jobs
//! cancel/<id>.tomb           cancel tombstones honored by the worker pool
//! corrupt/<id>.json          quarantined undecodable job files
//! ckpt/<id>/                 per-seed checkpoints and seed-done records
//! seeds/<id>/s<seed>.*.json  per-seed work entries (open = stealable,
//!                            run = claimed) — the cross-host work unit
//! leases/<stem>.lease        liveness leases (job and per-seed)
//! hosts/<host>.json          per-daemon heartbeat snapshots
//! events/<id>.jsonl          per-job event logs (see crate::events)
//! workers.<host>.json        live worker-state snapshot (per daemon)
//! seq                        submission sequence counter
//! ```
//!
//! Every transition is a single atomic `rename`, so a crash at any
//! instant leaves each job in exactly one well-defined place — the
//! protocol needs nothing beyond atomic rename and atomic
//! write-then-rename, so several daemons can share one spool over
//! NFS-style storage.
//!
//! # Cluster protocol
//!
//! Multiple `oblxd` daemons (each with a unique `--host-id`) cooperate
//! through three mechanisms, all file-based:
//!
//! * **Leased claims.** Claiming a job or a per-seed entry writes a
//!   lease record (owner host, pid, heartbeat counter, fencing token).
//!   Seed leases are refreshed at every checkpoint; a holder whose
//!   refresh discovers a foreign owner or a higher fence has been
//!   fenced out and abandons the work item. Expiry is *observation*
//!   based — a peer reaps a lease only after watching its `(owner,
//!   beat)` pair sit unchanged for the lease timeout on the peer's own
//!   monotonic clock — so no cross-host clock sync is required.
//! * **Seed stealing.** A claimed job is sharded into one
//!   `seeds/<id>/s<seed>.open.json` entry per unfinished seed; *any*
//!   idle daemon renames an open entry to `.run.json` to claim it.
//!   Checkpoints are bit-exact, so a seed reaped from a dead host
//!   resumes mid-anneal on the thief with a bit-identical final result.
//!   Fencing tokens are embedded in checkpoint *filenames*
//!   (see `astrx_oblx::jobs::fenced_checkpoint_path`), so a zombie's
//!   late checkpoint write can never shadow the new holder's state.
//! * **Recovery split.** [`Spool::recover`], which every daemon runs
//!   at startup, requeues the jobs and re-opens the seed entries whose
//!   lease names *this* host id: the orphans of its own previous run.
//!   Everything else waits for lease-timeout evidence in the pool's
//!   reaper tick: expired *foreign* leases, and claimed entries with no
//!   lease at all (a claimer that died between its claim rename and
//!   its lease write).

use astrx_oblx::jobs::{self, JobFile, JobRequest};
use astrx_oblx::json::{ObjBuilder, Value};
use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Handle to a spool directory, carrying the local host identity used
/// for lease ownership.
#[derive(Debug, Clone)]
pub struct Spool {
    root: PathBuf,
    host: String,
}

/// The default host identity: `$OBLX_HOST_ID` when set, else the
/// machine hostname, else `"host"`. Deliberately **stable across
/// restarts** of the same daemon on the same machine, so a restarted
/// daemon recognizes (and recovers) its own leases. Multiple daemons
/// sharing one machine must be given distinct ids via `--host-id`.
pub fn default_host_id() -> String {
    if let Ok(id) = std::env::var("OBLX_HOST_ID") {
        let id = id.trim().to_string();
        if !id.is_empty() {
            return id;
        }
    }
    if let Ok(name) = std::fs::read_to_string("/proc/sys/kernel/hostname") {
        let name = name.trim().to_string();
        if !name.is_empty() {
            return name;
        }
    }
    std::env::var("HOSTNAME")
        .ok()
        .map(|h| h.trim().to_string())
        .filter(|h| !h.is_empty())
        .unwrap_or_else(|| "host".to_string())
}

impl Spool {
    /// Opens (creating if needed) a spool rooted at `root`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory tree.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Spool> {
        let spool = Spool {
            root: root.into(),
            host: default_host_id(),
        };
        for dir in [
            spool.queue_dir(),
            spool.running_dir(),
            spool.done_dir(),
            spool.cancelled_dir(),
            spool.tombstones_dir(),
            spool.corrupt_dir(),
            spool.events_dir(),
            spool.ckpt_root(),
            spool.seeds_root(),
            spool.leases_dir(),
            spool.hosts_dir(),
        ] {
            std::fs::create_dir_all(dir)?;
        }
        Ok(spool)
    }

    /// Replaces the host identity used for lease ownership (the
    /// default is [`default_host_id`]). Every daemon sharing a spool
    /// must use a distinct id.
    #[must_use]
    pub fn with_host(mut self, host: impl Into<String>) -> Spool {
        self.host = host.into();
        self
    }

    /// This spool handle's host identity.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// The spool root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// `queue/` — pending jobs.
    pub fn queue_dir(&self) -> PathBuf {
        self.root.join("queue")
    }

    /// `running/` — claimed jobs.
    pub fn running_dir(&self) -> PathBuf {
        self.root.join("running")
    }

    /// `done/` — result records.
    pub fn done_dir(&self) -> PathBuf {
        self.root.join("done")
    }

    /// `cancelled/` — terminal records of cancelled jobs.
    pub fn cancelled_dir(&self) -> PathBuf {
        self.root.join("cancelled")
    }

    /// `cancel/` — cancel tombstones awaiting pool acknowledgement.
    pub fn tombstones_dir(&self) -> PathBuf {
        self.root.join("cancel")
    }

    /// `corrupt/` — quarantined job files that could not be decoded.
    pub fn corrupt_dir(&self) -> PathBuf {
        self.root.join("corrupt")
    }

    /// `events/` — per-job JSONL logs.
    pub fn events_dir(&self) -> PathBuf {
        self.root.join("events")
    }

    fn ckpt_root(&self) -> PathBuf {
        self.root.join("ckpt")
    }

    /// `ckpt/<id>/` — the checkpoint directory of one job.
    pub fn ckpt_dir(&self, id: &str) -> PathBuf {
        self.ckpt_root().join(id)
    }

    /// `seeds/` — per-seed work entries, one subdirectory per job.
    pub fn seeds_root(&self) -> PathBuf {
        self.root.join("seeds")
    }

    /// `seeds/<id>/` — the per-seed work entries of one job.
    pub fn job_seeds_dir(&self, id: &str) -> PathBuf {
        self.seeds_root().join(id)
    }

    /// `leases/` — job and seed liveness leases.
    pub fn leases_dir(&self) -> PathBuf {
        self.root.join("leases")
    }

    /// `hosts/` — per-daemon heartbeat snapshots.
    pub fn hosts_dir(&self) -> PathBuf {
        self.root.join("hosts")
    }

    /// Path of this daemon's live worker-state snapshot. Per-host, so
    /// parallel daemons over one spool do not clobber each other.
    pub fn workers_path(&self) -> PathBuf {
        self.root.join(format!("workers.{}.json", self.host))
    }

    /// Worker-snapshot paths (`workers.<host>.json`) of every daemon
    /// that has written one.
    pub fn all_workers_paths(&self) -> Vec<PathBuf> {
        let mut out = Vec::new();
        if let Ok(entries) = std::fs::read_dir(&self.root) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if name.starts_with("workers.") && name.ends_with(".json") && name != "workers.json"
                {
                    out.push(entry.path());
                }
            }
        }
        out.sort();
        out
    }

    /// Submits a job: assigns an id and sequence number and writes it
    /// into `queue/` atomically (via [`jobs::spool_submit`], the same
    /// protocol thin clients use). Returns the stored [`JobFile`].
    ///
    /// # Errors
    ///
    /// Any I/O error.
    pub fn submit(&self, request: JobRequest) -> io::Result<JobFile> {
        jobs::spool_submit(&self.root, request)
    }

    fn read_jobs(dir: &Path) -> Vec<JobFile> {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            if let Ok(text) = std::fs::read_to_string(&path) {
                if let Ok(job) = jobs::job_from_json(&text) {
                    out.push(job);
                }
            }
        }
        out.sort_by(|a, b| {
            b.request
                .priority
                .cmp(&a.request.priority)
                .then(a.seq.cmp(&b.seq))
        });
        out
    }

    /// Pending jobs, in claim order (priority desc, then FIFO).
    pub fn pending(&self) -> Vec<JobFile> {
        Self::read_jobs(&self.queue_dir())
    }

    /// Jobs currently claimed by workers.
    pub fn running(&self) -> Vec<JobFile> {
        Self::read_jobs(&self.running_dir())
    }

    /// Ids of the claimed jobs, from file names alone (no parse).
    pub(crate) fn running_ids(&self) -> Vec<String> {
        Self::json_ids(&self.running_dir())
    }

    /// Claims the highest-priority pending job by renaming it into
    /// `running/`. The rename is the arbitration point: when several
    /// workers race, exactly one rename succeeds and the losers move on
    /// to the next candidate. A successful claim writes the job's
    /// lease, marking this host as its shard-owner.
    ///
    /// Each call rescans the queue; claim loops should hold a
    /// [`ClaimCursor`] and use [`Spool::claim_next_from`] instead.
    pub fn claim_next(&self) -> Option<JobFile> {
        self.claim_next_from(&mut ClaimCursor::default())
    }

    /// [`Spool::claim_next`] resuming from `cursor`: the queue scan is
    /// cached across calls, so under N contending claimers a rename
    /// loser moves on to the next cached candidate instead of rescanning
    /// and re-parsing the whole queue directory (the thundering-herd
    /// cost was O(queue²) per drain). The cursor also tracks contention
    /// for [`ClaimCursor::backoff`].
    pub fn claim_next_from(&self, cursor: &mut ClaimCursor) -> Option<JobFile> {
        loop {
            if cursor.cached.is_empty() {
                cursor.cached = self.pending().into();
                if cursor.cached.is_empty() {
                    return None;
                }
            }
            while let Some(job) = cursor.cached.pop_front() {
                let from = self.queue_dir().join(format!("{}.json", job.id));
                let to = self.running_dir().join(format!("{}.json", job.id));
                if std::fs::rename(&from, &to).is_ok() {
                    cursor.losses = 0;
                    let _ = self.write_lease(&LeaseName::job(&job.id), 1, 1);
                    return Some(job);
                }
                // A peer claimed (or a cancel dequeued) this candidate
                // under us; the next cached entry is O(1) away.
                cursor.losses = cursor.losses.saturating_add(1);
            }
            // Cache exhausted by losses: rescan once; an empty rescan
            // means the queue really is (momentarily) empty.
            cursor.cached = self.pending().into();
            if cursor.cached.is_empty() {
                return None;
            }
        }
    }

    // -----------------------------------------------------------------
    // Leases.

    /// Path of a lease file.
    pub fn lease_path(&self, name: &LeaseName) -> PathBuf {
        self.leases_dir().join(format!("{}.lease", name.stem()))
    }

    /// Reads a lease, `None` when missing or torn.
    pub fn read_lease(&self, name: &LeaseName) -> Option<Lease> {
        let text = std::fs::read_to_string(self.lease_path(name)).ok()?;
        Lease::from_json(&text)
    }

    /// Writes (or overwrites) a lease owned by this host.
    ///
    /// # Errors
    ///
    /// Any I/O error.
    pub fn write_lease(&self, name: &LeaseName, fence: u64, beat: u64) -> io::Result<()> {
        let lease = Lease {
            owner: self.host.clone(),
            pid: std::process::id(),
            beat,
            fence,
        };
        jobs::write_atomic(&self.lease_path(name), &lease.to_json())?;
        oblx_telemetry::incr(oblx_telemetry::Counter::LeaseAcquired);
        Ok(())
    }

    /// Advances the heartbeat counter of a lease this host believes it
    /// holds at `fence`. Returns `false` — **the holder has been fenced
    /// out and must abandon the work item** — when the lease on disk is
    /// missing, foreign-owned, or carries a different fence (a reaper
    /// re-opened the entry and someone re-claimed it).
    pub fn refresh_lease(&self, name: &LeaseName, fence: u64) -> bool {
        let Some(lease) = self.read_lease(name) else {
            oblx_telemetry::incr(oblx_telemetry::Counter::LeaseLost);
            return false;
        };
        if lease.owner != self.host || lease.fence != fence {
            oblx_telemetry::incr(oblx_telemetry::Counter::LeaseLost);
            return false;
        }
        let next = Lease {
            beat: lease.beat.wrapping_add(1),
            ..lease
        };
        jobs::write_atomic(&self.lease_path(name), &next.to_json()).is_ok()
    }

    /// Removes a lease (normal completion of the leased work item).
    pub fn release_lease(&self, name: &LeaseName) {
        if std::fs::remove_file(self.lease_path(name)).is_ok() {
            oblx_telemetry::incr(oblx_telemetry::Counter::LeaseReleased);
        }
    }

    /// Every lease in the spool, parsed. Torn files are skipped.
    pub fn leases(&self) -> Vec<(LeaseName, Lease)> {
        let Ok(entries) = std::fs::read_dir(self.leases_dir()) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(".lease")) else {
                continue;
            };
            let Some(name) = LeaseName::parse(stem) else {
                continue;
            };
            if let Ok(text) = std::fs::read_to_string(entry.path()) {
                if let Some(lease) = Lease::from_json(&text) {
                    out.push((name, lease));
                }
            }
        }
        out.sort_by_key(|a| a.0.stem());
        out
    }

    // -----------------------------------------------------------------
    // Per-seed work entries — the cross-host unit of migration.

    fn seed_entry_path(&self, job: &str, seed: u64, state: &str) -> PathBuf {
        self.job_seeds_dir(job)
            .join(format!("s{seed}.{state}.json"))
    }

    /// Shards a claimed job into per-seed `open` entries, skipping
    /// seeds that already have a done-record, an open entry, or a run
    /// entry. Idempotent: any daemon may call it to repair a shard left
    /// incomplete by a crashed claimer. Returns the entries created.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the seeds directory or writing entries.
    pub fn shard_job(&self, job: &JobFile) -> io::Result<usize> {
        let dir = self.job_seeds_dir(&job.id);
        std::fs::create_dir_all(&dir)?;
        let ckdir = self.ckpt_dir(&job.id);
        let mut created = 0;
        for (index, &seed) in job.request.seeds.iter().enumerate() {
            if ckdir.join(format!("seed_{seed}.done.json")).exists()
                || self.seed_entry_path(&job.id, seed, "open").exists()
                || self.seed_entry_path(&job.id, seed, "run").exists()
            {
                continue;
            }
            let entry = SeedEntry {
                job: job.id.clone(),
                seed,
                index,
                fence: 1,
            };
            jobs::write_atomic(
                &self.seed_entry_path(&job.id, seed, "open"),
                &entry.to_json(),
            )?;
            created += 1;
        }
        Ok(created)
    }

    fn read_seed_entries(&self, state: &str) -> Vec<SeedEntry> {
        let suffix = format!(".{state}.json");
        let Ok(jobs_dirs) = std::fs::read_dir(self.seeds_root()) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for job_dir in jobs_dirs.flatten() {
            let Ok(entries) = std::fs::read_dir(job_dir.path()) else {
                continue;
            };
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if !name.ends_with(&suffix) {
                    continue;
                }
                if let Ok(text) = std::fs::read_to_string(entry.path()) {
                    if let Some(e) = SeedEntry::from_json(&text) {
                        out.push(e);
                    }
                }
            }
        }
        out.sort_by(|a, b| a.job.cmp(&b.job).then(a.seed.cmp(&b.seed)));
        out
    }

    /// All stealable (open) seed entries, ordered by (job, seed).
    pub fn open_seed_entries(&self) -> Vec<SeedEntry> {
        self.read_seed_entries("open")
    }

    /// All claimed (run) seed entries, ordered by (job, seed).
    pub fn running_seed_entries(&self) -> Vec<SeedEntry> {
        self.read_seed_entries("run")
    }

    /// Whether job `id` still has any live (open or run) seed entry.
    pub fn has_live_seed_entries(&self, id: &str) -> bool {
        let Ok(entries) = std::fs::read_dir(self.job_seeds_dir(id)) else {
            return false;
        };
        entries.flatten().any(|e| {
            e.file_name()
                .to_str()
                .is_some_and(|n| n.ends_with(".open.json") || n.ends_with(".run.json"))
        })
    }

    /// Claims one open seed entry by renaming it to its `run` name —
    /// the cross-host arbitration point — and writes its lease at the
    /// entry's fence. Returns `false` when a peer won the rename.
    pub fn claim_seed(&self, entry: &SeedEntry) -> bool {
        let from = self.seed_entry_path(&entry.job, entry.seed, "open");
        let to = self.seed_entry_path(&entry.job, entry.seed, "run");
        if std::fs::rename(&from, &to).is_err() {
            return false;
        }
        let _ = self.write_lease(&LeaseName::seed(&entry.job, entry.seed), entry.fence, 1);
        true
    }

    /// Retires a finished seed's run entry and lease (its done-record
    /// is already durable in `ckpt/<id>/`).
    pub fn finish_seed(&self, entry: &SeedEntry) {
        let _ = std::fs::remove_file(self.seed_entry_path(&entry.job, entry.seed, "run"));
        self.release_lease(&LeaseName::seed(&entry.job, entry.seed));
    }

    /// Re-opens a claimed seed entry whose holder is gone (crashed, or
    /// lease expired): writes a fresh `open` entry with a **bumped
    /// fencing token**, then retires the stale run entry and lease.
    /// The order is crash-safe — if the reaper itself dies mid-way the
    /// open entry survives and the next `claim_seed` rename simply
    /// replaces the leftover run entry.
    pub fn reopen_seed(&self, entry: &SeedEntry) -> bool {
        let reopened = SeedEntry {
            fence: entry.fence + 1,
            ..entry.clone()
        };
        let open = self.seed_entry_path(&entry.job, entry.seed, "open");
        if jobs::write_atomic(&open, &reopened.to_json()).is_err() {
            return false;
        }
        self.release_lease(&LeaseName::seed(&entry.job, entry.seed));
        let _ = std::fs::remove_file(self.seed_entry_path(&entry.job, entry.seed, "run"));
        true
    }

    /// Retires every per-seed trace of a terminal job: its seeds
    /// directory and every seed lease — including one whose holder was
    /// killed inside [`Spool::finish_seed`], after the run entry went
    /// but before the lease did.
    pub fn remove_seed_entries(&self, id: &str) {
        let _ = std::fs::remove_dir_all(self.job_seeds_dir(id));
        let Ok(entries) = std::fs::read_dir(self.leases_dir()) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let lease = name
                .to_str()
                .and_then(|n| n.strip_suffix(".lease"))
                .and_then(LeaseName::parse)
                .filter(|l| matches!(l, LeaseName::Seed(job, _) if job == id));
            if let Some(lease) = lease {
                self.release_lease(&lease);
            }
        }
    }

    // -----------------------------------------------------------------
    // Host heartbeats.

    /// Writes this daemon's heartbeat snapshot (`hosts/<host>.json`):
    /// worker count plus a beat counter the status side can watch for
    /// staleness.
    pub fn write_host_heartbeat(&self, workers: usize, beat: u64) {
        let ts = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs_f64())
            .unwrap_or(0.0);
        let doc = ObjBuilder::new()
            .field("format", "oblx-host")
            .field("version", 1i64)
            .field("host", self.host.as_str())
            .field("pid", i64::from(std::process::id()))
            .field("workers", workers)
            .field("beat", jobs::u64_to_value(beat))
            .field("ts", ts)
            .build();
        let _ = jobs::write_atomic(
            &self.hosts_dir().join(format!("{}.json", self.host)),
            &doc.to_json(),
        );
    }

    /// Every host heartbeat in the spool, sorted by host id.
    pub fn hosts(&self) -> Vec<HostInfo> {
        let Ok(entries) = std::fs::read_dir(self.hosts_dir()) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for entry in entries.flatten() {
            let Ok(text) = std::fs::read_to_string(entry.path()) else {
                continue;
            };
            let Ok(v) = astrx_oblx::json::parse(&text) else {
                continue;
            };
            if v.get("format").and_then(Value::as_str) != Some("oblx-host") {
                continue;
            }
            let Some(host) = v.get("host").and_then(Value::as_str) else {
                continue;
            };
            out.push(HostInfo {
                host: host.to_string(),
                pid: v.get("pid").and_then(Value::as_int).unwrap_or(0) as u32,
                workers: v
                    .get("workers")
                    .and_then(Value::as_int)
                    .and_then(|i| usize::try_from(i).ok())
                    .unwrap_or(0),
                beat: v
                    .get("beat")
                    .and_then(|b| jobs::u64_from_value(b).ok())
                    .unwrap_or(0),
                ts: v.get("ts").and_then(Value::as_f64).unwrap_or(0.0),
            });
        }
        out.sort_by(|a, b| a.host.cmp(&b.host));
        out
    }

    /// Scans `queue/` and `running/` for `.json` files that cannot be
    /// decoded as jobs — torn writes, truncation, garbage — and renames
    /// them into `corrupt/`. Returns the quarantined file stems.
    ///
    /// Undecodable files used to be skipped silently by every scan,
    /// sitting in the queue forever with no operator-visible trace;
    /// quarantining makes the failure diagnosable and keeps rescans
    /// cheap. A file that vanishes mid-scan (claimed or completed by a
    /// racing worker) is *not* corruption and is left alone.
    pub fn quarantine_corrupt(&self) -> Vec<String> {
        let mut quarantined = Vec::new();
        for dir in [self.queue_dir(), self.running_dir()] {
            let Ok(entries) = std::fs::read_dir(&dir) else {
                continue;
            };
            for entry in entries.flatten() {
                let path = entry.path();
                if path.extension().and_then(|e| e.to_str()) != Some("json") {
                    continue;
                }
                // Only a file we can *read* but not *decode* is corrupt.
                let Ok(text) = std::fs::read_to_string(&path) else {
                    continue;
                };
                if jobs::job_from_json(&text).is_ok() {
                    continue;
                }
                let Some(stem) = path.file_stem().map(|s| s.to_string_lossy().into_owned()) else {
                    continue;
                };
                let to = self.corrupt_dir().join(format!("{stem}.json"));
                if std::fs::rename(&path, &to).is_ok() {
                    quarantined.push(stem);
                }
            }
        }
        quarantined
    }

    /// Startup recovery: requeues `running/` jobs and re-opens claimed
    /// seed entries whose lease names **this host id** — the orphans
    /// of this daemon's previous run. Work leased to another host, and
    /// lease-less work, is left strictly alone: the pool reaper takes
    /// it once the lease timeout passes, so recovery is safe on any
    /// daemon at any start. A tombstoned own orphan is retired rather
    /// than requeued. Each re-opened seed is logged (`seed_recovered`,
    /// with its `seed`) in its job's event log. Returns the id of each
    /// affected job once. Undecodable `running/` entries are
    /// quarantined (see [`Spool::quarantine_corrupt`]) rather than
    /// silently left behind.
    pub fn recover(&self) -> Vec<String> {
        let _ = self.quarantine_corrupt();
        let mut recovered = Vec::new();
        for job in self.running() {
            if !self.owns_lease(&LeaseName::job(&job.id)) {
                continue;
            }
            // A tombstoned orphan is not worth requeueing: retire the
            // job here instead of resuming it only to stop it again at
            // its first checkpoint — but only once no peer still runs
            // one of its seeds.
            if self.cancel_requested(&job.id) {
                if !self.foreign_live_seeds(&job.id) {
                    let _ = self.try_retire_cancelled(&job.id, &job.request.name);
                }
                continue;
            }
            let from = self.running_dir().join(format!("{}.json", job.id));
            let to = self.queue_dir().join(format!("{}.json", job.id));
            if std::fs::rename(&from, &to).is_ok() {
                self.release_lease(&LeaseName::job(&job.id));
                recovered.push(job.id);
            }
        }
        for entry in self.running_seed_entries() {
            if !self.owns_lease(&LeaseName::seed(&entry.job, entry.seed))
                || !self.reopen_seed(&entry)
            {
                continue;
            }
            crate::events::EventLog::open(self, &entry.job).emit(
                "seed_recovered",
                &[
                    ("seed", jobs::u64_to_value(entry.seed)),
                    ("fence", jobs::u64_to_value(entry.fence + 1)),
                ],
            );
            if !recovered.contains(&entry.job) {
                recovered.push(entry.job);
            }
        }
        recovered
    }

    /// Whether the lease `name` exists and names this host.
    fn owns_lease(&self, name: &LeaseName) -> bool {
        self.read_lease(name).is_some_and(|l| l.owner == self.host)
    }

    /// Whether any seed of `id` is claimed (`run`) under a lease owned
    /// by a *different* host.
    fn foreign_live_seeds(&self, id: &str) -> bool {
        self.running_seed_entries()
            .iter()
            .filter(|e| e.job == id)
            .any(|e| {
                self.read_lease(&LeaseName::seed(&e.job, e.seed))
                    .is_some_and(|l| l.owner != self.host)
            })
    }

    /// Records a finished job: writes the result record into `done/`
    /// and drops the `running/` entry.
    ///
    /// # Errors
    ///
    /// Any I/O error writing the record.
    pub fn complete(&self, id: &str, record: &Value) -> io::Result<()> {
        let path = self.done_dir().join(format!("{id}.json"));
        jobs::write_atomic(&path, &record.to_json())?;
        let _ = std::fs::remove_file(self.running_dir().join(format!("{id}.json")));
        Ok(())
    }

    /// Reads the result record of a finished job, if any.
    pub fn done(&self, id: &str) -> Option<Value> {
        let text = std::fs::read_to_string(self.done_dir().join(format!("{id}.json"))).ok()?;
        astrx_oblx::json::parse(&text).ok()
    }

    /// Ids of all finished jobs.
    pub fn done_ids(&self) -> Vec<String> {
        Self::json_ids(&self.done_dir())
    }

    /// Ids of all cancelled jobs.
    pub fn cancelled_ids(&self) -> Vec<String> {
        Self::json_ids(&self.cancelled_dir())
    }

    fn json_ids(dir: &Path) -> Vec<String> {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return Vec::new();
        };
        let mut ids: Vec<String> = entries
            .flatten()
            .filter_map(|e| {
                let p = e.path();
                if p.extension().and_then(|x| x.to_str()) == Some("json") {
                    p.file_stem().map(|s| s.to_string_lossy().into_owned())
                } else {
                    None
                }
            })
            .collect();
        ids.sort();
        ids
    }

    /// Path of job `id`'s cancel tombstone.
    pub fn tombstone_path(&self, id: &str) -> PathBuf {
        self.tombstones_dir().join(format!("{id}.tomb"))
    }

    /// Whether a cancel has been requested for `id` and not yet
    /// acknowledged. Checked by the pool at claim time and at every
    /// per-seed checkpoint.
    pub fn cancel_requested(&self, id: &str) -> bool {
        self.tombstone_path(id).exists()
    }

    /// Reads the terminal record of a cancelled job, if any.
    pub fn cancelled(&self, id: &str) -> Option<Value> {
        let text = std::fs::read_to_string(self.cancelled_dir().join(format!("{id}.json"))).ok()?;
        astrx_oblx::json::parse(&text).ok()
    }

    /// Requests cancellation of job `id`.
    ///
    /// A still-queued job is dequeued and moved straight to its
    /// `cancelled` terminal state. A claimed job gets a tombstone that
    /// the worker pool honors: each in-flight seed stops at its next
    /// checkpoint, and the job finalizes into `cancelled/` instead of
    /// `done/` (emitting a `job_cancelled` event). Cancelling a job
    /// that is already terminal, or unknown, changes nothing.
    ///
    /// # Errors
    ///
    /// Any I/O error writing the tombstone or the cancelled record.
    pub fn cancel(&self, id: &str, name: &str) -> io::Result<CancelOutcome> {
        if self.done(id).is_some() {
            return Ok(CancelOutcome::AlreadyDone);
        }
        if self.cancelled(id).is_some() {
            return Ok(CancelOutcome::AlreadyCancelled);
        }
        // Tombstone first: from this instant a racing worker will see
        // the request at claim time or at its next checkpoint.
        jobs::write_atomic(&self.tombstone_path(id), "")?;
        // `remove_file` vs the pool's claim `rename` race on the same
        // queue entry: exactly one syscall wins, so a job is either
        // dequeued here or claimed there, never both.
        if std::fs::remove_file(self.queue_dir().join(format!("{id}.json"))).is_ok() {
            self.complete_cancelled(id, name)?;
            return Ok(CancelOutcome::Dequeued);
        }
        if self.running_dir().join(format!("{id}.json")).exists() {
            return Ok(CancelOutcome::Requested);
        }
        // Neither queued nor running. The job may have completed in the
        // window since the `done` check above — either way there is
        // nothing to cancel, so retract the tombstone.
        let _ = std::fs::remove_file(self.tombstone_path(id));
        if self.done(id).is_some() {
            return Ok(CancelOutcome::AlreadyDone);
        }
        Ok(CancelOutcome::Unknown)
    }

    /// Writes job `id`'s `cancelled` terminal record and retires every
    /// live trace of it (queue/running entries, tombstone). Called by
    /// [`Spool::cancel`] for queued jobs and by the pool once the last
    /// in-flight seed of a tombstoned job has stopped.
    ///
    /// # Errors
    ///
    /// Any I/O error writing the record.
    pub fn complete_cancelled(&self, id: &str, name: &str) -> io::Result<()> {
        let record = astrx_oblx::json::ObjBuilder::new()
            .field("format", "oblx-result")
            .field("version", 1i64)
            .field("id", id)
            .field("name", name)
            .field("status", "cancelled")
            .build();
        let path = self.cancelled_dir().join(format!("{id}.json"));
        jobs::write_atomic(&path, &record.to_json())?;
        let _ = std::fs::remove_file(self.running_dir().join(format!("{id}.json")));
        let _ = std::fs::remove_file(self.queue_dir().join(format!("{id}.json")));
        let _ = std::fs::remove_file(self.tombstone_path(id));
        self.remove_seed_entries(id);
        self.release_lease(&LeaseName::job(id));
        crate::events::EventLog::open(self, id).emit("job_cancelled", &[("name", name.into())]);
        oblx_telemetry::incr(oblx_telemetry::Counter::JobCancelled);
        Ok(())
    }

    /// Cluster-safe retirement of a tombstoned, claimed job: exactly
    /// one caller across all hosts wins the arbitration rename of the
    /// job spec into `ckpt/<id>/job.json` and writes the `cancelled`
    /// record (via [`Spool::complete_cancelled`]); the losers see
    /// `Ok(false)`. Callers must first ensure no peer still runs one of
    /// the job's seeds.
    ///
    /// # Errors
    ///
    /// Any I/O error writing the record.
    pub fn try_retire_cancelled(&self, id: &str, name: &str) -> io::Result<bool> {
        if !self.claim_finalize(id) {
            return Ok(false);
        }
        self.complete_cancelled(id, name)?;
        let _ = std::fs::remove_dir_all(self.ckpt_dir(id));
        Ok(true)
    }

    /// The finalize arbitration point: renames the job spec (from
    /// `running/`, or `queue/` if a recover requeued it mid-flight)
    /// into `ckpt/<id>/job.json`. Exactly one caller across all hosts
    /// succeeds; a crashed winner leaves `job.json` behind, which the
    /// reaper detects (terminal record missing) and re-finalizes from.
    pub fn claim_finalize(&self, id: &str) -> bool {
        let parked = self.parked_job_path(id);
        let _ = std::fs::create_dir_all(self.ckpt_dir(id));
        std::fs::rename(self.running_dir().join(format!("{id}.json")), &parked).is_ok()
            || std::fs::rename(self.queue_dir().join(format!("{id}.json")), &parked).is_ok()
    }

    /// Where [`Spool::claim_finalize`] parks the job spec while the
    /// terminal record is written.
    pub fn parked_job_path(&self, id: &str) -> PathBuf {
        self.ckpt_dir(id).join("job.json")
    }

    /// Reads the spec of a claimed (running) job.
    pub fn read_running_job(&self, id: &str) -> Option<JobFile> {
        let text = std::fs::read_to_string(self.running_dir().join(format!("{id}.json"))).ok()?;
        jobs::job_from_json(&text).ok()
    }

    /// Ids with a parked job spec (`ckpt/<id>/job.json`) — jobs whose
    /// finalize was claimed; ones without a terminal record yet belong
    /// to a crashed finalizer and are re-finalized by the reaper.
    pub fn parked_job_ids(&self) -> Vec<String> {
        let Ok(entries) = std::fs::read_dir(self.ckpt_root()) else {
            return Vec::new();
        };
        let mut out: Vec<String> = entries
            .flatten()
            .filter(|e| e.path().join("job.json").exists())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        out.sort();
        out
    }

    /// Reads a parked job spec.
    pub fn read_parked_job(&self, id: &str) -> Option<JobFile> {
        let text = std::fs::read_to_string(self.parked_job_path(id)).ok()?;
        jobs::job_from_json(&text).ok()
    }
}

/// Claim-scan cache and contention tracker for
/// [`Spool::claim_next_from`]. One per claim loop (worker thread);
/// never shared.
#[derive(Debug, Default)]
pub struct ClaimCursor {
    cached: VecDeque<JobFile>,
    losses: u32,
    rng: u64,
}

impl ClaimCursor {
    /// How long the claim loop should sleep after a contended scan:
    /// zero while claims are landing, then exponential in the number of
    /// consecutive rename losses (1 ms, 2 ms, … capped at 16 ms) with
    /// up to 100% multiplicative jitter so N contending hosts spread
    /// out instead of rescanning in lockstep.
    pub fn backoff(&mut self) -> Duration {
        if self.losses == 0 {
            return Duration::ZERO;
        }
        let base_us = 1000u64 << u64::from(self.losses.min(5) - 1);
        if self.rng == 0 {
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.subsec_nanos())
                .unwrap_or(1);
            self.rng = (u64::from(std::process::id()) << 32) | u64::from(nanos) | 1;
        }
        // xorshift64 — cheap, seedable, good enough to decorrelate.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        Duration::from_micros(base_us + self.rng % base_us)
    }

    /// Consecutive rename losses since the last successful claim.
    pub fn losses(&self) -> u32 {
        self.losses
    }
}

/// Names a leased work item: a whole job (shard ownership) or one seed
/// of a job (run liveness).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseName {
    /// The job-level lease written at claim time.
    Job(String),
    /// The per-seed lease refreshed at every checkpoint.
    Seed(String, u64),
}

impl LeaseName {
    /// Lease name of job `id`.
    pub fn job(id: &str) -> LeaseName {
        LeaseName::Job(id.to_string())
    }

    /// Lease name of seed `seed` of job `id`.
    pub fn seed(id: &str, seed: u64) -> LeaseName {
        LeaseName::Seed(id.to_string(), seed)
    }

    /// The file stem under `leases/`: `<id>` or `<id>.s<seed>`.
    /// Job ids never contain `.`, so the two forms cannot collide.
    pub fn stem(&self) -> String {
        match self {
            LeaseName::Job(id) => id.clone(),
            LeaseName::Seed(id, seed) => format!("{id}.s{seed}"),
        }
    }

    /// Inverse of [`LeaseName::stem`].
    pub fn parse(stem: &str) -> Option<LeaseName> {
        if stem.is_empty() {
            return None;
        }
        if let Some((id, seed)) = stem.rsplit_once(".s") {
            if let Ok(seed) = seed.parse::<u64>() {
                return Some(LeaseName::Seed(id.to_string(), seed));
            }
        }
        Some(LeaseName::Job(stem.to_string()))
    }

    /// The job this lease belongs to.
    pub fn job_id(&self) -> &str {
        match self {
            LeaseName::Job(id) | LeaseName::Seed(id, _) => id,
        }
    }
}

/// One liveness lease on disk: who holds a work item, at what fencing
/// token, and a heartbeat counter peers watch for progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// Host id of the holder.
    pub owner: String,
    /// Pid of the holding daemon (diagnostic only).
    pub pid: u32,
    /// Heartbeat counter; bumped by [`Spool::refresh_lease`].
    pub beat: u64,
    /// Fencing token; must match the work entry's fence to refresh.
    pub fence: u64,
}

impl Lease {
    /// Serializes to the `oblx-lease` v1 record.
    pub fn to_json(&self) -> String {
        ObjBuilder::new()
            .field("format", "oblx-lease")
            .field("version", 1i64)
            .field("owner", self.owner.as_str())
            .field("pid", i64::from(self.pid))
            .field("beat", jobs::u64_to_value(self.beat))
            .field("fence", jobs::u64_to_value(self.fence))
            .build()
            .to_json()
    }

    /// Parses an `oblx-lease` v1 record; `None` on any mismatch.
    pub fn from_json(text: &str) -> Option<Lease> {
        let v = astrx_oblx::json::parse(text).ok()?;
        if v.get("format")?.as_str()? != "oblx-lease" || v.get("version")?.as_int()? != 1 {
            return None;
        }
        Some(Lease {
            owner: v.get("owner")?.as_str()?.to_string(),
            pid: u32::try_from(v.get("pid").and_then(Value::as_int).unwrap_or(0)).unwrap_or(0),
            beat: jobs::u64_from_value(v.get("beat")?).ok()?,
            fence: jobs::u64_from_value(v.get("fence")?).ok()?,
        })
    }
}

/// One per-seed work entry (`seeds/<job>/s<seed>.<state>.json`) — the
/// cross-host unit of work migration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedEntry {
    /// Owning job id.
    pub job: String,
    /// The RNG seed this entry runs.
    pub seed: u64,
    /// Position in the job's seed list (result ordering).
    pub index: usize,
    /// Fencing token; bumped each time the entry is re-opened.
    pub fence: u64,
}

impl SeedEntry {
    /// Serializes to the `oblx-seed` v1 record.
    pub fn to_json(&self) -> String {
        ObjBuilder::new()
            .field("format", "oblx-seed")
            .field("version", 1i64)
            .field("job", self.job.as_str())
            .field("seed", jobs::u64_to_value(self.seed))
            .field("index", self.index)
            .field("fence", jobs::u64_to_value(self.fence))
            .build()
            .to_json()
    }

    /// Parses an `oblx-seed` v1 record; `None` on any mismatch.
    pub fn from_json(text: &str) -> Option<SeedEntry> {
        let v = astrx_oblx::json::parse(text).ok()?;
        if v.get("format")?.as_str()? != "oblx-seed" || v.get("version")?.as_int()? != 1 {
            return None;
        }
        Some(SeedEntry {
            job: v.get("job")?.as_str()?.to_string(),
            seed: jobs::u64_from_value(v.get("seed")?).ok()?,
            index: usize::try_from(v.get("index")?.as_int()?).ok()?,
            fence: jobs::u64_from_value(v.get("fence")?).ok()?,
        })
    }
}

/// A parsed `hosts/<host>.json` heartbeat snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct HostInfo {
    /// The daemon's host id.
    pub host: String,
    /// Its pid.
    pub pid: u32,
    /// Worker threads it runs.
    pub workers: usize,
    /// Heartbeat counter (bumped every reaper tick).
    pub beat: u64,
    /// Wall-clock seconds since the epoch at the last beat
    /// (diagnostic only — liveness uses beat observation).
    pub ts: f64,
}

/// What [`Spool::cancel`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was still queued: dequeued and cancelled immediately.
    Dequeued,
    /// The job is claimed: tombstoned, the pool will stop and retire it.
    Requested,
    /// The job had already finished; its result stands.
    AlreadyDone,
    /// The job was already cancelled.
    AlreadyCancelled,
    /// No such job exists in the spool.
    Unknown,
}

#[cfg(test)]
mod tests {
    use super::*;
    use astrx_oblx::SynthesisOptions;

    fn req(name: &str, priority: i64) -> JobRequest {
        JobRequest {
            name: name.into(),
            source: ".end\n".into(),
            deck: String::new(),
            options: SynthesisOptions::default(),
            seeds: vec![1],
            priority,
        }
    }

    fn temp_spool(tag: &str) -> Spool {
        let root = std::env::temp_dir().join(format!(
            "oblx-spool-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        Spool::open(root).unwrap()
    }

    #[test]
    fn claim_order_is_priority_then_fifo() {
        let spool = temp_spool("order");
        spool.submit(req("low-early", 0)).unwrap();
        spool.submit(req("high", 5)).unwrap();
        spool.submit(req("low-late", 0)).unwrap();
        let order: Vec<String> = std::iter::from_fn(|| spool.claim_next())
            .map(|j| j.request.name)
            .collect();
        assert_eq!(order, ["high", "low-early", "low-late"]);
        assert_eq!(spool.pending().len(), 0);
        assert_eq!(spool.running().len(), 3);
        std::fs::remove_dir_all(spool.root()).unwrap();
    }

    #[test]
    fn recover_requeues_running_jobs() {
        let spool = temp_spool("recover");
        spool.submit(req("a", 0)).unwrap();
        let job = spool.claim_next().unwrap();
        assert!(spool.pending().is_empty());
        let recovered = spool.recover();
        assert_eq!(recovered, std::slice::from_ref(&job.id));
        assert_eq!(spool.pending().len(), 1);
        assert!(spool.running().is_empty());
        std::fs::remove_dir_all(spool.root()).unwrap();
    }

    #[test]
    fn complete_moves_job_to_done() {
        let spool = temp_spool("complete");
        spool.submit(req("a", 0)).unwrap();
        let job = spool.claim_next().unwrap();
        let record = astrx_oblx::json::ObjBuilder::new()
            .field("status", "ok")
            .build();
        spool.complete(&job.id, &record).unwrap();
        assert!(spool.running().is_empty());
        assert_eq!(spool.done_ids(), std::slice::from_ref(&job.id));
        assert_eq!(
            spool.done(&job.id).unwrap().get("status").unwrap().as_str(),
            Some("ok")
        );
        std::fs::remove_dir_all(spool.root()).unwrap();
    }

    #[test]
    fn corrupt_queue_files_are_skipped() {
        let spool = temp_spool("corrupt");
        spool.submit(req("good", 0)).unwrap();
        std::fs::write(spool.queue_dir().join("torn.json"), "{\"format\":").unwrap();
        let jobs = spool.pending();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].request.name, "good");
        std::fs::remove_dir_all(spool.root()).unwrap();
    }

    #[test]
    fn quarantine_moves_undecodable_files_out_of_the_scan_path() {
        let spool = temp_spool("quarantine");
        spool.submit(req("good", 0)).unwrap();
        std::fs::write(spool.queue_dir().join("torn.json"), "{\"format\":").unwrap();
        std::fs::write(spool.running_dir().join("mangled.json"), "not json").unwrap();
        let mut q = spool.quarantine_corrupt();
        q.sort();
        assert_eq!(q, ["mangled", "torn"]);
        assert!(spool.corrupt_dir().join("torn.json").exists());
        assert!(spool.corrupt_dir().join("mangled.json").exists());
        assert_eq!(spool.pending().len(), 1, "the good job survives");
        assert!(spool.quarantine_corrupt().is_empty(), "rescan is clean");
        std::fs::remove_dir_all(spool.root()).unwrap();
    }

    #[test]
    fn recover_quarantines_corrupt_running_entries() {
        let spool = temp_spool("recover-corrupt");
        spool.submit(req("a", 0)).unwrap();
        let job = spool.claim_next().unwrap();
        std::fs::write(spool.running_dir().join("torn.json"), "{{{{").unwrap();
        let recovered = spool.recover();
        assert_eq!(recovered, std::slice::from_ref(&job.id));
        assert!(spool.corrupt_dir().join("torn.json").exists());
        assert!(spool.running().is_empty());
        std::fs::remove_dir_all(spool.root()).unwrap();
    }

    #[test]
    fn cancel_dequeues_a_pending_job() {
        let spool = temp_spool("cancel-queued");
        let job = spool.submit(req("victim", 0)).unwrap();
        assert_eq!(
            spool.cancel(&job.id, "victim").unwrap(),
            CancelOutcome::Dequeued
        );
        assert!(spool.pending().is_empty());
        assert!(!spool.cancel_requested(&job.id), "tombstone retired");
        let record = spool.cancelled(&job.id).unwrap();
        assert_eq!(record.get("status").unwrap().as_str(), Some("cancelled"));
        assert_eq!(spool.cancelled_ids(), std::slice::from_ref(&job.id));
        // Idempotent: a second cancel reports the terminal state.
        assert_eq!(
            spool.cancel(&job.id, "victim").unwrap(),
            CancelOutcome::AlreadyCancelled
        );
        std::fs::remove_dir_all(spool.root()).unwrap();
    }

    #[test]
    fn cancel_tombstones_a_claimed_job() {
        let spool = temp_spool("cancel-running");
        let job = spool.submit(req("victim", 0)).unwrap();
        let claimed = spool.claim_next().unwrap();
        assert_eq!(claimed.id, job.id);
        assert_eq!(
            spool.cancel(&job.id, "victim").unwrap(),
            CancelOutcome::Requested
        );
        assert!(spool.cancel_requested(&job.id));
        assert!(spool.cancelled(&job.id).is_none(), "not yet terminal");
        // The pool's acknowledgement path.
        spool.complete_cancelled(&job.id, "victim").unwrap();
        assert!(spool.running().is_empty());
        assert!(!spool.cancel_requested(&job.id));
        assert!(spool.cancelled(&job.id).is_some());
        std::fs::remove_dir_all(spool.root()).unwrap();
    }

    #[test]
    fn cancel_of_done_or_unknown_jobs_is_a_no_op() {
        let spool = temp_spool("cancel-noop");
        spool.submit(req("a", 0)).unwrap();
        let job = spool.claim_next().unwrap();
        let record = astrx_oblx::json::ObjBuilder::new()
            .field("status", "ok")
            .build();
        spool.complete(&job.id, &record).unwrap();
        assert_eq!(
            spool.cancel(&job.id, "a").unwrap(),
            CancelOutcome::AlreadyDone
        );
        assert_eq!(
            spool.cancel("j999999", "ghost").unwrap(),
            CancelOutcome::Unknown
        );
        assert!(!spool.cancel_requested("j999999"), "no stray tombstone");
        std::fs::remove_dir_all(spool.root()).unwrap();
    }

    #[test]
    fn recover_retires_tombstoned_orphans() {
        let spool = temp_spool("recover-cancel");
        spool.submit(req("keep", 0)).unwrap();
        spool.submit(req("drop", 0)).unwrap();
        let keep = spool.claim_next().unwrap();
        let drop = spool.claim_next().unwrap();
        assert_eq!(
            spool.cancel(&drop.id, "drop").unwrap(),
            CancelOutcome::Requested
        );
        let recovered = spool.recover();
        assert_eq!(recovered, std::slice::from_ref(&keep.id));
        assert_eq!(spool.pending().len(), 1);
        assert!(spool.cancelled(&drop.id).is_some());
        std::fs::remove_dir_all(spool.root()).unwrap();
    }

    #[test]
    fn sequence_numbers_are_unique_across_threads() {
        let spool = temp_spool("seq");
        let mut ids: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let spool = spool.clone();
                    scope.spawn(move || {
                        (0..5)
                            .map(|_| spool.submit(req("x", 0)).unwrap().id)
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 20, "all submissions got distinct ids");
        std::fs::remove_dir_all(spool.root()).unwrap();
    }

    #[test]
    fn recover_leaves_lease_less_and_peer_leased_work_alone() {
        let spool = temp_spool("recover-split").with_host("me");
        // A claimer that died between its claim renames and its lease
        // writes: a job in running/ and a seed run entry, neither leased.
        let orphan = spool.submit(req("orphan", 0)).unwrap();
        let file = format!("{}.json", orphan.id);
        std::fs::rename(
            spool.queue_dir().join(&file),
            spool.running_dir().join(&file),
        )
        .unwrap();
        spool.shard_job(&orphan).unwrap();
        std::fs::rename(
            spool.seed_entry_path(&orphan.id, 1, "open"),
            spool.seed_entry_path(&orphan.id, 1, "run"),
        )
        .unwrap();
        // A job whose seed a live peer is running.
        let peer = spool.clone().with_host("peer");
        peer.submit(req("busy", 0)).unwrap();
        let busy = peer.claim_next().unwrap();
        peer.shard_job(&busy).unwrap();
        let entry = peer.open_seed_entries().pop().unwrap();
        assert!(peer.claim_seed(&entry));

        let before = spool.running_seed_entries();
        assert!(spool.recover().is_empty(), "nothing here is leased to `me`");
        assert_eq!(spool.running().len(), 2, "both jobs stay claimed");
        assert_eq!(spool.running_seed_entries(), before);
        assert!(spool.open_seed_entries().is_empty());
        assert!(spool.read_lease(&LeaseName::job(&orphan.id)).is_none());
        let lease = spool.read_lease(&LeaseName::seed(&busy.id, 1)).unwrap();
        assert_eq!((lease.owner.as_str(), lease.fence), ("peer", entry.fence));
        std::fs::remove_dir_all(spool.root()).unwrap();
    }

    #[test]
    fn recover_logs_a_reopened_seed_in_its_jobs_own_log() {
        // `me` stole seed 1 of a job a peer shard-owns, then died.
        let spool = temp_spool("recover-seed").with_host("me");
        let peer = spool.clone().with_host("peer");
        peer.submit(req("a", 0)).unwrap();
        let job = peer.claim_next().unwrap();
        peer.shard_job(&job).unwrap();
        let entry = spool.open_seed_entries().pop().unwrap();
        assert!(spool.claim_seed(&entry));

        let recovered = spool.recover();
        assert_eq!(recovered, std::slice::from_ref(&job.id));
        // What every caller does with the returned ids.
        for id in &recovered {
            crate::events::EventLog::open(&spool, id).emit("recovered", &[]);
        }
        let logs: Vec<String> = std::fs::read_dir(spool.events_dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            logs.iter().all(|n| !n.contains(":s")),
            "stray logs: {logs:?}"
        );
        let events = crate::events::EventLog::open(&spool, &job.id).read();
        assert!(
            events.iter().any(|e| {
                e.get("event").and_then(Value::as_str) == Some("seed_recovered")
                    && e.get("seed") == Some(&jobs::u64_to_value(1))
            }),
            "the job's log names the seed: {events:?}"
        );
        assert_eq!(spool.open_seed_entries()[0].fence, entry.fence + 1);
        assert_eq!(spool.running().len(), 1, "the peer's job stays claimed");
        std::fs::remove_dir_all(spool.root()).unwrap();
    }
}
