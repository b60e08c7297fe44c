//! **oblx-runtime** — `oblxd`, a resumable synthesis job runtime.
//!
//! The 1994 ASTRX/OBLX workflow was "start several overnight runs, pick
//! the best in the morning" — which presumes the runs survive the
//! night. This crate supplies the missing operational layer as a small,
//! dependency-free daemon:
//!
//! * [`spool`] — a directory-backed job queue. Jobs are JSON files
//!   (see `astrx_oblx::jobs`) moved atomically between `queue/`,
//!   `running/` and `done/`; a crash leaves either the old file or the
//!   new one, never a torn hybrid. Priority order is (priority desc,
//!   submission seq asc).
//! * [`pool`] — a work-stealing worker pool. Each job is sharded into
//!   per-seed tasks; idle workers steal queued seeds from busy ones, so
//!   a single 8-seed job saturates 8 cores while a burst of small jobs
//!   still drains fairly.
//! * Checkpoint/restore — every per-seed run persists a full
//!   [`astrx_oblx::SynthesisCheckpoint`] (engine, RNG, schedule,
//!   adaptive weights, trace) every N proposals. A killed daemon
//!   restarted over the same spool resumes every interrupted seed from
//!   its last checkpoint and produces **bit-identical** final results —
//!   the integration tests SIGKILL the daemon mid-run and diff the
//!   result files.
//! * [`events`] — a JSONL event log per job (`submitted`, `started`,
//!   `seed_started`, `checkpoint`, `seed_done`, `done`, `failed`,
//!   `recovered`, and `seed_`/`job_` + `recovered`/`reaped` for work
//!   taken over), plus the status aggregation behind `oblxd status`.
//!
//! The binary front end lives in `src/bin/oblxd.rs`:
//!
//! ```text
//! oblxd submit --dir SPOOL (--bench NAME | file.ox) [--seeds …] [--moves N] [--priority P]
//! oblxd run    --dir SPOOL [--workers N] [--checkpoint-interval N] [--drain]
//! oblxd status --dir SPOOL
//! ```

#[cfg(test)]
mod crash_sweep;
pub mod events;
pub mod pool;
pub mod signal;
pub mod spool;

use astrx_oblx::jobs::JobRequest;
use astrx_oblx::CompiledProblem;
use oblx_devices::process::ProcessDeck;
use oblx_netlist::ParseError;

/// Resolves a process-deck label (as produced by [`ProcessDeck::label`])
/// back to the deck.
pub fn deck_from_label(label: &str) -> Option<ProcessDeck> {
    [
        ProcessDeck::C2Level1,
        ProcessDeck::C2Bsim,
        ProcessDeck::C12Bsim,
        ProcessDeck::C12Level3,
        ProcessDeck::BicmosC2,
    ]
    .into_iter()
    .find(|d| d.label() == label)
}

/// Why a job request cannot be turned into a [`CompiledProblem`] —
/// structured so the HTTP edge can surface parse locations as machine-
/// readable 4xx JSON instead of flattening everything into one string.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The `.ox` source failed to parse; carries line/column.
    Parse(ParseError),
    /// The request names a process deck this build does not know.
    UnknownDeck(String),
    /// The parsed problem failed semantic compilation.
    Compile(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Parse(e) => write!(f, "{e}"),
            JobError::UnknownDeck(deck) => write!(f, "unknown process deck `{deck}`"),
            JobError::Compile(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for JobError {}

/// Validates and compiles a job's problem description, appending the
/// `.model` cards of its process deck when one is named. This is the
/// single validation path shared by `oblxd submit`, the worker pool,
/// and the HTTP edge, so a deck rejected at one boundary is rejected
/// identically at every other.
///
/// # Errors
///
/// A structured [`JobError`].
pub fn validate_job(req: &JobRequest) -> Result<CompiledProblem, JobError> {
    let mut problem = oblx_netlist::parse_problem(&req.source).map_err(JobError::Parse)?;
    if !req.deck.is_empty() {
        let deck =
            deck_from_label(&req.deck).ok_or_else(|| JobError::UnknownDeck(req.deck.clone()))?;
        problem.models.extend(deck.cards());
    }
    astrx_oblx::compile(problem).map_err(|e| JobError::Compile(e.to_string()))
}

/// Compiles a job's problem description, appending the `.model` cards
/// of its process deck when one is named.
///
/// # Errors
///
/// A human-readable message on parse, deck-lookup, or compile failure.
pub fn compile_job(req: &JobRequest) -> Result<CompiledProblem, String> {
    validate_job(req).map_err(|e| format!("{}: {e}", req.name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deck_labels_roundtrip() {
        for d in [
            ProcessDeck::C2Level1,
            ProcessDeck::C2Bsim,
            ProcessDeck::C12Bsim,
            ProcessDeck::C12Level3,
            ProcessDeck::BicmosC2,
        ] {
            assert_eq!(deck_from_label(d.label()), Some(d));
        }
        assert_eq!(deck_from_label("noodle"), None);
    }

    #[test]
    fn compile_job_resolves_benchmark_decks() {
        let b = astrx_oblx::bench_suite::by_name("Simple OTA").unwrap();
        let req = JobRequest {
            name: b.name.to_string(),
            source: b.source.to_string(),
            deck: b.deck.label().to_string(),
            options: astrx_oblx::SynthesisOptions::default(),
            seeds: vec![1],
            priority: 0,
        };
        assert!(compile_job(&req).is_ok());
        let bad = JobRequest {
            deck: "nope".into(),
            ..req
        };
        assert!(compile_job(&bad).is_err());
    }
}
