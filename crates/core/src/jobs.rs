//! Job and checkpoint file formats — the on-disk contract of the
//! `oblxd` runtime. The spool that stores these files, its atomic
//! writes and its checkpoint store live in the runtime crate
//! (`oblx_runtime::spool`); this module only says what the files hold.
//!
//! * **Job files** (`format: "oblx-job"`): a synthesis request — name,
//!   `.ox` source text, [`SynthesisOptions`], seed list, priority.
//! * **Checkpoint files** (`format: "oblx-checkpoint"`): a full
//!   [`SynthesisCheckpoint`] image of one per-seed run in flight.
//!
//! Both carry a `version` field. The rule is strict equality: a reader
//! refuses any version other than its own ([`CHECKPOINT_VERSION`] /
//! [`JOB_VERSION`]) rather than guessing at field semantics — a stale
//! checkpoint then costs one restarted run instead of a silently
//! corrupted one.
//!
//! Every quantity whose bits matter (costs, RNG words, seeds) is
//! hex-encoded in strings, never written as a JSON number, so a
//! serialize → parse round trip is exactly the identity on the
//! in-memory structs. The round-trip property test in `crates/runtime`
//! holds this module to that contract.
//!
//! [`parse_seeds`] is the one reading of a `--seeds` value that every
//! command line shares.

use crate::json::{self, ObjBuilder, Value};
use crate::oblx::{OblxState, SynthesisCheckpoint, SynthesisOptions};
use crate::weights::WeightsSnapshot;
use oblx_anneal::{
    AnnealCheckpoint, ClassStats, MoveStatsSnapshot, Phase, ScheduleSnapshot, Trace, TracePoint,
};

/// Version written into and required of checkpoint files.
pub const CHECKPOINT_VERSION: i64 = 1;
/// Version written into and required of job files.
pub const JOB_VERSION: i64 = 1;

/// A serialization/deserialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SerError(pub String);

impl std::fmt::Display for SerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serialization error: {}", self.0)
    }
}

impl std::error::Error for SerError {}

impl From<json::ParseError> for SerError {
    fn from(e: json::ParseError) -> Self {
        SerError(e.to_string())
    }
}

fn err(msg: impl Into<String>) -> SerError {
    SerError(msg.into())
}

// ---------------------------------------------------------------------
// Bit-exact scalar encoding.

/// Encodes an `f64` as its 16-hex-digit bit pattern (bit-exact for
/// every value, including NaN payloads and infinities).
pub fn f64_to_value(v: f64) -> Value {
    Value::Str(format!("{:016x}", v.to_bits()))
}

/// Encodes a `u64` as a hex string (JSON numbers are lossy past 2⁵³).
pub fn u64_to_value(v: u64) -> Value {
    Value::Str(format!("{v:x}"))
}

/// Decodes an [`f64_to_value`] bit string.
///
/// # Errors
///
/// [`SerError`] when the value is not a 16-hex-digit string.
pub fn f64_from_value(v: &Value) -> Result<f64, SerError> {
    let s = v.as_str().ok_or_else(|| err("expected f64 bit string"))?;
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| err(format!("bad f64 bits `{s}`")))
}

/// Decodes a [`u64_to_value`] hex string.
///
/// # Errors
///
/// [`SerError`] when the value is not a hex string.
pub fn u64_from_value(v: &Value) -> Result<u64, SerError> {
    let s = v.as_str().ok_or_else(|| err("expected u64 hex string"))?;
    u64::from_str_radix(s, 16).map_err(|_| err(format!("bad u64 `{s}`")))
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, SerError> {
    v.get(key)
        .ok_or_else(|| err(format!("missing field `{key}`")))
}

fn usize_field(v: &Value, key: &str) -> Result<usize, SerError> {
    field(v, key)?
        .as_int()
        .and_then(|i| usize::try_from(i).ok())
        .ok_or_else(|| err(format!("field `{key}` is not a count")))
}

fn f64_field(v: &Value, key: &str) -> Result<f64, SerError> {
    f64_from_value(field(v, key)?)
}

fn u64_field(v: &Value, key: &str) -> Result<u64, SerError> {
    u64_from_value(field(v, key)?)
}

fn str_field(v: &Value, key: &str) -> Result<String, SerError> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| err(format!("field `{key}` is not a string")))
}

fn bool_field(v: &Value, key: &str) -> Result<bool, SerError> {
    field(v, key)?
        .as_bool()
        .ok_or_else(|| err(format!("field `{key}` is not a bool")))
}

fn f64_vec(v: &Value, key: &str) -> Result<Vec<f64>, SerError> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| err(format!("field `{key}` is not an array")))?
        .iter()
        .map(f64_from_value)
        .collect()
}

fn f64_vec_value(vals: &[f64]) -> Value {
    Value::Arr(vals.iter().map(|&v| f64_to_value(v)).collect())
}

fn check_format(v: &Value, format: &str, version: i64) -> Result<(), SerError> {
    let got = str_field(v, "format")?;
    if got != format {
        return Err(err(format!("expected format `{format}`, got `{got}`")));
    }
    let ver = field(v, "version")?
        .as_int()
        .ok_or_else(|| err("version is not an integer"))?;
    if ver != version {
        return Err(err(format!(
            "unsupported {format} version {ver} (this build reads {version})"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// SynthesisOptions.

/// Serializes [`SynthesisOptions`].
pub fn options_to_value(o: &SynthesisOptions) -> Value {
    ObjBuilder::new()
        .field("moves_budget", o.moves_budget)
        .field("seed", u64_to_value(o.seed))
        .field("trace_every", o.trace_every)
        .field("weight_update_every", o.weight_update_every)
        .field("points_per_decade", o.points_per_decade)
        .field("quench_patience", o.quench_patience)
        .field("awe_order", o.awe_order)
        .field("disable_newton_moves", o.disable_newton_moves)
        .field("disable_adaptive_weights", o.disable_adaptive_weights)
        .build()
}

/// Deserializes [`SynthesisOptions`].
///
/// # Errors
///
/// [`SerError`] on missing or mistyped fields.
pub fn options_from_value(v: &Value) -> Result<SynthesisOptions, SerError> {
    Ok(SynthesisOptions {
        moves_budget: usize_field(v, "moves_budget")?,
        seed: u64_field(v, "seed")?,
        trace_every: usize_field(v, "trace_every")?,
        weight_update_every: usize_field(v, "weight_update_every")?,
        points_per_decade: usize_field(v, "points_per_decade")?,
        quench_patience: usize_field(v, "quench_patience")?,
        awe_order: usize_field(v, "awe_order")?,
        disable_newton_moves: bool_field(v, "disable_newton_moves")?,
        disable_adaptive_weights: bool_field(v, "disable_adaptive_weights")?,
    })
}

// ---------------------------------------------------------------------
// OblxState.

fn state_to_value(s: &OblxState) -> Value {
    ObjBuilder::new()
        .field("user", f64_vec_value(&s.user))
        .field("nodes", f64_vec_value(&s.nodes))
        .build()
}

fn state_from_value(v: &Value) -> Result<OblxState, SerError> {
    Ok(OblxState {
        user: f64_vec(v, "user")?,
        nodes: f64_vec(v, "nodes")?,
    })
}

// ---------------------------------------------------------------------
// Engine-side snapshots.

fn stats_to_value(s: &MoveStatsSnapshot) -> Value {
    ObjBuilder::new()
        .field("window", s.window)
        .field("seen", s.seen)
        .field("p_min", f64_to_value(s.p_min))
        .field(
            "classes",
            Value::Arr(
                s.classes
                    .iter()
                    .map(|c| {
                        ObjBuilder::new()
                            .field("attempts", c.attempts)
                            .field("accepts", c.accepts)
                            .field("accepted_delta", f64_to_value(c.accepted_delta))
                            .field("probability", f64_to_value(c.probability))
                            .field("scale", f64_to_value(c.scale))
                            .field("total_attempts", c.total_attempts)
                            .field("total_accepts", c.total_accepts)
                            .build()
                    })
                    .collect(),
            ),
        )
        .build()
}

fn stats_from_value(v: &Value) -> Result<MoveStatsSnapshot, SerError> {
    let classes = field(v, "classes")?
        .as_arr()
        .ok_or_else(|| err("classes is not an array"))?
        .iter()
        .map(|c| {
            Ok(ClassStats {
                attempts: usize_field(c, "attempts")?,
                accepts: usize_field(c, "accepts")?,
                accepted_delta: f64_field(c, "accepted_delta")?,
                probability: f64_field(c, "probability")?,
                scale: f64_field(c, "scale")?,
                total_attempts: usize_field(c, "total_attempts")?,
                total_accepts: usize_field(c, "total_accepts")?,
            })
        })
        .collect::<Result<Vec<_>, SerError>>()?;
    Ok(MoveStatsSnapshot {
        classes,
        window: usize_field(v, "window")?,
        seen: usize_field(v, "seen")?,
        p_min: f64_field(v, "p_min")?,
    })
}

fn schedule_to_value(s: &ScheduleSnapshot) -> Value {
    ObjBuilder::new()
        .field("temperature", f64_to_value(s.temperature))
        .field("accept_est", f64_to_value(s.accept_est))
        .field("total_moves", s.total_moves)
        .field("done_moves", s.done_moves)
        .field("smoothing", f64_to_value(s.smoothing))
        .build()
}

fn schedule_from_value(v: &Value) -> Result<ScheduleSnapshot, SerError> {
    Ok(ScheduleSnapshot {
        temperature: f64_field(v, "temperature")?,
        accept_est: f64_field(v, "accept_est")?,
        total_moves: usize_field(v, "total_moves")?,
        done_moves: usize_field(v, "done_moves")?,
        smoothing: f64_field(v, "smoothing")?,
    })
}

fn trace_to_value(t: &Trace) -> Value {
    ObjBuilder::new()
        .field(
            "names",
            t.names.iter().map(String::as_str).collect::<Value>(),
        )
        .field(
            "points",
            Value::Arr(
                t.points
                    .iter()
                    .map(|p| {
                        ObjBuilder::new()
                            .field("move_index", p.move_index)
                            .field("cost", f64_to_value(p.cost))
                            .field("best_cost", f64_to_value(p.best_cost))
                            .field("temperature", f64_to_value(p.temperature))
                            .field("acceptance", f64_to_value(p.acceptance))
                            .field("telemetry", f64_vec_value(&p.telemetry))
                            .build()
                    })
                    .collect(),
            ),
        )
        .build()
}

fn trace_from_value(v: &Value) -> Result<Trace, SerError> {
    let names = field(v, "names")?
        .as_arr()
        .ok_or_else(|| err("names is not an array"))?
        .iter()
        .map(|n| {
            n.as_str()
                .map(str::to_string)
                .ok_or_else(|| err("trace name is not a string"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let points = field(v, "points")?
        .as_arr()
        .ok_or_else(|| err("points is not an array"))?
        .iter()
        .map(|p| {
            Ok(TracePoint {
                move_index: usize_field(p, "move_index")?,
                cost: f64_field(p, "cost")?,
                best_cost: f64_field(p, "best_cost")?,
                temperature: f64_field(p, "temperature")?,
                acceptance: f64_field(p, "acceptance")?,
                telemetry: f64_vec(p, "telemetry")?,
            })
        })
        .collect::<Result<Vec<_>, SerError>>()?;
    Ok(Trace { names, points })
}

fn engine_to_value(e: &AnnealCheckpoint<OblxState>) -> Value {
    ObjBuilder::new()
        .field(
            "phase",
            match e.phase {
                Phase::Main => "main",
                Phase::Quench => "quench",
            },
        )
        .field(
            "rng",
            Value::Arr(e.rng.iter().map(|&w| u64_to_value(w)).collect()),
        )
        .field("stats", stats_to_value(&e.stats))
        .field("schedule", schedule_to_value(&e.schedule))
        .field("state", state_to_value(&e.state))
        .field("cost", f64_to_value(e.cost))
        .field("best_state", state_to_value(&e.best_state))
        .field("best_cost", f64_to_value(e.best_cost))
        .field("attempted", e.attempted)
        .field("accepted", e.accepted)
        .field("since_improvement", e.since_improvement)
        .field("trace", trace_to_value(&e.trace))
        .build()
}

fn engine_from_value(v: &Value) -> Result<AnnealCheckpoint<OblxState>, SerError> {
    let phase = match str_field(v, "phase")?.as_str() {
        "main" => Phase::Main,
        "quench" => Phase::Quench,
        other => return Err(err(format!("unknown phase `{other}`"))),
    };
    let rng_words = field(v, "rng")?
        .as_arr()
        .ok_or_else(|| err("rng is not an array"))?
        .iter()
        .map(u64_from_value)
        .collect::<Result<Vec<_>, _>>()?;
    let rng: [u64; 4] = rng_words
        .try_into()
        .map_err(|_| err("rng must hold 4 words"))?;
    Ok(AnnealCheckpoint {
        phase,
        rng,
        stats: stats_from_value(field(v, "stats")?)?,
        schedule: schedule_from_value(field(v, "schedule")?)?,
        state: state_from_value(field(v, "state")?)?,
        cost: f64_field(v, "cost")?,
        best_state: state_from_value(field(v, "best_state")?)?,
        best_cost: f64_field(v, "best_cost")?,
        attempted: usize_field(v, "attempted")?,
        accepted: usize_field(v, "accepted")?,
        since_improvement: usize_field(v, "since_improvement")?,
        trace: trace_from_value(field(v, "trace")?)?,
    })
}

fn weights_to_value(w: &WeightsSnapshot) -> Value {
    ObjBuilder::new()
        .field("goal_w", f64_vec_value(&w.goal_w))
        .field("adaptable", w.adaptable.iter().copied().collect::<Value>())
        .field("kcl_w", f64_vec_value(&w.kcl_w))
        .field("device_w", f64_to_value(w.device_w))
        .field("kcl_ramp", f64_to_value(w.kcl_ramp))
        .field("violation_acc", f64_vec_value(&w.violation_acc))
        .field("kcl_acc", f64_vec_value(&w.kcl_acc))
        .field("samples", w.samples)
        .build()
}

fn weights_from_value(v: &Value) -> Result<WeightsSnapshot, SerError> {
    let adaptable = field(v, "adaptable")?
        .as_arr()
        .ok_or_else(|| err("adaptable is not an array"))?
        .iter()
        .map(|b| b.as_bool().ok_or_else(|| err("adaptable entry not bool")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(WeightsSnapshot {
        goal_w: f64_vec(v, "goal_w")?,
        adaptable,
        kcl_w: f64_vec(v, "kcl_w")?,
        device_w: f64_field(v, "device_w")?,
        kcl_ramp: f64_field(v, "kcl_ramp")?,
        violation_acc: f64_vec(v, "violation_acc")?,
        kcl_acc: f64_vec(v, "kcl_acc")?,
        samples: usize_field(v, "samples")?,
    })
}

// ---------------------------------------------------------------------
// SynthesisCheckpoint envelope.

/// Serializes a [`SynthesisCheckpoint`] into its versioned JSON
/// envelope.
pub fn checkpoint_to_json(ck: &SynthesisCheckpoint) -> String {
    ObjBuilder::new()
        .field("format", "oblx-checkpoint")
        .field("version", CHECKPOINT_VERSION)
        .field("seed", u64_to_value(ck.seed))
        .field("moves_budget", ck.moves_budget)
        .field("evals", ck.evals)
        .field("wall_seconds", f64_to_value(ck.wall_seconds))
        .field("weights", weights_to_value(&ck.weights))
        .field("engine", engine_to_value(&ck.engine))
        .build()
        .to_json()
}

/// Parses a checkpoint envelope.
///
/// # Errors
///
/// [`SerError`] on malformed JSON, a different `format`/`version`, or
/// missing fields — callers treat any of these as "no usable
/// checkpoint" and restart the run from scratch.
pub fn checkpoint_from_json(text: &str) -> Result<SynthesisCheckpoint, SerError> {
    let v = json::parse(text)?;
    check_format(&v, "oblx-checkpoint", CHECKPOINT_VERSION)?;
    Ok(SynthesisCheckpoint {
        seed: u64_field(&v, "seed")?,
        moves_budget: usize_field(&v, "moves_budget")?,
        evals: usize_field(&v, "evals")?,
        wall_seconds: f64_field(&v, "wall_seconds")?,
        weights: weights_from_value(field(&v, "weights")?)?,
        engine: engine_from_value(field(&v, "engine")?)?,
    })
}

// ---------------------------------------------------------------------
// Job files.

/// A synthesis job: everything a worker needs to run one design.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Human-readable job name (shown in status output).
    pub name: String,
    /// The `.ox` problem description source.
    pub source: String,
    /// Process-deck label (see `oblx_devices::process::ProcessDeck::
    /// label`) whose `.model` cards are appended before compiling, or
    /// empty when `source` is self-contained.
    pub deck: String,
    /// Synthesis options (the per-seed runs override only `seed`).
    pub options: SynthesisOptions,
    /// Seeds to run; the best frozen-weight result wins.
    pub seeds: Vec<u64>,
    /// Scheduling priority: higher runs first; ties are FIFO.
    pub priority: i64,
}

/// A job request plus its queue identity, as stored in a spool
/// directory.
#[derive(Debug, Clone, PartialEq)]
pub struct JobFile {
    /// Unique job id (also the file stem).
    pub id: String,
    /// Submission sequence number (FIFO tie-break within a priority).
    pub seq: u64,
    /// The request itself.
    pub request: JobRequest,
}

impl SynthesisOptions {
    fn eq_fields(&self, other: &Self) -> bool {
        self.moves_budget == other.moves_budget
            && self.seed == other.seed
            && self.trace_every == other.trace_every
            && self.weight_update_every == other.weight_update_every
            && self.points_per_decade == other.points_per_decade
            && self.quench_patience == other.quench_patience
            && self.awe_order == other.awe_order
            && self.disable_newton_moves == other.disable_newton_moves
            && self.disable_adaptive_weights == other.disable_adaptive_weights
    }
}

impl PartialEq for SynthesisOptions {
    fn eq(&self, other: &Self) -> bool {
        self.eq_fields(other)
    }
}

/// Serializes a [`JobFile`].
pub fn job_to_json(job: &JobFile) -> String {
    ObjBuilder::new()
        .field("format", "oblx-job")
        .field("version", JOB_VERSION)
        .field("id", job.id.as_str())
        .field("seq", u64_to_value(job.seq))
        .field("name", job.request.name.as_str())
        .field("priority", job.request.priority)
        .field(
            "seeds",
            Value::Arr(job.request.seeds.iter().map(|&s| u64_to_value(s)).collect()),
        )
        .field("options", options_to_value(&job.request.options))
        .field("deck", job.request.deck.as_str())
        .field("source", job.request.source.as_str())
        .build()
        .to_json()
}

/// Parses a [`JobFile`].
///
/// # Errors
///
/// [`SerError`] on malformed JSON, a different `format`/`version`, or
/// missing fields.
pub fn job_from_json(text: &str) -> Result<JobFile, SerError> {
    let v = json::parse(text)?;
    check_format(&v, "oblx-job", JOB_VERSION)?;
    let seeds = field(&v, "seeds")?
        .as_arr()
        .ok_or_else(|| err("seeds is not an array"))?
        .iter()
        .map(u64_from_value)
        .collect::<Result<Vec<_>, _>>()?;
    if seeds.is_empty() {
        return Err(err("job has no seeds"));
    }
    Ok(JobFile {
        id: str_field(&v, "id")?,
        seq: u64_field(&v, "seq")?,
        request: JobRequest {
            name: str_field(&v, "name")?,
            source: str_field(&v, "source")?,
            deck: str_field(&v, "deck")?,
            options: options_from_value(field(&v, "options")?)?,
            seeds,
            priority: field(&v, "priority")?
                .as_int()
                .ok_or_else(|| err("priority is not an integer"))?,
        },
    })
}

// ---------------------------------------------------------------------
// Seed lists.

/// Parses a command line's `--seeds` value: a count `N` runs seeds
/// `1..=N`, a comma list `a,b,c` runs exactly those. Every entry must be
/// a positive integer, the rule `POST /v1/jobs` applies to its `seeds`.
///
/// # Errors
///
/// A message quoting `s` when an entry is empty or not a positive
/// integer.
pub fn parse_seeds(s: &str) -> Result<Vec<u64>, String> {
    let seeds = s
        .split(',')
        .map(|x| x.trim().parse::<u64>().ok().filter(|&n| n > 0))
        .collect::<Option<Vec<u64>>>()
        .ok_or_else(|| {
            format!("--seeds wants a count or a list of positive integers, got `{s}`")
        })?;
    match seeds[..] {
        [n] if !s.contains(',') => Ok((1..=n).collect()),
        _ => Ok(seeds),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> JobRequest {
        JobRequest {
            name: "diffamp".into(),
            source: "* a netlist\n.end\n".into(),
            deck: "BSIM/2u".into(),
            options: SynthesisOptions {
                moves_budget: 1234,
                seed: u64::MAX - 3,
                ..SynthesisOptions::default()
            },
            seeds: vec![1, 2, u64::MAX],
            priority: -2,
        }
    }

    #[test]
    fn job_roundtrip_is_identity() {
        let job = JobFile {
            id: "job-00ab".into(),
            seq: 7,
            request: request(),
        };
        let text = job_to_json(&job);
        let back = job_from_json(&text).unwrap();
        assert_eq!(job, back);
    }

    #[test]
    fn job_version_gate() {
        let text = job_to_json(&JobFile {
            id: "x".into(),
            seq: 1,
            request: request(),
        })
        .replace("\"version\":1", "\"version\":2");
        assert!(job_from_json(&text).is_err());
        assert!(job_from_json("{\"format\":\"oblx-job\"}").is_err());
        assert!(job_from_json("not json").is_err());
    }

    #[test]
    fn options_roundtrip_extreme_values() {
        let o = SynthesisOptions {
            moves_budget: usize::MAX >> 12,
            seed: u64::MAX,
            trace_every: 0,
            weight_update_every: 1,
            points_per_decade: 99,
            quench_patience: 0,
            awe_order: 7,
            disable_newton_moves: true,
            disable_adaptive_weights: true,
        };
        let back = options_from_value(&options_to_value(&o)).unwrap();
        assert_eq!(o, back);
    }

    #[test]
    fn seed_lists_take_a_count_or_positive_entries() {
        assert_eq!(parse_seeds("3"), Ok(vec![1, 2, 3]));
        assert_eq!(parse_seeds("2,7,19"), Ok(vec![2, 7, 19]));
        for bad in ["1,x,3", "0,1", "", "0", ",", "2,"] {
            let err = parse_seeds(bad).unwrap_err();
            assert!(err.contains(&format!("`{bad}`")), "{bad}: {err}");
        }
    }
}
