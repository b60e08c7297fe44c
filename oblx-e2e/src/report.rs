//! Metric names, units and directions, and the output formats.

use astrx_oblx::json::{ObjBuilder, Value};

/// A metric's declaration: name, unit, and whether higher is better.
pub type Spec = (&'static str, &'static str, bool);

/// End-to-end metrics: what a user of the service sees, each with a
/// regression bound. Each is reported on every workload.
pub const END_TO_END: [Spec; 3] = [
    ("setup_s", "s", false),
    ("job_p50_s", "s", false),
    ("moves_per_s", "moves/s", true),
];

/// Per-layer metrics, prefixed by the layer they measure, led by two
/// end-to-end ones that are reported but carry no bound: the latency
/// tail, whose run-to-run spread on a shared 2-vCPU machine is far wider
/// than any usable bound, and `jobs_per_s`, which for a fixed job shape
/// is `moves_per_s` over a constant and would only double the gate's
/// false alarms. A traced run reports each on every workload.
pub const PER_LAYER: [Spec; 39] = [
    ("job_tail_s", "s", false),
    ("jobs_per_s", "jobs/s", true),
    ("api.submit_p50_ms", "ms", false),
    ("api.submit_tail_ms", "ms", false),
    ("api.status_p50_ms", "ms", false),
    ("api.status_tail_ms", "ms", false),
    ("api.handler_mean_ms", "ms", false),
    ("api.wait_mean_ms", "ms", false),
    ("api.edge_p50_ms", "ms", false),
    ("api.live_404", "count", false),
    ("failed_ratio", "ratio", false),
    ("runtime.queue_p50_ms", "ms", false),
    ("runtime.queue_tail_ms", "ms", false),
    ("runtime.dispatch_p50_ms", "ms", false),
    ("runtime.finalize_p50_ms", "ms", false),
    ("runtime.seed_overhead_ms", "ms", false),
    ("runtime.worker_util", "ratio", true),
    ("runtime.checkpoints_per_job", "count", false),
    ("core.compile_ms", "ms", false),
    ("core.anneal_ms", "ms", false),
    ("core.design_cost", "cost", false),
    ("anneal.propose_us", "us", false),
    ("anneal.engine_self_us", "us", false),
    ("anneal.moves_per_seed", "count", false),
    ("anneal.accept_ratio", "ratio", true),
    ("cost.eval_us", "us", false),
    ("cost.evals_per_move", "count", false),
    ("cost.reuse_ratio", "ratio", true),
    ("cost.devices_stamp_score_us", "us", false),
    ("cost.failure_ratio", "ratio", false),
    ("awe.analyze_us", "us", false),
    ("awe.fits_per_eval", "count", false),
    ("awe.unstable_ratio", "ratio", false),
    ("linalg.sparse_refactor_share", "ratio", false),
    ("linalg.lu_factors_per_move", "count", false),
    ("linalg.sparse_fallbacks", "count", false),
    ("bench.gen_late_tail_ms", "ms", false),
    ("trace.replay_fidelity", "ratio", false),
    ("trace.overhead", "ratio", false),
];

/// Everything one run of one workload measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Measured values by metric name.
    pub values: Vec<(&'static str, f64)>,
    /// Free-form notes (sample counts, percentiles used, file paths).
    pub info: Vec<String>,
    /// Operations attempted (jobs submitted).
    pub attempted: usize,
    /// Jobs that did not produce a correct `ok` result.
    pub failed: usize,
    /// Correctness-oracle failures.
    pub errors: Vec<String>,
}

impl Report {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Whether the oracle passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Checks every metric the run reports — end-to-end ones always,
    /// per-layer ones with `trace` — was measured and is finite.
    pub fn check_complete(&mut self, trace: bool) {
        let layers: &[Spec] = if trace { &PER_LAYER } else { &[] };
        for (name, _, _) in END_TO_END.iter().chain(layers) {
            match self.get(name) {
                Some(v) if v.is_finite() => {}
                other => self
                    .errors
                    .push(format!("metric {name} not measured (got {other:?})")),
            }
        }
    }

    /// `metric <workload> <name> <value> <unit>` lines, one per
    /// measured metric.
    pub fn metric_lines(&self) -> Vec<String> {
        END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .filter_map(|(name, unit, _)| {
                self.get(name)
                    .map(|v| format!("metric {} {name} {v} {unit}", self.workload))
            })
            .collect()
    }

    /// The run's result object: `correct`, `attempted`, `failed`, and
    /// `metrics` — the end-to-end metrics untraced, the per-layer ones
    /// traced.
    pub fn result_json(&self, trace: bool) -> Value {
        let specs: &[Spec] = if trace { &PER_LAYER } else { &END_TO_END };
        let metrics = specs
            .iter()
            .filter_map(|(name, unit, _)| {
                let v = self.get(name).filter(|v| v.is_finite())?;
                Some((
                    (*name).to_string(),
                    ObjBuilder::new()
                        .field("value", v)
                        .field("unit", *unit)
                        .build(),
                ))
            })
            .collect();
        ObjBuilder::new()
            .field("correct", self.correct())
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", Value::Obj(metrics))
            .build()
    }
}
