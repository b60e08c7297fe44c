//! The executable cost function `C(x) = C^obj + C^perf + C^dev + C^dc`.
//!
//! One evaluation, given user-variable values and the relaxed-dc node
//! voltages:
//!
//! 1. assemble the bias circuit at the proposed geometry,
//! 2. ask the encapsulated device evaluators for operating points at
//!    the proposed node voltages (no Newton solve — this is the
//!    relaxed-dc formulation),
//! 3. sum Kirchhoff-law residuals at every free node → `C^dc`,
//! 4. stamp each jig's small-signal circuit from those device models
//!    and run AWE per `.pz` card: a fitted model where a goal reads more
//!    than the dc value, the exact `µ0` alone where none does
//!    ([`CompiledProblem::demand`]),
//! 5. evaluate every `.obj`/`.spec` expression against the AWE models,
//!    device quantities, and built-in `power()`/`area()` measures,
//!    normalizing by the goal's `good`/`bad` values → `C^obj`, `C^perf`,
//! 6. penalize devices out of their required operating region → `C^dev`.

use crate::astrx::{determined_voltages, CompiledProblem, RegionRequirement};
use crate::plan::{score_slot, BiasPlan, EvalPlan, Slot};
use crate::weights::AdaptiveWeights;
use oblx_awe::{Demand, ReducedModel};
use oblx_devices::{BjtOp, DiodeOp, MosOp, Region};
use oblx_mna::{LinElement, LinearSystem, MosInstance, OutputSelector, SizedCircuit};
use oblx_netlist::{builtin_call, EvalContext, EvalError, Expr, Goal, SpecKind};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Current-scale used to normalize KCL residuals (A). A residual equal
/// to this contributes 1.0 (pre-weight) to `C^dc`.
pub const KCL_NORM: f64 = 1.0e-6;
/// Absolute KCL tolerance below which a node contributes nothing —
/// `τ_abs` of paper equation (3).
pub const KCL_TOL: f64 = 1.0e-9;
/// Required saturation margin for MOS devices (V).
pub const SAT_MARGIN: f64 = 0.05;
/// Cost assigned to configurations that cannot be evaluated at all.
pub const FAILURE_COST: f64 = 1.0e7;
/// Maximum AWE model order requested per transfer function. The
/// parsimony rule in `oblx-awe` keeps simple circuits at low order
/// automatically; the larger cascode benchmarks need up to 8 poles for
/// the phase at the unity crossing to be trustworthy.
pub const AWE_ORDER: usize = 8;

/// Reasons an evaluation can fail outright.
#[derive(Debug)]
pub enum EvalFailure {
    /// Circuit assembly failed (bad element value, missing model…).
    Build(String),
    /// A device present in a jig has no counterpart in the bias circuit.
    UnbiasedDevice(String),
    /// AWE could not model a requested transfer function.
    Awe(String),
    /// A goal expression failed to evaluate.
    Goal(String),
}

impl fmt::Display for EvalFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalFailure::Build(s) => write!(f, "assembly failed: {s}"),
            EvalFailure::UnbiasedDevice(s) => {
                write!(f, "device `{s}` in a jig has no bias counterpart")
            }
            EvalFailure::Awe(s) => write!(f, "awe failed: {s}"),
            EvalFailure::Goal(s) => write!(f, "goal evaluation failed: {s}"),
        }
    }
}

impl Error for EvalFailure {}

/// The decomposed cost of one configuration (paper equation (5)).
#[derive(Debug, Clone)]
pub struct CostBreakdown {
    /// Objective component (normalized; smaller is better, may be
    /// negative when objectives are exceeded).
    pub c_obj: f64,
    /// Performance-constraint penalty (0 when all specs met).
    pub c_perf: f64,
    /// Device-region penalty.
    pub c_dev: f64,
    /// Relaxed-dc (KCL) penalty.
    pub c_dc: f64,
    /// The scalar total `C(x)` including adaptive weights.
    pub total: f64,
    /// Measured value of each goal, in goal order.
    pub measured: Vec<f64>,
    /// Per-goal normalized violation `max(0, z)` (objectives report
    /// `z`), in goal order — drives the adaptive weights.
    pub violation: Vec<f64>,
    /// Per-free-node normalized KCL violations (drives per-node
    /// adaptive weights), in node-var order.
    pub kcl_violation: Vec<f64>,
    /// Worst KCL residual over free nodes (A) — the Fig. 2 series.
    pub kcl_max: f64,
    /// `true` when the configuration could not be evaluated and
    /// `total` is the failure cost.
    pub failed: bool,
}

impl CostBreakdown {
    fn failure() -> CostBreakdown {
        CostBreakdown {
            c_obj: 0.0,
            c_perf: 0.0,
            c_dev: 0.0,
            c_dc: 0.0,
            total: FAILURE_COST,
            measured: Vec::new(),
            violation: Vec::new(),
            kcl_violation: Vec::new(),
            kcl_max: f64::INFINITY,
            failed: true,
        }
    }
}

/// `true` when `name` is a function usable in goal expressions.
pub fn is_known_function(name: &str) -> bool {
    matches!(
        name,
        "dc_gain"
            | "dcv"
            | "ugf"
            | "phase_margin"
            | "gain_at"
            | "pole"
            | "zero"
            | "power"
            | "area"
            | "min"
            | "max"
            | "abs"
            | "sqrt"
            | "log10"
            | "ln"
            | "exp"
            | "db"
            | "par"
    )
}

/// Everything computed about one configuration that expression
/// evaluation may reference.
pub struct EvalRecord {
    /// The assembled bias circuit.
    pub bias: SizedCircuit,
    /// Full bias MNA vector (node voltages + zeroed branch currents).
    pub x: Vec<f64>,
    /// KCL residuals at every bias node (+ branch rows).
    pub residual: Vec<f64>,
    /// Free-node indices into the bias node table, in node-var order.
    pub free_nodes: Vec<usize>,
    /// Device operating points by flattened name.
    pub mos_ops: Vec<MosOp>,
    /// Bipolar operating points.
    pub bjt_ops: Vec<BjtOp>,
    /// Diode operating points.
    pub diode_ops: Vec<DiodeOp>,
    /// AWE models by analysis handle.
    pub models: HashMap<String, ReducedModel>,
    /// The user-variable map.
    pub vars: HashMap<String, f64>,
}

impl EvalRecord {
    /// Worst KCL residual over free nodes (A).
    pub fn kcl_max(&self) -> f64 {
        self.free_nodes
            .iter()
            .map(|&i| self.residual[i].abs())
            .fold(0.0, f64::max)
    }

    /// The built-in `power()` measure: Σ over dc voltage sources of
    /// `|dc| · |KCL residual at the attached node|` — exact at
    /// dc-correctness, approximate during relaxation.
    pub fn power(&self) -> f64 {
        power_of(&self.bias, &self.residual)
    }

    /// The built-in `area()` measure: Σ gate areas (m²) plus a fixed
    /// 500 µm² per bipolar device.
    pub fn area(&self) -> f64 {
        area_of(&self.bias)
    }

    fn device_quantity(&self, device: &str, quantity: &str) -> Option<f64> {
        if let Some(i) = self.bias.mosfets.iter().position(|m| m.name == device) {
            return self.mos_ops[i].quantity(quantity);
        }
        if let Some(i) = self.bias.bjts.iter().position(|q| q.name == device) {
            return self.bjt_ops[i].quantity(quantity);
        }
        if let Some(i) = self.bias.diodes.iter().position(|d| d.name == device) {
            return self.diode_ops[i].quantity(quantity);
        }
        None
    }
}

/// The AWE-model / power / area surface that measurement functions
/// draw from — implemented by the cold path's record-backed context
/// and the plan path's slot-backed context, so the dispatch table in
/// [`measure_call`] exists exactly once.
pub(crate) trait MeasureSource {
    /// Resolves an analysis handle to its reduced model.
    fn model(&self, handle: &str) -> Option<&ReducedModel>;
    /// The built-in `power()` measure.
    fn power(&self) -> f64;
    /// The built-in `area()` measure.
    fn area(&self) -> f64;
}

/// Dispatches the measurement functions goal expressions may call.
pub(crate) fn measure_call(
    src: &dyn MeasureSource,
    name: &str,
    args: &[Expr],
    values: &[Option<f64>],
) -> Result<f64, EvalError> {
    let model = |k: usize| -> Result<&ReducedModel, EvalError> {
        let handle = match args.get(k) {
            Some(Expr::Var(h)) => h,
            _ => return Err(EvalError::BadArguments(name.to_string())),
        };
        src.model(handle)
            .ok_or_else(|| EvalError::UnknownVar(handle.clone()))
    };
    match name {
        "dc_gain" => Ok(model(0)?.dc_gain()),
        "dcv" => Ok(model(0)?.dc_value()),
        "ugf" => Ok(oblx_awe::unity_gain_frequency(model(0)?)),
        "phase_margin" => Ok(oblx_awe::phase_margin(model(0)?)),
        "gain_at" => {
            let f = values
                .get(1)
                .copied()
                .flatten()
                .ok_or_else(|| EvalError::BadArguments(name.into()))?;
            Ok(oblx_awe::gain_at(model(0)?, f))
        }
        "pole" => {
            let k = values
                .get(1)
                .copied()
                .flatten()
                .ok_or_else(|| EvalError::BadArguments(name.into()))?;
            let p = model(0)?
                .pole(k as usize)
                .ok_or_else(|| EvalError::BadArguments(name.into()))?;
            Ok(p.norm() / (2.0 * std::f64::consts::PI))
        }
        "zero" => {
            let k = values
                .get(1)
                .copied()
                .flatten()
                .ok_or_else(|| EvalError::BadArguments(name.into()))?;
            let z = model(0)?
                .zero(k as usize)
                .ok_or_else(|| EvalError::BadArguments(name.into()))?;
            // Signed by half-plane: negative frequency magnitude
            // flags a RHP zero so specs can forbid it.
            let f = z.norm() / (2.0 * std::f64::consts::PI);
            Ok(if z.re > 0.0 { -f } else { f })
        }
        "power" => Ok(src.power()),
        "area" => Ok(src.area()),
        _ => builtin_call(name, args, values),
    }
}

struct SpecContext<'a> {
    record: &'a EvalRecord,
}

impl MeasureSource for SpecContext<'_> {
    fn model(&self, handle: &str) -> Option<&ReducedModel> {
        self.record.models.get(handle)
    }

    fn power(&self) -> f64 {
        self.record.power()
    }

    fn area(&self) -> f64 {
        self.record.area()
    }
}

impl EvalContext for SpecContext<'_> {
    fn lookup_var(&self, name: &str) -> Result<f64, EvalError> {
        self.record
            .vars
            .get(name)
            .copied()
            .ok_or_else(|| EvalError::UnknownVar(name.to_string()))
    }

    fn lookup_path(&self, path: &[String]) -> Result<f64, EvalError> {
        if path.len() >= 2 {
            let device = path[..path.len() - 1].join(".");
            let quantity = &path[path.len() - 1];
            if let Some(v) = self.record.device_quantity(&device, quantity) {
                return Ok(v);
            }
        }
        Err(EvalError::UnknownPath(path.join(".")))
    }

    fn call(&self, name: &str, args: &[Expr], values: &[Option<f64>]) -> Result<f64, EvalError> {
        measure_call(self, name, args, values)
    }
}

/// How the evaluator has serviced its calls — the cache telemetry the
/// synthesis loop reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Full netlist rebuilds (no plan available).
    pub cold: u64,
    /// Plan-based full updates (every binding re-applied, everything
    /// recomputed — but no string work).
    pub full: u64,
    /// Incremental updates (only dirty bindings/devices/jigs redone).
    pub incremental: u64,
    /// Exact state matches rescored from a cached slot.
    pub cached: u64,
}

impl EvalStats {
    /// Total evaluator calls.
    pub fn total(&self) -> u64 {
        self.cold + self.full + self.incremental + self.cached
    }

    /// Fraction of calls that avoided a full recomputation (incremental
    /// or cached); 0 when nothing has been evaluated.
    pub fn cache_hit_ratio(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            (self.incremental + self.cached) as f64 / t as f64
        }
    }
}

impl std::ops::Sub for EvalStats {
    type Output = EvalStats;

    /// Per-path call-count delta between two snapshots of the same
    /// evaluator (`later - earlier`).
    fn sub(self, earlier: EvalStats) -> EvalStats {
        EvalStats {
            cold: self.cold - earlier.cold,
            full: self.full - earlier.full,
            incremental: self.incremental - earlier.incremental,
            cached: self.cached - earlier.cached,
        }
    }
}

/// The compiled, executable cost function.
///
/// Construction precompiles an evaluation plan (circuit skeletons,
/// bindings, analysis vectors — see `plan.rs`); evaluation then
/// only writes values into preallocated structures, with no hash-map
/// construction or string allocation on the hot path. Two recent
/// configurations are kept as slots so that a proposal differing from
/// one of them in a few variables is re-evaluated incrementally.
pub struct CostEvaluator<'a> {
    compiled: &'a CompiledProblem,
    awe_order: usize,
    /// The bias circuit's plan, shared by the slots and (through
    /// [`CostEvaluator::bias_plan`]) OBLX's Newton moves. `None` only
    /// when the bias circuit does not assemble at the initial point.
    bias: Option<BiasPlan>,
    /// `None` when the problem cannot be planned (e.g. a jig fails to
    /// assemble at the initial point); evaluation then uses the cold
    /// path, which reproduces the underlying error per call.
    plan: Option<EvalPlan>,
    slots: Vec<Slot>,
    clock: u64,
    stats: EvalStats,
}

impl<'a> CostEvaluator<'a> {
    /// Wraps a compiled problem.
    pub fn new(compiled: &'a CompiledProblem) -> Self {
        Self::with_awe_order(compiled, AWE_ORDER)
    }

    /// Wraps a compiled problem with a non-default AWE model order
    /// (used by the ablation benches).
    pub fn with_awe_order(compiled: &'a CompiledProblem, awe_order: usize) -> Self {
        let awe_order = awe_order.clamp(1, 12);
        let bias = BiasPlan::build(compiled);
        let plan = bias
            .as_ref()
            .and_then(|b| EvalPlan::build(compiled, b, awe_order));
        CostEvaluator {
            compiled,
            awe_order,
            bias,
            plan,
            slots: Vec::new(),
            clock: 0,
            stats: EvalStats::default(),
        }
    }

    /// The compiled problem.
    pub fn compiled(&self) -> &CompiledProblem {
        self.compiled
    }

    /// Cache/incremental telemetry accumulated so far.
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    /// `true` when a precompiled plan is active (false only for
    /// problems whose initial configuration cannot be assembled).
    pub fn has_plan(&self) -> bool {
        self.plan.is_some()
    }

    /// The bias plan, present even when the evaluation plan declined.
    pub(crate) fn bias_plan(&self) -> Option<&BiasPlan> {
        self.bias.as_ref()
    }

    /// Computes the full evaluation record for a configuration.
    ///
    /// # Errors
    ///
    /// [`EvalFailure`] when the configuration is structurally
    /// unevaluable (assembly failure, missing bias ops, AWE collapse).
    pub fn record(
        &self,
        user_values: &[f64],
        node_values: &[f64],
    ) -> Result<EvalRecord, EvalFailure> {
        let compiled = self.compiled;
        let vars = compiled.var_map(user_values);

        let bias = SizedCircuit::build(&compiled.bias_netlist, &vars, &compiled.lib)
            .map_err(|e| EvalFailure::Build(e.to_string()))?;

        // Assemble the full voltage vector: determined nodes from the
        // V-source tree, free nodes from the annealing state.
        let det = determined_voltages(&bias);
        let mut x = vec![0.0; bias.dim()];
        let mut free_nodes = Vec::with_capacity(compiled.node_vars.len());
        let mut free_i = 0usize;
        for (i, dv) in det.iter().enumerate() {
            match dv {
                Some(v) => x[i] = *v,
                None => {
                    x[i] = node_values.get(free_i).copied().unwrap_or(0.0);
                    free_nodes.push(i);
                    free_i += 1;
                }
            }
        }

        // Device evaluations at the proposed voltages.
        let volt = |n: Option<usize>| n.map_or(0.0, |i| x[i]);
        let mos_ops: Vec<MosOp> = bias
            .mosfets
            .iter()
            .map(|m| {
                m.model
                    .op(m.w, m.l, volt(m.d), volt(m.g), volt(m.s), volt(m.b))
            })
            .collect();
        let bjt_ops: Vec<BjtOp> = bias
            .bjts
            .iter()
            .map(|q| q.model.op(q.area, volt(q.c), volt(q.b), volt(q.e)))
            .collect();
        let diode_ops: Vec<DiodeOp> = bias
            .diodes
            .iter()
            .map(|d| d.model.op(d.area, volt(d.a) - volt(d.k)))
            .collect();

        // KCL residuals: linear part via stamps, devices from the ops.
        let residual = kcl_residual(&bias, &x, &mos_ops, &bjt_ops, &diode_ops);

        // Jig small-signal systems stamped from the bias-device models.
        let mos_by_name: HashMap<&str, usize> = bias
            .mosfets
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name.as_str(), i))
            .collect();
        let bjt_by_name: HashMap<&str, usize> = bias
            .bjts
            .iter()
            .enumerate()
            .map(|(i, q)| (q.name.as_str(), i))
            .collect();
        let diode_by_name: HashMap<&str, usize> = bias
            .diodes
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name.as_str(), i))
            .collect();

        let mut models = HashMap::new();
        for jig in &compiled.jigs {
            if jig.analyses.is_empty() {
                continue;
            }
            let ckt = SizedCircuit::build(&jig.netlist, &vars, &compiled.lib)
                .map_err(|e| EvalFailure::Build(e.to_string()))?;
            let jig_mos: Vec<MosOp> = ckt
                .mosfets
                .iter()
                .map(|m| {
                    mos_by_name
                        .get(m.name.as_str())
                        .map(|&i| mos_ops[i])
                        .ok_or_else(|| EvalFailure::UnbiasedDevice(m.name.clone()))
                })
                .collect::<Result<_, _>>()?;
            let jig_bjt: Vec<BjtOp> = ckt
                .bjts
                .iter()
                .map(|q| {
                    bjt_by_name
                        .get(q.name.as_str())
                        .map(|&i| bjt_ops[i])
                        .ok_or_else(|| EvalFailure::UnbiasedDevice(q.name.clone()))
                })
                .collect::<Result<_, _>>()?;
            let jig_diode: Vec<DiodeOp> = ckt
                .diodes
                .iter()
                .map(|d| {
                    diode_by_name
                        .get(d.name.as_str())
                        .map(|&i| diode_ops[i])
                        .ok_or_else(|| EvalFailure::UnbiasedDevice(d.name.clone()))
                })
                .collect::<Result<_, _>>()?;
            let sys = LinearSystem::from_device_ops(&ckt, &jig_mos, &jig_bjt, &jig_diode);
            // Each analysis at the demand the plan path also reads; one
            // factorization serves the jig, as on the plan path.
            let mut stimuli = Vec::with_capacity(jig.analyses.len());
            for a in &jig.analyses {
                let out = sys
                    .output_selector(&a.out_p, a.out_m.as_deref())
                    .ok_or_else(|| EvalFailure::Awe(format!("bad probe in `{}`", a.name)))?;
                let b = sys.input_vector(&a.source).ok_or_else(|| {
                    EvalFailure::Awe(format!(
                        "{}: unknown stimulus source `{}`",
                        a.name, a.source
                    ))
                })?;
                stimuli.push((b, out, compiled.demand[&a.name]));
            }
            let jobs: Vec<(&[f64], OutputSelector, Demand)> = stimuli
                .iter()
                .map(|(b, out, d)| (b.as_slice(), *out, *d))
                .collect();
            let fitted = oblx_awe::analyze_batch(&sys, &jobs, self.awe_order)
                .map_err(|(i, e)| EvalFailure::Awe(format!("{}: {e}", jig.analyses[i].name)))?;
            for (a, model) in jig.analyses.iter().zip(fitted) {
                models.insert(a.name.clone(), model);
            }
        }

        Ok(EvalRecord {
            bias,
            x,
            residual,
            free_nodes,
            mos_ops,
            bjt_ops,
            diode_ops,
            models,
            vars,
        })
    }

    /// Evaluates the scalar cost; structural failures map to the large
    /// [`FAILURE_COST`] so the annealer simply walks away from them.
    pub fn evaluate(
        &mut self,
        user_values: &[f64],
        node_values: &[f64],
        weights: &AdaptiveWeights,
    ) -> CostBreakdown {
        match self.try_evaluate(user_values, node_values, weights) {
            Ok(b) => b,
            Err(_) => CostBreakdown::failure(),
        }
    }

    /// Evaluates the scalar cost, surfacing failures.
    ///
    /// Uses the precompiled plan when available; debug builds
    /// cross-check every plan-path result against a from-scratch
    /// evaluation.
    ///
    /// # Errors
    ///
    /// [`EvalFailure`] as for [`CostEvaluator::record`].
    pub fn try_evaluate(
        &mut self,
        user_values: &[f64],
        node_values: &[f64],
        weights: &AdaptiveWeights,
    ) -> Result<CostBreakdown, EvalFailure> {
        let _span = oblx_telemetry::span(oblx_telemetry::SpanKind::CostEval);
        let result = if self.plan.is_none() {
            self.stats.cold += 1;
            oblx_telemetry::incr(oblx_telemetry::Counter::EvalCold);
            self.record(user_values, node_values)
                .and_then(|record| self.cost_of_record(&record, weights))
        } else {
            let result = self.plan_evaluate(user_values, node_values, weights);
            #[cfg(debug_assertions)]
            self.cross_check(user_values, node_values, weights, &result);
            result
        };
        if oblx_telemetry::enabled() {
            match &result {
                Ok(b) if !b.failed => {
                    oblx_telemetry::record_cost_terms(b.c_obj, b.c_perf, b.c_dev, b.c_dc);
                }
                _ => oblx_telemetry::incr(oblx_telemetry::Counter::EvalFailure),
            }
        }
        result
    }

    /// The plan path: exact-match rescore, incremental update, or
    /// plan-full update — in that order of preference.
    fn plan_evaluate(
        &mut self,
        user: &[f64],
        nodes: &[f64],
        weights: &AdaptiveWeights,
    ) -> Result<CostBreakdown, EvalFailure> {
        let CostEvaluator {
            compiled,
            bias,
            plan,
            slots,
            clock,
            stats,
            ..
        } = self;
        let plan = plan.as_ref().expect("caller checked the plan exists");
        let bias = bias.as_ref().expect("an eval plan implies a bias plan");
        assert_eq!(user.len(), compiled.user_vars.len(), "var vector mismatch");
        *clock += 1;
        // Exact state already materialized: rescore it (weights may
        // have changed since it was computed; the state data has not).
        if let Some(slot) = slots.iter_mut().find(|s| s.matches(user, nodes)) {
            slot.stamp = *clock;
            stats.cached += 1;
            oblx_telemetry::incr(oblx_telemetry::Counter::EvalCached);
            return score_slot(compiled, bias, plan, slot, weights, user);
        }
        // Victim: a failed slot first (nothing in it is reusable),
        // then grow to the two-slot working set, then the LRU slot —
        // in the accept/propose rhythm of annealing that is the slot
        // closest to the proposal's parent state.
        let vi = if let Some(i) = slots.iter().position(|s| !s.valid()) {
            i
        } else if slots.len() < 2 {
            slots.push(Slot::new(bias, plan));
            slots.len() - 1
        } else {
            slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.stamp)
                .map(|(i, _)| i)
                .expect("slots is non-empty")
        };
        let slot = &mut slots[vi];
        slot.stamp = *clock;
        if slot.can_increment(bias, user, nodes) {
            stats.incremental += 1;
            oblx_telemetry::incr(oblx_telemetry::Counter::EvalIncremental);
            slot.update_incremental(bias, plan, user, nodes)?;
        } else {
            stats.full += 1;
            oblx_telemetry::incr(oblx_telemetry::Counter::EvalFull);
            slot.update_full(bias, plan, user, nodes)?;
        }
        score_slot(compiled, bias, plan, slot, weights, user)
    }

    /// Debug-build invariant: the plan path is bit-compatible with a
    /// from-scratch evaluation (1e-12 relative tolerance per component;
    /// in practice the two paths agree exactly).
    #[cfg(debug_assertions)]
    fn cross_check(
        &self,
        user: &[f64],
        nodes: &[f64],
        weights: &AdaptiveWeights,
        got: &Result<CostBreakdown, EvalFailure>,
    ) {
        fn close(a: f64, b: f64) -> bool {
            a.to_bits() == b.to_bits() || (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
        }
        fn all_close(a: &[f64], b: &[f64]) -> bool {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| close(*x, *y))
        }
        let want = self
            .record(user, nodes)
            .and_then(|r| self.cost_of_record(&r, weights));
        match (got, &want) {
            (Ok(g), Ok(w)) => {
                let ok = close(g.c_obj, w.c_obj)
                    && close(g.c_perf, w.c_perf)
                    && close(g.c_dev, w.c_dev)
                    && close(g.c_dc, w.c_dc)
                    && close(g.total, w.total)
                    && close(g.kcl_max, w.kcl_max)
                    && all_close(&g.measured, &w.measured)
                    && all_close(&g.violation, &w.violation)
                    && all_close(&g.kcl_violation, &w.kcl_violation)
                    && g.failed == w.failed;
                assert!(
                    ok,
                    "plan path diverged from full evaluation:\nplan {g:?}\nfull {w:?}"
                );
            }
            (Err(_), Err(_)) => {}
            (Ok(_), Err(e)) => panic!("plan path succeeded but full evaluation failed: {e}"),
            (Err(e), Ok(_)) => panic!("plan path failed but full evaluation succeeded: {e}"),
        }
    }

    /// Scores an existing evaluation record.
    ///
    /// # Errors
    ///
    /// [`EvalFailure::Goal`] when a goal expression fails to evaluate.
    pub fn cost_of_record(
        &self,
        record: &EvalRecord,
        weights: &AdaptiveWeights,
    ) -> Result<CostBreakdown, EvalFailure> {
        let ctx = SpecContext { record };
        score_with(
            self.compiled,
            weights,
            &ctx,
            &record.bias.mosfets,
            &record.mos_ops,
            &record.bjt_ops,
            &record.free_nodes,
            &record.residual,
        )
    }
}

/// The weighted cost summation shared by the cold path
/// ([`CostEvaluator::cost_of_record`]) and the plan path. A single
/// implementation guarantees both paths add the same terms in the same
/// order, so their totals agree bit for bit.
///
/// # Errors
///
/// [`EvalFailure::Goal`] when a goal expression fails to evaluate.
#[allow(clippy::too_many_arguments)]
pub(crate) fn score_with(
    compiled: &CompiledProblem,
    weights: &AdaptiveWeights,
    ctx: &dyn EvalContext,
    mosfets: &[MosInstance],
    mos_ops: &[MosOp],
    bjt_ops: &[BjtOp],
    free_nodes: &[usize],
    residual: &[f64],
) -> Result<CostBreakdown, EvalFailure> {
    let mut c_obj = 0.0;
    let mut c_perf = 0.0;
    let mut measured = Vec::with_capacity(compiled.problem.specs.len());
    let mut violation = Vec::with_capacity(compiled.problem.specs.len());
    for (gi, goal) in compiled.problem.specs.iter().enumerate() {
        let value = goal
            .expr
            .eval(ctx)
            .map_err(|e| EvalFailure::Goal(format!("{}: {e}", goal.name)))?;
        measured.push(value);
        let z = normalized(goal, value);
        match goal.kind {
            SpecKind::Objective => {
                // Objectives keep pulling past `good`, but bounded so
                // a single runaway objective cannot drown the rest.
                let zc = z.max(-3.0);
                violation.push(z);
                c_obj += weights.goal(gi) * zc;
            }
            SpecKind::Constraint => {
                let v = z.clamp(0.0, 100.0);
                violation.push(v);
                c_perf += weights.goal(gi) * v;
            }
        }
    }

    // C^dev: region penalties over all bias-circuit devices,
    // honouring `.region` overrides.
    let mut c_dev = 0.0;
    for (m, op) in mosfets.iter().zip(mos_ops.iter()) {
        let req = compiled
            .region_reqs
            .get(&m.name)
            .copied()
            .unwrap_or_default();
        c_dev += weights.device() * mos_region_penalty_for(op, req);
    }
    for op in bjt_ops {
        if !op.forward_active {
            c_dev += weights.device() * 0.3;
        }
    }

    // C^dc: KCL penalties at free nodes.
    let mut c_dc = 0.0;
    let mut kcl_max = 0.0f64;
    let mut kcl_violation = Vec::with_capacity(free_nodes.len());
    for (k, &node) in free_nodes.iter().enumerate() {
        let r = residual[node].abs();
        kcl_max = kcl_max.max(r);
        let v = if r > KCL_TOL {
            ((r - KCL_TOL) / KCL_NORM).min(1e6)
        } else {
            0.0
        };
        kcl_violation.push(v);
        c_dc += weights.kcl(k) * v;
    }

    let total = c_obj + c_perf + c_dev + c_dc;
    Ok(CostBreakdown {
        c_obj,
        c_perf,
        c_dev,
        c_dc,
        total: if total.is_finite() {
            total
        } else {
            FAILURE_COST
        },
        measured,
        violation,
        kcl_violation,
        kcl_max,
        failed: false,
    })
}

/// The built-in `power()` measure over a bias circuit and its KCL
/// residual: Σ over dc voltage sources of `|dc| · |residual at the
/// attached node|`.
pub(crate) fn power_of(bias: &SizedCircuit, residual: &[f64]) -> f64 {
    let mut p = 0.0;
    for el in &bias.linear {
        if let LinElement::Vsource {
            p: np, m: nm, dc, ..
        } = el
        {
            if *dc == 0.0 {
                continue;
            }
            let i = match (np, nm) {
                (Some(i), _) => residual[*i].abs(),
                (None, Some(i)) => residual[*i].abs(),
                _ => 0.0,
            };
            p += dc.abs() * i;
        }
    }
    p
}

/// The built-in `area()` measure: Σ gate areas (m²) plus a fixed
/// 500 µm² per bipolar device.
pub(crate) fn area_of(bias: &SizedCircuit) -> f64 {
    let mos: f64 = bias.mosfets.iter().map(|m| m.w * m.l).sum();
    let bjt: f64 = bias.bjts.iter().map(|q| q.area * 500e-12).sum();
    mos + bjt
}

/// The `good`/`bad` normalization of paper §IV.B (after
/// DELIGHT.SPICE): 0 at `good`, 1 at `bad`, negative beyond `good`.
pub fn normalized(goal: &Goal, value: f64) -> f64 {
    (value - goal.good) / (goal.bad - goal.good)
}

/// Saturation-region penalty for a MOS operating point (volts of
/// margin shortfall, continuous across the region boundaries).
pub fn mos_region_penalty(op: &MosOp) -> f64 {
    mos_region_penalty_for(op, RegionRequirement::Saturation)
}

/// Region penalty for a MOS operating point against a required region.
pub fn mos_region_penalty_for(op: &MosOp, req: RegionRequirement) -> f64 {
    match req {
        RegionRequirement::Any => 0.0,
        RegionRequirement::Saturation => match op.region {
            Region::Saturation => (SAT_MARGIN - op.sat_margin).max(0.0),
            Region::Triode => SAT_MARGIN + (op.vdsat - op.vds_n.abs()).max(0.0),
            Region::Cutoff => SAT_MARGIN + 0.2 + (op.vth - op.vgs_n).clamp(0.0, 5.0),
        },
        RegionRequirement::Triode => match op.region {
            Region::Triode => 0.0,
            // Want vds < vdsat: penalize the excess.
            _ => (op.vds_n.abs() - op.vdsat).max(0.0) + 0.05,
        },
        RegionRequirement::Off => {
            // Want vgs below threshold with margin.
            (op.vgs_n - op.vth + 0.05).max(0.0)
        }
    }
}

/// KCL residual vector for a bias circuit at MNA vector `x` (branch
/// currents zeroed) with device currents from the supplied ops.
pub fn kcl_residual(
    bias: &SizedCircuit,
    x: &[f64],
    mos_ops: &[MosOp],
    bjt_ops: &[BjtOp],
    diode_ops: &[DiodeOp],
) -> Vec<f64> {
    let dim = bias.dim();
    let mut g = oblx_linalg::Mat::zeros(dim, dim);
    let mut rhs = Vec::with_capacity(dim);
    oblx_mna::dc::linear_stamp_into(bias, 1.0, &mut g, &mut rhs);
    let mut f = g.mul_vec(x);
    for (fi, r) in f.iter_mut().zip(rhs.iter()) {
        *fi -= r;
    }
    for (m, op) in bias.mosfets.iter().zip(mos_ops.iter()) {
        if let Some(d) = m.d {
            f[d] += op.id;
        }
        if let Some(s) = m.s {
            f[s] -= op.id;
        }
    }
    for (q, op) in bias.bjts.iter().zip(bjt_ops.iter()) {
        if let Some(c) = q.c {
            f[c] += op.ic;
        }
        if let Some(b) = q.b {
            f[b] += op.ib;
        }
        if let Some(e) = q.e {
            f[e] -= op.ic + op.ib;
        }
    }
    for (d, op) in bias.diodes.iter().zip(diode_ops.iter()) {
        if let Some(a) = d.a {
            f[a] += op.id;
        }
        if let Some(k) = d.k {
            f[k] -= op.id;
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::astrx::compile_source;
    use crate::weights::AdaptiveWeights;
    use oblx_mna::solve_dc;

    const DIFFAMP: &str = include_str!("testdata/diffamp.ox");

    fn setup() -> CompiledProblem {
        compile_source(DIFFAMP).expect("compiles")
    }

    /// Node values copied from a converged Newton solve must yield a
    /// near-zero C^dc; wild values must not.
    #[test]
    fn relaxed_dc_matches_newton_at_solution() {
        let compiled = setup();
        let mut ev = CostEvaluator::new(&compiled);
        let user = compiled.initial_user_values();
        let vars = compiled.var_map(&user);
        let bias = SizedCircuit::build(&compiled.bias_netlist, &vars, &compiled.lib).unwrap();
        let op = solve_dc(&bias).unwrap();

        // Extract the free-node voltages from the Newton solution.
        let det = determined_voltages(&bias);
        let node_vals: Vec<f64> = det
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_none())
            .map(|(i, _)| op.v[i])
            .collect();
        assert_eq!(node_vals.len(), compiled.node_vars.len());

        let w = AdaptiveWeights::new(&compiled);
        let at_solution = ev.try_evaluate(&user, &node_vals, &w).unwrap();
        assert!(
            at_solution.kcl_max < 1e-7,
            "kcl at newton point = {}",
            at_solution.kcl_max
        );
        assert!(at_solution.c_dc < 1.0);

        let wild: Vec<f64> = node_vals.iter().map(|v| v + 1.0).collect();
        let off = ev.try_evaluate(&user, &wild, &w).unwrap();
        assert!(off.kcl_max > 1e-5, "kcl off solution = {}", off.kcl_max);
        assert!(off.c_dc > at_solution.c_dc * 10.0);
    }

    #[test]
    fn measured_values_are_physical() {
        let compiled = setup();
        let mut ev = CostEvaluator::new(&compiled);
        let user = compiled.initial_user_values();
        // Start from the Newton point so the AWE models are meaningful.
        let vars = compiled.var_map(&user);
        let bias = SizedCircuit::build(&compiled.bias_netlist, &vars, &compiled.lib).unwrap();
        let op = solve_dc(&bias).unwrap();
        let det = determined_voltages(&bias);
        let node_vals: Vec<f64> = det
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_none())
            .map(|(i, _)| op.v[i])
            .collect();
        let w = AdaptiveWeights::new(&compiled);
        let b = ev.try_evaluate(&user, &node_vals, &w).unwrap();
        // Goals: adm (dB), ugf (Hz), sr (V/s).
        let names: Vec<&str> = compiled
            .problem
            .specs
            .iter()
            .map(|g| g.name.as_str())
            .collect();
        assert_eq!(names, vec!["adm", "ugf", "sr"]);
        assert!(
            b.measured[0] > -60.0 && b.measured[0] < 120.0,
            "adm = {} dB",
            b.measured[0]
        );
        // At the arbitrary initial sizing the gain may be below unity,
        // in which case ugf is 0 by convention.
        assert!(
            b.measured[1].is_finite() && b.measured[1] >= 0.0 && b.measured[1] < 1e12,
            "ugf = {}",
            b.measured[1]
        );
        assert!(b.measured[2] > 1e3, "sr = {}", b.measured[2]);
        assert!(!b.failed);
    }

    #[test]
    fn failure_cost_for_unevaluable_geometry() {
        let compiled = setup();
        let mut ev = CostEvaluator::new(&compiled);
        let w = AdaptiveWeights::new(&compiled);
        // NaN geometry → assembly failure → failure cost.
        let mut user = compiled.initial_user_values();
        user[0] = f64::NAN;
        let b = ev.evaluate(&user, &vec![0.0; compiled.node_vars.len()], &w);
        assert!(b.failed);
        assert_eq!(b.total, FAILURE_COST);
    }

    #[test]
    fn region_penalty_shape() {
        let compiled = setup();
        let mut ev = CostEvaluator::new(&compiled);
        let user = compiled.initial_user_values();
        let w = AdaptiveWeights::new(&compiled);
        // All node voltages at 0: transistors cut off → c_dev positive.
        let b = ev
            .try_evaluate(&user, &vec![0.0; compiled.node_vars.len()], &w)
            .unwrap();
        assert!(b.c_dev > 0.0);
    }

    #[test]
    fn region_card_changes_dev_penalty() {
        // Declare the tail device `any`: a state that cuts it off must
        // then cost strictly less C^dev than under the default
        // all-saturation policy.
        let base = setup();
        let src = include_str!("testdata/diffamp.ox").to_string()
            + ".region xamp.m1 any
.region xamp.m2 any
";
        let relaxed = compile_source(&src).expect("compiles with region cards");
        assert_eq!(relaxed.region_reqs.len(), 2);

        let user = base.initial_user_values();
        let zeros = vec![0.0; base.node_vars.len()];
        let wb = AdaptiveWeights::new(&base);
        let wr = AdaptiveWeights::new(&relaxed);
        let b = CostEvaluator::new(&base)
            .try_evaluate(&user, &zeros, &wb)
            .unwrap();
        let r = CostEvaluator::new(&relaxed)
            .try_evaluate(&user, &zeros, &wr)
            .unwrap();
        assert!(
            r.c_dev < b.c_dev,
            "any-region devices must reduce C^dev: {} vs {}",
            r.c_dev,
            b.c_dev
        );

        // Unknown device names are rejected at compile time.
        let bad = include_str!("testdata/diffamp.ox").to_string()
            + ".region nosuch.m1 sat
";
        assert!(compile_source(&bad).is_err());
    }

    #[test]
    fn region_penalty_semantics() {
        use crate::astrx::RegionRequirement as R;
        let compiled = setup();
        let vars = compiled.var_map(&compiled.initial_user_values());
        let bias = SizedCircuit::build(&compiled.bias_netlist, &vars, &compiled.lib).unwrap();
        let m = &bias.mosfets[0];
        // Saturated device: sat → 0 penalty, triode-required → > 0.
        let sat_op = m.model.op(m.w, m.l, 3.0, 2.0, 0.0, 0.0);
        assert_eq!(mos_region_penalty_for(&sat_op, R::Saturation), 0.0);
        assert!(mos_region_penalty_for(&sat_op, R::Triode) > 0.0);
        assert!(mos_region_penalty_for(&sat_op, R::Off) > 0.0);
        assert_eq!(mos_region_penalty_for(&sat_op, R::Any), 0.0);
        // Triode device: triode-required → 0, sat-required → > 0.
        let tri_op = m.model.op(m.w, m.l, 0.1, 3.0, 0.0, 0.0);
        assert_eq!(mos_region_penalty_for(&tri_op, R::Triode), 0.0);
        assert!(mos_region_penalty_for(&tri_op, R::Saturation) > 0.0);
        // Cut-off device: off-required → 0.
        let off_op = m.model.op(m.w, m.l, 3.0, 0.0, 0.0, 0.0);
        assert_eq!(mos_region_penalty_for(&off_op, R::Off), 0.0);
    }

    #[test]
    fn normalization_direction() {
        use oblx_netlist::Expr;
        let maximize = Goal {
            name: "gain".into(),
            expr: Expr::num(0.0),
            good: 60.0,
            bad: 20.0,
            kind: SpecKind::Constraint,
        };
        assert!(normalized(&maximize, 70.0) < 0.0); // beyond good
        assert_eq!(normalized(&maximize, 60.0), 0.0);
        assert_eq!(normalized(&maximize, 20.0), 1.0);
        let minimize = Goal {
            name: "power".into(),
            expr: Expr::num(0.0),
            good: 1e-3,
            bad: 20e-3,
            kind: SpecKind::Constraint,
        };
        assert!(normalized(&minimize, 0.5e-3) < 0.0);
        assert!(normalized(&minimize, 10e-3) > 0.0);
    }
}
