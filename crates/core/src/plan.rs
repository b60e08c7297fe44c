//! Precompiled evaluation plan: the hot path of [`crate::CostEvaluator`].
//!
//! The cold evaluation path ([`crate::CostEvaluator::record`]) rebuilds
//! every circuit from its netlist on every call: node names are
//! re-interned, device models re-looked-up, source/probe name maps
//! reconstructed — all pure string work whose result never changes,
//! because the annealer only ever changes *values*, never *structure*.
//!
//! [`EvalPlan`] performs that structural work exactly once, at
//! [`crate::CostEvaluator`] construction:
//!
//! * circuit skeletons are built for the bias netlist and every jig at
//!   the initial point and kept as templates;
//! * each variable-dependent element value becomes a [`Binding`] — an
//!   expression plus a direct index into the skeleton — constructed by
//!   walking the netlist in exactly the order
//!   [`SizedCircuit::build`] does, so value clamps, validation
//!   messages, and first-error order are reproduced bit for bit;
//! * analysis stimulus vectors and output selectors are resolved to
//!   index form up front.
//!
//! A [`Slot`] is one materialized configuration: the bound circuits,
//! device operating points, KCL residual, and AWE models for a specific
//! `(user, nodes)` vector pair. The evaluator keeps two slots and diffs
//! a proposed state against one of them by bitwise comparison, which
//! enables three progressively cheaper re-evaluation modes: plan-full
//! (all bindings re-applied, everything recomputed), incremental (only
//! dirty bindings, devices, and jigs recomputed), and cached rescore
//! (state seen before; only the weighted sum is recomputed).
//!
//! Invariant: every numeric result produced through a plan is
//! **bit-identical** to the cold path, because both run the same
//! expression evaluator, the same clamps, the same stamp order, and the
//! same AWE entry point. Debug builds verify this on every evaluation.

use crate::astrx::{determined_voltages, CompiledProblem};
use crate::cost::{area_of, power_of, score_with, CostBreakdown, EvalFailure, MeasureSource};
use crate::weights::AdaptiveWeights;
use oblx_awe::{AweEngine, ReducedModel};
use oblx_devices::{BjtLanes, BjtOp, DiodeLanes, DiodeOp, MosLanes, MosOp};
use oblx_linalg::Mat;
use oblx_mna::{LinElement, LinearSystem, OutputSelector, SizedCircuit};
use oblx_netlist::{ElementKind, EvalContext, EvalError, Expr, Netlist};

/// Where a bound value lands in a circuit skeleton. The index is into
/// the skeleton's `linear` / `mosfets` / `bjts` / `diodes` list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BindTarget {
    /// Resistor conductance (`g = 1/value`).
    Resistor(usize),
    /// Capacitor value.
    Capacitor(usize),
    /// Inductor value.
    Inductor(usize),
    /// Voltage-source dc value.
    VsourceDc(usize),
    /// Current-source dc value.
    IsourceDc(usize),
    /// VCVS gain.
    VcvsGain(usize),
    /// VCCS transconductance.
    VccsGm(usize),
    /// MOS gate width.
    MosW(usize),
    /// MOS gate length.
    MosL(usize),
    /// Bipolar emitter-area multiplier.
    BjtArea(usize),
    /// Diode area multiplier.
    DiodeArea(usize),
}

impl BindTarget {
    /// `true` for targets that stamp the linear part of the circuit —
    /// the values that determine the determined-voltage tree and the
    /// cached KCL conductance matrix.
    fn is_linear(self) -> bool {
        !matches!(
            self,
            BindTarget::MosW(_)
                | BindTarget::MosL(_)
                | BindTarget::BjtArea(_)
                | BindTarget::DiodeArea(_)
        )
    }
}

/// One variable-dependent element value: evaluate `expr`, validate and
/// clamp exactly as assembly does, write the result at `target`.
#[derive(Debug, Clone)]
struct Binding {
    /// Element name, for error-message parity with assembly.
    element: String,
    target: BindTarget,
    expr: Expr,
    /// User-variable indices the expression depends on.
    deps: Vec<usize>,
}

impl Binding {
    fn dirty(&self, dirty_user: &[bool]) -> bool {
        self.deps.iter().any(|&d| dirty_user[d])
    }

    /// Evaluates and writes the value, mirroring the validation and
    /// clamping (and their exact error strings) of
    /// [`SizedCircuit::build`].
    fn apply(&self, ckt: &mut SizedCircuit, ctx: &VarsCtx) -> Result<(), EvalFailure> {
        let v = self.expr.eval(ctx).map_err(|source| {
            EvalFailure::Build(format!("element `{}`: {source}", self.element))
        })?;
        match self.target {
            BindTarget::Resistor(i) => {
                if v <= 0.0 {
                    return Err(EvalFailure::Build(format!(
                        "element `{}`: resistance {v} must be positive",
                        self.element
                    )));
                }
                match &mut ckt.linear[i] {
                    LinElement::Resistor { g, .. } => *g = 1.0 / v,
                    _ => unreachable!("binding target is not a resistor"),
                }
            }
            BindTarget::Capacitor(i) => {
                if v < 0.0 {
                    return Err(EvalFailure::Build(format!(
                        "element `{}`: capacitance {v} must be non-negative",
                        self.element
                    )));
                }
                match &mut ckt.linear[i] {
                    LinElement::Capacitor { c, .. } => *c = v,
                    _ => unreachable!("binding target is not a capacitor"),
                }
            }
            BindTarget::Inductor(i) => match &mut ckt.linear[i] {
                LinElement::Inductor { l, .. } => *l = v,
                _ => unreachable!("binding target is not an inductor"),
            },
            BindTarget::VsourceDc(i) => match &mut ckt.linear[i] {
                LinElement::Vsource { dc, .. } => *dc = v,
                _ => unreachable!("binding target is not a vsource"),
            },
            BindTarget::IsourceDc(i) => match &mut ckt.linear[i] {
                LinElement::Isource { dc, .. } => *dc = v,
                _ => unreachable!("binding target is not an isource"),
            },
            BindTarget::VcvsGain(i) => match &mut ckt.linear[i] {
                LinElement::Vcvs { gain, .. } => *gain = v,
                _ => unreachable!("binding target is not a vcvs"),
            },
            BindTarget::VccsGm(i) => match &mut ckt.linear[i] {
                LinElement::Vccs { gm, .. } => *gm = v,
                _ => unreachable!("binding target is not a vccs"),
            },
            BindTarget::MosW(i) => ckt.mosfets[i].w = v.max(1e-9),
            BindTarget::MosL(i) => ckt.mosfets[i].l = v.max(1e-9),
            BindTarget::BjtArea(i) => ckt.bjts[i].area = v.max(1e-3),
            BindTarget::DiodeArea(i) => ckt.diodes[i].area = v.max(1e-3),
        }
        Ok(())
    }
}

/// Alloc-free [`EvalContext`] over the user-variable vector; resolves
/// exactly the names [`CompiledProblem::var_map`] would and nothing
/// else, so element expressions see identical environments on both
/// evaluation paths.
struct VarsCtx<'a> {
    names: &'a [String],
    values: &'a [f64],
}

impl EvalContext for VarsCtx<'_> {
    fn lookup_var(&self, name: &str) -> Result<f64, EvalError> {
        // `rposition`: a duplicated declaration resolves to the last
        // occurrence, matching HashMap insert order in `var_map`.
        self.names
            .iter()
            .rposition(|n| n == name)
            .map(|i| self.values[i])
            .ok_or_else(|| EvalError::UnknownVar(name.to_string()))
    }
}

/// One precompiled `.pz` analysis: stimulus vector and probe resolved
/// to index form.
#[derive(Debug, Clone)]
struct AnalysisPlan {
    /// Analysis handle, for AWE error messages.
    name: String,
    /// Index into the flat model table ([`Slot::models`]).
    flat: usize,
    /// Unit-stimulus input vector.
    b: Vec<f64>,
    out: OutputSelector,
}

/// One precompiled jig: bindings, device back-references into the bias
/// circuit, and analyses.
#[derive(Debug, Clone)]
struct JigPlan {
    bindings: Vec<Binding>,
    /// Bias-mosfet index for each jig mosfet, in jig order.
    mos_bind: Vec<usize>,
    bjt_bind: Vec<usize>,
    diode_bind: Vec<usize>,
    analyses: Vec<AnalysisPlan>,
    ckt_template: SizedCircuit,
    /// Analysis-engine template with its **symbolic factorization
    /// already done** — slots clone it, so per move only a numeric
    /// refactor runs.
    engine_template: AweEngine,
}

impl JigPlan {
    /// `true` when re-evaluating this jig is required for the given
    /// dirty variables / dirty bias devices.
    fn dirty(
        &self,
        dirty_user: &[bool],
        mos_dirty: &[bool],
        bjt_dirty: &[bool],
        diode_dirty: &[bool],
    ) -> bool {
        self.bindings.iter().any(|b| b.dirty(dirty_user))
            || self.mos_bind.iter().any(|&i| mos_dirty[i])
            || self.bjt_bind.iter().any(|&i| bjt_dirty[i])
            || self.diode_bind.iter().any(|&i| diode_dirty[i])
    }
}

/// The precompiled evaluation plan for one [`CompiledProblem`].
#[derive(Debug, Clone)]
pub(crate) struct EvalPlan {
    /// User-variable names, parallel to the value vector.
    user_names: Vec<String>,
    bias_bindings: Vec<Binding>,
    /// Per user variable: `true` when it appears in a *linear* bias
    /// element value. Changing such a variable invalidates the
    /// determined-voltage tree and the cached KCL matrix, forcing a
    /// plan-full update.
    bias_linear_var: Vec<bool>,
    /// Free bias-node indices in node-variable order (structural:
    /// independent of element values).
    free_nodes: Vec<usize>,
    /// Analysis handles, parallel to [`Slot::models`].
    analysis_names: Vec<String>,
    jigs: Vec<JigPlan>,
    bias_template: SizedCircuit,
    awe_order: usize,
    /// Bias-device indices grouped by model card, for SoA batched
    /// evaluation: all devices of one group share identical model
    /// parameters, so one [`oblx_devices::MosModel`] drives the whole
    /// lane batch and its parameter block is read once per group.
    mos_groups: Vec<Vec<usize>>,
    bjt_groups: Vec<Vec<usize>>,
    diode_groups: Vec<Vec<usize>>,
}

impl EvalPlan {
    /// Builds the plan, or `None` when the problem cannot be planned —
    /// initial assembly fails, a jig device lacks a bias counterpart, a
    /// probe or stimulus is unknown — in which case the evaluator falls
    /// back to the cold path, which reproduces the corresponding error
    /// on every evaluation.
    pub(crate) fn build(compiled: &CompiledProblem, awe_order: usize) -> Option<EvalPlan> {
        let user_names: Vec<String> = compiled.user_vars.iter().map(|v| v.name.clone()).collect();
        let initial = compiled.initial_user_values();
        let vars = compiled.var_map(&initial);
        let bias = SizedCircuit::build(&compiled.bias_netlist, &vars, &compiled.lib).ok()?;
        let det = determined_voltages(&bias);
        let free_nodes: Vec<usize> = det
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_none())
            .map(|(i, _)| i)
            .collect();
        let bias_bindings = bindings_for(&compiled.bias_netlist, &bias, &user_names)?;
        let mut bias_linear_var = vec![false; user_names.len()];
        for b in &bias_bindings {
            if b.target.is_linear() {
                for &d in &b.deps {
                    bias_linear_var[d] = true;
                }
            }
        }

        // Template device operating points at the determined voltages
        // (free nodes at 0 V). Only the *structure* of the template
        // systems matters — every value is overwritten by `restamp`
        // before use.
        let mut x = vec![0.0; bias.dim()];
        for (i, dv) in det.iter().enumerate() {
            if let Some(v) = dv {
                x[i] = *v;
            }
        }
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

        let mut jigs: Vec<JigPlan> = Vec::new();
        // Source netlists parallel to `jigs`, for structural dedup.
        let mut jig_sources: Vec<&Netlist> = Vec::new();
        let mut analysis_names = Vec::new();
        for jig in &compiled.jigs {
            // The cold path skips jigs without analyses entirely; so
            // does the plan (their elements are never even evaluated).
            if jig.analyses.is_empty() {
                continue;
            }
            let ckt = SizedCircuit::build(&jig.netlist, &vars, &compiled.lib).ok()?;
            let bindings = bindings_for(&jig.netlist, &ckt, &user_names)?;
            // `rposition`: with duplicate bias device names the cold
            // path's name map keeps the last insertion.
            let mos_bind: Vec<usize> = ckt
                .mosfets
                .iter()
                .map(|m| bias.mosfets.iter().rposition(|bm| bm.name == m.name))
                .collect::<Option<_>>()?;
            let bjt_bind: Vec<usize> = ckt
                .bjts
                .iter()
                .map(|q| bias.bjts.iter().rposition(|bq| bq.name == q.name))
                .collect::<Option<_>>()?;
            let diode_bind: Vec<usize> = ckt
                .diodes
                .iter()
                .map(|d| bias.diodes.iter().rposition(|bd| bd.name == d.name))
                .collect::<Option<_>>()?;
            let jm: Vec<MosOp> = mos_bind.iter().map(|&i| mos_ops[i]).collect();
            let jq: Vec<BjtOp> = bjt_bind.iter().map(|&i| bjt_ops[i]).collect();
            let jd: Vec<DiodeOp> = diode_bind.iter().map(|&i| diode_ops[i]).collect();
            let sys = LinearSystem::from_device_ops(&ckt, &jm, &jq, &jd);
            let mut analyses = Vec::new();
            for a in &jig.analyses {
                let out = sys.output_selector(&a.out_p, a.out_m.as_deref())?;
                let b = sys.input_vector(&a.source)?;
                analyses.push(AnalysisPlan {
                    name: a.name.clone(),
                    flat: analysis_names.len(),
                    b,
                    out,
                });
                analysis_names.push(a.name.clone());
            }
            // Structural dedup: jigs that differ only in which source
            // carries the ac excitation (the gain / PSRR⁺ / PSRR⁻ trio
            // of one amplifier) stamp bit-identical G/C systems, so one
            // restamp and one factorization per evaluation serves all
            // their analyses. The stimulus vectors and probes above
            // were built from this jig's own system; node numbering is
            // identical across such jigs, so they read correctly
            // against the canonical one.
            if let Some(k) = jig_sources
                .iter()
                .position(|n| same_system(n, &jig.netlist))
            {
                jigs[k].analyses.extend(analyses);
            } else {
                jig_sources.push(&jig.netlist);
                let engine_template = AweEngine::for_system(&sys).ok()?;
                jigs.push(JigPlan {
                    bindings,
                    mos_bind,
                    bjt_bind,
                    diode_bind,
                    analyses,
                    ckt_template: ckt,
                    engine_template,
                });
            }
        }

        let mos_groups = group_by_model(bias.mosfets.iter().map(|m| m.model.name()));
        let bjt_groups = group_by_model(bias.bjts.iter().map(|q| q.model.name()));
        let diode_groups = group_by_model(bias.diodes.iter().map(|d| d.model.name()));

        Some(EvalPlan {
            user_names,
            bias_bindings,
            bias_linear_var,
            free_nodes,
            analysis_names,
            jigs,
            bias_template: bias,
            awe_order,
            mos_groups,
            bjt_groups,
            diode_groups,
        })
    }

    /// User-variable count (for the caller's length assertion).
    pub(crate) fn user_len(&self) -> usize {
        self.user_names.len()
    }

    /// `true` when every changed user variable (bitwise, `slot_user`
    /// vs. `user`) avoids the linear bias elements — the precondition
    /// for an incremental update against that slot.
    pub(crate) fn incremental_ok(&self, slot_user: &[f64], user: &[f64]) -> bool {
        slot_user.len() == user.len()
            && slot_user
                .iter()
                .zip(user)
                .enumerate()
                .all(|(i, (a, b))| a.to_bits() == b.to_bits() || !self.bias_linear_var[i])
    }
}

/// Partitions device indices into groups sharing a model card. Devices
/// referencing the same `.model` card were built from one library entry
/// and carry identical parameters, so name equality is parameter
/// equality. First-appearance order keeps grouping deterministic.
fn group_by_model<'a>(names: impl Iterator<Item = &'a str>) -> Vec<Vec<usize>> {
    let mut keys: Vec<&str> = Vec::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, name) in names.enumerate() {
        match keys.iter().position(|k| *k == name) {
            Some(g) => groups[g].push(i),
            None => {
                keys.push(name);
                groups.push(vec![i]);
            }
        }
    }
    groups
}

/// Structural equality of two flattened jig netlists *ignoring ac
/// excitation magnitudes*: such jigs build bit-identical
/// [`SizedCircuit`]s and stamp bit-identical G/C systems — the ac value
/// shapes only the per-analysis stimulus vector, which the plan
/// precomputes per analysis anyway — so their analyses can share one
/// materialized jig.
fn same_system(a: &Netlist, b: &Netlist) -> bool {
    a.instances == b.instances
        && a.elements.len() == b.elements.len()
        && a.elements.iter().zip(&b.elements).all(|(x, y)| {
            if x.name != y.name || x.nodes != y.nodes {
                return false;
            }
            match (&x.kind, &y.kind) {
                (ElementKind::Vsource { dc: xd, .. }, ElementKind::Vsource { dc: yd, .. })
                | (ElementKind::Isource { dc: xd, .. }, ElementKind::Isource { dc: yd, .. }) => {
                    xd == yd
                }
                (xk, yk) => xk == yk,
            }
        })
}

/// Walks `netlist` in the exact order of [`SizedCircuit::build`],
/// emitting a [`Binding`] for every variable-dependent element value.
/// Constant values are skipped — the skeleton already holds them.
/// Returns `None` when an expression references a name outside the
/// user-variable set (cannot happen when the skeleton built, but the
/// cold path is the safe fallback).
fn bindings_for(
    netlist: &Netlist,
    skeleton: &SizedCircuit,
    user_names: &[String],
) -> Option<Vec<Binding>> {
    let mut out = Vec::new();
    let mut li = 0usize; // next linear-element index
    let mut mi = 0usize; // next mosfet index
    let mut bi = 0usize; // next bjt index
    let mut di = 0usize; // next diode index
    for el in &netlist.elements {
        let mut push = |expr: &Expr, target: BindTarget| -> Option<()> {
            let vars = expr.variables();
            if vars.is_empty() {
                return Some(());
            }
            let deps = vars
                .iter()
                .map(|v| user_names.iter().rposition(|n| n == v))
                .collect::<Option<Vec<_>>>()?;
            out.push(Binding {
                element: el.name.clone(),
                target,
                expr: expr.clone(),
                deps,
            });
            Some(())
        };
        match &el.kind {
            ElementKind::Resistor { value } => {
                push(value, BindTarget::Resistor(li))?;
                li += 1;
            }
            ElementKind::Capacitor { value } => {
                push(value, BindTarget::Capacitor(li))?;
                li += 1;
            }
            ElementKind::Inductor { value } => {
                push(value, BindTarget::Inductor(li))?;
                li += 1;
            }
            ElementKind::Vsource { dc, .. } => {
                push(dc, BindTarget::VsourceDc(li))?;
                li += 1;
            }
            ElementKind::Isource { dc, .. } => {
                push(dc, BindTarget::IsourceDc(li))?;
                li += 1;
            }
            ElementKind::Vcvs { gain, .. } => {
                push(gain, BindTarget::VcvsGain(li))?;
                li += 1;
            }
            ElementKind::Vccs { gm, .. } => {
                push(gm, BindTarget::VccsGm(li))?;
                li += 1;
            }
            ElementKind::Mosfet { w, l, .. } => {
                push(w, BindTarget::MosW(mi))?;
                push(l, BindTarget::MosL(mi))?;
                // The device template inserts series resistors among
                // the linear elements; keep the counter in sync.
                let (rd, rs) = skeleton.mosfets[mi].model.series_resistance();
                if rd > 0.0 {
                    li += 1;
                }
                if rs > 0.0 {
                    li += 1;
                }
                mi += 1;
            }
            ElementKind::Bjt { area, .. } => {
                push(area, BindTarget::BjtArea(bi))?;
                if skeleton.bjts[bi].model.params().rb > 0.0 {
                    li += 1;
                }
                bi += 1;
            }
            ElementKind::Diode { area, .. } => {
                push(area, BindTarget::DiodeArea(di))?;
                di += 1;
            }
        }
    }
    Some(out)
}

/// One jig materialized in a slot.
#[derive(Debug, Clone)]
struct JigSlot {
    ckt: SizedCircuit,
    /// Cloned from the plan's template: symbolic structure shared, value
    /// arrays private to this slot.
    engine: AweEngine,
    mos_ops: Vec<MosOp>,
    bjt_ops: Vec<BjtOp>,
    diode_ops: Vec<DiodeOp>,
}

/// Reusable gather/scatter buffers for SoA batched device evaluation.
///
/// Selected devices of one model group are gathered into contiguous
/// lanes, evaluated in one [`oblx_devices::MosModel::op_batch`] call
/// (bit-identical to per-device scalar calls), and scattered back to
/// the slot's ops arrays through the recorded indices. All buffers keep
/// their capacity across updates, so the steady state allocates nothing.
#[derive(Debug, Clone, Default)]
struct BatchWs {
    mos_lanes: MosLanes,
    bjt_lanes: BjtLanes,
    diode_lanes: DiodeLanes,
    /// Device indices gathered for the current group, parallel to the
    /// lanes; drives the scatter of batch results.
    idx: Vec<usize>,
    mos_out: Vec<MosOp>,
    bjt_out: Vec<BjtOp>,
    diode_out: Vec<DiodeOp>,
}

impl BatchWs {
    fn eval_mos(
        &mut self,
        bias: &SizedCircuit,
        x: &[f64],
        groups: &[Vec<usize>],
        ops: &mut [MosOp],
        select: impl Fn(usize) -> bool,
    ) {
        let volt = |n: Option<usize>| n.map_or(0.0, |i| x[i]);
        for g in groups {
            self.mos_lanes.clear();
            self.idx.clear();
            for &i in g {
                if select(i) {
                    let m = &bias.mosfets[i];
                    self.mos_lanes
                        .push(m.w, m.l, volt(m.d), volt(m.g), volt(m.s), volt(m.b));
                    self.idx.push(i);
                }
            }
            if self.idx.is_empty() {
                continue;
            }
            self.mos_out.clear();
            bias.mosfets[g[0]]
                .model
                .op_batch(&self.mos_lanes, &mut self.mos_out);
            for (&i, op) in self.idx.iter().zip(&self.mos_out) {
                ops[i] = *op;
            }
        }
    }

    fn eval_bjt(
        &mut self,
        bias: &SizedCircuit,
        x: &[f64],
        groups: &[Vec<usize>],
        ops: &mut [BjtOp],
        select: impl Fn(usize) -> bool,
    ) {
        let volt = |n: Option<usize>| n.map_or(0.0, |i| x[i]);
        for g in groups {
            self.bjt_lanes.clear();
            self.idx.clear();
            for &i in g {
                if select(i) {
                    let q = &bias.bjts[i];
                    self.bjt_lanes.push(q.area, volt(q.c), volt(q.b), volt(q.e));
                    self.idx.push(i);
                }
            }
            if self.idx.is_empty() {
                continue;
            }
            self.bjt_out.clear();
            bias.bjts[g[0]]
                .model
                .op_batch(&self.bjt_lanes, &mut self.bjt_out);
            for (&i, op) in self.idx.iter().zip(&self.bjt_out) {
                ops[i] = *op;
            }
        }
    }

    fn eval_diode(
        &mut self,
        bias: &SizedCircuit,
        x: &[f64],
        groups: &[Vec<usize>],
        ops: &mut [DiodeOp],
        select: impl Fn(usize) -> bool,
    ) {
        let volt = |n: Option<usize>| n.map_or(0.0, |i| x[i]);
        for g in groups {
            self.diode_lanes.clear();
            self.idx.clear();
            for &i in g {
                if select(i) {
                    let d = &bias.diodes[i];
                    self.diode_lanes.push(d.area, volt(d.a) - volt(d.k));
                    self.idx.push(i);
                }
            }
            if self.idx.is_empty() {
                continue;
            }
            self.diode_out.clear();
            bias.diodes[g[0]]
                .model
                .op_batch(&self.diode_lanes, &mut self.diode_out);
            for (&i, op) in self.idx.iter().zip(&self.diode_out) {
                ops[i] = *op;
            }
        }
    }
}

/// One materialized configuration: everything derived from a specific
/// `(user, nodes)` pair. `valid == false` means a previous update
/// failed partway and nothing here may be reused except as a target
/// for a plan-full update (which rewrites every bound value).
#[derive(Debug, Clone)]
pub(crate) struct Slot {
    valid: bool,
    /// LRU clock stamp, maintained by the evaluator.
    pub(crate) stamp: u64,
    user: Vec<f64>,
    nodes: Vec<f64>,
    bias: SizedCircuit,
    det: Vec<Option<f64>>,
    x: Vec<f64>,
    mos_ops: Vec<MosOp>,
    bjt_ops: Vec<BjtOp>,
    diode_ops: Vec<DiodeOp>,
    /// SoA gather/scatter workspace for batched device evaluation
    /// (reused across updates; see [`oblx_devices::batch`]).
    batch: BatchWs,
    /// KCL conductance matrix and source vector (stamped with unit
    /// source scale, exactly as [`crate::cost::kcl_residual`]); reused
    /// across incremental updates because linear values are frozen on
    /// that path.
    kcl_g: Mat<f64>,
    kcl_rhs: Vec<f64>,
    residual: Vec<f64>,
    jigs: Vec<JigSlot>,
    /// AWE models in flat analysis order. All `Some` once any update
    /// has completed (`valid == true`).
    models: Vec<Option<ReducedModel>>,
}

impl Slot {
    pub(crate) fn new(plan: &EvalPlan) -> Slot {
        let dim = plan.bias_template.dim();
        Slot {
            valid: false,
            stamp: 0,
            user: Vec::new(),
            nodes: Vec::new(),
            bias: plan.bias_template.clone(),
            det: Vec::new(),
            x: vec![0.0; dim],
            mos_ops: Vec::new(),
            bjt_ops: Vec::new(),
            diode_ops: Vec::new(),
            batch: BatchWs::default(),
            kcl_g: Mat::zeros(dim, dim),
            kcl_rhs: vec![0.0; dim],
            residual: vec![0.0; dim],
            jigs: plan
                .jigs
                .iter()
                .map(|j| JigSlot {
                    ckt: j.ckt_template.clone(),
                    engine: j.engine_template.clone(),
                    mos_ops: Vec::new(),
                    bjt_ops: Vec::new(),
                    diode_ops: Vec::new(),
                })
                .collect(),
            models: vec![None; plan.analysis_names.len()],
        }
    }

    pub(crate) fn valid(&self) -> bool {
        self.valid
    }

    /// `true` when the slot holds exactly this state (bitwise).
    pub(crate) fn matches(&self, user: &[f64], nodes: &[f64]) -> bool {
        self.valid
            && self.user.len() == user.len()
            && self.nodes.len() == nodes.len()
            && self
                .user
                .iter()
                .zip(user)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && self
                .nodes
                .iter()
                .zip(nodes)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// `true` when an incremental update against this slot is legal for
    /// the proposed state.
    pub(crate) fn can_increment(&self, plan: &EvalPlan, user: &[f64], nodes: &[f64]) -> bool {
        self.valid && self.nodes.len() == nodes.len() && plan.incremental_ok(&self.user, user)
    }

    /// Re-applies every binding and recomputes everything. Mirrors the
    /// cold path operation for operation; the only work skipped is the
    /// structural kind (interning, name maps, model lookup).
    pub(crate) fn update_full(
        &mut self,
        plan: &EvalPlan,
        user: &[f64],
        nodes: &[f64],
    ) -> Result<(), EvalFailure> {
        self.valid = false;
        self.user.clear();
        self.user.extend_from_slice(user);
        self.nodes.clear();
        self.nodes.extend_from_slice(nodes);
        let ctx = VarsCtx {
            names: &plan.user_names,
            values: user,
        };
        for b in &plan.bias_bindings {
            b.apply(&mut self.bias, &ctx)?;
        }
        self.det = determined_voltages(&self.bias);
        debug_assert!(
            self.det
                .iter()
                .enumerate()
                .filter(|(_, d)| d.is_none())
                .map(|(i, _)| i)
                .eq(plan.free_nodes.iter().copied()),
            "free-node pattern must be value-independent"
        );
        for v in self.x.iter_mut() {
            *v = 0.0;
        }
        let mut free_i = 0usize;
        for (i, dv) in self.det.iter().enumerate() {
            match dv {
                Some(v) => self.x[i] = *v,
                None => {
                    self.x[i] = nodes.get(free_i).copied().unwrap_or(0.0);
                    free_i += 1;
                }
            }
        }
        self.recompute_all_ops(plan);
        // KCL linear part: unit source scale, identical stamp order to
        // `cost::kcl_residual`.
        let n = self.bias.nodes.len();
        self.kcl_g.clear();
        for r in self.kcl_rhs.iter_mut() {
            *r = 0.0;
        }
        for el in &self.bias.linear {
            el.stamp_dc(&mut self.kcl_g, &mut self.kcl_rhs, n, 1.0);
        }
        self.recompute_residual();
        let Slot {
            jigs,
            mos_ops,
            bjt_ops,
            diode_ops,
            models,
            ..
        } = self;
        for (jp, js) in plan.jigs.iter().zip(jigs.iter_mut()) {
            for b in &jp.bindings {
                b.apply(&mut js.ckt, &ctx)?;
            }
            js.rerun(jp, mos_ops, bjt_ops, diode_ops, models, plan.awe_order)?;
        }
        self.valid = true;
        Ok(())
    }

    /// Recomputes only what the bitwise state diff shows to be dirty.
    ///
    /// Precondition (checked by [`Slot::can_increment`]): the slot is
    /// valid and no changed user variable feeds a linear bias element,
    /// so the determined-voltage tree and the KCL matrix carry over.
    /// The residual is nonetheless always recomputed in full from the
    /// cached matrix — incremental column updates would accumulate
    /// floating-point drift and break bit-identity with the cold path.
    pub(crate) fn update_incremental(
        &mut self,
        plan: &EvalPlan,
        user: &[f64],
        nodes: &[f64],
    ) -> Result<(), EvalFailure> {
        let dirty_user: Vec<bool> = self
            .user
            .iter()
            .zip(user)
            .map(|(a, b)| a.to_bits() != b.to_bits())
            .collect();
        let dirty_node: Vec<bool> = self
            .nodes
            .iter()
            .zip(nodes)
            .map(|(a, b)| a.to_bits() != b.to_bits())
            .collect();
        self.valid = false;
        self.user.copy_from_slice(user);
        self.nodes.copy_from_slice(nodes);
        let ctx = VarsCtx {
            names: &plan.user_names,
            values: user,
        };
        // 1. Dirty bias bindings. Only geometry targets can appear here
        //    (linear targets force a plan-full update).
        let mut mos_dirty = vec![false; self.bias.mosfets.len()];
        let mut bjt_dirty = vec![false; self.bias.bjts.len()];
        let mut diode_dirty = vec![false; self.bias.diodes.len()];
        for b in &plan.bias_bindings {
            if b.dirty(&dirty_user) {
                b.apply(&mut self.bias, &ctx)?;
                match b.target {
                    BindTarget::MosW(i) | BindTarget::MosL(i) => mos_dirty[i] = true,
                    BindTarget::BjtArea(i) => bjt_dirty[i] = true,
                    BindTarget::DiodeArea(i) => diode_dirty[i] = true,
                    _ => unreachable!("linear bias binding on the incremental path"),
                }
            }
        }
        // 2. Dirty free-node voltages.
        let mut node_changed = vec![false; self.bias.nodes.len()];
        for (k, &ni) in plan.free_nodes.iter().enumerate() {
            if k < dirty_node.len() && dirty_node[k] {
                self.x[ni] = nodes[k];
                node_changed[ni] = true;
            }
        }
        // 3. Re-evaluate devices whose geometry or terminal voltages
        //    changed; operating points are pure functions of both.
        //    Two passes: flag the dirty set, then batch-evaluate it per
        //    model group through the SoA lanes (bit-identical to the
        //    scalar calls this replaced).
        {
            let Slot {
                bias,
                x,
                mos_ops,
                bjt_ops,
                diode_ops,
                batch,
                ..
            } = &mut *self;
            let x: &[f64] = x;
            let moved = |n: Option<usize>| n.is_some_and(|i| node_changed[i]);
            for (i, m) in bias.mosfets.iter().enumerate() {
                if moved(m.d) || moved(m.g) || moved(m.s) || moved(m.b) {
                    mos_dirty[i] = true;
                }
            }
            for (i, q) in bias.bjts.iter().enumerate() {
                if moved(q.c) || moved(q.b) || moved(q.e) {
                    bjt_dirty[i] = true;
                }
            }
            for (i, d) in bias.diodes.iter().enumerate() {
                if moved(d.a) || moved(d.k) {
                    diode_dirty[i] = true;
                }
            }
            batch.eval_mos(bias, x, &plan.mos_groups, mos_ops, |i| mos_dirty[i]);
            batch.eval_bjt(bias, x, &plan.bjt_groups, bjt_ops, |i| bjt_dirty[i]);
            batch.eval_diode(bias, x, &plan.diode_groups, diode_ops, |i| diode_dirty[i]);
        }
        // 4. Residual: full recompute from the cached linear stamps.
        self.recompute_residual();
        // 5. Jigs intersecting the dirty set: rebind, restamp, re-AWE.
        //    A clean jig's models are untouched — its inputs are
        //    bitwise identical to when they were last computed.
        let Slot {
            jigs,
            mos_ops,
            bjt_ops,
            diode_ops,
            models,
            ..
        } = self;
        for (jp, js) in plan.jigs.iter().zip(jigs.iter_mut()) {
            if !jp.dirty(&dirty_user, &mos_dirty, &bjt_dirty, &diode_dirty) {
                continue;
            }
            for b in &jp.bindings {
                if b.dirty(&dirty_user) {
                    b.apply(&mut js.ckt, &ctx)?;
                }
            }
            js.rerun(jp, mos_ops, bjt_ops, diode_ops, models, plan.awe_order)?;
        }
        self.valid = true;
        Ok(())
    }

    /// Recomputes every device operating point (plan-full path) through
    /// the SoA batch evaluators, one batch per model group.
    fn recompute_all_ops(&mut self, plan: &EvalPlan) {
        let Slot {
            bias,
            x,
            mos_ops,
            bjt_ops,
            diode_ops,
            batch,
            ..
        } = self;
        let x: &[f64] = x;
        mos_ops.clear();
        mos_ops.resize(bias.mosfets.len(), MosOp::default());
        bjt_ops.clear();
        bjt_ops.resize(bias.bjts.len(), BjtOp::default());
        diode_ops.clear();
        diode_ops.resize(bias.diodes.len(), DiodeOp::default());
        batch.eval_mos(bias, x, &plan.mos_groups, mos_ops, |_| true);
        batch.eval_bjt(bias, x, &plan.bjt_groups, bjt_ops, |_| true);
        batch.eval_diode(bias, x, &plan.diode_groups, diode_ops, |_| true);
    }

    /// `f = G·x − rhs + device currents`, identical arithmetic and
    /// order to [`crate::cost::kcl_residual`].
    fn recompute_residual(&mut self) {
        self.kcl_g.mul_vec_into(&self.x, &mut self.residual);
        for (fi, r) in self.residual.iter_mut().zip(self.kcl_rhs.iter()) {
            *fi -= r;
        }
        let f = &mut self.residual;
        for (m, op) in self.bias.mosfets.iter().zip(self.mos_ops.iter()) {
            if let Some(d) = m.d {
                f[d] += op.id;
            }
            if let Some(s) = m.s {
                f[s] -= op.id;
            }
        }
        for (q, op) in self.bias.bjts.iter().zip(self.bjt_ops.iter()) {
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
        for (d, op) in self.bias.diodes.iter().zip(self.diode_ops.iter()) {
            if let Some(a) = d.a {
                f[a] += op.id;
            }
            if let Some(k) = d.k {
                f[k] -= op.id;
            }
        }
    }
}

impl JigSlot {
    /// Copies the bias operating points through the device bindings,
    /// restamps the small-signal system, and re-runs every analysis.
    fn rerun(
        &mut self,
        jp: &JigPlan,
        mos_ops: &[MosOp],
        bjt_ops: &[BjtOp],
        diode_ops: &[DiodeOp],
        models: &mut [Option<ReducedModel>],
        awe_order: usize,
    ) -> Result<(), EvalFailure> {
        self.mos_ops.clear();
        self.mos_ops.extend(jp.mos_bind.iter().map(|&i| mos_ops[i]));
        self.bjt_ops.clear();
        self.bjt_ops.extend(jp.bjt_bind.iter().map(|&i| bjt_ops[i]));
        self.diode_ops.clear();
        self.diode_ops
            .extend(jp.diode_bind.iter().map(|&i| diode_ops[i]));
        // Element values are re-stamped straight into the engine's slot
        // arrays — no dense matrix is touched on the hot path. (Slot
        // replay is bit-identical to dense stamping, so the cold path,
        // which gathers from its dense stamp, factors the same numbers.)
        let (map, g_vals, c_vals) = self.engine.sparse_parts_mut();
        map.stamp(
            &self.ckt,
            &self.mos_ops,
            &self.bjt_ops,
            &self.diode_ops,
            g_vals,
            c_vals,
        );
        // One factorization serves every analysis of the jig; each
        // fitted model is bit-identical to a standalone `analyze_with`.
        let jobs: Vec<(&[f64], OutputSelector)> = jp
            .analyses
            .iter()
            .map(|a| (a.b.as_slice(), a.out))
            .collect();
        match oblx_awe::analyze_batch_with(&mut self.engine, &jobs, awe_order) {
            Ok(fitted) => {
                for (a, model) in jp.analyses.iter().zip(fitted) {
                    models[a.flat] = Some(model);
                }
                Ok(())
            }
            Err((i, e)) => Err(EvalFailure::Awe(format!("{}: {e}", jp.analyses[i].name))),
        }
    }
}

/// Expression-evaluation context over a slot: the plan-path counterpart
/// of the cold path's record-backed context, with all name resolution
/// done by linear scans over precompiled tables instead of freshly
/// built hash maps.
struct PlanCtx<'a> {
    user_names: &'a [String],
    user: &'a [f64],
    bias: &'a SizedCircuit,
    residual: &'a [f64],
    mos_ops: &'a [MosOp],
    bjt_ops: &'a [BjtOp],
    diode_ops: &'a [DiodeOp],
    analysis_names: &'a [String],
    models: &'a [Option<ReducedModel>],
}

/// Compares a flattened device name against dotted-path segments
/// without joining the segments into a fresh string.
fn seg_match(name: &str, segs: &[String]) -> bool {
    name.split('.').eq(segs.iter().map(|s| s.as_str()))
}

impl MeasureSource for PlanCtx<'_> {
    fn model(&self, handle: &str) -> Option<&ReducedModel> {
        let i = self.analysis_names.iter().position(|n| n == handle)?;
        self.models[i].as_ref()
    }

    fn power(&self) -> f64 {
        power_of(self.bias, self.residual)
    }

    fn area(&self) -> f64 {
        area_of(self.bias)
    }
}

impl EvalContext for PlanCtx<'_> {
    fn lookup_var(&self, name: &str) -> Result<f64, EvalError> {
        self.user_names
            .iter()
            .rposition(|n| n == name)
            .map(|i| self.user[i])
            .ok_or_else(|| EvalError::UnknownVar(name.to_string()))
    }

    fn lookup_path(&self, path: &[String]) -> Result<f64, EvalError> {
        if path.len() >= 2 {
            let segs = &path[..path.len() - 1];
            let quantity = &path[path.len() - 1];
            // Same resolution order and first-match semantics as the
            // cold path's by-name lookup.
            let q = if let Some(i) = self
                .bias
                .mosfets
                .iter()
                .position(|m| seg_match(&m.name, segs))
            {
                self.mos_ops[i].quantity(quantity)
            } else if let Some(i) = self.bias.bjts.iter().position(|b| seg_match(&b.name, segs)) {
                self.bjt_ops[i].quantity(quantity)
            } else if let Some(i) = self
                .bias
                .diodes
                .iter()
                .position(|d| seg_match(&d.name, segs))
            {
                self.diode_ops[i].quantity(quantity)
            } else {
                None
            };
            if let Some(v) = q {
                return Ok(v);
            }
        }
        Err(EvalError::UnknownPath(path.join(".")))
    }

    fn call(&self, name: &str, args: &[Expr], values: &[Option<f64>]) -> Result<f64, EvalError> {
        crate::cost::measure_call(self, name, args, values)
    }
}

/// Scores a valid slot under the current weights: the shared summation
/// in `cost::score_with`, fed from the slot's precomputed state.
pub(crate) fn score_slot(
    compiled: &CompiledProblem,
    plan: &EvalPlan,
    slot: &Slot,
    weights: &AdaptiveWeights,
    user: &[f64],
) -> Result<CostBreakdown, EvalFailure> {
    debug_assert!(slot.valid, "scoring an invalid slot");
    let ctx = PlanCtx {
        user_names: &plan.user_names,
        user,
        bias: &slot.bias,
        residual: &slot.residual,
        mos_ops: &slot.mos_ops,
        bjt_ops: &slot.bjt_ops,
        diode_ops: &slot.diode_ops,
        analysis_names: &plan.analysis_names,
        models: &slot.models,
    };
    score_with(
        compiled,
        weights,
        &ctx,
        &slot.bias.mosfets,
        &slot.mos_ops,
        &slot.bjt_ops,
        &plan.free_nodes,
        &slot.residual,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::astrx::compile;
    use crate::bench_suite;
    use crate::cost::AWE_ORDER;

    /// The Two-Stage supply-rejection jigs differ only in which source
    /// carries the ac excitation; the plan must merge them into a
    /// single materialized system serving all three analyses.
    #[test]
    fn two_stage_supply_jigs_share_one_system() {
        let b = bench_suite::by_name("Two-Stage").expect("Two-Stage exists");
        let compiled = compile(b.problem().expect("parses")).expect("compiles");
        let plan = EvalPlan::build(&compiled, AWE_ORDER).expect("plannable");
        assert_eq!(plan.analysis_names.len(), 3, "three analyses expected");
        assert_eq!(plan.jigs.len(), 1, "structurally identical jigs merged");
        assert_eq!(plan.jigs[0].analyses.len(), 3);
    }
}
