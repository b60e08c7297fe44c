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
//!   index form up front, each with the demand that
//!   [`crate::astrx::compile`] decided for its handle.
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
use oblx_awe::{AweEngine, Demand, ReducedModel};
use oblx_devices::{BjtOp, DiodeOp, MosOp};
use oblx_linalg::Mat;
use oblx_mna::dc::linear_stamp_into;
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
    /// What the goals read of it ([`CompiledProblem::demand`]).
    demand: Demand,
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
    fn dirty(&self, dirty_user: &[bool], devices: &DirtyDevices) -> bool {
        self.bindings.iter().any(|b| b.dirty(dirty_user))
            || self.mos_bind.iter().any(|&i| devices.mos[i])
            || self.bjt_bind.iter().any(|&i| devices.bjt[i])
            || self.diode_bind.iter().any(|&i| devices.diode[i])
    }
}

/// The bias circuit, precompiled once per problem: the template built
/// at the initial point, the [`Binding`]s that patch geometry and
/// source values into it in place, and the structural facts derived
/// from it. It depends only on the bias netlist, which
/// [`crate::astrx::compile`] already assembled at the same point, so it
/// builds for every compiled problem, even when a jig makes the
/// [`EvalPlan`] decline. The evaluation slots and OBLX's Newton moves
/// both patch their copies of the template through [`BiasPlan::patch`].
#[derive(Debug, Clone)]
pub(crate) struct BiasPlan {
    /// User-variable names, parallel to the value vector.
    user_names: Vec<String>,
    bindings: Vec<Binding>,
    /// Per user variable: `true` when it appears in a *linear* bias
    /// element value. Changing such a variable invalidates the
    /// determined-voltage tree and the linear stamps, forcing a
    /// plan-full update.
    linear_var: Vec<bool>,
    /// Free bias-node indices in node-variable order (structural:
    /// independent of element values).
    free_nodes: Vec<usize>,
    template: SizedCircuit,
}

impl BiasPlan {
    /// Builds the bias plan at the initial point, or `None` when the
    /// bias circuit does not assemble there (never for a problem that
    /// [`crate::astrx::compile`] accepted).
    pub(crate) fn build(compiled: &CompiledProblem) -> Option<BiasPlan> {
        let user_names: Vec<String> = compiled.user_vars.iter().map(|v| v.name.clone()).collect();
        let vars = compiled.var_map(&compiled.initial_user_values());
        let template = SizedCircuit::build(&compiled.bias_netlist, &vars, &compiled.lib).ok()?;
        let free_nodes = free_nodes_of(&determined_voltages(&template));
        let bindings = bindings_for(&compiled.bias_netlist, &template, &user_names)?;
        let mut linear_var = vec![false; user_names.len()];
        for b in &bindings {
            if b.target.is_linear() {
                for &d in &b.deps {
                    linear_var[d] = true;
                }
            }
        }
        Some(BiasPlan {
            user_names,
            bindings,
            linear_var,
            free_nodes,
            template,
        })
    }

    /// The bias circuit at the initial point.
    pub(crate) fn template(&self) -> &SizedCircuit {
        &self.template
    }

    /// Free bias-node indices in node-variable order.
    pub(crate) fn free_nodes(&self) -> &[usize] {
        &self.free_nodes
    }

    /// `true` when every changed user variable (bitwise, `from` vs.
    /// `to`) avoids the linear bias elements, so determined voltages
    /// and linear stamps computed at `from` hold at `to`.
    pub(crate) fn linear_unchanged(&self, from: &[f64], to: &[f64]) -> bool {
        from.len() == to.len()
            && from
                .iter()
                .zip(to)
                .enumerate()
                .all(|(i, (a, b))| a.to_bits() == b.to_bits() || !self.linear_var[i])
    }

    /// Patches `ckt` (a copy of the template) to the user vector
    /// `user`: every binding for `dirty == None`, else only those whose
    /// variables are flagged dirty. `applied` sees the target of each
    /// binding written, in order. Stops at the first failing binding,
    /// leaving `ckt` partly patched; the caller must then re-patch every
    /// binding before trusting it again.
    fn patch(
        &self,
        ckt: &mut SizedCircuit,
        user: &[f64],
        dirty: Option<&[bool]>,
        mut applied: impl FnMut(BindTarget),
    ) -> Result<(), EvalFailure> {
        let ctx = self.ctx(user);
        for b in &self.bindings {
            if dirty.is_none_or(|d| b.dirty(d)) {
                b.apply(ckt, &ctx)?;
                applied(b.target);
            }
        }
        Ok(())
    }

    /// The expression context over a user vector.
    fn ctx<'a>(&'a self, user: &'a [f64]) -> VarsCtx<'a> {
        VarsCtx {
            names: &self.user_names,
            values: user,
        }
    }
}

/// The free (undetermined) node indices of a determined-voltage vector.
fn free_nodes_of(det: &[Option<f64>]) -> Vec<usize> {
    det.iter()
        .enumerate()
        .filter(|(_, d)| d.is_none())
        .map(|(i, _)| i)
        .collect()
}

/// A private copy of the bias template kept patched to one user vector,
/// with the value-dependent data a relaxed-dc Newton step reads: the
/// determined voltages and the linear stamps `(G, rhs)` at unit source
/// scale. [`PatchedBias::sync`] re-applies only the bindings whose
/// variables changed since the last sync, and recomputes the rest only
/// when a linear variable moved, so every field equals what a
/// from-scratch build at the same user vector would give, bit for bit.
#[derive(Debug, Clone)]
pub(crate) struct PatchedBias {
    ckt: SizedCircuit,
    /// User vector `ckt` is patched to; meaningless while `!valid`.
    user: Vec<f64>,
    /// `false` until the first successful sync and after a failed one
    /// (the circuit may be partly patched): the next sync re-applies
    /// every binding.
    valid: bool,
    det: Vec<Option<f64>>,
    g: Mat<f64>,
    rhs: Vec<f64>,
    /// Scratch: per user variable, changed since the last sync.
    dirty: Vec<bool>,
}

impl PatchedBias {
    pub(crate) fn new(bias: &BiasPlan) -> PatchedBias {
        let dim = bias.template.dim();
        PatchedBias {
            ckt: bias.template.clone(),
            user: Vec::new(),
            valid: false,
            det: Vec::new(),
            g: Mat::zeros(dim, dim),
            rhs: Vec::new(),
            dirty: Vec::new(),
        }
    }

    /// Brings the circuit to `user`.
    ///
    /// # Errors
    ///
    /// The first failing binding's [`EvalFailure`], exactly where
    /// [`SizedCircuit::build`] would fail at `user`.
    pub(crate) fn sync(&mut self, bias: &BiasPlan, user: &[f64]) -> Result<(), EvalFailure> {
        let full = !self.valid || self.user.len() != user.len();
        if !full {
            self.dirty.clear();
            self.dirty.extend(
                self.user
                    .iter()
                    .zip(user)
                    .map(|(a, b)| a.to_bits() != b.to_bits()),
            );
            if !self.dirty.contains(&true) {
                return Ok(());
            }
        }
        let relinearize = full || !bias.linear_unchanged(&self.user, user);
        self.valid = false;
        let dirty = (!full).then_some(self.dirty.as_slice());
        bias.patch(&mut self.ckt, user, dirty, |_| {})?;
        if relinearize {
            self.det = determined_voltages(&self.ckt);
            debug_assert!(
                free_nodes_of(&self.det) == bias.free_nodes,
                "free-node pattern must be value-independent"
            );
            linear_stamp_into(&self.ckt, 1.0, &mut self.g, &mut self.rhs);
        }
        self.user.clear();
        self.user.extend_from_slice(user);
        self.valid = true;
        Ok(())
    }

    /// The patched circuit.
    pub(crate) fn circuit(&self) -> &SizedCircuit {
        &self.ckt
    }

    /// Determined node voltages (`None` for free nodes).
    pub(crate) fn det(&self) -> &[Option<f64>] {
        &self.det
    }

    /// The linear stamp `(G, rhs)` at unit source scale.
    pub(crate) fn linear(&self) -> (&Mat<f64>, &[f64]) {
        (&self.g, &self.rhs)
    }
}

/// The precompiled evaluation plan for one [`CompiledProblem`]: jigs
/// and analyses over a [`BiasPlan`] that the caller owns.
#[derive(Debug, Clone)]
pub(crate) struct EvalPlan {
    /// Analysis handles, parallel to [`Slot::models`].
    analysis_names: Vec<String>,
    jigs: Vec<JigPlan>,
    awe_order: usize,
}

impl EvalPlan {
    /// Builds the plan over `bias`, or `None` when the problem cannot be
    /// planned — a jig fails to assemble at the initial point, a jig
    /// device lacks a bias counterpart, a probe or stimulus is unknown —
    /// in which case the evaluator falls back to the cold path, which
    /// reproduces the corresponding error on every evaluation.
    pub(crate) fn build(
        compiled: &CompiledProblem,
        bias_plan: &BiasPlan,
        awe_order: usize,
    ) -> Option<EvalPlan> {
        let user_names = &bias_plan.user_names;
        let vars = compiled.var_map(&compiled.initial_user_values());
        let bias = &bias_plan.template;
        let det = determined_voltages(bias);

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
        let mut mos_ops = vec![MosOp::default(); bias.mosfets.len()];
        let mut bjt_ops = vec![BjtOp::default(); bias.bjts.len()];
        let mut diode_ops = vec![DiodeOp::default(); bias.diodes.len()];
        eval_devices(bias, &x, None, &mut mos_ops, &mut bjt_ops, &mut diode_ops);

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
            let bindings = bindings_for(&jig.netlist, &ckt, user_names)?;
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
                    demand: compiled.demand[&a.name],
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

        Some(EvalPlan {
            analysis_names,
            jigs,
            awe_order,
        })
    }
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

/// Per-kind flags over the bias devices: the ones whose geometry or
/// terminal voltages changed on an incremental update.
#[derive(Debug)]
struct DirtyDevices {
    mos: Vec<bool>,
    bjt: Vec<bool>,
    diode: Vec<bool>,
}

/// Evaluates bias-device operating points in place at node voltages
/// `x`: the devices flagged in `only`, or every device for `None`. Each
/// is the scalar call the cold path ([`crate::CostEvaluator::record`])
/// makes, with the same arguments, so the results are bit-identical.
fn eval_devices(
    bias: &SizedCircuit,
    x: &[f64],
    only: Option<&DirtyDevices>,
    mos_ops: &mut [MosOp],
    bjt_ops: &mut [BjtOp],
    diode_ops: &mut [DiodeOp],
) {
    let volt = |n: Option<usize>| n.map_or(0.0, |i| x[i]);
    for (i, m) in bias.mosfets.iter().enumerate() {
        if only.is_none_or(|f| f.mos[i]) {
            mos_ops[i] = m
                .model
                .op(m.w, m.l, volt(m.d), volt(m.g), volt(m.s), volt(m.b));
        }
    }
    for (i, q) in bias.bjts.iter().enumerate() {
        if only.is_none_or(|f| f.bjt[i]) {
            bjt_ops[i] = q.model.op(q.area, volt(q.c), volt(q.b), volt(q.e));
        }
    }
    for (i, d) in bias.diodes.iter().enumerate() {
        if only.is_none_or(|f| f.diode[i]) {
            diode_ops[i] = d.model.op(d.area, volt(d.a) - volt(d.k));
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
    pub(crate) fn new(bias: &BiasPlan, plan: &EvalPlan) -> Slot {
        let bias = &bias.template;
        let dim = bias.dim();
        Slot {
            valid: false,
            stamp: 0,
            user: Vec::new(),
            nodes: Vec::new(),
            bias: bias.clone(),
            det: Vec::new(),
            x: vec![0.0; dim],
            mos_ops: vec![MosOp::default(); bias.mosfets.len()],
            bjt_ops: vec![BjtOp::default(); bias.bjts.len()],
            diode_ops: vec![DiodeOp::default(); bias.diodes.len()],
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
    pub(crate) fn can_increment(&self, bias: &BiasPlan, user: &[f64], nodes: &[f64]) -> bool {
        self.valid && self.nodes.len() == nodes.len() && bias.linear_unchanged(&self.user, user)
    }

    /// Re-applies every binding and recomputes everything. Mirrors the
    /// cold path operation for operation; the only work skipped is the
    /// structural kind (interning, name maps, model lookup).
    pub(crate) fn update_full(
        &mut self,
        bias: &BiasPlan,
        plan: &EvalPlan,
        user: &[f64],
        nodes: &[f64],
    ) -> Result<(), EvalFailure> {
        self.valid = false;
        self.user.clear();
        self.user.extend_from_slice(user);
        self.nodes.clear();
        self.nodes.extend_from_slice(nodes);
        bias.patch(&mut self.bias, user, None, |_| {})?;
        self.det = determined_voltages(&self.bias);
        debug_assert!(
            free_nodes_of(&self.det) == bias.free_nodes,
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
        eval_devices(
            &self.bias,
            &self.x,
            None,
            &mut self.mos_ops,
            &mut self.bjt_ops,
            &mut self.diode_ops,
        );
        // KCL linear part: unit source scale, identical stamp order to
        // `cost::kcl_residual`.
        linear_stamp_into(&self.bias, 1.0, &mut self.kcl_g, &mut self.kcl_rhs);
        self.recompute_residual();
        let Slot {
            jigs,
            mos_ops,
            bjt_ops,
            diode_ops,
            models,
            ..
        } = self;
        let ctx = bias.ctx(user);
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
        bias: &BiasPlan,
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
        // 1. Dirty bias bindings. Only geometry targets can appear here
        //    (linear targets force a plan-full update).
        let mut dirty = DirtyDevices {
            mos: vec![false; self.bias.mosfets.len()],
            bjt: vec![false; self.bias.bjts.len()],
            diode: vec![false; self.bias.diodes.len()],
        };
        bias.patch(&mut self.bias, user, Some(&dirty_user), |t| match t {
            BindTarget::MosW(i) | BindTarget::MosL(i) => dirty.mos[i] = true,
            BindTarget::BjtArea(i) => dirty.bjt[i] = true,
            BindTarget::DiodeArea(i) => dirty.diode[i] = true,
            _ => unreachable!("linear bias binding on the incremental path"),
        })?;
        // 2. Dirty free-node voltages.
        let mut node_changed = vec![false; self.bias.nodes.len()];
        for (k, &ni) in bias.free_nodes.iter().enumerate() {
            if k < dirty_node.len() && dirty_node[k] {
                self.x[ni] = nodes[k];
                node_changed[ni] = true;
            }
        }
        // 3. Re-evaluate devices whose geometry or terminal voltages
        //    changed; operating points are pure functions of both.
        let moved = |n: Option<usize>| n.is_some_and(|i| node_changed[i]);
        for (i, m) in self.bias.mosfets.iter().enumerate() {
            if moved(m.d) || moved(m.g) || moved(m.s) || moved(m.b) {
                dirty.mos[i] = true;
            }
        }
        for (i, q) in self.bias.bjts.iter().enumerate() {
            if moved(q.c) || moved(q.b) || moved(q.e) {
                dirty.bjt[i] = true;
            }
        }
        for (i, d) in self.bias.diodes.iter().enumerate() {
            if moved(d.a) || moved(d.k) {
                dirty.diode[i] = true;
            }
        }
        eval_devices(
            &self.bias,
            &self.x,
            Some(&dirty),
            &mut self.mos_ops,
            &mut self.bjt_ops,
            &mut self.diode_ops,
        );
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
        let ctx = bias.ctx(user);
        for (jp, js) in plan.jigs.iter().zip(jigs.iter_mut()) {
            if !jp.dirty(&dirty_user, &dirty) {
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
        // One factorization serves every analysis of the jig, each at its
        // demand; every model is bit-identical to the cold path's.
        let jobs: Vec<(&[f64], OutputSelector, Demand)> = jp
            .analyses
            .iter()
            .map(|a| (a.b.as_slice(), a.out, a.demand))
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
    bias: &BiasPlan,
    plan: &EvalPlan,
    slot: &Slot,
    weights: &AdaptiveWeights,
    user: &[f64],
) -> Result<CostBreakdown, EvalFailure> {
    debug_assert!(slot.valid, "scoring an invalid slot");
    let ctx = PlanCtx {
        user_names: &bias.user_names,
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
        &bias.free_nodes,
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
        let bias = BiasPlan::build(&compiled).expect("bias plan builds");
        let plan = EvalPlan::build(&compiled, &bias, AWE_ORDER).expect("plannable");
        assert_eq!(plan.analysis_names.len(), 3, "three analyses expected");
        assert_eq!(plan.jigs.len(), 1, "structurally identical jigs merged");
        assert_eq!(plan.jigs[0].analyses.len(), 3);
    }

    /// The shared-probe test deck: its gain and supply-rejection jigs
    /// merge, so one probe serves a fitted analysis and a dc-only one.
    #[test]
    fn psrr_test_deck_shares_one_probe_across_demands() {
        let compiled = crate::astrx::compile_source(include_str!("testdata/diffamp_psrr.ox"))
            .expect("compiles");
        let bias = BiasPlan::build(&compiled).expect("bias plan builds");
        let plan = EvalPlan::build(&compiled, &bias, AWE_ORDER).expect("plannable");
        assert_eq!(plan.jigs.len(), 1, "structurally identical jigs merged");
        let a = &plan.jigs[0].analyses;
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].out, a[1].out, "one probe");
        assert_eq!((a[0].demand, a[1].demand), (Demand::Model, Demand::DcOnly));
    }
}
