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
//! A [`Slot`] is one materialized configuration: a [`PatchedBias`] (the
//! bias circuit patched to the slot's user vector, with its determined
//! voltages and KCL stamp), the device operating points, the KCL
//! residual, and the AWE models for a specific `(user, nodes)` vector
//! pair. The evaluator keeps two slots. A state one of them holds
//! bitwise is only rescored under the current weights; any other state
//! goes through [`Slot::update`], which diffs it bitwise against a slot
//! and redoes what the diff reaches. The update is *full* when the slot
//! is invalid or a variable of a linear bias element moved; it then
//! redoes every device, jig binding and jig.
//!
//! Invariant: every numeric result produced through a plan is
//! **bit-identical** to the cold path, because both run the same
//! expression evaluator, the same clamps, the same stamp order, and the
//! same AWE entry point. Debug builds verify this on every evaluation.

use crate::astrx::{determined_voltages, CompiledProblem};
use crate::cost::{
    area_of, kcl_residual, power_of, score_with, CostBreakdown, EvalFailure, EvalStats,
    MeasureSource,
};
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
pub(crate) enum BindTarget {
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
/// each keep a [`PatchedBias`] copy of the template.
#[derive(Debug, Clone)]
pub(crate) struct BiasPlan {
    /// User-variable names, parallel to the value vector.
    user_names: Vec<String>,
    bindings: Vec<Binding>,
    /// Per user variable: `true` when it appears in a *linear* bias
    /// element value. Changing such a variable invalidates the
    /// determined-voltage tree and the linear stamps, forcing a full
    /// slot update.
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
    fn linear_unchanged(&self, from: &[f64], to: &[f64]) -> bool {
        from.len() == to.len()
            && from
                .iter()
                .zip(to)
                .enumerate()
                .all(|(i, (a, b))| a.to_bits() == b.to_bits() || !self.linear_var[i])
    }

    /// Patches `ckt` (a copy of the template) to the user vector
    /// `user`, re-applying the bindings whose variables are flagged in
    /// `changed`. `applied` sees the target of each binding written, in
    /// order. Stops at the first failing binding, leaving `ckt` partly
    /// patched; the caller must then re-patch every binding before
    /// trusting it again.
    fn patch(
        &self,
        ckt: &mut SizedCircuit,
        user: &[f64],
        changed: &[bool],
        mut applied: impl FnMut(BindTarget),
    ) -> Result<(), EvalFailure> {
        let ctx = self.ctx(user);
        for b in &self.bindings {
            if b.dirty(changed) {
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
/// with the value-dependent data derived from it: the determined
/// voltages and the linear stamps `(G, rhs)` at unit source scale, which
/// a relaxed-dc Newton step and the KCL residual read.
/// [`PatchedBias::sync`] re-applies only the bindings whose variables
/// changed since the last sync, and recomputes the rest only when a
/// linear variable moved, so every field equals what a from-scratch
/// build at the same user vector would give, bit for bit. OBLX's Newton
/// move and every evaluation [`Slot`] own one.
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
    /// Per user variable: changed by the last sync (bitwise), or every
    /// entry when that sync re-applied every binding.
    changed: Vec<bool>,
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
            changed: Vec::new(),
        }
    }

    /// `true` when the circuit is patched to exactly `user` (bitwise).
    fn holds(&self, user: &[f64]) -> bool {
        self.valid && same_bits(&self.user, user)
    }

    /// `true` when a sync to `user` recomputes the determined voltages
    /// and the linear stamps: the circuit is invalid, or a variable of a
    /// linear bias element moved.
    fn relinearizes(&self, bias: &BiasPlan, user: &[f64]) -> bool {
        !self.valid || !bias.linear_unchanged(&self.user, user)
    }

    /// Brings the circuit to `user`. `applied` sees the target of each
    /// binding re-applied, in order.
    ///
    /// # Errors
    ///
    /// The first failing binding's [`EvalFailure`], exactly where
    /// [`SizedCircuit::build`] would fail at `user`.
    pub(crate) fn sync(
        &mut self,
        bias: &BiasPlan,
        user: &[f64],
        applied: impl FnMut(BindTarget),
    ) -> Result<(), EvalFailure> {
        let relinearize = self.relinearizes(bias, user);
        self.changed.clear();
        if self.valid && self.user.len() == user.len() {
            self.changed.extend(
                self.user
                    .iter()
                    .zip(user)
                    .map(|(a, b)| a.to_bits() != b.to_bits()),
            );
            if !self.changed.contains(&true) {
                return Ok(());
            }
        } else {
            self.changed.resize(user.len(), true);
        }
        self.valid = false;
        bias.patch(&mut self.ckt, user, &self.changed, applied)?;
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

/// `true` when two vectors are equal bit for bit.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
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
        let every = DirtyDevices::new(bias, true);
        eval_devices(bias, &x, &every, &mut mos_ops, &mut bjt_ops, &mut diode_ops);

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

/// Per-kind flags over the bias devices: the ones an update re-evaluates.
#[derive(Debug)]
struct DirtyDevices {
    mos: Vec<bool>,
    bjt: Vec<bool>,
    diode: Vec<bool>,
}

impl DirtyDevices {
    /// Flags over the devices of `bias`, every one set to `all`.
    fn new(bias: &SizedCircuit, all: bool) -> DirtyDevices {
        DirtyDevices {
            mos: vec![all; bias.mosfets.len()],
            bjt: vec![all; bias.bjts.len()],
            diode: vec![all; bias.diodes.len()],
        }
    }
}

/// Evaluates the bias-device operating points flagged in `only`, in
/// place, at node voltages `x`. Each is the scalar call the cold path
/// ([`crate::CostEvaluator::record`]) makes, with the same arguments, so
/// the results are bit-identical.
fn eval_devices(
    bias: &SizedCircuit,
    x: &[f64],
    only: &DirtyDevices,
    mos_ops: &mut [MosOp],
    bjt_ops: &mut [BjtOp],
    diode_ops: &mut [DiodeOp],
) {
    let volt = |n: Option<usize>| n.map_or(0.0, |i| x[i]);
    for (i, m) in bias.mosfets.iter().enumerate() {
        if only.mos[i] {
            mos_ops[i] = m
                .model
                .op(m.w, m.l, volt(m.d), volt(m.g), volt(m.s), volt(m.b));
        }
    }
    for (i, q) in bias.bjts.iter().enumerate() {
        if only.bjt[i] {
            bjt_ops[i] = q.model.op(q.area, volt(q.c), volt(q.b), volt(q.e));
        }
    }
    for (i, d) in bias.diodes.iter().enumerate() {
        if only.diode[i] {
            diode_ops[i] = d.model.op(d.area, volt(d.a) - volt(d.k));
        }
    }
}

/// One materialized configuration: everything derived from a specific
/// `(user, nodes)` pair. `valid == false` means a previous update
/// failed partway and nothing here may be reused except as the target
/// of a full update. The [`PatchedBias`] keeps its own validity, so a
/// failure after the bias synced costs the next update no re-patch.
#[derive(Debug, Clone)]
pub(crate) struct Slot {
    valid: bool,
    /// LRU clock stamp, maintained by the evaluator.
    pub(crate) stamp: u64,
    /// The bias circuit at the slot's user vector, its determined
    /// voltages and its KCL stamp.
    bias: PatchedBias,
    nodes: Vec<f64>,
    x: Vec<f64>,
    mos_ops: Vec<MosOp>,
    bjt_ops: Vec<BjtOp>,
    diode_ops: Vec<DiodeOp>,
    residual: Vec<f64>,
    jigs: Vec<JigSlot>,
    /// AWE models in flat analysis order. All `Some` once any update
    /// has completed (`valid == true`).
    models: Vec<Option<ReducedModel>>,
}

impl Slot {
    pub(crate) fn new(bias: &BiasPlan, plan: &EvalPlan) -> Slot {
        let template = &bias.template;
        let dim = template.dim();
        Slot {
            valid: false,
            stamp: 0,
            bias: PatchedBias::new(bias),
            nodes: Vec::new(),
            x: vec![0.0; dim],
            mos_ops: vec![MosOp::default(); template.mosfets.len()],
            bjt_ops: vec![BjtOp::default(); template.bjts.len()],
            diode_ops: vec![DiodeOp::default(); template.diodes.len()],
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
        self.valid && self.bias.holds(user) && same_bits(&self.nodes, nodes)
    }

    /// Brings the slot to `(user, nodes)`, counting the path it takes
    /// in `stats`.
    ///
    /// The update is *full* when the slot is invalid or a variable of a
    /// linear bias element moved, so that the determined voltages and
    /// the KCL stamp change: it rebuilds `x` and redoes every device,
    /// jig binding and jig. Any other update redoes the free nodes that
    /// moved, the devices on those nodes or with a re-applied geometry
    /// binding, and the jigs whose bindings or devices changed; a clean
    /// jig's inputs are bitwise those its models were computed from.
    /// Both re-apply only the bias bindings whose variables changed
    /// since the [`PatchedBias`] last synced. The residual is always
    /// recomputed in full from the cached stamp: incremental column
    /// updates would accumulate floating-point drift and break
    /// bit-identity with the cold path.
    pub(crate) fn update(
        &mut self,
        bias: &BiasPlan,
        plan: &EvalPlan,
        user: &[f64],
        nodes: &[f64],
        stats: &mut EvalStats,
    ) -> Result<(), EvalFailure> {
        let full =
            !self.valid || self.nodes.len() != nodes.len() || self.bias.relinearizes(bias, user);
        if full {
            stats.full += 1;
            oblx_telemetry::incr(oblx_telemetry::Counter::EvalFull);
        } else {
            stats.incremental += 1;
            oblx_telemetry::incr(oblx_telemetry::Counter::EvalIncremental);
        }
        self.valid = false;
        let mut devices = DirtyDevices::new(&bias.template, full);
        // A linear binding is re-applied only on a full update, which
        // redoes every device anyway.
        self.bias.sync(bias, user, |t| match t {
            BindTarget::MosW(i) | BindTarget::MosL(i) => devices.mos[i] = true,
            BindTarget::BjtArea(i) => devices.bjt[i] = true,
            BindTarget::DiodeArea(i) => devices.diode[i] = true,
            _ => {}
        })?;
        let ckt = self.bias.circuit();
        if full {
            let mut free_v = nodes.iter().copied();
            for (xi, dv) in self.x.iter_mut().zip(self.bias.det()) {
                *xi = match dv {
                    Some(v) => *v,
                    None => free_v.next().unwrap_or(0.0),
                };
            }
        } else {
            let mut node_moved = vec![false; ckt.nodes.len()];
            for ((&ni, old), new) in bias.free_nodes.iter().zip(&self.nodes).zip(nodes) {
                if old.to_bits() != new.to_bits() {
                    self.x[ni] = *new;
                    node_moved[ni] = true;
                }
            }
            // Operating points are pure functions of geometry and
            // terminal voltages.
            let moved = |n: Option<usize>| n.is_some_and(|i| node_moved[i]);
            for (i, m) in ckt.mosfets.iter().enumerate() {
                if moved(m.d) || moved(m.g) || moved(m.s) || moved(m.b) {
                    devices.mos[i] = true;
                }
            }
            for (i, q) in ckt.bjts.iter().enumerate() {
                if moved(q.c) || moved(q.b) || moved(q.e) {
                    devices.bjt[i] = true;
                }
            }
            for (i, d) in ckt.diodes.iter().enumerate() {
                if moved(d.a) || moved(d.k) {
                    devices.diode[i] = true;
                }
            }
        }
        self.nodes.clear();
        self.nodes.extend_from_slice(nodes);
        eval_devices(
            ckt,
            &self.x,
            &devices,
            &mut self.mos_ops,
            &mut self.bjt_ops,
            &mut self.diode_ops,
        );
        kcl_residual(
            ckt,
            self.bias.linear(),
            &self.x,
            &self.mos_ops,
            &self.bjt_ops,
            &self.diode_ops,
            &mut self.residual,
        );
        let changed = &self.bias.changed;
        let ctx = bias.ctx(user);
        for (jp, js) in plan.jigs.iter().zip(self.jigs.iter_mut()) {
            if !full && !jp.dirty(changed, &devices) {
                continue;
            }
            for b in &jp.bindings {
                if full || b.dirty(changed) {
                    b.apply(&mut js.ckt, &ctx)?;
                }
            }
            js.rerun(
                jp,
                &self.mos_ops,
                &self.bjt_ops,
                &self.diode_ops,
                &mut self.models,
                plan.awe_order,
            )?;
        }
        self.valid = true;
        Ok(())
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
        bias: slot.bias.circuit(),
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
        &slot.bias.circuit().mosfets,
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
