//! OBLX — the annealing solution library.
//!
//! OBLX minimizes the cost function ASTRX compiled. The annealing state
//! is the variable vector `x`: discrete (log-grid) device geometries and
//! continuous values among the user variables, plus the continuous
//! relaxed-dc node voltages. The move set mixes random perturbations
//! with full and partial Newton–Raphson jumps on the node voltages
//! (paper §V.A); Hustin statistics in `oblx-anneal` decide the mix.

use crate::astrx::{determined_voltages, CompiledProblem};
use crate::cost::{CostBreakdown, CostEvaluator};
use crate::plan::{BiasPlan, PatchedBias};
use crate::weights::{AdaptiveWeights, WeightsSnapshot};
use oblx_anneal::{
    AnnealCheckpoint, AnnealOptions, AnnealProblem, Annealer, ControlledOutcome, Directive, Trace,
};
use oblx_linalg::{Lu, Mat};
use oblx_mna::dc::{linearize_at, linearize_into};
use oblx_mna::SizedCircuit;
use oblx_netlist::VarScale;
use rand::{Rng, RngExt};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Synthesis run options.
#[derive(Debug, Clone)]
pub struct SynthesisOptions {
    /// Annealing move budget.
    pub moves_budget: usize,
    /// RNG seed.
    pub seed: u64,
    /// Trace sampling interval (0 disables).
    pub trace_every: usize,
    /// Evaluations between adaptive-weight updates.
    pub weight_update_every: usize,
    /// Discrete grid density (points per decade on log variables).
    pub points_per_decade: usize,
    /// Quench patience (greedy attempts without improvement).
    pub quench_patience: usize,
    /// AWE model order used inside the cost function.
    pub awe_order: usize,
    /// Ablation switch: disable the Newton–Raphson move classes
    /// (forces purely random node-voltage exploration).
    pub disable_newton_moves: bool,
    /// Ablation switch: freeze all weights at 1 (no adaptation, no
    /// KCL ramp).
    pub disable_adaptive_weights: bool,
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        SynthesisOptions {
            moves_budget: 40_000,
            seed: 1,
            trace_every: 0,
            weight_update_every: 500,
            points_per_decade: 25,
            quench_patience: 2_000,
            awe_order: crate::cost::AWE_ORDER,
            disable_newton_moves: false,
            disable_adaptive_weights: false,
        }
    }
}

/// The annealing state: user-variable values plus relaxed-dc node
/// voltages.
#[derive(Debug, Clone, PartialEq)]
pub struct OblxState {
    /// User variable values in declaration order.
    pub user: Vec<f64>,
    /// Free bias-node voltages in node-var order.
    pub nodes: Vec<f64>,
}

/// Result of a synthesis run.
#[derive(Debug, Clone)]
pub struct SynthesisResult {
    /// Best configuration found.
    pub state: OblxState,
    /// Its cost.
    pub best_cost: f64,
    /// Cost decomposition at the best configuration (final weights).
    pub breakdown: CostBreakdown,
    /// `(goal name, measured value)` pairs at the best configuration.
    pub measured: Vec<(String, f64)>,
    /// `(variable name, value)` pairs.
    pub variables: Vec<(String, f64)>,
    /// Worst KCL residual at the best configuration (A).
    pub kcl_max: f64,
    /// Annealing trace (empty unless tracing was enabled).
    pub trace: Trace,
    /// Total proposals.
    pub attempted: usize,
    /// Total cost evaluations.
    pub evaluations: usize,
    /// Wall-clock seconds for the run.
    pub wall_seconds: f64,
    /// Mean milliseconds per circuit evaluation — Table 2's
    /// "time/ckt. eval" row.
    pub ms_per_eval: f64,
    /// Cost evaluations per wall-clock second.
    pub evals_per_sec: f64,
    /// Annealing proposals per wall-clock second.
    pub moves_per_sec: f64,
    /// Fraction of evaluations served without a full plan update
    /// (incremental re-evaluations plus exact-state cache hits). Zero
    /// when the evaluator runs without a precompiled plan.
    pub cache_hit_ratio: f64,
}

impl SynthesisResult {
    /// The value of a named user variable.
    pub fn var(&self, name: &str) -> Option<f64> {
        self.variables
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The measured value of a named goal.
    pub fn measure(&self, name: &str) -> Option<f64> {
        self.measured
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// The OBLX annealing problem: binds the compiled cost function to the
/// generic annealing engine.
pub struct OblxProblem<'a> {
    compiled: &'a CompiledProblem,
    evaluator: CostEvaluator<'a>,
    weights: AdaptiveWeights,
    opts: SynthesisOptions,
    evals: usize,
    grid_steps: Vec<f64>,
    node_lo: f64,
    node_hi: f64,
    /// `None` only when the bias circuit has no plan (it does not
    /// assemble at the initial point); Newton moves then never apply.
    newton: Option<NewtonWs>,
}

/// Weak conductance from every device terminal to ground in the Newton
/// linearization (S).
const NEWTON_GMIN: f64 = 1e-12;

/// The Newton move's own state: a copy of the bias template patched to
/// the user vector of the last step, and the linearization buffers.
struct NewtonWs {
    bias: PatchedBias,
    x: Vec<f64>,
    jac: Mat<f64>,
    f: Vec<f64>,
}

impl NewtonWs {
    fn new(bias: &BiasPlan) -> NewtonWs {
        let dim = bias.template().dim();
        NewtonWs {
            bias: PatchedBias::new(bias),
            x: vec![0.0; dim],
            jac: Mat::zeros(dim, dim),
            f: Vec::with_capacity(dim),
        }
    }
}

/// Move-class indices (public so diagnostics can name them).
pub mod move_class {
    /// Perturb one user variable (grid step for discrete, range step
    /// for continuous).
    pub const USER_SINGLE: usize = 0;
    /// Perturb a couple of user variables together.
    pub const USER_MULTI: usize = 1;
    /// Perturb one relaxed-dc node voltage.
    pub const NODE_SINGLE: usize = 2;
    /// Jitter all node voltages slightly.
    pub const NODE_ALL: usize = 3;
    /// Full Newton–Raphson jump toward dc-correctness.
    pub const NEWTON_FULL: usize = 4;
    /// Damped (30%) Newton–Raphson step.
    pub const NEWTON_PARTIAL: usize = 5;
    /// Compound move: perturb one user variable, then immediately
    /// Newton-correct the node voltages. Without this, any geometry
    /// change late in the run breaks Kirchhoff correctness and is
    /// rejected by the (by-then dominant) KCL weights — the compound
    /// move keeps geometry exploration alive after dc lock-in.
    pub const USER_WITH_NEWTON: usize = 6;
    /// Number of classes.
    pub const COUNT: usize = 7;

    /// Human-readable class names, indexed by class constant (used by
    /// telemetry snapshots and diagnostics).
    pub const NAMES: [&str; COUNT] = [
        "user_single",
        "user_multi",
        "node_single",
        "node_all",
        "newton_full",
        "newton_partial",
        "user_with_newton",
    ];
}

impl<'a> OblxProblem<'a> {
    /// Creates the problem for a compiled description.
    pub fn new(compiled: &'a CompiledProblem, opts: SynthesisOptions) -> Self {
        // Cold path, once per problem: label the telemetry move-class
        // slots so snapshots render real names instead of `class<i>`.
        oblx_telemetry::set_class_names(&move_class::NAMES);
        let evaluator = CostEvaluator::with_awe_order(compiled, opts.awe_order);
        // Node-voltage exploration range: span of determined voltages
        // (the supplies) at the initial point, widened by a volt on each
        // side.
        let (mut lo, mut hi) = (0.0f64, 0.0f64);
        let newton = evaluator.bias_plan().map(|bias| {
            for v in determined_voltages(bias.template()).into_iter().flatten() {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            NewtonWs::new(bias)
        });
        let grid_steps = compiled
            .user_vars
            .iter()
            .map(|v| match v.scale {
                VarScale::Log => {
                    (v.max / v.min).ln()
                        / ((v.max / v.min).log10() * opts.points_per_decade as f64).max(1.0)
                }
                VarScale::Lin => (v.max - v.min) / 100.0,
            })
            .collect();
        OblxProblem {
            compiled,
            evaluator,
            weights: AdaptiveWeights::new(compiled),
            opts,
            evals: 0,
            grid_steps,
            node_lo: lo - 1.0,
            node_hi: hi + 1.0,
            newton,
        }
    }

    /// The adaptive weights (final values after a run).
    pub fn weights(&self) -> &AdaptiveWeights {
        &self.weights
    }

    /// Number of cost evaluations so far.
    pub fn evaluations(&self) -> usize {
        self.evals
    }

    /// Snaps a user-variable value onto its grid and range.
    fn clamp_user(&self, i: usize, value: f64) -> f64 {
        let decl = &self.compiled.user_vars[i];
        let v = value.clamp(decl.min, decl.max);
        if decl.continuous {
            return v;
        }
        match decl.scale {
            VarScale::Log => {
                let step = self.grid_steps[i];
                let k = ((v / decl.min).ln() / step).round();
                (decl.min * (k * step).exp()).clamp(decl.min, decl.max)
            }
            VarScale::Lin => {
                let step = self.grid_steps[i];
                let k = ((v - decl.min) / step).round();
                (decl.min + k * step).clamp(decl.min, decl.max)
            }
        }
    }

    fn perturb_user(&self, state: &OblxState, i: usize, scale: f64, rng: &mut dyn Rng) -> f64 {
        let decl = &self.compiled.user_vars[i];
        let r = rng.random::<f64>() * 2.0 - 1.0;
        let value = match decl.scale {
            VarScale::Log => {
                // Multiplicative walk: up to 2 decades at full scale.
                let span = (decl.max / decl.min).log10().min(2.0);
                state.user[i] * 10f64.powf(r * scale * span)
            }
            VarScale::Lin => state.user[i] + r * scale * (decl.max - decl.min) * 0.5,
        };
        self.clamp_user(i, value)
    }

    /// The Newton–Raphson step on the free node voltages at `state`:
    /// the solution Δ of the free-node block of `J·Δ = −F`. `None` when
    /// the bias circuit does not assemble at `state.user`, has no free
    /// node, or the block is singular.
    ///
    /// The step goes through the bias plan: a private copy of the bias
    /// template is patched to `state.user` (only the bindings whose
    /// variables changed since the last step), its determined voltages
    /// and linear stamps are recomputed only when a linear bias
    /// variable moved, and the devices are linearized in place. Δ is
    /// bit-identical to [`reference_newton_delta`]; debug builds assert
    /// that on every move.
    pub fn newton_delta(&mut self, state: &OblxState) -> Option<Vec<f64>> {
        let _span = oblx_telemetry::span(oblx_telemetry::SpanKind::NewtonStep);
        let OblxProblem {
            evaluator, newton, ..
        } = self;
        let (bias, ws) = (evaluator.bias_plan()?, newton.as_mut()?);
        ws.bias.sync(bias, &state.user, |_| {}).ok()?;
        let free = bias.free_nodes();
        if free.is_empty() {
            return None;
        }
        let mut free_v = state.nodes.iter().copied();
        for (xi, dv) in ws.x.iter_mut().zip(ws.bias.det()) {
            *xi = match dv {
                Some(v) => *v,
                None => free_v.next().unwrap_or(0.0),
            };
        }
        let (g, rhs) = ws.bias.linear();
        linearize_into(
            ws.bias.circuit(),
            g,
            rhs,
            &ws.x,
            NEWTON_GMIN,
            &mut ws.jac,
            &mut ws.f,
        );
        free_block_step(&ws.jac, &ws.f, free)
    }

    /// Newton–Raphson move on node voltages: the damped step `alpha·Δ`
    /// of [`OblxProblem::newton_delta`], clamped per node.
    fn newton_move(&mut self, state: &OblxState, alpha: f64) -> Option<OblxState> {
        let delta = self.newton_delta(state);
        #[cfg(debug_assertions)]
        {
            let bits = |d: &Option<Vec<f64>>| {
                d.as_ref()
                    .map(|d| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
            };
            let want = reference_newton_delta(self.compiled, state);
            assert_eq!(
                bits(&delta),
                bits(&want),
                "bias-plan Newton step diverged from the reference step"
            );
        }
        let delta = delta?;
        let mut next = state.clone();
        for (k, d) in delta.iter().enumerate() {
            let step = (alpha * d).clamp(-1.0, 1.0);
            next.nodes[k] = (next.nodes[k] + step).clamp(self.node_lo, self.node_hi);
        }
        Some(next)
    }
}

/// The Newton step Δ of [`OblxProblem::newton_delta`], computed from
/// scratch: build the variable map, assemble the bias circuit from its
/// netlist, find the determined voltages, linearize with
/// [`linearize_at`], and solve the free-node block with the dense
/// [`Lu`]. This is the reference the bias-plan step is checked against
/// (debug builds, the `newton_equivalence` proptest, and the
/// `newton_step` bench); the move loop never calls it.
pub fn reference_newton_delta(compiled: &CompiledProblem, state: &OblxState) -> Option<Vec<f64>> {
    let vars = compiled.var_map(&state.user);
    let bias = SizedCircuit::build(&compiled.bias_netlist, &vars, &compiled.lib).ok()?;
    let det = determined_voltages(&bias);
    let mut x = vec![0.0; bias.dim()];
    let mut free = Vec::new();
    let mut fi = 0usize;
    for (i, dv) in det.iter().enumerate() {
        match dv {
            Some(v) => x[i] = *v,
            None => {
                x[i] = state.nodes.get(fi).copied().unwrap_or(0.0);
                free.push(i);
                fi += 1;
            }
        }
    }
    if free.is_empty() {
        return None;
    }
    let (jac, f) = linearize_at(&bias, &x, 1.0, NEWTON_GMIN);
    free_block_step(&jac, &f, &free)
}

/// Solves the free-node block of `J·Δ = −F` with the dense [`Lu`];
/// `None` when the block is singular.
fn free_block_step(jac: &Mat<f64>, f: &[f64], free: &[usize]) -> Option<Vec<f64>> {
    let nf = free.len();
    let mut jff = Mat::zeros(nf, nf);
    let mut rhs = vec![0.0; nf];
    for (r, &nr) in free.iter().enumerate() {
        rhs[r] = -f[nr];
        for (c, &nc) in free.iter().enumerate() {
            jff[(r, c)] = jac.get(nr, nc);
        }
    }
    Some(Lu::factor(jff).ok()?.solve(&rhs))
}

impl AnnealProblem for OblxProblem<'_> {
    type State = OblxState;

    fn initial_state(&mut self) -> OblxState {
        let user = self.compiled.initial_user_values();
        let mid = 0.5 * (self.node_lo + self.node_hi);
        OblxState {
            user: user
                .iter()
                .enumerate()
                .map(|(i, &v)| self.clamp_user(i, v))
                .collect(),
            nodes: vec![mid; self.compiled.node_vars.len()],
        }
    }

    fn cost(&mut self, state: &OblxState) -> f64 {
        self.evals += 1;
        let b = self
            .evaluator
            .evaluate(&state.user, &state.nodes, &self.weights);
        if !b.failed {
            self.weights.observe(&b.violation, &b.kcl_violation);
        }
        if !self.opts.disable_adaptive_weights
            && self.evals.is_multiple_of(self.opts.weight_update_every)
        {
            let progress = self.evals as f64 / self.opts.moves_budget.max(1) as f64;
            self.weights.adapt(progress.min(1.0));
        }
        b.total
    }

    fn move_classes(&self) -> usize {
        move_class::COUNT
    }

    fn propose(
        &mut self,
        state: &OblxState,
        class: usize,
        scale: f64,
        rng: &mut dyn Rng,
    ) -> Option<OblxState> {
        let nu = state.user.len();
        let nn = state.nodes.len();
        match class {
            move_class::USER_SINGLE if nu > 0 => {
                let i = (rng.next_u64() as usize) % nu;
                let mut next = state.clone();
                next.user[i] = self.perturb_user(state, i, scale, rng);
                Some(next)
            }
            move_class::USER_MULTI if nu > 1 => {
                let mut next = state.clone();
                let count = 2 + (rng.next_u64() as usize) % nu.min(3);
                for _ in 0..count {
                    let i = (rng.next_u64() as usize) % nu;
                    next.user[i] = self.perturb_user(&next, i, scale * 0.5, rng);
                }
                Some(next)
            }
            move_class::NODE_SINGLE if nn > 0 => {
                let k = (rng.next_u64() as usize) % nn;
                let mut next = state.clone();
                let r = rng.random::<f64>() * 2.0 - 1.0;
                next.nodes[k] = (next.nodes[k] + r * scale * 0.5 * (self.node_hi - self.node_lo))
                    .clamp(self.node_lo, self.node_hi);
                Some(next)
            }
            move_class::NODE_ALL if nn > 0 => {
                let mut next = state.clone();
                for v in next.nodes.iter_mut() {
                    let r = rng.random::<f64>() * 2.0 - 1.0;
                    *v = (*v + r * scale * 0.1 * (self.node_hi - self.node_lo))
                        .clamp(self.node_lo, self.node_hi);
                }
                Some(next)
            }
            move_class::NEWTON_FULL if nn > 0 && !self.opts.disable_newton_moves => {
                self.newton_move(state, 1.0)
            }
            move_class::NEWTON_PARTIAL if nn > 0 && !self.opts.disable_newton_moves => {
                self.newton_move(state, 0.3)
            }
            move_class::USER_WITH_NEWTON if nu > 0 && nn > 0 && !self.opts.disable_newton_moves => {
                let i = (rng.next_u64() as usize) % nu;
                let mut next = state.clone();
                next.user[i] = self.perturb_user(state, i, scale, rng);
                // Two Newton sweeps re-establish dc at the new geometry.
                let mut corrected = self.newton_move(&next, 1.0)?;
                corrected.user = next.user;
                if let Some(again) = self.newton_move(&corrected, 1.0) {
                    corrected.nodes = again.nodes;
                }
                Some(corrected)
            }
            _ => None,
        }
    }

    fn telemetry_names(&self) -> Vec<String> {
        vec![
            "kcl_max".into(),
            "c_dc".into(),
            "c_perf".into(),
            "c_obj".into(),
        ]
    }

    fn telemetry(&mut self, state: &OblxState) -> Vec<f64> {
        let b = self
            .evaluator
            .evaluate(&state.user, &state.nodes, &self.weights);
        vec![b.kcl_max, b.c_dc, b.c_perf, b.c_obj]
    }
}

/// A complete, serializable image of a synthesis run in flight: the
/// engine-side [`AnnealCheckpoint`] plus the problem-side state the
/// engine cannot see (adaptive weights, the evaluation counter that
/// paces weight adaptation, accumulated wall time). Both halves are cut
/// at the same instant, so restoring the pair continues the run
/// **bit-identically** — the determinism contract is verified by the
/// runtime crate's round-trip property test.
#[derive(Debug, Clone)]
pub struct SynthesisCheckpoint {
    /// Seed of the run this checkpoint belongs to (sanity-checked on
    /// resume: resuming under different options is a caller bug).
    pub seed: u64,
    /// Move budget of the run this checkpoint belongs to.
    pub moves_budget: usize,
    /// Engine state (RNG, schedule, move statistics, configurations).
    pub engine: AnnealCheckpoint<OblxState>,
    /// Adaptive-weight state.
    pub weights: WeightsSnapshot,
    /// Cost evaluations so far (paces the weight-adaptation cadence).
    pub evals: usize,
    /// Wall-clock seconds consumed before this checkpoint, across all
    /// resumed segments.
    pub wall_seconds: f64,
}

/// Outcome of [`synthesize_controlled`].
#[derive(Debug, Clone)]
pub enum SynthesisOutcome {
    /// The run finished.
    Complete(Box<SynthesisResult>),
    /// A hook stopped the run; resume later from this checkpoint.
    Interrupted(Box<SynthesisCheckpoint>),
}

/// Runs a full OBLX synthesis on a compiled problem.
///
/// # Errors
///
/// [`crate::cost::EvalFailure`] if even the *best* configuration found
/// cannot be evaluated — which indicates a structurally broken problem
/// rather than a poor optimum.
pub fn synthesize(
    compiled: &CompiledProblem,
    opts: &SynthesisOptions,
) -> Result<SynthesisResult, crate::cost::EvalFailure> {
    match synthesize_controlled(compiled, opts, None, 0, |_| Directive::Continue)? {
        SynthesisOutcome::Complete(r) => Ok(*r),
        SynthesisOutcome::Interrupted(_) => unreachable!("no hook ever issued Stop"),
    }
}

/// Runs an OBLX synthesis under external control: every
/// `checkpoint_every` proposals a [`SynthesisCheckpoint`] is cut and
/// handed to `hook`, which may persist it and/or stop the run
/// ([`Directive::Stop`]). Passing a previously cut checkpoint as
/// `resume` continues that run bit-identically — the warm-up probe is
/// skipped and the RNG, schedule, move statistics, adaptive weights and
/// evaluation counters all pick up exactly where they stood.
///
/// With `checkpoint_every == 0` and no `resume` this is exactly
/// [`synthesize`].
///
/// # Panics
///
/// If `resume` was cut under a different seed or move budget than
/// `opts` carries — mixing checkpoints across runs would silently
/// produce garbage, so it is rejected loudly.
///
/// # Errors
///
/// [`crate::cost::EvalFailure`] as for [`synthesize`].
pub fn synthesize_controlled(
    compiled: &CompiledProblem,
    opts: &SynthesisOptions,
    resume: Option<&SynthesisCheckpoint>,
    checkpoint_every: usize,
    mut hook: impl FnMut(&SynthesisCheckpoint) -> Directive,
) -> Result<SynthesisOutcome, crate::cost::EvalFailure> {
    let start = Instant::now();
    let mut problem = OblxProblem::new(compiled, opts.clone());
    let prior_wall = resume.map_or(0.0, |c| c.wall_seconds);
    let engine_resume = resume.map(|c| {
        assert_eq!(c.seed, opts.seed, "checkpoint cut under a different seed");
        assert_eq!(
            c.moves_budget, opts.moves_budget,
            "checkpoint cut under a different move budget"
        );
        problem.weights = AdaptiveWeights::from_snapshot(c.weights.clone());
        problem.evals = c.evals;
        c.engine.clone()
    });
    let mut annealer = Annealer::new(AnnealOptions {
        moves_budget: opts.moves_budget,
        seed: opts.seed,
        trace_every: opts.trace_every,
        quench_patience: opts.quench_patience,
    });
    let (seed, budget) = (opts.seed, opts.moves_budget);
    let mut stopped: Option<SynthesisCheckpoint> = None;
    let outcome = annealer.run_controlled(
        &mut problem,
        engine_resume,
        checkpoint_every,
        |p, engine_ck| {
            let ck = SynthesisCheckpoint {
                seed,
                moves_budget: budget,
                engine: engine_ck.clone(),
                weights: p.weights.snapshot(),
                evals: p.evals,
                wall_seconds: prior_wall + start.elapsed().as_secs_f64(),
            };
            let directive = hook(&ck);
            if directive == Directive::Stop {
                stopped = Some(ck);
            }
            directive
        },
    );
    let result = match outcome {
        ControlledOutcome::Interrupted(_) => {
            let ck = stopped.expect("Stop directive recorded its checkpoint");
            return Ok(SynthesisOutcome::Interrupted(Box::new(ck)));
        }
        ControlledOutcome::Complete(result) => result,
    };
    let wall = prior_wall + start.elapsed().as_secs_f64();
    let evaluations = problem.evaluations();
    let stats = problem.evaluator.stats();

    // Final scoring with the final weights, surfacing any failure.
    let record = problem
        .evaluator
        .record(&result.best_state.user, &result.best_state.nodes)?;
    let breakdown = problem
        .evaluator
        .cost_of_record(&record, &problem.weights)?;

    let measured: Vec<(String, f64)> = compiled
        .problem
        .specs
        .iter()
        .zip(breakdown.measured.iter())
        .map(|(g, &v)| (g.name.clone(), v))
        .collect();
    let variables: Vec<(String, f64)> = compiled
        .user_vars
        .iter()
        .zip(result.best_state.user.iter())
        .map(|(d, &v)| (d.name.clone(), v))
        .collect();

    Ok(SynthesisOutcome::Complete(Box::new(SynthesisResult {
        kcl_max: breakdown.kcl_max,
        best_cost: result.best_cost,
        breakdown,
        measured,
        variables,
        state: result.best_state,
        trace: result.trace,
        attempted: result.attempted,
        evaluations,
        wall_seconds: wall,
        ms_per_eval: if evaluations > 0 {
            1000.0 * wall / evaluations as f64
        } else {
            0.0
        },
        evals_per_sec: if wall > 0.0 {
            evaluations as f64 / wall
        } else {
            0.0
        },
        moves_per_sec: if wall > 0.0 {
            result.attempted as f64 / wall
        } else {
            0.0
        },
        cache_hit_ratio: stats.cache_hit_ratio(),
    })))
}

/// Per-seed summary from [`synthesize_multi`].
#[derive(Debug, Clone)]
pub struct SeedRunStats {
    /// The RNG seed of the run.
    pub seed: u64,
    /// Frozen-final-weight cost of the run's best state (the
    /// cross-run commensurable score); `+inf` if the run failed.
    pub fixed_cost: f64,
    /// Best annealing cost the run reported (`NaN` if it failed).
    pub best_cost: f64,
    /// Worst KCL residual at the run's best state (`NaN` if failed).
    pub kcl_max: f64,
    /// Cost evaluations spent by the run.
    pub evaluations: usize,
    /// Wall-clock seconds of the run.
    pub wall_seconds: f64,
    /// Cost evaluations per second of the run.
    pub evals_per_sec: f64,
    /// Fraction of evaluations served incrementally or from cache.
    pub cache_hit_ratio: f64,
    /// Whether the run failed (its best state was unevaluable).
    pub failed: bool,
}

/// Result of a multi-seed synthesis.
#[derive(Debug, Clone)]
pub struct MultiSynthesisResult {
    /// The winning run's full result.
    pub best: SynthesisResult,
    /// The seed that produced [`MultiSynthesisResult::best`].
    pub best_seed: u64,
    /// Per-seed statistics, in the order the seeds were given.
    pub runs: Vec<SeedRunStats>,
    /// Wall-clock seconds for the whole multi-seed run.
    pub wall_seconds: f64,
    /// Worker threads actually used.
    pub threads: usize,
}

/// Runs [`synthesize`] once per seed, distributing the runs over up to
/// `threads` worker threads, and returns the best result under the
/// frozen end-of-run weights — the paper's best-of-several-overnight-
/// runs protocol, parallelized.
///
/// Each per-seed run is completely independent (its own evaluator,
/// weights and RNG), so the outcome is bit-identical for any thread
/// count; [`pick_winner`] chooses the best run.
///
/// # Panics
///
/// If `seeds` is empty.
///
/// # Errors
///
/// The first failing seed's [`crate::cost::EvalFailure`] if *every*
/// seed fails.
pub fn synthesize_multi(
    compiled: &CompiledProblem,
    opts: &SynthesisOptions,
    seeds: &[u64],
    threads: usize,
) -> Result<MultiSynthesisResult, crate::cost::EvalFailure> {
    assert!(
        !seeds.is_empty(),
        "synthesize_multi needs at least one seed"
    );
    let start = Instant::now();
    let workers = threads.max(1).min(seeds.len());
    type SeedOutcome = Result<SynthesisResult, crate::cost::EvalFailure>;
    let slots: Vec<Mutex<Option<SeedOutcome>>> = seeds.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= seeds.len() {
                    break;
                }
                let run_opts = SynthesisOptions {
                    seed: seeds[i],
                    ..opts.clone()
                };
                *slots[i].lock().unwrap() = Some(synthesize(compiled, &run_opts));
            });
        }
    });

    let mut runs = Vec::with_capacity(seeds.len());
    let mut results = Vec::with_capacity(seeds.len());
    let mut first_err = None;
    for (&seed, slot) in seeds.iter().zip(slots) {
        let outcome = slot
            .into_inner()
            .unwrap()
            .expect("worker pool covered every seed");
        match outcome {
            Ok(r) => {
                runs.push(SeedRunStats {
                    seed,
                    fixed_cost: fixed_cost(compiled, &r.state),
                    best_cost: r.best_cost,
                    kcl_max: r.kcl_max,
                    evaluations: r.evaluations,
                    wall_seconds: r.wall_seconds,
                    evals_per_sec: r.evals_per_sec,
                    cache_hit_ratio: r.cache_hit_ratio,
                    failed: false,
                });
                results.push(Some(r));
            }
            Err(e) => {
                runs.push(SeedRunStats {
                    seed,
                    fixed_cost: f64::INFINITY,
                    best_cost: f64::NAN,
                    kcl_max: f64::NAN,
                    evaluations: 0,
                    wall_seconds: 0.0,
                    evals_per_sec: 0.0,
                    cache_hit_ratio: 0.0,
                    failed: true,
                });
                results.push(None);
                first_err.get_or_insert(e);
            }
        }
    }
    match pick_winner(runs.iter().map(|r| (!r.failed).then_some(r.fixed_cost))) {
        Some(i) => Ok(MultiSynthesisResult {
            best: results[i].take().expect("the winner ran"),
            best_seed: seeds[i],
            runs,
            wall_seconds: start.elapsed().as_secs_f64(),
            threads: workers,
        }),
        None => Err(first_err.expect("no winner implies at least one error")),
    }
}

/// The winner rule over the runs of one multi-seed synthesis, given each
/// run's [`fixed_cost`] in seed-list order (`None` for a failed run):
/// the lowest cost wins, NaN ranks last, and ties go to the earlier
/// seed. Returns the winner's index, or `None` when every run failed.
/// The rule depends on the costs alone, never on the order in which
/// runs finish, so neither the thread count nor the host that ran a seed
/// can change the answer; [`synthesize_multi`] and the `oblxd` worker
/// pool both call it.
pub fn pick_winner(fixed_costs: impl IntoIterator<Item = Option<f64>>) -> Option<usize> {
    let mut best: Option<(f64, usize)> = None;
    for (i, cost) in fixed_costs.into_iter().enumerate() {
        let Some(cost) = cost else { continue };
        let key = if cost.is_nan() { f64::INFINITY } else { cost };
        if best.is_none_or(|(bk, _)| key < bk) {
            best = Some((key, i));
        }
    }
    best.map(|(_, i)| i)
}

/// The user-variable assignment of a state, as a map.
pub fn state_vars(compiled: &CompiledProblem, state: &OblxState) -> HashMap<String, f64> {
    compiled.var_map(&state.user)
}

/// Evaluates a configuration under the *frozen end-of-run* weight set
/// (uniform goal weights, full KCL ramp) — the commensurable score for
/// comparing results across independent annealing runs, as in the
/// paper's best-of-several-overnight-runs protocol.
pub fn fixed_cost(compiled: &CompiledProblem, state: &OblxState) -> f64 {
    let mut ev = CostEvaluator::new(compiled);
    let w = AdaptiveWeights::frozen_final(compiled);
    ev.evaluate(&state.user, &state.nodes, &w).total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::astrx::compile_source;

    fn compiled() -> CompiledProblem {
        compile_source(include_str!("testdata/diffamp.ox")).unwrap()
    }

    #[test]
    fn grid_snapping_log() {
        let c = compiled();
        let p = OblxProblem::new(&c, SynthesisOptions::default());
        // W in [2u, 500u] log grid.
        let snapped = p.clamp_user(0, 37.3e-6);
        assert!((2e-6..=500e-6).contains(&snapped));
        // Snapping twice is identity.
        assert_eq!(p.clamp_user(0, snapped), snapped);
        // Out of range clamps.
        assert_eq!(p.clamp_user(0, 1e-3), 500e-6);
        assert_eq!(p.clamp_user(0, 0.0), 2e-6);
    }

    #[test]
    fn continuous_vars_not_snapped() {
        let c = compiled();
        let p = OblxProblem::new(&c, SynthesisOptions::default());
        // Vb (index 3) is continuous.
        assert_eq!(p.clamp_user(3, 1.2345), 1.2345);
    }

    #[test]
    fn newton_move_reduces_kcl_error() {
        let c = compiled();
        let mut p = OblxProblem::new(&c, SynthesisOptions::default());
        let state = p.initial_state();
        let w = AdaptiveWeights::new(&c);
        let before = p
            .evaluator
            .try_evaluate(&state.user, &state.nodes, &w)
            .unwrap()
            .kcl_max;
        let mut s = state.clone();
        for _ in 0..20 {
            match p.newton_move(&s, 1.0) {
                Some(next) => s = next,
                None => break,
            }
        }
        let after = p
            .evaluator
            .try_evaluate(&s.user, &s.nodes, &w)
            .unwrap()
            .kcl_max;
        assert!(
            after < before * 1e-3,
            "newton must slash kcl error: {before} -> {after}"
        );
        assert!(after < 1e-7, "converged to dc point: {after}");
    }

    #[test]
    fn short_synthesis_run_improves_cost_and_converges_dc() {
        let c = compiled();
        let opts = SynthesisOptions {
            moves_budget: 3_000,
            seed: 11,
            trace_every: 100,
            quench_patience: 300,
            ..SynthesisOptions::default()
        };
        // Initial cost for comparison.
        let mut p0 = OblxProblem::new(&c, opts.clone());
        let init = p0.initial_state();
        let init_cost = p0.cost(&init);

        let result = synthesize(&c, &opts).unwrap();
        assert!(
            result.best_cost < init_cost,
            "synthesis must improve: {init_cost} -> {}",
            result.best_cost
        );
        // Relaxed dc must have annealed to near-correctness.
        assert!(
            result.kcl_max < 1e-6,
            "kcl residual at best = {}",
            result.kcl_max
        );
        // Trace recorded the Fig. 2 series.
        assert!(result.trace.series("kcl_max").is_some());
        assert!(result.evaluations > 1000);
        assert!(result.ms_per_eval > 0.0);
        // Throughput telemetry is populated, and the precompiled plan
        // served a nonzero share of evaluations without full updates.
        assert!(result.evals_per_sec > 0.0);
        assert!(result.moves_per_sec > 0.0);
        assert!(
            result.cache_hit_ratio > 0.0 && result.cache_hit_ratio <= 1.0,
            "cache hit ratio = {}",
            result.cache_hit_ratio
        );
        // Variables within their declared ranges.
        for (decl, (_, v)) in c.user_vars.iter().zip(result.variables.iter()) {
            assert!(*v >= decl.min && *v <= decl.max);
        }
    }

    #[test]
    fn multi_seed_is_thread_invariant_and_picks_best() {
        let c = compiled();
        let opts = SynthesisOptions {
            moves_budget: 600,
            quench_patience: 100,
            ..SynthesisOptions::default()
        };
        let seeds = [3u64, 5, 9];
        let seq = synthesize_multi(&c, &opts, &seeds, 1).unwrap();
        let par = synthesize_multi(&c, &opts, &seeds, 3).unwrap();
        assert_eq!(seq.threads, 1);
        assert_eq!(par.threads, 3);
        // Identical outcome regardless of thread count.
        assert_eq!(seq.best_seed, par.best_seed);
        assert_eq!(seq.best.best_cost.to_bits(), par.best.best_cost.to_bits());
        assert_eq!(seq.best.state, par.best.state);
        assert_eq!(seq.runs.len(), seeds.len());
        for (a, b) in seq.runs.iter().zip(par.runs.iter()) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.fixed_cost.to_bits(), b.fixed_cost.to_bits());
            assert!(!a.failed && !b.failed);
        }
        // The winner carries the minimum frozen-final cost.
        let min = seq
            .runs
            .iter()
            .map(|r| r.fixed_cost)
            .fold(f64::INFINITY, f64::min);
        let winner = seq.runs.iter().find(|r| r.seed == seq.best_seed).unwrap();
        assert_eq!(winner.fixed_cost.to_bits(), min.to_bits());
    }

    #[test]
    fn interrupted_synthesis_resumes_bit_identically() {
        let c = compiled();
        let opts = SynthesisOptions {
            moves_budget: 900,
            seed: 7,
            quench_patience: 150,
            trace_every: 100,
            ..SynthesisOptions::default()
        };
        let full = synthesize(&c, &opts).unwrap();

        // Stop after ~a third of the budget, then resume to completion.
        let outcome = synthesize_controlled(&c, &opts, None, 50, |ck| {
            if ck.engine.attempted >= 300 {
                Directive::Stop
            } else {
                Directive::Continue
            }
        })
        .unwrap();
        let ck = match outcome {
            SynthesisOutcome::Interrupted(ck) => *ck,
            SynthesisOutcome::Complete(_) => panic!("must stop mid-run"),
        };
        assert_eq!(ck.engine.attempted, 300);
        assert!(ck.evals > 0);

        let resumed = match synthesize_controlled(&c, &opts, Some(&ck), 0, |_| Directive::Continue)
            .unwrap()
        {
            SynthesisOutcome::Complete(r) => *r,
            SynthesisOutcome::Interrupted(_) => unreachable!(),
        };
        assert_eq!(full.best_cost.to_bits(), resumed.best_cost.to_bits());
        assert_eq!(full.state, resumed.state);
        assert_eq!(full.attempted, resumed.attempted);
        assert_eq!(full.evaluations, resumed.evaluations);
        assert_eq!(full.kcl_max.to_bits(), resumed.kcl_max.to_bits());
        assert_eq!(full.trace.points, resumed.trace.points);
        for ((na, va), (nb, vb)) in full.measured.iter().zip(resumed.measured.iter()) {
            assert_eq!(na, nb);
            assert_eq!(va.to_bits(), vb.to_bits());
        }
    }

    #[test]
    fn synthesis_is_deterministic_per_seed() {
        let c = compiled();
        let opts = SynthesisOptions {
            moves_budget: 800,
            seed: 3,
            quench_patience: 100,
            ..SynthesisOptions::default()
        };
        let a = synthesize(&c, &opts).unwrap();
        let b = synthesize(&c, &opts).unwrap();
        assert_eq!(a.best_cost.to_bits(), b.best_cost.to_bits());
        assert_eq!(a.state, b.state);
    }
}
