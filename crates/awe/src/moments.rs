//! Moment generation and the adaptive Padé fit.

use crate::model::{AweError, ReducedModel};
use oblx_linalg::{solve_hankel, solve_vandermonde, Complex, Poly, SparseLu};
use oblx_mna::{LinearSystem, OutputSelector, SparseStampMap};

/// Structural compressed rows of `Cᵀ` over a [`SparseStampMap`] union
/// pattern. MNA `C` matrices are overwhelmingly zero — only capacitor
/// and junction-capacitance stamps populate them — so the adjoint
/// recurrence's `Cᵀ·a_k` products cost a handful of terms per row.
/// Instead of values it stores *slot indices* into the map's parallel
/// `c_vals` array, so the operator is built once per plan compile and
/// every re-stamp is picked up with zero rebuild cost.
#[derive(Debug, Clone)]
struct SlotCt {
    dim: usize,
    /// Row `r` of `Cᵀ` owns `cols[starts[r]..starts[r+1]]`.
    starts: Vec<u32>,
    cols: Vec<u32>,
    /// Slot of each `(cols[j], r)` entry in the union value arrays.
    slots: Vec<u32>,
}

impl SlotCt {
    /// Builds `Cᵀ` rows from the union pattern restricted to the
    /// entries the `C` stamping sequence touches (`c_idx`, sorted).
    fn build(dim: usize, entries: &[(usize, usize)], c_idx: &[u32]) -> SlotCt {
        // Row `tc` of `Cᵀ` holds column `tc` of `C`; within a row,
        // ascending source row.
        let mut order: Vec<u32> = c_idx.to_vec();
        order.sort_by_key(|&i| {
            let (r, c) = entries[i as usize];
            (c, r)
        });
        let mut starts = Vec::with_capacity(dim + 1);
        let mut cols = Vec::with_capacity(order.len());
        starts.push(0u32);
        let mut pos = 0usize;
        for tc in 0..dim {
            while pos < order.len() && entries[order[pos] as usize].1 == tc {
                cols.push(entries[order[pos] as usize].0 as u32);
                pos += 1;
            }
            starts.push(cols.len() as u32);
        }
        SlotCt {
            dim,
            starts,
            cols,
            slots: order,
        }
    }

    /// `y = −(Cᵀ·x)`, reading values through the slot indirection with
    /// ascending-column accumulation per row.
    fn mul_neg_into(&self, vals: &[f64], x: &[f64], y: &mut Vec<f64>) {
        y.clear();
        y.resize(self.dim, 0.0);
        for (r, yr) in y.iter_mut().enumerate() {
            let (lo, hi) = (self.starts[r] as usize, self.starts[r + 1] as usize);
            let mut acc = 0.0;
            for (c, s) in self.cols[lo..hi].iter().zip(self.slots[lo..hi].iter()) {
                acc += vals[*s as usize] * x[*c as usize];
            }
            *yr = -acc;
        }
    }
}

/// A reusable analysis engine bound to one circuit *structure*.
///
/// Built once per [`LinearSystem`] topology (at plan-compile time in
/// the incremental evaluator, per analysis on the cold path), it
/// performs the sparse **symbolic** factorization exactly once and
/// afterwards serves every re-stamped set of element values with an
/// allocation-free numeric refactor. The pivot order depends on the
/// pattern alone, so every engine built for one structure factors in
/// the same order and the plan and cold paths stay bit-identical.
#[derive(Debug, Clone)]
pub struct AweEngine {
    /// Owned copy of the stamping map: pattern + replay slots.
    map: SparseStampMap,
    /// Symbolic+numeric factor of `G` on the union pattern.
    lu: SparseLu,
    /// Same symbolic structure, refactored over `G + σC` values for
    /// the shifted re-expansion.
    shift_lu: SparseLu,
    /// Structural `Cᵀ` rows with slots into `c_vals`.
    ct: SlotCt,
    /// Values parallel to the union pattern, refreshed per re-stamp.
    g_vals: Vec<f64>,
    c_vals: Vec<f64>,
    shift_vals: Vec<f64>,
    /// Reused adjoint-chain buffers: after the first batch the steady
    /// state performs no heap allocation per move.
    ws: AdjointWs,
}

/// Reusable buffers for the adjoint solve chain.
#[derive(Debug, Clone, Default)]
struct AdjointWs {
    /// One adjoint vector set (`2q` vectors) per distinct probe seen in
    /// a batch, indexed in probe-first-appearance order.
    pool: Vec<Vec<Vec<f64>>>,
    r: Vec<f64>,
    scratch: Vec<f64>,
}

impl AweEngine {
    /// Prepares the engine for one system's structure: a one-time
    /// symbolic factorization of the `G ∪ C` pattern.
    ///
    /// # Errors
    ///
    /// [`AweError::SingularG`] when the pattern is structurally
    /// singular, so no values can make it factorable. Well-posed MNA
    /// never is: its diagonals carry GMIN ties.
    pub fn for_system(sys: &LinearSystem) -> Result<AweEngine, AweError> {
        let map = sys.stamp_map();
        let lu = SparseLu::symbolic(map.dim(), map.entries()).map_err(|_| AweError::SingularG)?;
        Ok(AweEngine {
            shift_lu: lu.clone(),
            lu,
            ct: SlotCt::build(map.dim(), map.entries(), &map.c_entry_indices()),
            map: map.clone(),
            g_vals: Vec::new(),
            c_vals: Vec::new(),
            shift_vals: Vec::new(),
            ws: AdjointWs::default(),
        })
    }

    /// Loads element values by gathering from the system's dense
    /// matrices — the cold path, where the system was just stamped
    /// densely anyway. Gathered values are bit-identical to a direct
    /// slot replay (see [`SparseStampMap`]).
    pub fn load(&mut self, sys: &LinearSystem) {
        sys.sparse_vals_into(&mut self.g_vals, &mut self.c_vals);
    }

    /// Direct access to the stamping map and the value arrays for the
    /// incremental path: the caller re-stamps moved element values
    /// straight into `(g_vals, c_vals)` via [`SparseStampMap::stamp`],
    /// touching no dense matrix at all.
    pub fn sparse_parts_mut(&mut self) -> (&SparseStampMap, &mut Vec<f64>, &mut Vec<f64>) {
        (&self.map, &mut self.g_vals, &mut self.c_vals)
    }

    /// The shifted re-expansion: `G + σC` shares the union pattern, so
    /// its values are the elementwise `g_vals + σ·c_vals` and its
    /// factorization reuses the same symbolic structure through
    /// `shift_lu`. Writing `s = σ + u`, the moments of
    /// `(G + σC + uC)⁻¹·b` in `u` are matched; fitted poles translate
    /// back by `p = u + σ` (residues are frame-invariant) and the dc
    /// value is pinned to the supplied exact `mu0_exact`.
    fn shifted_fit(
        &mut self,
        b: &[f64],
        out: OutputSelector,
        max_q: usize,
        sigma: f64,
        mu0_exact: f64,
    ) -> Result<ReducedModel, AweError> {
        self.shift_vals.clear();
        self.shift_vals.extend(
            self.g_vals
                .iter()
                .zip(self.c_vals.iter())
                .map(|(&g, &c)| g + sigma * c),
        );
        self.shift_lu
            .refactor(&self.shift_vals)
            .map_err(|_| AweError::SingularG)?;
        let (mut avs, mut r, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
        adjoint_vectors_into(
            &self.shift_lu,
            &self.ct,
            &self.c_vals,
            out,
            2 * max_q,
            &mut avs,
            &mut r,
            &mut scratch,
        );
        let mu: Vec<f64> = avs.iter().map(|a| dot(a, b)).collect();
        let (local, tried) = fit_model(&mu, max_q);
        oblx_telemetry::record_orders_tried(true, tried);
        let local = local?;
        let poles: Vec<Complex> = local
            .poles()
            .iter()
            .map(|&u| u + Complex::from_real(sigma))
            .collect();
        let residues = local.residues().to_vec();
        let q = local.order();
        Ok(ReducedModel::new(poles, residues, mu0_exact, mu, q))
    }
}

/// What the goals read of one analysis, and so how much of the AWE
/// pipeline its job runs in [`analyze_batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Demand {
    /// Only the exact zeroth moment `µ0` (`dc_gain`, `dcv`): one adjoint
    /// solve per probe and a pole-free model of `µ0`, with no Padé fit,
    /// unity-gain scan or shifted re-expansion.
    DcOnly,
    /// The full reduced-order model: `2q` moments, Padé fit, and the
    /// shifted re-expansion when the crossing demands it.
    Model,
}

/// Plain ascending-index dot product — the one reduction that turns an
/// adjoint vector and a stimulus into a moment, so the job-at-a-time
/// and the batch path agree bit for bit.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).fold(0.0, |acc, (x, y)| acc + x * y)
}

/// Builds a reduced-order model of the transfer function from `source`
/// to `out`, with at most `max_q` poles.
///
/// The order adapts downward when the moment sequence cannot support
/// `max_q` poles (rank-deficient Hankel) or when the fitted model fails
/// to reproduce its own moments.
///
/// # Errors
///
/// [`AweError::SingularG`] when the conductance matrix cannot be
/// factored (dc-floating node, structurally singular pattern),
/// [`AweError::UnknownSource`] for a bad source name. Degenerate moment
/// sequences never fail: they fall back to a forced one-pole or
/// constant model so the annealing cost function stays total.
pub fn analyze(
    sys: &LinearSystem,
    source: &str,
    out: OutputSelector,
    max_q: usize,
) -> Result<ReducedModel, AweError> {
    let b = sys
        .input_vector(source)
        .ok_or_else(|| AweError::UnknownSource(source.to_string()))?;
    analyze_with(sys, &b, out, max_q)
}

/// [`analyze`] with a precomputed stimulus vector `b`.
///
/// # Errors
///
/// [`AweError::SingularG`] when the conductance matrix cannot be
/// factored.
pub fn analyze_with(
    sys: &LinearSystem,
    b: &[f64],
    out: OutputSelector,
    max_q: usize,
) -> Result<ReducedModel, AweError> {
    let mut models = analyze_batch(sys, &[(b, out, Demand::Model)], max_q).map_err(|(_, e)| e)?;
    Ok(models.pop().expect("one job in, one model out"))
}

/// [`analyze_with`] over several stimulus/probe pairs of the *same*
/// system: factors `G` once and reuses it for every job, and — the
/// adjoint dividend — computes each distinct output probe's adjoint
/// vectors once, so all jobs sharing a probe (the gain / PSRR⁺ / PSRR⁻
/// trio of one amplifier, which differ only in stimulus) cost one dot
/// product per moment instead of a fresh solve chain. Each model is
/// bit-identical to a standalone [`analyze_with`] call, because the
/// adjoint vectors depend only on `(G, C, out)` — not on the stimulus —
/// and both paths take the same `a_k·b` reduction through the same
/// (deterministic) factorization.
///
/// Each job carries its [`Demand`]. A [`Demand::DcOnly`] job returns a
/// pole-free model of its exact `µ0 = a₀·b`, taken through the same
/// reduction as a fitted job's `µ0`, so its `dc_gain` equals the fitted
/// model's bit for bit. A probe that only dc-only jobs read runs one
/// adjoint solve instead of `2q`.
///
/// Returns the reduced models in job order.
///
/// # Errors
///
/// The first failing job's index with its error. A singular `G` is
/// attributed to job 0 — the job-at-a-time path would hit the same
/// factorization failure on its first analysis. A dc-only job fails
/// only with a non-finite `µ0` ([`AweError::NoModel`]).
#[allow(clippy::type_complexity)]
pub fn analyze_batch(
    sys: &LinearSystem,
    jobs: &[(&[f64], OutputSelector, Demand)],
    max_q: usize,
) -> Result<Vec<ReducedModel>, (usize, AweError)> {
    let mut engine = AweEngine::for_system(sys).map_err(|e| (0, e))?;
    engine.load(sys);
    analyze_batch_with(&mut engine, jobs, max_q)
}

/// [`analyze_batch`] against a prebuilt [`AweEngine`], for callers that
/// re-analyze the same structure repeatedly (the precompiled evaluation
/// plan): the symbolic factorization is amortized across every call, so
/// each batch costs one numeric refactor plus the solve chain.
///
/// The engine's value arrays (loaded via [`AweEngine::load`] or stamped
/// via [`AweEngine::sparse_parts_mut`]) are the source of truth. A zero
/// or non-finite pivot on the fixed pivot order reports
/// [`AweError::SingularG`].
///
/// # Errors
///
/// As for [`analyze_batch`].
#[allow(clippy::type_complexity)]
pub fn analyze_batch_with(
    engine: &mut AweEngine,
    jobs: &[(&[f64], OutputSelector, Demand)],
    max_q: usize,
) -> Result<Vec<ReducedModel>, (usize, AweError)> {
    let max_q = max_q.clamp(1, 12);
    assert_eq!(
        engine.g_vals.len(),
        engine.map.nnz(),
        "engine values not loaded; call AweEngine::load or stamp via sparse_parts_mut"
    );
    engine
        .lu
        .refactor(&engine.g_vals)
        .map_err(|_| (0, AweError::SingularG))?;
    // The workspace moves out for the duration of the loop so the
    // shifted-fit closure can still borrow the engine mutably. An error
    // abandons the buffers (the evaluation is failing anyway).
    let mut ws = std::mem::take(&mut engine.ws);
    let result = batch_jobs(engine, &mut ws, jobs, max_q);
    engine.ws = ws;
    result
}

/// The per-job fit loop of [`analyze_batch_with`], with all adjoint
/// buffers supplied by the caller-owned workspace.
#[allow(clippy::type_complexity)]
fn batch_jobs(
    engine: &mut AweEngine,
    ws: &mut AdjointWs,
    jobs: &[(&[f64], OutputSelector, Demand)],
    max_q: usize,
) -> Result<Vec<ReducedModel>, (usize, AweError)> {
    // Each distinct probe's chain length, in first-appearance order:
    // `2q` vectors when any model job reads it, `a₀` alone otherwise.
    // `a₀` is the chain's first solve either way, so a dc-only job's
    // `µ0` does not depend on what else shares its probe.
    let mut probes: Vec<(OutputSelector, usize)> = Vec::with_capacity(jobs.len());
    for (_, out, demand) in jobs {
        let count = match demand {
            Demand::DcOnly => 1,
            Demand::Model => 2 * max_q,
        };
        match probes.iter_mut().find(|(o, _)| o == out) {
            Some(p) => p.1 = p.1.max(count),
            None => probes.push((*out, count)),
        }
    }
    if ws.pool.len() < probes.len() {
        ws.pool.resize_with(probes.len(), Vec::new);
    }
    for (vecs, &(out, count)) in ws.pool.iter_mut().zip(&probes) {
        adjoint_vectors_into(
            &engine.lu,
            &engine.ct,
            &engine.c_vals,
            out,
            count,
            vecs,
            &mut ws.r,
            &mut ws.scratch,
        );
    }
    let mut models = Vec::with_capacity(jobs.len());
    for (i, (b, out, demand)) in jobs.iter().enumerate() {
        let k = probes
            .iter()
            .position(|(o, _)| o == out)
            .expect("every job's probe has a chain");
        let model = match demand {
            Demand::DcOnly => dc_only_model(dot(&ws.pool[k][0], b)),
            Demand::Model => {
                let mu = ws.pool[k].iter().map(|a| dot(a, b)).collect();
                analyze_from_moments(mu, max_q, |sigma, mu0| {
                    engine.shifted_fit(b, *out, max_q, sigma, mu0)
                })
            }
        }
        .map_err(|e| (i, e))?;
        models.push(model);
    }
    Ok(models)
}

/// The model of a dc-only job: pole-free, carrying the exact `µ0`. Only
/// a non-finite `µ0` fails it; no fit runs, so nothing past `µ0` can.
fn dc_only_model(mu0: f64) -> Result<ReducedModel, AweError> {
    oblx_telemetry::incr(oblx_telemetry::Counter::AweDcOnly);
    if !mu0.is_finite() {
        oblx_telemetry::incr(oblx_telemetry::Counter::AweNoModel);
        return Err(AweError::NoModel);
    }
    Ok(ReducedModel::constant(mu0))
}

/// The adjoint moment row-vectors of one output probe against a
/// prefactored system matrix: `a_0 = G⁻ᵀ·out`,
/// `a_{k+1} = −G⁻ᵀ·Cᵀ·a_k`, so the `k`-th transfer-function moment of
/// *any* stimulus `b` through that probe is the dot product `a_k·b`.
/// This is the classic AWE adjoint formulation: the factorization cost
/// is per *output*, not per stimulus, which lets one factored system
/// serve a whole family of transfer functions (the gain / PSRR⁺ /
/// PSRR⁻ trio of an amplifier) with `2q` solves total.
///
/// `vecs` is resized to `count` solutions with its inner allocations
/// reused, so a warm workspace runs the whole chain without touching
/// the heap.
#[allow(clippy::too_many_arguments)]
fn adjoint_vectors_into(
    lu: &SparseLu,
    ct: &SlotCt,
    c_vals: &[f64],
    out: OutputSelector,
    count: usize,
    vecs: &mut Vec<Vec<f64>>,
    r: &mut Vec<f64>,
    scratch: &mut Vec<f64>,
) {
    let n = lu.dim();
    vecs.resize_with(count, Vec::new);
    vecs.truncate(count);
    r.clear();
    r.resize(n, 0.0);
    if let Some(i) = out.p {
        r[i] += 1.0;
    }
    if let Some(i) = out.m {
        r[i] -= 1.0;
    }
    for k in 0..count {
        if k > 0 {
            let (prev, cur) = vecs.split_at_mut(k);
            ct.mul_neg_into(c_vals, &prev[k - 1], r);
            lu.solve_transpose_into(r, &mut cur[0], scratch);
        } else {
            lu.solve_transpose_into(r, &mut vecs[0], scratch);
        }
    }
}

/// Fits the model from already-computed base moments `mu`, re-expanding
/// about the estimated unity-gain crossing when the pole spread demands
/// it. The shift solve itself is supplied by the caller (`shifted_fit`,
/// invoked as `shifted_fit(σ, µ0_exact)`).
fn analyze_from_moments<F>(
    mu: Vec<f64>,
    max_q: usize,
    shifted_fit: F,
) -> Result<ReducedModel, AweError>
where
    F: FnOnce(f64, f64) -> Result<ReducedModel, AweError>,
{
    let analyze_span = oblx_telemetry::span(oblx_telemetry::SpanKind::AweAnalyze);
    let (base, tried) = {
        let _fit = analyze_span.nested(oblx_telemetry::SpanKind::AweBaseFit);
        fit_model(&mu, max_q)
    };
    oblx_telemetry::record_orders_tried(false, tried);
    let base = guard_model(base?)?;

    // When the unity-gain crossing sits far above the dominant pole,
    // the poles governing the crossing are numerically invisible in
    // moments about s = 0 (their signature decays like (p1/p2)^k, below
    // f64 precision past ~3 decades of separation). Re-expand about a
    // real shift near the estimated crossing — the frequency-hopping
    // refinement of 1990s AWE practice — and keep whichever model
    // matches the exact response there. The dc value stays pinned to
    // the exact µ0 either way.
    let f_cross = crate::measure::unity_gain_frequency(&base);
    // A pole-free model (guarded above, so a genuinely static transfer
    // function rather than a failed fit) has nothing to re-expand.
    let Some(dominant) = base.dominant_pole().map(|p| p.norm()) else {
        return Ok(base);
    };
    let w_cross = 2.0 * std::f64::consts::PI * f_cross;
    if f_cross <= 0.0 || f_cross >= 1.0e12 || dominant <= 0.0 || w_cross < 100.0 * dominant {
        return Ok(base);
    }
    let mu0 = mu[0];
    let shifted = {
        let _shift = oblx_telemetry::span(oblx_telemetry::SpanKind::AweShift);
        shifted_fit(w_cross, mu0)
    };
    match shifted {
        Ok(shifted) => {
            // Arbitration without extra solves: a trustworthy shifted
            // fit must also capture the dominant pole (it lies within a
            // few decades below σ), so its raw pole/residue sum at
            // s = 0 must reproduce the exact µ0. A spurious fit won't.
            let h0: Complex = shifted
                .poles()
                .iter()
                .zip(shifted.residues().iter())
                .map(|(&p, &k)| -k / p)
                .fold(Complex::ZERO, |a, b| a + b);
            let consistent = (h0.re - mu0).abs() <= 0.2 * mu0.abs().max(1e-12)
                && h0.im.abs() <= 0.05 * mu0.abs().max(1e-12);
            if consistent && shifted.is_stable() {
                oblx_telemetry::incr(oblx_telemetry::Counter::AweShiftApplied);
                Ok(shifted)
            } else {
                oblx_telemetry::incr(oblx_telemetry::Counter::AweShiftRejected);
                Ok(base)
            }
        }
        Err(_) => {
            oblx_telemetry::incr(oblx_telemetry::Counter::AweShiftRejected);
            Ok(base)
        }
    }
}

/// Rejects models with no trustworthy pole content: either every fitted
/// pole was dropped as non-finite during sanitization, or every retained
/// pole sits in the right half-plane — a response that is pure
/// exponential growth, whose `|H(jω)|` would otherwise alias onto a
/// healthy-looking bandwidth in the cost evaluator. A *partially* RHP
/// model is kept (phase margin and stability measures grade it) but
/// counted as unstable.
fn guard_model(model: ReducedModel) -> Result<ReducedModel, AweError> {
    let all_rhp = !model.poles().is_empty() && model.poles().iter().all(|p| p.re >= 0.0);
    let lost_all = model.poles().is_empty() && model.dropped() > 0;
    if all_rhp || lost_all {
        oblx_telemetry::incr(oblx_telemetry::Counter::AweNoModel);
        return Err(AweError::NoModel);
    }
    if !model.is_stable() {
        oblx_telemetry::incr(oblx_telemetry::Counter::AweUnstable);
    }
    Ok(model)
}

/// Fits a pole/residue model to a moment sequence (separated from
/// [`analyze`] for direct testing).
///
/// # Errors
///
/// [`AweError::NoModel`] when any moment is non-finite — the recurrence
/// itself produced garbage and nothing fitted from it can be trusted.
/// When the moments are finite but no order fits, the fallback chain is
/// the forced one-pole estimate, then a pole-free `constant(µ0)` model
/// (counted as `awe_constant`); degenerate cut-off states must stay
/// *gradable* so `C^dev` can anneal them out. The bandwidth measures
/// treat pole-free models pessimistically (no frequency information ⇒
/// no unity crossing), so the constant fallback can never silently
/// report a speed spec as met.
///
/// Also returns how many orders it tried (Hankel solves attempted,
/// q = 1 … that count), for the caller to record against the base fit
/// or the shifted re-expansion.
pub fn fit_model(mu: &[f64], max_q: usize) -> (Result<ReducedModel, AweError>, usize) {
    oblx_telemetry::incr(oblx_telemetry::Counter::AweFit);
    let mu0 = mu.first().copied().unwrap_or(0.0);

    // Non-finite moments mean the recurrence itself overflowed or hit
    // garbage; nothing fitted from them can be trusted.
    if !mu.iter().all(|m| m.is_finite()) {
        oblx_telemetry::incr(oblx_telemetry::Counter::AweNoModel);
        return (Err(AweError::NoModel), 0);
    }

    // A transfer function that is zero to machine precision: model as a
    // constant zero.
    let mu_scale = mu.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
    if mu_scale == 0.0 {
        return (Ok(ReducedModel::constant(0.0)), 0);
    }

    // Frequency scaling: ω₀ from the first adjacent nonzero moment pair
    // conditions the Hankel solve (raw moments span hundreds of decades).
    let mut omega0 = 1.0f64;
    for k in 0..mu.len() - 1 {
        if mu[k].abs() > 1e-300 && mu[k + 1].abs() > 1e-300 {
            omega0 = (mu[k] / mu[k + 1]).abs();
            break;
        }
    }
    if !omega0.is_finite() || omega0 == 0.0 {
        omega0 = 1.0;
    }

    // Scaled moments µ'_k = µ_k · ω₀^k.
    let scaled: Vec<f64> = mu
        .iter()
        .enumerate()
        .map(|(k, &m)| m * omega0.powi(k as i32))
        .collect();

    // Ascending order: accept the smallest q whose model reproduces the
    // *entire* available moment sequence — a parsimony rule that keeps
    // spurious poles (rank-deficiency artifacts) out. When no order
    // explains every moment (the usual case for real amplifiers, whose
    // pole count exceeds max_q), keep the largest order that fitted its
    // own 2q moments — classic AWE behaviour.
    let mut best: Option<(Vec<Complex>, Vec<Complex>, usize)> = None;
    let mut tried = 0;
    for q in 1..=max_q {
        if 2 * q > scaled.len() {
            break;
        }
        tried += 1;
        if let Some((poles_s, resid_s)) = try_order(&scaled, q) {
            let full_match = moments_reproduced(&poles_s, &resid_s, &scaled);
            best = Some((poles_s, resid_s, q));
            if full_match {
                break;
            }
        } else if best.is_some() {
            // Orders beyond the first failure are rank-deficiency
            // artifacts; stop scanning (classic AWE grows q until the
            // fit breaks down).
            break;
        }
    }
    let model = match best {
        Some((poles_s, resid_s, q)) => {
            // Un-scale: p = p'·ω₀, k = k'·ω₀ (residues scale with s).
            let poles: Vec<Complex> = poles_s.iter().map(|&p| p * omega0).collect();
            let residues: Vec<Complex> = resid_s.iter().map(|&r| r * omega0).collect();
            oblx_telemetry::record_fit_order(q);
            Ok(ReducedModel::new(poles, residues, mu0, mu.to_vec(), q))
        }
        None => {
            // Degenerate moment sequences (e.g. every device cut off —
            // common early in an annealing run) can defeat every guarded
            // order. Fall back to the forced one-pole estimate
            // `p = µ0/µ1`, which always exists when both moments are
            // nonzero, so the cost function stays total.
            if mu.len() >= 2 && mu[0] != 0.0 && mu[1] != 0.0 && (mu[0] / mu[1]).is_finite() {
                let p = Complex::from_real(mu[0] / mu[1]);
                let k = -(p * mu0);
                oblx_telemetry::incr(oblx_telemetry::Counter::AweForcedOnePole);
                return (
                    Ok(ReducedModel::new(vec![p], vec![k], mu0, mu.to_vec(), 1)),
                    tried,
                );
            }
            // Nothing fits at all (µ0 or µ1 is exactly zero — typical
            // of cut-off states with a capacitively-decoupled output):
            // a pole-free dc-only model. The bandwidth measures treat
            // pole-free models as carrying *no* frequency information
            // (no unity crossing), so this fallback grades
            // pessimistically instead of reading as infinitely fast.
            oblx_telemetry::incr(oblx_telemetry::Counter::AweConstant);
            Ok(ReducedModel::constant(mu0))
        }
    };
    (model, tried)
}

/// Checks whether a pole/residue set reproduces the whole scaled moment
/// sequence to tight relative tolerance.
fn moments_reproduced(poles: &[Complex], residues: &[Complex], scaled: &[f64]) -> bool {
    let scale = scaled.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
    // Running pole powers: `ppow[i]` holds `p_i^{j+1}` at moment `j`,
    // advanced by one multiplication per moment — the same
    // left-associated product chain as recomputing each power from
    // scratch, so the check is bit-identical to the naive loop.
    let mut ppow: Vec<Complex> = poles.to_vec();
    for (j, &target) in scaled.iter().enumerate() {
        if j > 0 {
            for (pw, p) in ppow.iter_mut().zip(poles.iter()) {
                *pw *= *p;
            }
        }
        let mut acc = Complex::ZERO;
        for (pw, k) in ppow.iter().zip(residues.iter()) {
            acc += *k / *pw;
        }
        let model_mu = -acc.re;
        if (model_mu - target).abs() > 1e-6 * scale.max(target.abs()) + 1e-300 {
            return false;
        }
    }
    true
}

/// Attempts a q-pole fit on scaled moments; `None` when the order is
/// unsupportable.
fn try_order(scaled: &[f64], q: usize) -> Option<(Vec<Complex>, Vec<Complex>)> {
    let b = solve_hankel(&scaled[..2 * q], q).ok()?;
    let mut coeffs = b;
    coeffs.push(1.0);
    if coeffs.iter().any(|c| !c.is_finite()) {
        return None;
    }
    let poles = Poly::from_real(&coeffs).roots();
    if poles.len() != q {
        return None;
    }
    // Reject exploding / zero poles — artifacts of rank deficiency.
    for p in &poles {
        let n = p.norm();
        if !n.is_finite() || !(1e-9..=1e9).contains(&n) {
            return None;
        }
    }
    // Residues in the complex field.
    let mu_c: Vec<Complex> = scaled[..q].iter().map(|&m| Complex::from_real(m)).collect();
    let residues = solve_vandermonde(&poles, &mu_c).ok()?;
    if residues.iter().any(|r| r.is_bad()) {
        return None;
    }
    // Self-check: the model must reproduce the moments it was fitted
    // to. Running pole powers, exactly as in [`moments_reproduced`].
    let tol = 1e-6 * scaled.iter().fold(0.0f64, |a, &b| a.max(b.abs())) + 1e-12;
    let mut ppow: Vec<Complex> = poles.to_vec();
    for (j, &target) in scaled[..2 * q].iter().enumerate() {
        if j > 0 {
            for (pw, p) in ppow.iter_mut().zip(poles.iter()) {
                *pw *= *p;
            }
        }
        // µ'_j = −Σ k/p^{j+1}
        let mut acc = Complex::ZERO;
        for (pw, k) in ppow.iter().zip(residues.iter()) {
            acc += *k / *pw;
        }
        let model_mu = -acc.re;
        if (model_mu - target).abs() > tol.max(1e-6 * target.abs()) * 10.0 {
            return None;
        }
    }
    Some((poles, residues))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblx_devices::ModelLibrary;
    use oblx_mna::{solve_dc, SizedCircuit};
    use oblx_netlist::parse_problem;
    use std::collections::HashMap;

    fn sys(src: &str) -> LinearSystem {
        let p = parse_problem(src).unwrap();
        let flat = p.jigs[0].netlist.flatten(&p.subckts).unwrap();
        let ckt = SizedCircuit::build(&flat, &HashMap::new(), &ModelLibrary::new()).unwrap();
        let op = solve_dc(&ckt).unwrap();
        LinearSystem::from_op(&ckt, &op)
    }

    #[test]
    fn rc_moments_are_analytic() {
        // H(s) = 1/(1 + sRC), µ_k = (−RC)^k, RC = 1e-3.
        let s = sys(".jig j\nvin in 0 0 ac 1\nr1 in out 1k\nc1 out 0 1u\n.endjig\n");
        let out = s.output_selector("out", None).unwrap();
        let model = analyze(&s, "vin", out, 3).unwrap();
        assert_eq!(model.moments().len(), 6);
        for (k, &mu) in model.moments().iter().enumerate() {
            let expect = (-1e-3f64).powi(k as i32);
            assert!(
                (mu - expect).abs() < 1e-9 * expect.abs().max(1e-12),
                "µ_{k} = {mu}, expected {expect}"
            );
        }
    }

    #[test]
    fn rc_single_pole_model() {
        let s = sys(".jig j\nvin in 0 0 ac 1\nr1 in out 1k\nc1 out 0 1u\n.endjig\n");
        let out = s.output_selector("out", None).unwrap();
        let model = analyze(&s, "vin", out, 4).unwrap();
        // Adaptive order must collapse to q = 1 for a 1-pole circuit.
        assert_eq!(model.order(), 1);
        let p = model.poles()[0];
        assert!((p.re + 1000.0).abs() < 1e-6, "pole = {p}");
        assert!((model.dc_gain() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rc_ladder_multiple_poles() {
        // 3-section RC ladder: 3 real negative poles.
        let s = sys(
            ".jig j\nvin in 0 0 ac 1\nr1 in a 1k\nc1 a 0 1n\nr2 a b 1k\nc2 b 0 1n\nr3 b out 1k\nc3 out 0 1n\n.endjig\n",
        );
        let out = s.output_selector("out", None).unwrap();
        let model = analyze(&s, "vin", out, 3).unwrap();
        assert_eq!(model.order(), 3);
        for p in model.poles() {
            assert!(p.re < 0.0, "ladder poles are in the LHP: {p}");
            assert!(p.im.abs() < 1e-3 * p.re.abs(), "and real: {p}");
        }
        assert!((model.dc_gain() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn model_matches_direct_ac_solve() {
        // Behavioural two-pole amplifier: AWE magnitude must track the
        // per-frequency complex solve within a fraction of a percent
        // through the unity-gain region.
        let s = sys("\
.jig j
vin in 0 0 ac 1
g1 0 x in 0 1m
r1 x 0 1meg
c1 x 0 159.155p
g2 0 out x 0 1m
r2 out 0 1k
c2 out 0 159.155p
.endjig
");
        let out = s.output_selector("out", None).unwrap();
        let model = analyze(&s, "vin", out, 4).unwrap();
        for f in [10.0, 1e3, 1e4, 1e5, 1e6, 3e6] {
            let w = 2.0 * std::f64::consts::PI * f;
            let exact = s.transfer("vin", out, w).unwrap().norm();
            let approx = model.eval(oblx_linalg::Complex::new(0.0, w)).norm();
            assert!(
                (exact - approx).abs() / exact.max(1e-12) < 1e-3,
                "f={f}: exact {exact} vs awe {approx}"
            );
        }
    }

    #[test]
    fn zero_transfer_function() {
        // Output node disconnected from the input path (but dc-grounded).
        let s = sys(".jig j\nvin in 0 0 ac 1\nr1 in 0 1k\nr2 out 0 1k\n.endjig\n");
        let out = s.output_selector("out", None).unwrap();
        let model = analyze(&s, "vin", out, 3).unwrap();
        assert_eq!(model.dc_gain(), 0.0);
        assert!(model.poles().is_empty());
    }

    #[test]
    fn unknown_source_is_error() {
        let s = sys(".jig j\nvin in 0 0 ac 1\nr1 in 0 1k\n.endjig\n");
        let out = s.output_selector("in", None).unwrap();
        assert!(matches!(
            analyze(&s, "nosuch", out, 3),
            Err(AweError::UnknownSource(_))
        ));
    }

    fn exact_moments(poles: &[f64], resid: &[f64], count: usize) -> Vec<f64> {
        (0..count)
            .map(|j| {
                -poles
                    .iter()
                    .zip(resid.iter())
                    .map(|(&p, &k)| k / p.powi(j as i32 + 1))
                    .sum::<f64>()
            })
            .collect()
    }

    #[test]
    fn fit_model_recovers_amplifier_like_pole_pair() {
        // A two-stage-amplifier-shaped response: dominant pole −1e3,
        // second pole −1e6, dc gain 100 (the crossing sits between the
        // poles, which is the regime synthesis cares about).
        let poles: [f64; 2] = [-1.0e3, -1.0e6];
        let a0 = 100.0;
        let k1 = a0 * 1.0e3 * 1.0e6 / (1.0e6 - 1.0e3);
        let resid = [-k1, k1 * 1.0e3 / 1.0e6];
        let mu = exact_moments(&poles, &resid, 8);
        let model = fit_model(&mu, 4).0.unwrap();
        for expect in poles {
            let best = model
                .poles()
                .iter()
                .map(|p| (p.re - expect).abs() / expect.abs())
                .fold(f64::INFINITY, f64::min);
            assert!(best < 1e-6, "pole {expect} missing: {:?}", model.poles());
        }
    }

    /// A circuit whose crossing is governed by poles ~4 decades above
    /// the dominant one: Maclaurin moments alone cannot place them
    /// (f64), but the shifted re-expansion inside [`analyze`] must.
    #[test]
    fn shifted_expansion_recovers_crossing_region() {
        // Behavioural amp: A0 = 10^4, dominant pole 1 kHz, second and
        // third poles at 8 MHz and 20 MHz — crossing ≈ 6–8 MHz, nearly
        // 4 decades above dominant.
        let s = sys("\
.jig j
vin in 0 0 ac 1
g1 0 x in 0 1m
r1 x 0 10meg
c1 x 0 15.9155p
g2 0 y x 0 1m
r2 y 0 1k
c2 y 0 19.8944p
g3 0 out y 0 1m
r3 out 0 1k
c3 out 0 7.95775p
.endjig
");
        let out = s.output_selector("out", None).unwrap();
        let model = analyze(&s, "vin", out, 8).unwrap();
        let f_awe = crate::measure::unity_gain_frequency(&model);
        let f_ac = {
            // Direct bisection on the exact system.
            let mag = |f: f64| {
                s.transfer("vin", out, 2.0 * std::f64::consts::PI * f)
                    .unwrap()
                    .norm()
            };
            let mut lo = 1.0f64;
            let mut hi = 1.0e12f64;
            for _ in 0..80 {
                let mid = (lo * hi).sqrt();
                if mag(mid) > 1.0 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            (lo * hi).sqrt()
        };
        let rel = (f_awe - f_ac).abs() / f_ac;
        assert!(
            rel < 0.02,
            "crossing: awe {f_awe:.4e} vs exact {f_ac:.4e} ({:.2}%)",
            100.0 * rel
        );
        // And the dc gain stays exact.
        let a0 = s.transfer("vin", out, 0.0).unwrap().norm();
        assert!((model.dc_gain() - a0).abs() < 1e-6 * a0);
    }

    #[test]
    fn analyze_shifted_translates_poles() {
        // Single pole at -1000 rad/s; expanding about σ = 500 must
        // still report the pole at -1000 after translation.
        let s = sys(".jig j\nvin in 0 0 ac 1\nr1 in out 1k\nc1 out 0 1u\n.endjig\n");
        let out = s.output_selector("out", None).unwrap();
        let mu0 = analyze(&s, "vin", out, 1).unwrap().moments()[0];
        let mut engine = AweEngine::for_system(&s).unwrap();
        engine.load(&s);
        let b = s.input_vector("vin").unwrap();
        let model = engine.shifted_fit(&b, out, 3, 500.0, mu0).unwrap();
        let p = model
            .poles()
            .iter()
            .min_by(|a, b| a.norm().partial_cmp(&b.norm()).unwrap())
            .copied()
            .unwrap();
        assert!((p.re + 1000.0).abs() < 1e-3, "pole = {p}");
        assert!((model.dc_gain() - 1.0).abs() < 1e-9);
    }

    /// An RC ladder: `sections` RC stages behind a unity vsource. Dim =
    /// sections + 2 (input node + branch row).
    fn ladder(sections: usize) -> LinearSystem {
        let mut src = String::from(".jig j\nvin in 0 0 ac 1\n");
        let mut prev = "in".to_string();
        for k in 0..sections {
            let node = format!("n{k}");
            src.push_str(&format!("r{k} {prev} {node} 1k\nc{k} {node} 0 1n\n"));
            prev = node;
        }
        src.push_str(".endjig\n");
        sys(&src)
    }

    #[test]
    fn sparse_engine_matches_dense_core_on_big_ladder() {
        let s = ladder(24);
        let out = s.output_selector("n23", None).unwrap();
        let b = s.input_vector("vin").unwrap();
        let model = analyze_with(&s, &b, out, 6).unwrap();
        // The same adjoint recurrence on a dense partial-pivoted LU of
        // the dense-stamped matrices: a_0 = G⁻ᵀ·l, a_k = −G⁻ᵀ·Cᵀ·a_{k−1}.
        let lu = oblx_linalg::Lu::factor(s.g.clone()).unwrap();
        let (mut a, mut scratch) = (Vec::new(), Vec::new());
        let mut r = out.as_vector(s.dim());
        for (k, &mu) in model.moments().iter().enumerate() {
            lu.solve_transpose_into(&r, &mut a, &mut scratch);
            let expect = dot(&a, &b);
            assert!(
                (mu - expect).abs() <= 1e-9 * expect.abs(),
                "µ_{k}: sparse {mu} vs dense {expect}"
            );
            r = (0..s.dim())
                .map(|i| -(0..s.dim()).map(|j| s.c.get(j, i) * a[j]).sum::<f64>())
                .collect();
        }
        // Near dc, where the fit is tight, the model tracks the exact
        // response (the reduced model is a q-pole approximation of the
        // 24-pole ladder, so exactness across the band is not the claim).
        let w = oblx_linalg::Complex::new(0.0, 2.0 * std::f64::consts::PI * 10.0);
        let exact = s.transfer("vin", out, w.im).unwrap().norm();
        assert!((model.eval(w).norm() - exact).abs() / exact < 1e-3);
    }

    #[test]
    fn sparse_batch_shares_adjoints_bit_identically() {
        // Two jobs with the same probe but different stimuli must match
        // two independent single-job analyses bit for bit — the adjoint
        // dividend holds on the sparse path too.
        let s = ladder(24);
        let out = s.output_selector("n23", None).unwrap();
        let b1 = s.input_vector("vin").unwrap();
        let mut b2 = b1.clone();
        for v in &mut b2 {
            *v *= 2.0;
        }
        let jobs: Vec<(&[f64], OutputSelector, Demand)> =
            vec![(&b1, out, Demand::Model), (&b2, out, Demand::Model)];
        let batch = analyze_batch(&s, &jobs, 5).unwrap();
        let solo1 = analyze_with(&s, &b1, out, 5).unwrap();
        let solo2 = analyze_with(&s, &b2, out, 5).unwrap();
        for (m, solo) in batch.iter().zip([&solo1, &solo2]) {
            assert_eq!(m.dc_value().to_bits(), solo.dc_value().to_bits());
            assert_eq!(m.poles().len(), solo.poles().len());
            for (a, b) in m.poles().iter().zip(solo.poles().iter()) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    /// A dc-only job returns a pole-free model whose `µ0` is the fitted
    /// model's bit for bit, whether or not a model job shares its probe.
    #[test]
    fn dc_only_job_reads_the_fitted_mu0_without_a_fit() {
        let s = ladder(24);
        let out = s.output_selector("n23", None).unwrap();
        let b1 = s.input_vector("vin").unwrap();
        let b2: Vec<f64> = b1.iter().map(|v| 3.0 * v).collect();
        let fitted = analyze_with(&s, &b2, out, 5).unwrap();
        let shared = analyze_batch(
            &s,
            &[(&b1, out, Demand::Model), (&b2, out, Demand::DcOnly)],
            5,
        )
        .unwrap();
        let alone = analyze_batch(&s, &[(&b2, out, Demand::DcOnly)], 5).unwrap();
        for m in [&shared[1], &alone[0]] {
            assert_eq!(m.dc_value().to_bits(), fitted.dc_value().to_bits());
            assert_eq!(m.dc_gain().to_bits(), fitted.dc_gain().to_bits());
            assert!(m.poles().is_empty());
            assert_eq!(m.moments().len(), 1);
        }
        // Only a non-finite µ0 fails a dc-only job.
        assert_eq!(dc_only_model(f64::NAN).unwrap_err(), AweError::NoModel);
        assert_eq!(dc_only_model(f64::INFINITY).unwrap_err(), AweError::NoModel);
        assert_eq!(dc_only_model(-2.5).unwrap().dc_value(), -2.5);
    }

    /// Degenerate-jig regression: a system whose union pattern is
    /// structurally sound (node `x` has a diagonal entry via its
    /// capacitors) but whose `G` is numerically singular — `x` floats
    /// at dc, its `G` row is exactly zero. The refactor must fail
    /// cleanly on the zero pivot and surface [`AweError::SingularG`] —
    /// never a panic or silent NaNs.
    #[test]
    fn degenerate_jig_reports_singular_not_panic() {
        let mut src = String::from(".jig j\nvin in 0 5 ac 1\n");
        let mut prev = "in".to_string();
        for k in 0..24 {
            let node = format!("n{k}");
            src.push_str(&format!("r{k} {prev} {node} 1k\n"));
            prev = node;
        }
        // Node x couples only capacitively: dc-floating.
        src.push_str("cx x n0 1p\ncy x 0 1p\n.endjig\n");
        let p = parse_problem(&src).unwrap();
        let flat = p.jigs[0].netlist.flatten(&p.subckts).unwrap();
        let ckt = SizedCircuit::build(&flat, &HashMap::new(), &ModelLibrary::new()).unwrap();
        // No dc solve (it would fail the same way): linear-only system.
        let s = LinearSystem::from_device_ops(&ckt, &[], &[], &[]);
        assert!(AweEngine::for_system(&s).is_ok());
        let out = s.output_selector("n23", None).unwrap();
        match analyze(&s, "vin", out, 4) {
            Err(AweError::SingularG) => {}
            other => panic!("expected SingularG, got {other:?}"),
        }
    }

    /// Structurally singular patterns (two ideal vsources in parallel:
    /// identical branch rows) fail at symbolic time with the same
    /// [`AweError::SingularG`].
    #[test]
    fn structurally_singular_jig_reports_singular() {
        let mut src = String::from(".jig j\nv1 in 0 5 ac 1\nv2 in 0 5\n");
        let mut prev = "in".to_string();
        for k in 0..24 {
            let node = format!("n{k}");
            src.push_str(&format!("r{k} {prev} {node} 1k\n"));
            prev = node;
        }
        src.push_str(".endjig\n");
        let p = parse_problem(&src).unwrap();
        let flat = p.jigs[0].netlist.flatten(&p.subckts).unwrap();
        let ckt = SizedCircuit::build(&flat, &HashMap::new(), &ModelLibrary::new()).unwrap();
        let s = LinearSystem::from_device_ops(&ckt, &[], &[], &[]);
        assert!(matches!(
            AweEngine::for_system(&s),
            Err(AweError::SingularG)
        ));
        let out = s.output_selector("n23", None).unwrap();
        match analyze(&s, "v1", out, 4) {
            Err(AweError::SingularG) => {}
            other => panic!("expected SingularG, got {other:?}"),
        }
    }

    /// The order loop stops at the first order that reproduces every
    /// moment, or at the first order that fails after one has fitted;
    /// `fit_model` reports the orders it tried.
    #[test]
    fn fit_counts_the_orders_it_tries() {
        // Two poles: q = 1 fits its own two moments but not all eight,
        // q = 2 reproduces all of them.
        let mu = exact_moments(&[-1.0e3, -1.0e6], &[-1.0e11 / 0.999, 1.0e8 / 0.999], 8);
        let (model, tried) = fit_model(&mu, 4);
        assert_eq!((model.unwrap().order(), tried), (2, 2));
        // Three poles over twelve moments: q = 1, 2, 3, stopping at 3
        // although max_q allows 6.
        let mu = exact_moments(&[-1.0, -20.0, -400.0], &[1.0, 2.0, -3.0], 12);
        let (model, tried) = fit_model(&mu, 6);
        assert_eq!((model.unwrap().order(), tried), (3, 3));
        // One pole with a perturbed tail: q = 1 fits but misses the
        // last moment, q = 2 meets a rank-one Hankel matrix and fails,
        // which ends the scan.
        let mut mu = exact_moments(&[-50.0], &[-100.0], 8);
        mu[7] *= 1.01;
        let (model, tried) = fit_model(&mu, 4);
        assert_eq!((model.unwrap().order(), tried), (1, 2));
        // A zero transfer function tries none.
        assert_eq!(fit_model(&[0.0; 6], 3).1, 0);
    }

    #[test]
    fn far_away_negligible_pole_is_honestly_dropped() {
        // A pole 5 decades above the dominant one with a vanishing
        // residue is information-theoretically invisible in Maclaurin
        // moments; AWE must *not* hallucinate it, and the low-frequency
        // model must stay exact. (Classic AWE limitation, handled in
        // the paper's setting by the fact that specs live near the
        // unity-gain region.)
        let poles: [f64; 2] = [-1.0e3, -1.0e8];
        let resid = [-1.0e5, -1.0e3];
        let mu = exact_moments(&poles, &resid, 8);
        let model = fit_model(&mu, 4).0.unwrap();
        assert_eq!(model.order(), 1, "parsimony: one visible pole");
        let p = model.poles()[0];
        assert!((p.re + 1.0e3).abs() < 1.0, "dominant pole kept: {p}");
        // dc gain stays exact.
        assert!((model.dc_gain() - mu[0].abs()).abs() < 1e-12);
    }
}
