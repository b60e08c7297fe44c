//! Nonlinear transient analysis (backward-Euler companion models).
//!
//! The paper sidesteps transient simulation inside the synthesis loop —
//! "measuring slew rate would require a transient simulation, which is
//! not straightforward with AWE" — and instead uses designer-supplied
//! expressions like `SR = I/(2(Cl+Cd))`. This module provides the real
//! thing on the verification side, so those expression estimates can be
//! *checked* against an actual large-signal step response
//! (see `astrx-oblx`'s `verify::transient_slew`).
//!
//! Integration is backward Euler with per-step Newton iteration;
//! device capacitances use the SPICE2-style incremental (Meyer)
//! treatment: evaluated at the previous solution and stamped as linear
//! companion conductances for the step. A grid step whose Newton
//! iteration fails is retried from its start as two half steps,
//! recursively, up to a fixed depth; only grid points are recorded.

use crate::assemble::SizedCircuit;
use crate::dc::{linearize_at, solve_dc_with, DcError, DcOptions};
use crate::elements::LinElement;
use oblx_linalg::{Lu, Mat};

/// How many times a grid step may be halved after Newton failures
/// before the run gives up: sub-steps down to `dt / 256`.
const MAX_HALVINGS: u32 = 8;

/// Options for a transient run.
#[derive(Debug, Clone, Copy)]
pub struct TranOptions {
    /// Time step (s).
    pub dt: f64,
    /// Stop time (s).
    pub t_stop: f64,
    /// Newton iterations per step.
    pub max_iters: usize,
    /// Voltage convergence tolerance (V).
    pub vtol: f64,
    /// Minimum conductance to ground at device nodes (S).
    pub gmin: f64,
}

impl Default for TranOptions {
    fn default() -> Self {
        TranOptions {
            dt: 1.0e-9,
            t_stop: 200.0e-9,
            max_iters: 40,
            vtol: 1e-7,
            gmin: 1e-12,
        }
    }
}

/// A recorded transient waveform set.
#[derive(Debug, Clone)]
pub struct Waveforms {
    /// Sample times (s).
    pub t: Vec<f64>,
    /// Node-voltage samples, one inner vector per time point, indexed
    /// like the circuit's [`crate::NodeMap`].
    pub v: Vec<Vec<f64>>,
}

impl Waveforms {
    /// The waveform of one node index as `(t, v)` pairs.
    pub fn node(&self, idx: usize) -> Vec<(f64, f64)> {
        self.t
            .iter()
            .zip(self.v.iter())
            .map(|(&t, row)| (t, row[idx]))
            .collect()
    }

    /// Maximum |dv/dt| (V/s) observed on a node — the classic slew-rate
    /// readout of a step response.
    ///
    /// The derivative is taken over a short window (3 samples) to
    /// reject single-step numerical kinks.
    pub fn max_slew(&self, idx: usize) -> f64 {
        let w = self.node(idx);
        let mut best = 0.0f64;
        for win in w.windows(3) {
            let dt = win[2].0 - win[0].0;
            if dt > 0.0 {
                best = best.max(((win[2].1 - win[0].1) / dt).abs());
            }
        }
        best
    }

    /// Final value of a node (for settling checks).
    pub fn final_value(&self, idx: usize) -> Option<f64> {
        self.v.last().map(|row| row[idx])
    }
}

/// Runs a **step-response transient**: the named voltage source's dc
/// value steps by `delta` volts at `t = 0`, from the circuit's solved
/// operating point.
///
/// # Errors
///
/// [`DcError`] when the initial operating point cannot be solved, or
/// [`DcError::StepNoConvergence`] when a time step fails to converge
/// even at the smallest sub-step.
pub fn step_response(
    circuit: &SizedCircuit,
    source: &str,
    delta: f64,
    opts: &TranOptions,
) -> Result<Waveforms, DcError> {
    // Initial condition: dc solve of the unstepped circuit.
    let dc_opts = DcOptions {
        abstol_i: 1e-8,
        max_iters: 300,
        ..DcOptions::default()
    };
    let op = solve_dc_with(circuit, &dc_opts, None)?;
    let n = circuit.nodes.len();
    let dim = circuit.dim();
    let mut x = vec![0.0; dim];
    x[..n].copy_from_slice(&op.v);
    x[n..].copy_from_slice(&op.i_branch);

    // Stepped circuit: clone with the source's dc bumped.
    let mut stepped = circuit.clone();
    let mut found = false;
    for (el, name) in stepped.linear.iter_mut().zip(stepped.linear_names.iter()) {
        if name == source {
            if let LinElement::Vsource { dc, .. } = el {
                *dc += delta;
                found = true;
            }
        }
    }
    if !found {
        // An unknown source is a structural error; surface it as a
        // singular system rather than silently simulating nothing.
        return Err(DcError::Singular);
    }

    let steps = (opts.t_stop / opts.dt).ceil() as usize;
    let mut out = Waveforms {
        t: Vec::with_capacity(steps + 1),
        v: Vec::with_capacity(steps + 1),
    };
    out.t.push(0.0);
    out.v.push(x[..n].to_vec());

    for step in 1..=steps {
        let t = step as f64 * opts.dt;
        advance(&stepped, &mut x, t - opts.dt, opts.dt, opts, 0)?;
        out.t.push(t);
        out.v.push(x[..n].to_vec());
    }
    Ok(out)
}

/// Advances `x` from time `t0` by `h`. When Newton fails to converge,
/// the step is retried from its start as two half steps, recursively,
/// until `depth` reaches [`MAX_HALVINGS`].
fn advance(
    circuit: &SizedCircuit,
    x: &mut [f64],
    t0: f64,
    h: f64,
    opts: &TranOptions,
    depth: u32,
) -> Result<(), DcError> {
    let x_prev = x.to_vec();
    if newton_step(circuit, x, &x_prev, h, opts)? {
        return Ok(());
    }
    if depth == MAX_HALVINGS {
        let (mut jac, mut f) = linearize_at(circuit, x, 1.0, opts.gmin);
        stamp_caps_be(circuit, x, &x_prev, h, &mut jac, &mut f);
        let residual = f[..circuit.nodes.len()]
            .iter()
            .fold(0.0f64, |a, &b| a.max(b.abs()));
        return Err(DcError::StepNoConvergence {
            time: t0 + h,
            residual,
        });
    }
    x.copy_from_slice(&x_prev);
    advance(circuit, x, t0, h / 2.0, opts, depth + 1)?;
    advance(circuit, x, t0 + h / 2.0, h / 2.0, opts, depth + 1)
}

/// Newton iterations for one backward-Euler step of length `h` from
/// `x_prev`, starting at `x`; `true` once the update falls below
/// `vtol`.
fn newton_step(
    circuit: &SizedCircuit,
    x: &mut [f64],
    x_prev: &[f64],
    h: f64,
    opts: &TranOptions,
) -> Result<bool, DcError> {
    for _ in 0..opts.max_iters {
        let (mut jac, mut f) = linearize_at(circuit, x, 1.0, opts.gmin);
        stamp_caps_be(circuit, x, x_prev, h, &mut jac, &mut f);
        let lu = Lu::factor(jac).map_err(|_| DcError::Singular)?;
        let rhs: Vec<f64> = f.iter().map(|v| -v).collect();
        let dx = lu.solve(&rhs);
        let mut max_dv = 0.0f64;
        for (xi, di) in x.iter_mut().zip(dx.iter()) {
            let d = di.clamp(-1.0, 1.0);
            *xi += d;
            max_dv = max_dv.max(d.abs());
        }
        if max_dv < opts.vtol {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Backward-Euler companion stamps for every capacitance: linear
/// capacitors exactly, device capacitances incrementally (evaluated at
/// the current iterate).
fn stamp_caps_be(
    circuit: &SizedCircuit,
    x: &[f64],
    x_prev: &[f64],
    dt: f64,
    jac: &mut Mat<f64>,
    f: &mut [f64],
) {
    let geq = 1.0 / dt;
    let mut two_terminal = |p: Option<usize>, m: Option<usize>, c: f64| {
        if c <= 0.0 {
            return;
        }
        let g = c * geq;
        let vp = p.map_or(0.0, |i| x[i]);
        let vm = m.map_or(0.0, |i| x[i]);
        let vp0 = p.map_or(0.0, |i| x_prev[i]);
        let vm0 = m.map_or(0.0, |i| x_prev[i]);
        // i = C/h · ((vp−vm) − (vp0−vm0)), flowing p → m.
        let i = g * ((vp - vm) - (vp0 - vm0));
        if let Some(pi) = p {
            f[pi] += i;
            jac.add_at(pi, pi, g);
        }
        if let Some(mi) = m {
            f[mi] -= i;
            jac.add_at(mi, mi, g);
        }
        if let (Some(pi), Some(mi)) = (p, m) {
            jac.add_at(pi, mi, -g);
            jac.add_at(mi, pi, -g);
        }
    };

    for el in &circuit.linear {
        if let LinElement::Capacitor { p, m, c } = *el {
            two_terminal(p, m, c);
        }
    }
    let volt = |node: Option<usize>| node.map_or(0.0, |i| x[i]);
    for mdev in &circuit.mosfets {
        let op = mdev.model.op(
            mdev.w,
            mdev.l,
            volt(mdev.d),
            volt(mdev.g),
            volt(mdev.s),
            volt(mdev.b),
        );
        two_terminal(mdev.g, mdev.s, op.caps.cgs);
        two_terminal(mdev.g, mdev.d, op.caps.cgd);
        two_terminal(mdev.g, mdev.b, op.caps.cgb);
        two_terminal(mdev.b, mdev.d, op.caps.cbd);
        two_terminal(mdev.b, mdev.s, op.caps.cbs);
    }
    for q in &circuit.bjts {
        let op = q.model.op(q.area, volt(q.c), volt(q.b), volt(q.e));
        two_terminal(q.b, q.e, op.cpi);
        two_terminal(q.b, q.c, op.cmu);
    }
    for d in &circuit.diodes {
        let op = d.model.op(d.area, volt(d.a) - volt(d.k));
        two_terminal(d.a, d.k, op.cd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblx_devices::process::ProcessDeck;
    use oblx_devices::ModelLibrary;
    use oblx_netlist::parse_problem;
    use std::collections::HashMap;

    fn circuit(src: &str, deck: Option<ProcessDeck>) -> SizedCircuit {
        let p = parse_problem(src).unwrap();
        let mut cards = p.models.clone();
        if let Some(d) = deck {
            cards.extend(d.cards());
        }
        let lib = ModelLibrary::from_cards(&cards).unwrap();
        let flat = p.jigs[0].netlist.flatten(&p.subckts).unwrap();
        SizedCircuit::build(&flat, &HashMap::new(), &lib).unwrap()
    }

    #[test]
    fn rc_step_response_is_exponential() {
        // R = 1k, C = 1n → τ = 1 µs. Step 0→1 V.
        let ckt = circuit(
            ".jig j\nvin in 0 0\nr1 in out 1k\nc1 out 0 1n\n.endjig\n",
            None,
        );
        let w = step_response(
            &ckt,
            "vin",
            1.0,
            &TranOptions {
                dt: 20e-9,
                t_stop: 10e-6,
                ..TranOptions::default()
            },
        )
        .unwrap();
        let out = ckt.nodes.get("out").unwrap();
        // At t = τ, v ≈ 1 − e⁻¹ = 0.632 (BE is first order: ~2% for
        // dt = τ/50).
        let tau = 1e-6;
        let (_, v_at_tau) = w
            .node(out)
            .into_iter()
            .min_by(|a, b| (a.0 - tau).abs().partial_cmp(&(b.0 - tau).abs()).unwrap())
            .unwrap();
        assert!(
            (v_at_tau - 0.632).abs() < 0.02,
            "v(τ) = {v_at_tau} (expected ≈ 0.632)"
        );
        // Settles to 1 V (10τ ⇒ e⁻¹⁰ residue).
        assert!((w.final_value(out).unwrap() - 1.0).abs() < 1e-3);
        // Max slew ≈ initial slope V/τ = 1e6 V/s (BE underestimates
        // slightly).
        let slew = w.max_slew(out);
        assert!(slew > 0.6e6 && slew < 1.2e6, "slew = {slew}");
    }

    #[test]
    fn current_limited_ramp_measures_slew() {
        // An NMOS current sink discharging a capacitor: after the gate
        // step, the output ramps at I/C — the textbook slew situation.
        let src = "\
.jig j
vdd vdd 0 5
vg g 0 0
m1 out g 0 0 nmos w=100u l=2u
r1 vdd out 100k
c1 out 0 10p
.endjig
";
        let ckt = circuit(src, Some(ProcessDeck::C2Level1));
        // Gate step 0 → 2 V turns the sink on hard.
        let w = step_response(
            &ckt,
            "vg",
            2.0,
            &TranOptions {
                dt: 2e-9,
                t_stop: 400e-9,
                ..TranOptions::default()
            },
        )
        .unwrap();
        let out = ckt.nodes.get("out").unwrap();
        let slew = w.max_slew(out);
        // The device at vgs = 2, vds ≈ 5 carries I = ½·kp·(W/L)·vov²
        // ≈ 0.5·5.2e-5·50·1.56²·1.15 ≈ 3.6 mA → slew ≈ 3.6e8 V/s, but
        // limited by the cap discharge nonlinearity; expect the right
        // order of magnitude.
        assert!(
            slew > 5e7 && slew < 1e9,
            "slew = {slew:.3e} (expected ~1e8 V/s scale)"
        );
        // Output must fall toward the triode floor.
        assert!(w.final_value(out).unwrap() < 1.0);
    }

    /// A step that cannot converge reports where it failed and the KCL
    /// residual it was left with, not the time in the residual field.
    #[test]
    fn non_convergence_reports_time_and_kcl_residual() {
        let src = "\
.jig j
vdd vdd 0 5
vg g 0 0
m1 out g 0 0 nmos w=100u l=2u
r1 vdd out 100k
c1 out 0 10p
.endjig
";
        let ckt = circuit(src, Some(ProcessDeck::C2Level1));
        let dt = 2e-9;
        // One Newton iteration can never confirm convergence, so every
        // sub-step fails down to the smallest.
        let err = step_response(
            &ckt,
            "vg",
            2.0,
            &TranOptions {
                dt,
                t_stop: 10.0 * dt,
                max_iters: 1,
                ..TranOptions::default()
            },
        )
        .unwrap_err();
        let DcError::StepNoConvergence { time, residual } = err else {
            panic!("expected StepNoConvergence, got {err:?}");
        };
        assert_eq!(time, dt / f64::from(1u32 << MAX_HALVINGS));
        // The gate moved by the 1 V step clamp, not the full 2 V, so
        // the device current (mA scale) is far from balanced.
        assert!(
            residual > 1e-6 && residual.is_finite(),
            "residual {residual:e}"
        );
        assert!(
            err.to_string().contains(&format!("t = {time:.3e} s")),
            "{err}"
        );
    }

    #[test]
    fn unknown_source_is_error() {
        let ckt = circuit(".jig j\nvin in 0 0\nr1 in 0 1k\n.endjig\n", None);
        assert!(step_response(&ckt, "nosuch", 1.0, &TranOptions::default()).is_err());
    }

    #[test]
    fn zero_step_stays_at_op() {
        let ckt = circuit(
            ".jig j\nvin in 0 2\nr1 in out 1k\nc1 out 0 1n\nr2 out 0 1k\n.endjig\n",
            None,
        );
        let w = step_response(
            &ckt,
            "vin",
            0.0,
            &TranOptions {
                dt: 50e-9,
                t_stop: 2e-6,
                ..TranOptions::default()
            },
        )
        .unwrap();
        let out = ckt.nodes.get("out").unwrap();
        for (_, v) in w.node(out) {
            assert!((v - 1.0).abs() < 1e-6, "must hold the op point: {v}");
        }
    }
}
