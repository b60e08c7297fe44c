//! Newton–Raphson dc operating-point analysis with damping, gmin, and
//! source stepping.
//!
//! This is the CPU cost the relaxed-dc formulation amortizes away: a
//! full solve here runs tens of Newton iterations, each of which builds
//! and factors the Jacobian. OBLX instead *anneals* Kirchhoff
//! correctness, calling into [`linearize_at`] only for its occasional
//! gradient-directed moves.

use crate::assemble::SizedCircuit;
use crate::elements::{stamp, stamp_vec};
use oblx_devices::{BjtOp, DiodeOp, MosOp};
use oblx_linalg::{Lu, Mat};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Options controlling the Newton–Raphson solve.
#[derive(Debug, Clone, Copy)]
pub struct DcOptions {
    /// Maximum Newton iterations per source step.
    pub max_iters: usize,
    /// Absolute voltage convergence tolerance (V).
    pub abstol_v: f64,
    /// Relative voltage convergence tolerance.
    pub reltol: f64,
    /// KCL residual tolerance (A).
    pub abstol_i: f64,
    /// Minimum conductance from every device node to ground (S).
    pub gmin: f64,
    /// Per-iteration voltage step clamp (V).
    pub max_step: f64,
    /// Number of source-stepping ramp points when direct solve fails.
    pub source_steps: usize,
}

impl Default for DcOptions {
    fn default() -> Self {
        DcOptions {
            max_iters: 120,
            abstol_v: 1e-9,
            reltol: 1e-6,
            abstol_i: 1e-10,
            gmin: 1e-12,
            max_step: 1.0,
            source_steps: 12,
        }
    }
}

/// Error from the dc solver.
#[derive(Debug, Clone, PartialEq)]
pub enum DcError {
    /// The Jacobian became singular (floating node or zero pivot).
    Singular,
    /// Newton iterations did not converge, even with source stepping.
    NoConvergence {
        /// Residual at the best iterate (A).
        residual: f64,
    },
    /// A transient time step did not converge, even at the smallest
    /// sub-step.
    StepNoConvergence {
        /// End time of the failing (sub-)step (s).
        time: f64,
        /// KCL residual at the last iterate (A).
        residual: f64,
    },
}

impl fmt::Display for DcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DcError::Singular => write!(f, "singular jacobian (floating node?)"),
            DcError::NoConvergence { residual } => {
                write!(f, "newton did not converge (residual {residual:.3e} A)")
            }
            DcError::StepNoConvergence { time, residual } => write!(
                f,
                "transient step to t = {time:.3e} s did not converge (residual {residual:.3e} A)"
            ),
        }
    }
}

impl Error for DcError {}

/// A solved dc operating point.
#[derive(Debug, Clone)]
pub struct OpPoint {
    /// Node voltages indexed like the circuit's [`crate::NodeMap`].
    pub v: Vec<f64>,
    /// Branch currents (voltage sources, inductors, VCVS).
    pub i_branch: Vec<f64>,
    /// Per-MOS operating points, parallel to `circuit.mosfets`.
    pub mos_ops: Vec<MosOp>,
    /// Per-BJT operating points, parallel to `circuit.bjts`.
    pub bjt_ops: Vec<BjtOp>,
    /// Per-diode operating points, parallel to `circuit.diodes`.
    pub diode_ops: Vec<DiodeOp>,
    /// Worst KCL residual at convergence (A).
    pub residual: f64,
    /// Newton iterations used (total across source steps).
    pub iterations: usize,
    node_index: HashMap<String, usize>,
    device_index: HashMap<String, (DeviceKind, usize)>,
}

/// Device family tag for the operating-point index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeviceKind {
    Mos,
    Bjt,
    Diode,
}

impl OpPoint {
    /// Voltage of a named node (ground returns 0).
    pub fn voltage(&self, node: &str) -> Option<f64> {
        if node == "0" || node == "gnd" {
            return Some(0.0);
        }
        self.node_index.get(node).map(|&i| self.v[i])
    }

    /// Looks up a device operating-point quantity by flattened device
    /// name (`xamp.m1`) and quantity name (`cd`, `gm`, …).
    pub fn device_quantity(&self, device: &str, quantity: &str) -> Option<f64> {
        match self.device_index.get(device)? {
            (DeviceKind::Mos, i) => self.mos_ops[*i].quantity(quantity),
            (DeviceKind::Bjt, i) => self.bjt_ops[*i].quantity(quantity),
            (DeviceKind::Diode, i) => self.diode_ops[*i].quantity(quantity),
        }
    }

    /// Total power delivered by dc voltage sources (W) — the "static
    /// power" row of Tables 2 and 3.
    pub fn static_power(&self, circuit: &SizedCircuit) -> f64 {
        let mut p = 0.0;
        for el in &circuit.linear {
            if let crate::elements::LinElement::Vsource { dc, branch, .. } = el {
                p += dc * -self.i_branch[*branch];
            }
        }
        p.abs()
    }
}

/// One Newton linearization of the full nonlinear system at voltages
/// `x`: returns the Jacobian and residual, i.e. `J·Δ = −F`.
///
/// Exposed publicly because OBLX's relaxed-dc Newton moves reuse it.
pub fn linearize_at(
    circuit: &SizedCircuit,
    x: &[f64],
    src_scale: f64,
    gmin: f64,
) -> (Mat<f64>, Vec<f64>) {
    let n = circuit.nodes.len();
    let dim = circuit.dim();
    let mut jac = Mat::zeros(dim, dim);
    let mut f = vec![0.0; dim];

    // Linear elements: G·x − rhs contributes to F; G contributes to J.
    let mut g = Mat::zeros(dim, dim);
    let mut rhs = vec![0.0; dim];
    for el in &circuit.linear {
        el.stamp_dc(&mut g, &mut rhs, n, src_scale);
    }
    let gx = g.mul_vec(x);
    for r in 0..dim {
        f[r] += gx[r] - rhs[r];
        for c in 0..dim {
            let v = g.get(r, c);
            if v != 0.0 {
                jac.add_at(r, c, v);
            }
        }
    }

    let volt = |node: Option<usize>| -> f64 { node.map_or(0.0, |i| x[i]) };

    // MOS devices.
    for m in &circuit.mosfets {
        let op = m
            .model
            .op(m.w, m.l, volt(m.d), volt(m.g), volt(m.s), volt(m.b));
        // Channel current out of drain, into source.
        stamp_vec(&mut f, m.d, op.id);
        stamp_vec(&mut f, m.s, -op.id);
        let gsum = op.gm + op.gds + op.gmbs;
        stamp(&mut jac, m.d, m.d, op.gds);
        stamp(&mut jac, m.d, m.g, op.gm);
        stamp(&mut jac, m.d, m.b, op.gmbs);
        stamp(&mut jac, m.d, m.s, -gsum);
        stamp(&mut jac, m.s, m.d, -op.gds);
        stamp(&mut jac, m.s, m.g, -op.gm);
        stamp(&mut jac, m.s, m.b, -op.gmbs);
        stamp(&mut jac, m.s, m.s, gsum);
        // gmin ties every device terminal weakly to ground.
        for i in [m.d, m.g, m.s, m.b].into_iter().flatten() {
            jac.add_at(i, i, gmin);
            f[i] += gmin * x[i];
        }
    }

    // BJTs.
    for q in &circuit.bjts {
        let op = q.model.op(q.area, volt(q.c), volt(q.b), volt(q.e));
        stamp_vec(&mut f, q.c, op.ic);
        stamp_vec(&mut f, q.b, op.ib);
        stamp_vec(&mut f, q.e, -(op.ic + op.ib));
        // ic(vbe, vce), ib(vbe, vce) with vbe = vb − ve, vce = vc − ve.
        stamp(&mut jac, q.c, q.b, op.gm_be);
        stamp(&mut jac, q.c, q.c, op.go);
        stamp(&mut jac, q.c, q.e, -(op.gm_be + op.go));
        stamp(&mut jac, q.b, q.b, op.gpi);
        stamp(&mut jac, q.b, q.c, op.gmu);
        stamp(&mut jac, q.b, q.e, -(op.gpi + op.gmu));
        stamp(&mut jac, q.e, q.b, -(op.gm_be + op.gpi));
        stamp(&mut jac, q.e, q.c, -(op.go + op.gmu));
        stamp(&mut jac, q.e, q.e, op.gm_be + op.go + op.gpi + op.gmu);
        for i in [q.c, q.b, q.e].into_iter().flatten() {
            jac.add_at(i, i, gmin);
            f[i] += gmin * x[i];
        }
    }

    // Diodes.
    for d in &circuit.diodes {
        let op = d.model.op(d.area, volt(d.a) - volt(d.k));
        stamp_vec(&mut f, d.a, op.id);
        stamp_vec(&mut f, d.k, -op.id);
        stamp(&mut jac, d.a, d.a, op.gd);
        stamp(&mut jac, d.k, d.k, op.gd);
        stamp(&mut jac, d.a, d.k, -op.gd);
        stamp(&mut jac, d.k, d.a, -op.gd);
        for i in [d.a, d.k].into_iter().flatten() {
            jac.add_at(i, i, gmin);
            f[i] += gmin * x[i];
        }
    }

    (jac, f)
}

fn newton_loop(
    circuit: &SizedCircuit,
    x: &mut [f64],
    src_scale: f64,
    opts: &DcOptions,
) -> Result<(f64, usize), DcError> {
    let n = circuit.nodes.len();
    let mut best_residual = f64::INFINITY;
    let mut last_residual = f64::INFINITY;
    // Adaptive damping: halved whenever the residual fails to shrink
    // (kinked Jacobians near region boundaries make undamped Newton
    // oscillate), restored on progress.
    let mut damping = 1.0f64;
    for iter in 0..opts.max_iters {
        let (jac, f) = linearize_at(circuit, x, src_scale, opts.gmin);
        let residual = f[..n].iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        best_residual = best_residual.min(residual);
        if residual > 1.2 * last_residual {
            // Clear overshoot: oscillating across a model kink.
            damping = (damping * 0.5).max(1.0 / 16.0);
        } else if residual < last_residual {
            damping = (damping * 2.0).min(1.0);
        }
        last_residual = residual;
        let lu = Lu::factor(jac).map_err(|_| DcError::Singular)?;
        let neg_f: Vec<f64> = f.iter().map(|&v| -v).collect();
        let delta = lu.solve(&neg_f);
        let mut max_dv = 0.0f64;
        for (xi, di) in x.iter_mut().zip(delta.iter()) {
            let step = (damping * di).clamp(-opts.max_step, opts.max_step);
            *xi += step;
            max_dv = max_dv.max(step.abs());
        }
        let vnorm = x[..n].iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        if max_dv < opts.abstol_v + opts.reltol * vnorm && residual < opts.abstol_i {
            return Ok((residual, iter + 1));
        }
    }
    Err(DcError::NoConvergence {
        residual: best_residual,
    })
}

/// Solves the dc operating point with default options.
///
/// # Errors
///
/// See [`solve_dc_with`].
pub fn solve_dc(circuit: &SizedCircuit) -> Result<OpPoint, DcError> {
    solve_dc_with(circuit, &DcOptions::default(), None)
}

/// Solves the dc operating point.
///
/// Tries a direct Newton solve from `initial` (or zero); on failure,
/// ramps all independent sources from zero in `source_steps` stages,
/// reusing each stage's solution as the next starting point.
///
/// # Errors
///
/// [`DcError::Singular`] for structurally defective circuits,
/// [`DcError::NoConvergence`] when even source stepping fails.
pub fn solve_dc_with(
    circuit: &SizedCircuit,
    opts: &DcOptions,
    initial: Option<&[f64]>,
) -> Result<OpPoint, DcError> {
    let dim = circuit.dim();
    let mut x = vec![0.0; dim];
    if let Some(init) = initial {
        x[..init.len().min(dim)].copy_from_slice(&init[..init.len().min(dim)]);
    }

    let mut total_iters = 0usize;
    let direct = newton_loop(circuit, &mut x, 1.0, opts);
    let residual = match direct {
        Ok((r, it)) => {
            total_iters += it;
            r
        }
        Err(DcError::Singular) => return Err(DcError::Singular),
        Err(_) => {
            // Source stepping from a cold start.
            x.fill(0.0);
            let mut r_last = 0.0;
            for step in 1..=opts.source_steps {
                let scale = step as f64 / opts.source_steps as f64;
                let relaxed = DcOptions {
                    max_iters: opts.max_iters * 2,
                    ..*opts
                };
                let (r, it) = newton_loop(circuit, &mut x, scale, &relaxed)?;
                total_iters += it;
                r_last = r;
            }
            r_last
        }
    };

    // Final device evaluations at the solution.
    let volt = |node: Option<usize>| -> f64 { node.map_or(0.0, |i| x[i]) };
    let mut mos_ops = Vec::with_capacity(circuit.mosfets.len());
    let mut device_index = HashMap::new();
    for (i, m) in circuit.mosfets.iter().enumerate() {
        mos_ops.push(
            m.model
                .op(m.w, m.l, volt(m.d), volt(m.g), volt(m.s), volt(m.b)),
        );
        device_index.insert(m.name.clone(), (DeviceKind::Mos, i));
    }
    let mut bjt_ops = Vec::with_capacity(circuit.bjts.len());
    for (i, q) in circuit.bjts.iter().enumerate() {
        bjt_ops.push(q.model.op(q.area, volt(q.c), volt(q.b), volt(q.e)));
        device_index.insert(q.name.clone(), (DeviceKind::Bjt, i));
    }
    let mut diode_ops = Vec::with_capacity(circuit.diodes.len());
    for (i, d) in circuit.diodes.iter().enumerate() {
        diode_ops.push(d.model.op(d.area, volt(d.a) - volt(d.k)));
        device_index.insert(d.name.clone(), (DeviceKind::Diode, i));
    }
    let node_index = circuit
        .nodes
        .iter()
        .map(|(i, n)| (n.to_string(), i))
        .collect();

    let n = circuit.nodes.len();
    Ok(OpPoint {
        i_branch: x[n..].to_vec(),
        v: x[..n].to_vec(),
        mos_ops,
        bjt_ops,
        diode_ops,
        residual,
        iterations: total_iters,
        node_index,
        device_index,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblx_devices::process::ProcessDeck;
    use oblx_devices::{ModelLibrary, Region};
    use oblx_netlist::parse_problem;
    use std::collections::HashMap;

    fn build(src: &str, deck: Option<ProcessDeck>) -> SizedCircuit {
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
    fn linear_ladder() {
        let ckt = build(
            ".jig j\nv1 in 0 9\nr1 in a 1k\nr2 a b 1k\nr3 b 0 1k\n.endjig\n",
            None,
        );
        let op = solve_dc(&ckt).unwrap();
        assert!((op.voltage("a").unwrap() - 6.0).abs() < 1e-9);
        assert!((op.voltage("b").unwrap() - 3.0).abs() < 1e-9);
        assert!((op.static_power(&ckt) - 27e-3).abs() < 1e-9);
    }

    #[test]
    fn diode_connected_nmos() {
        // 100 µA forced into a diode-connected NMOS: solves the gate
        // voltage such that id = 100 µA.
        let ckt = build(
            ".jig j\nvdd vdd 0 5\ni1 vdd d 100u\nm1 d d 0 0 nmos w=50u l=2u\n.endjig\n",
            Some(ProcessDeck::C2Level1),
        );
        let op = solve_dc(&ckt).unwrap();
        let vd = op.voltage("d").unwrap();
        assert!(vd > 0.7 && vd < 2.0, "vd = {vd}");
        let id = op.device_quantity("m1", "id").unwrap();
        assert!((id - 100e-6).abs() < 1e-7, "id = {id}");
        assert_eq!(op.mos_ops[0].region, Region::Saturation);
    }

    #[test]
    fn nmos_current_mirror() {
        let ckt = build(
            ".jig j\nvdd vdd 0 5\ni1 vdd d1 50u\nm1 d1 d1 0 0 nmos w=20u l=2u\nm2 d2 d1 0 0 nmos w=40u l=2u\nr1 vdd d2 10k\n.endjig\n",
            Some(ProcessDeck::C2Level1),
        );
        let op = solve_dc(&ckt).unwrap();
        // 2:1 mirror: output current ≈ 100 µA modulated by λ.
        let i2 = op.device_quantity("m2", "id").unwrap();
        assert!((i2 - 100e-6).abs() < 20e-6, "i2 = {i2}");
    }

    #[test]
    fn bjt_common_emitter() {
        let ckt = build(
            ".jig j\nvcc vcc 0 5\nvb b 0 0.67\nrc vcc c 5k\nq1 c b 0 npn\n.endjig\n",
            Some(ProcessDeck::BicmosC2),
        );
        let op = solve_dc(&ckt).unwrap();
        let vc = op.voltage("c").unwrap();
        assert!(vc > 0.2 && vc < 4.95, "vc = {vc}");
        let ic = op.device_quantity("q1", "ic").unwrap();
        assert!(ic > 1e-6 && ic < 2e-3, "ic = {ic}");
        // The collector resistor carries exactly ic.
        assert!(((5.0 - vc) / 5e3 - ic).abs() < 1e-9);
    }

    #[test]
    fn source_stepping_rescues_hard_start() {
        // Positive-feedback latch structure around a bistable pair can
        // defeat cold Newton; source stepping must still find a point.
        let ckt = build(
            ".jig j\nvdd vdd 0 5\nm1 a b 0 0 nmos w=20u l=2u\nm2 b a 0 0 nmos w=20u l=2u\nr1 vdd a 20k\nr2 vdd b 20k\nq1 c a 0 npn\nrc vdd c 1k\n.endjig\n",
            Some(ProcessDeck::BicmosC2),
        );
        let op = solve_dc(&ckt).unwrap();
        assert!(op.residual < 1e-9);
    }

    #[test]
    fn floating_node_is_singular() {
        let ckt = build(
            ".jig j\nv1 in 0 5\nr1 in out 1k\nc1 float 0 1p\n.endjig\n",
            None,
        );
        // `float` has only a capacitor — open at dc.
        assert_eq!(solve_dc(&ckt).unwrap_err(), DcError::Singular);
    }

    #[test]
    fn bsim_internal_nodes_participate() {
        let ckt = build(
            ".jig j\nvdd vdd 0 5\ni1 vdd d 100u\nm1 d d 0 0 nmos w=50u l=2u\n.endjig\n",
            Some(ProcessDeck::C2Bsim),
        );
        let op = solve_dc(&ckt).unwrap();
        // Internal drain node sits below the external drain by i·rd.
        let vd = op.voltage("d").unwrap();
        let vdi = op.voltage("m1#d").unwrap();
        assert!(vd > vdi, "series rd must drop voltage: {vd} vs {vdi}");
        assert!((vd - vdi - 100e-6 * 150.0).abs() < 2e-3);
    }

    #[test]
    fn prop_random_resistor_ladders_match_analytic() {
        // Random series resistor ladders driven by a source: the node
        // voltages must match the analytic voltage divider. Exercises
        // assembly, stamping, branch rows, and the LU path end to end.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _case in 0..25 {
            let n = 2 + (next() * 6.0) as usize;
            let vs = 1.0 + 9.0 * next();
            let rs: Vec<f64> = (0..n).map(|_| 100.0 + 9900.0 * next()).collect();
            let mut src = format!(
                ".jig j
v1 n0 0 {vs}
"
            );
            for (i, r) in rs.iter().enumerate() {
                let a = format!("n{i}");
                let b = if i + 1 == n {
                    "0".to_string()
                } else {
                    format!("n{}", i + 1)
                };
                src.push_str(&format!(
                    "r{i} {a} {b} {r}
"
                ));
            }
            src.push_str(
                ".endjig
",
            );
            let ckt = build(&src, None);
            let op = solve_dc(&ckt).unwrap();
            let total: f64 = rs.iter().sum();
            // Analytic node voltages: vs · (remaining resistance)/total.
            let mut remaining = total;
            for (i, r) in rs.iter().enumerate() {
                let expect = vs * remaining / total;
                let got = op.voltage(&format!("n{i}")).unwrap();
                assert!(
                    (got - expect).abs() < 1e-9 * vs,
                    "node n{i}: {got} vs {expect}"
                );
                remaining -= r;
            }
            // Source current matches Ohm's law.
            assert!((op.i_branch[0].abs() - vs / total).abs() < 1e-12 * vs);
        }
    }

    #[test]
    fn differential_pair_balances() {
        let src = "\
.jig j
vdd vdd 0 5
vcm g1 0 2.5
vcm2 g2 0 2.5
ibias t 0 0
i1 vdd t 0
m1 d1 g1 t 0 nmos w=40u l=2u
m2 d2 g2 t 0 nmos w=40u l=2u
r1 vdd d1 10k
r2 vdd d2 10k
it t 0 100u
.endjig
";
        let ckt = build(src, Some(ProcessDeck::C2Level1));
        let op = solve_dc(&ckt).unwrap();
        let d1 = op.voltage("d1").unwrap();
        let d2 = op.voltage("d2").unwrap();
        assert!((d1 - d2).abs() < 1e-6, "symmetric pair must balance");
        let i1 = op.device_quantity("m1", "id").unwrap();
        assert!((i1 - 50e-6).abs() < 1e-6);
    }
}
