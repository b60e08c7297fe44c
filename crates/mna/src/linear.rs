//! Small-signal linearization of a circuit at a dc operating point.
//!
//! [`LinearSystem`] is the shared contract between the two analysis
//! paths of the toolkit: the direct per-frequency complex ac solve
//! implemented here, and the AWE moment-matching path in `oblx-awe`.
//! Both consume exactly the same real `G`/`C` matrices, input vector,
//! and output selector, so any disagreement between them is a property
//! of the *method*, never of the circuit description.

use crate::assemble::SizedCircuit;
use crate::dc::OpPoint;
use crate::elements::{stamp, stamp_conductance, stamp_vccs, LinElement, Stamper};
use crate::sparse_map::SparseStampMap;
use oblx_devices::{BjtOp, DiodeOp, MosOp};
use oblx_linalg::{Complex, Lu, Mat, SingularMatrixError};
use std::collections::HashMap;

/// Weak tie of device terminals to ground, matching the dc solve.
pub(crate) const GMIN: f64 = 1e-12;

/// Stamps every linear element and linearized device of `circuit` into
/// the `G` and `C` sinks, in a fixed circuit-structure-determined write
/// order.
///
/// This single function defines the stamping sequence for *every* sink:
/// the dense matrices of [`LinearSystem::restamp`], the pattern
/// recorder behind [`SparseStampMap::build`], and the slot writer of
/// [`SparseStampMap::stamp`]. Keeping them on one code path is what
/// makes the dense and sparse assemblies bit-identical cell by cell.
#[allow(clippy::too_many_arguments)]
pub(crate) fn stamp_system<SG: Stamper, SC: Stamper>(
    g: &mut SG,
    c: &mut SC,
    rhs_scratch: &mut [f64],
    n: usize,
    circuit: &SizedCircuit,
    mos_ops: &[MosOp],
    bjt_ops: &[BjtOp],
    diode_ops: &[DiodeOp],
) {
    for el in circuit.linear.iter() {
        el.stamp_dc(g, rhs_scratch, n, 0.0);
        el.stamp_ac(c, n);
    }

    for (m, mop) in circuit.mosfets.iter().zip(mos_ops.iter()) {
        stamp_vccs(g, m.d, m.s, m.g, m.s, mop.gm);
        stamp_conductance(g, m.d, m.s, mop.gds);
        stamp_vccs(g, m.d, m.s, m.b, m.s, mop.gmbs);
        stamp_conductance(c, m.g, m.s, mop.caps.cgs);
        stamp_conductance(c, m.g, m.d, mop.caps.cgd);
        stamp_conductance(c, m.g, m.b, mop.caps.cgb);
        stamp_conductance(c, m.b, m.d, mop.caps.cbd);
        stamp_conductance(c, m.b, m.s, mop.caps.cbs);
        for node in [m.d, m.g, m.s, m.b] {
            stamp(g, node, node, GMIN);
        }
    }
    for (q, qop) in circuit.bjts.iter().zip(bjt_ops.iter()) {
        stamp_vccs(g, q.c, q.e, q.b, q.e, qop.gm_be);
        stamp_conductance(g, q.c, q.e, qop.go);
        stamp_conductance(g, q.b, q.e, qop.gpi);
        // gmu: ∂ib/∂vce VCCS into the base.
        stamp_vccs(g, q.b, q.e, q.c, q.e, qop.gmu);
        stamp_conductance(c, q.b, q.e, qop.cpi);
        stamp_conductance(c, q.b, q.c, qop.cmu);
        for node in [q.c, q.b, q.e] {
            stamp(g, node, node, GMIN);
        }
    }

    for (d, dop) in circuit.diodes.iter().zip(diode_ops.iter()) {
        stamp_conductance(g, d.a, d.k, dop.gd);
        stamp_conductance(c, d.a, d.k, dop.cd);
        for node in [d.a, d.k] {
            stamp(g, node, node, GMIN);
        }
    }
}

/// Where a named stimulus source attaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SourceRef {
    /// Voltage source: unit stimulus on this branch row.
    V { branch: usize },
    /// Current source between `p` and `m`.
    I { p: Option<usize>, m: Option<usize> },
}

/// A (possibly differential) output probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputSelector {
    /// Positive node index (`None` = ground).
    pub p: Option<usize>,
    /// Negative node index (`None` = ground).
    pub m: Option<usize>,
}

impl OutputSelector {
    /// Reads the probe from a solution vector.
    pub fn read<T: Copy + std::ops::Sub<Output = T> + Default>(&self, x: &[T]) -> T {
        let vp = self.p.map_or_else(T::default, |i| x[i]);
        let vm = self.m.map_or_else(T::default, |i| x[i]);
        vp - vm
    }

    /// The selector as a dense row vector of length `dim`.
    pub fn as_vector(&self, dim: usize) -> Vec<f64> {
        let mut l = vec![0.0; dim];
        if let Some(i) = self.p {
            l[i] += 1.0;
        }
        if let Some(i) = self.m {
            l[i] -= 1.0;
        }
        l
    }
}

/// The small-signal MNA system `(G + sC)·x = b` at a fixed operating
/// point.
#[derive(Debug, Clone)]
pub struct LinearSystem {
    /// Conductance matrix (includes device transconductances).
    pub g: Mat<f64>,
    /// Susceptance (capacitance/inductance) matrix.
    pub c: Mat<f64>,
    n_nodes: usize,
    sources: HashMap<String, SourceRef>,
    node_index: HashMap<String, usize>,
    stamp_map: SparseStampMap,
}

impl LinearSystem {
    /// Linearizes `circuit` at operating point `op`.
    ///
    /// Device small-signal conductances and capacitances come from the
    /// encapsulated evaluators' operating-point structs; a `gmin` of
    /// 1 pS ties device terminals weakly to ground exactly as in the dc
    /// solve.
    pub fn from_op(circuit: &SizedCircuit, op: &OpPoint) -> LinearSystem {
        Self::from_device_ops(circuit, &op.mos_ops, &op.bjt_ops, &op.diode_ops)
    }

    /// Linearizes `circuit` with externally supplied device operating
    /// points — the relaxed-dc path, where OBLX evaluates the devices at
    /// *annealed* (not Newton-solved) bias voltages and stamps the jig
    /// circuit from those.
    ///
    /// `mos_ops`/`bjt_ops` must be parallel to `circuit.mosfets` /
    /// `circuit.bjts`.
    ///
    /// # Panics
    ///
    /// Panics when the op slices do not match the circuit's device
    /// lists.
    pub fn from_device_ops(
        circuit: &SizedCircuit,
        mos_ops: &[MosOp],
        bjt_ops: &[BjtOp],
        diode_ops: &[DiodeOp],
    ) -> LinearSystem {
        let n = circuit.nodes.len();
        let dim = circuit.dim();
        let mut sources = HashMap::new();
        for (el, name) in circuit.linear.iter().zip(circuit.linear_names.iter()) {
            match *el {
                LinElement::Vsource { branch, .. } => {
                    sources.insert(name.clone(), SourceRef::V { branch });
                }
                LinElement::Isource { p, m, .. } => {
                    sources.insert(name.clone(), SourceRef::I { p, m });
                }
                _ => {}
            }
        }
        let node_index = circuit
            .nodes
            .iter()
            .map(|(i, s)| (s.to_string(), i))
            .collect();
        let mut sys = LinearSystem {
            g: Mat::zeros(dim, dim),
            c: Mat::zeros(dim, dim),
            n_nodes: n,
            sources,
            node_index,
            stamp_map: SparseStampMap::build(circuit, mos_ops, bjt_ops, diode_ops),
        };
        sys.restamp(circuit, mos_ops, bjt_ops, diode_ops);
        sys
    }

    /// The structural (value-independent) nonzero pattern of `G ∪ C`
    /// with its element→slot write map, as recorded at build time.
    pub fn stamp_map(&self) -> &SparseStampMap {
        &self.stamp_map
    }

    /// Gathers the current dense `G`/`C` values into slot arrays
    /// parallel to [`SparseStampMap::entries`]. Because dense stamping
    /// and sparse slot replay accumulate each cell in the same
    /// chronological order, the gathered values are bit-identical to a
    /// direct [`SparseStampMap::stamp`] from the same operating point.
    pub fn sparse_vals_into(&self, g_vals: &mut Vec<f64>, c_vals: &mut Vec<f64>) {
        let entries = self.stamp_map.entries();
        g_vals.clear();
        c_vals.clear();
        g_vals.reserve(entries.len());
        c_vals.reserve(entries.len());
        for &(r, c) in entries {
            g_vals.push(self.g.get(r, c));
            c_vals.push(self.c.get(r, c));
        }
    }

    /// Re-stamps `G`/`C` in place from the circuit and fresh device
    /// operating points, reusing the matrix allocations. The circuit
    /// must have the same structure (nodes, branches, device lists) the
    /// system was built from; source and node name tables are untouched.
    ///
    /// The incremental cost evaluator does not come here: it re-stamps
    /// straight into sparse slot arrays via [`SparseStampMap::stamp`].
    ///
    /// # Panics
    ///
    /// Panics when the op slices or circuit dimensions do not match.
    pub fn restamp(
        &mut self,
        circuit: &SizedCircuit,
        mos_ops: &[MosOp],
        bjt_ops: &[BjtOp],
        diode_ops: &[DiodeOp],
    ) {
        assert_eq!(mos_ops.len(), circuit.mosfets.len(), "mos op mismatch");
        assert_eq!(bjt_ops.len(), circuit.bjts.len(), "bjt op mismatch");
        assert_eq!(diode_ops.len(), circuit.diodes.len(), "diode op mismatch");
        let n = circuit.nodes.len();
        let dim = circuit.dim();
        assert_eq!(n, self.n_nodes, "node count mismatch in restamp");
        assert_eq!(dim, self.g.rows(), "dimension mismatch in restamp");
        self.g.clear();
        self.c.clear();
        let mut rhs_scratch = vec![0.0; dim];
        stamp_system(
            &mut self.g,
            &mut self.c,
            &mut rhs_scratch,
            n,
            circuit,
            mos_ops,
            bjt_ops,
            diode_ops,
        );
    }

    /// MNA dimension (nodes + branches).
    pub fn dim(&self) -> usize {
        self.g.rows()
    }

    /// Number of node unknowns.
    pub fn node_count(&self) -> usize {
        self.n_nodes
    }

    /// The unit-stimulus input vector for the named independent source,
    /// or `None` if no such source exists.
    pub fn input_vector(&self, source: &str) -> Option<Vec<f64>> {
        let mut b = vec![0.0; self.dim()];
        match *self.sources.get(source)? {
            SourceRef::V { branch } => b[self.n_nodes + branch] = 1.0,
            SourceRef::I { p, m } => {
                // Unit current p → m through the source.
                if let Some(i) = p {
                    b[i] -= 1.0;
                }
                if let Some(i) = m {
                    b[i] += 1.0;
                }
            }
        }
        Some(b)
    }

    /// The output probe for named node(s), or `None` when a non-ground
    /// node is unknown.
    pub fn output_selector(&self, out_p: &str, out_m: Option<&str>) -> Option<OutputSelector> {
        let resolve = |name: &str| -> Option<Option<usize>> {
            if crate::NodeMap::is_ground(name) {
                Some(None)
            } else {
                self.node_index.get(name).map(|&i| Some(i))
            }
        };
        let p = resolve(out_p)?;
        let m = match out_m {
            Some(name) => resolve(name)?,
            None => None,
        };
        Some(OutputSelector { p, m })
    }

    /// Solves `(G + jωC)·x = b` at angular frequency `omega`.
    ///
    /// # Errors
    ///
    /// [`SingularMatrixError`] if the complex system is singular.
    pub fn solve_ac(&self, b: &[f64], omega: f64) -> Result<Vec<Complex>, SingularMatrixError> {
        let dim = self.dim();
        let mut y = Mat::<Complex>::zeros(dim, dim);
        for r in 0..dim {
            for c_idx in 0..dim {
                let gr = self.g.get(r, c_idx);
                let cc = self.c.get(r, c_idx);
                if gr != 0.0 || cc != 0.0 {
                    y[(r, c_idx)] = Complex::new(gr, omega * cc);
                }
            }
        }
        let bc: Vec<Complex> = b.iter().map(|&v| Complex::from_real(v)).collect();
        Lu::factor(y).map(|lu| lu.solve(&bc))
    }

    /// The complex transfer value `probe(x)` for unit stimulus from
    /// `source` at `omega`.
    ///
    /// # Errors
    ///
    /// [`SingularMatrixError`] on a singular system; returns `None`-like
    /// zero if the source or probe is unknown — callers should validate
    /// names first via [`LinearSystem::input_vector`].
    pub fn transfer(
        &self,
        source: &str,
        out: OutputSelector,
        omega: f64,
    ) -> Result<Complex, SingularMatrixError> {
        let b = match self.input_vector(source) {
            Some(b) => b,
            None => return Ok(Complex::ZERO),
        };
        let x = self.solve_ac(&b, omega)?;
        let vp = out.p.map_or(Complex::ZERO, |i| x[i]);
        let vm = out.m.map_or(Complex::ZERO, |i| x[i]);
        Ok(vp - vm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::solve_dc;
    use oblx_devices::process::ProcessDeck;
    use oblx_devices::ModelLibrary;
    use oblx_netlist::parse_problem;
    use std::collections::HashMap as Map;

    fn system(src: &str, deck: Option<ProcessDeck>) -> (SizedCircuit, LinearSystem) {
        let p = parse_problem(src).unwrap();
        let mut cards = p.models.clone();
        if let Some(d) = deck {
            cards.extend(d.cards());
        }
        let lib = ModelLibrary::from_cards(&cards).unwrap();
        let flat = p.jigs[0].netlist.flatten(&p.subckts).unwrap();
        let ckt = SizedCircuit::build(&flat, &Map::new(), &lib).unwrap();
        let op = solve_dc(&ckt).unwrap();
        let sys = LinearSystem::from_op(&ckt, &op);
        (ckt, sys)
    }

    #[test]
    fn rc_lowpass_pole() {
        let (_, sys) = system(
            ".jig j\nvin in 0 0 ac 1\nr1 in out 1k\nc1 out 0 1u\n.endjig\n",
            None,
        );
        let out = sys.output_selector("out", None).unwrap();
        // dc gain 1, −3 dB at ω = 1/RC = 1000 rad/s.
        let h0 = sys.transfer("vin", out, 0.0).unwrap();
        assert!((h0.norm() - 1.0).abs() < 1e-9);
        let hp = sys.transfer("vin", out, 1000.0).unwrap();
        assert!((hp.norm() - 1.0 / 2.0f64.sqrt()).abs() < 1e-6);
        assert!((hp.arg() + std::f64::consts::FRAC_PI_4).abs() < 1e-6);
    }

    #[test]
    fn rlc_resonance() {
        // Series RLC driven by voltage, output across C: peak near
        // ω0 = 1/√(LC) = 1e6 rad/s.
        let (_, sys) = system(
            ".jig j\nvin in 0 0 ac 1\nr1 in a 10\nl1 a b 1m\nc1 b 0 1n\n.endjig\n",
            None,
        );
        let out = sys.output_selector("b", None).unwrap();
        let at_res = sys.transfer("vin", out, 1.0e6).unwrap().norm();
        let off_res = sys.transfer("vin", out, 3.0e6).unwrap().norm();
        assert!(at_res > 10.0, "Q boost at resonance, got {at_res}");
        assert!(off_res < 1.0);
    }

    #[test]
    fn common_source_gain_matches_hand_calc() {
        let (ckt, sys) = system(
            ".jig j\nvdd vdd 0 5\nvin g 0 1.2 ac 1\nrd vdd d 20k\nm1 d g 0 0 nmos w=50u l=2u\n.endjig\n",
            Some(ProcessDeck::C2Level1),
        );
        let op = solve_dc(&ckt).unwrap();
        let gm = op.mos_ops[0].gm;
        let gds = op.mos_ops[0].gds;
        let expect = gm / (1.0 / 20e3 + gds);
        let out = sys.output_selector("d", None).unwrap();
        let h0 = sys.transfer("vin", out, 0.0).unwrap();
        assert!(
            (h0.norm() - expect).abs() / expect < 1e-6,
            "|A| = {} vs hand {expect}",
            h0.norm()
        );
        // Inverting stage: phase ≈ 180°.
        assert!(h0.re < 0.0);
    }

    #[test]
    fn output_selector_differential_and_ground() {
        let (_, sys) = system(
            ".jig j\nvin in 0 0 ac 1\nr1 in a 1k\nr2 a 0 1k\n.endjig\n",
            None,
        );
        let diff = sys.output_selector("in", Some("a")).unwrap();
        let h = sys.transfer("vin", diff, 0.0).unwrap();
        assert!((h.norm() - 0.5).abs() < 1e-9);
        assert!(sys.output_selector("bogus", None).is_none());
        let gnd = sys.output_selector("0", None).unwrap();
        let hz = sys.transfer("vin", gnd, 0.0).unwrap();
        assert_eq!(hz.norm(), 0.0);
    }

    #[test]
    fn isource_stimulus() {
        // Unit ac current into a 2k resistor: |Z| = 2000.
        let (_, sys) = system(".jig j\ni1 0 out 1u ac 1\nr1 out 0 2k\n.endjig\n", None);
        let out = sys.output_selector("out", None).unwrap();
        let h = sys.transfer("i1", out, 0.0).unwrap();
        assert!((h.norm() - 2000.0).abs() < 1e-6);
    }

    #[test]
    fn unknown_source_gives_zero() {
        let (_, sys) = system(".jig j\nv1 a 0 1\nr1 a 0 1k\n.endjig\n", None);
        let out = sys.output_selector("a", None).unwrap();
        assert_eq!(sys.transfer("nosuch", out, 0.0).unwrap(), Complex::ZERO);
    }
}
