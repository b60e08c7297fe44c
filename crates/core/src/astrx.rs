//! ASTRX — the synthesis-problem compiler.
//!
//! Compilation performs the steps of paper §V.A: (a) determine the
//! independent variables `x`, (b) generate the large-signal bias
//! circuit, (c) write the KCL constraints of the relaxed-dc
//! formulation, (d) generate the small-signal AWE circuits for each
//! jig, (e) generate a cost term per performance specification, and
//! (f) assemble the executable cost function (an interpretable
//! [`crate::CostEvaluator`]; the equivalent C text is available from
//! [`crate::emit::emit_c`]).
//!
//! Step (f) also decides, once per analysis handle, how much of AWE the
//! cost function needs ([`CompiledProblem::demand`]): an analysis that
//! the goals read only through `dc_gain`/`dcv` needs its exact zeroth
//! moment and no Padé fit.

use oblx_awe::Demand;
use oblx_devices::{ModelError, ModelLibrary};
use oblx_mna::{BuildError, SizedCircuit};
use oblx_netlist::{
    parse_problem, Analysis, Expr, Netlist, ParseError, Problem, SpecKind, VarDecl,
};
use std::collections::{HashMap, HashSet};

/// A device's required operating region (from `.region` cards).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RegionRequirement {
    /// Saturation with margin — the default for analog devices.
    #[default]
    Saturation,
    /// Triode (switch/resistor duty).
    Triode,
    /// Cut off.
    Off,
    /// Unconstrained.
    Any,
}
use std::error::Error;
use std::fmt;

/// Error from ASTRX compilation.
#[derive(Debug)]
pub enum CompileError {
    /// The description failed to parse.
    Parse(ParseError),
    /// A model card is unusable.
    Model(ModelError),
    /// A circuit could not be assembled at the initial point.
    Build(BuildError),
    /// An expression in a goal referenced an unknown name.
    Goal {
        /// Goal name.
        goal: String,
        /// What went wrong.
        what: String,
    },
    /// Structural problem in the description.
    Structure(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "parse: {e}"),
            CompileError::Model(e) => write!(f, "model: {e}"),
            CompileError::Build(e) => write!(f, "assembly: {e}"),
            CompileError::Goal { goal, what } => write!(f, "goal `{goal}`: {what}"),
            CompileError::Structure(s) => write!(f, "{s}"),
        }
    }
}

impl Error for CompileError {}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> Self {
        CompileError::Parse(e)
    }
}
impl From<ModelError> for CompileError {
    fn from(e: ModelError) -> Self {
        CompileError::Model(e)
    }
}
impl From<BuildError> for CompileError {
    fn from(e: BuildError) -> Self {
        CompileError::Build(e)
    }
}

/// One jig after compilation: its flattened netlist and analyses.
#[derive(Debug, Clone)]
pub struct CompiledJig {
    /// Jig name.
    pub name: String,
    /// Flattened netlist (instances expanded).
    pub netlist: Netlist,
    /// The `.pz` transfer functions requested in this jig.
    pub analyses: Vec<Analysis>,
    /// Size of the assembled AWE circuit at the initial point:
    /// `(nodes, elements)` — Table 1's type-A rows.
    pub awe_size: (usize, usize),
}

/// Statistics of an ASTRX analysis — the rows of Table 1.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompileStats {
    /// Input lines describing netlists and models.
    pub netlist_lines: usize,
    /// Input lines describing variables and specifications.
    pub synthesis_lines: usize,
    /// User-supplied independent variables.
    pub user_vars: usize,
    /// Node-voltage variables added by the relaxed-dc formulation.
    pub node_vars: usize,
    /// Cost-function terms (objectives + performance constraints +
    /// device-region constraints + KCL constraints).
    pub terms: usize,
    /// Lines of the emitted C implementation of `C(x)`.
    pub c_lines: usize,
    /// Bias-circuit size `(nodes, elements)` — Table 1's type-B row.
    pub bias_size: (usize, usize),
    /// Per-jig AWE circuit sizes `(nodes, elements)` — type-A rows.
    pub awe_sizes: Vec<(usize, usize)>,
}

/// The compiled synthesis problem: everything OBLX needs to evaluate
/// `C(x)`.
#[derive(Debug, Clone)]
pub struct CompiledProblem {
    /// The parsed description.
    pub problem: Problem,
    /// Device evaluator library.
    pub lib: ModelLibrary,
    /// User-declared variables, in declaration order.
    pub user_vars: Vec<VarDecl>,
    /// Names of the free bias-circuit nodes (relaxed-dc variables), in
    /// bias-circuit node order.
    pub node_vars: Vec<String>,
    /// Flattened bias netlist.
    pub bias_netlist: Netlist,
    /// Compiled jigs.
    pub jigs: Vec<CompiledJig>,
    /// Per-device operating-region requirements (flattened names);
    /// devices absent from the map default to saturation.
    pub region_reqs: HashMap<String, RegionRequirement>,
    /// What the goals read of each analysis handle: [`Demand::DcOnly`]
    /// when every reference to it is the first argument of `dc_gain` or
    /// `dcv` (or there is none), [`Demand::Model`] otherwise. The plan
    /// path and the cold path both run each analysis at this demand, so
    /// they stay bit-identical.
    pub demand: HashMap<String, Demand>,
    /// Table 1 statistics.
    pub stats: CompileStats,
}

impl CompiledProblem {
    /// Total number of annealing variables.
    pub fn dim(&self) -> usize {
        self.user_vars.len() + self.node_vars.len()
    }

    /// The initial user-variable vector (declared `ic=` or range
    /// midpoints).
    pub fn initial_user_values(&self) -> Vec<f64> {
        self.user_vars
            .iter()
            .map(|v| v.initial.unwrap_or_else(|| v.default_initial()))
            .collect()
    }

    /// The user-variable assignment map for a value vector.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.user_vars.len()`.
    pub fn var_map(&self, values: &[f64]) -> HashMap<String, f64> {
        assert_eq!(values.len(), self.user_vars.len(), "var vector mismatch");
        self.user_vars
            .iter()
            .zip(values.iter())
            .map(|(v, &x)| (v.name.clone(), x))
            .collect()
    }
}

/// Compiles a problem description from source text.
///
/// # Errors
///
/// [`CompileError`] on parse, model, assembly, or structural problems.
pub fn compile_source(source: &str) -> Result<CompiledProblem, CompileError> {
    compile(parse_problem(source)?)
}

/// Compiles a parsed [`Problem`].
///
/// # Errors
///
/// See [`compile_source`].
pub fn compile(problem: Problem) -> Result<CompiledProblem, CompileError> {
    let lib = ModelLibrary::from_cards(&problem.models)?;
    if problem.bias.is_empty() {
        return Err(CompileError::Structure(
            "a bias circuit (.bias … .endbias) is required".into(),
        ));
    }
    if problem.jigs.is_empty() {
        return Err(CompileError::Structure(
            "at least one test jig (.jig … .endjig) is required".into(),
        ));
    }

    // Flatten all circuits against the subcircuit library.
    let bias_netlist = problem.bias.flatten(&problem.subckts)?;
    let mut jigs = Vec::new();

    // Assemble circuits once at the initial point to (1) validate and
    // (2) size everything for Table 1. Values do not matter for
    // structure.
    let user_vars = problem.vars.clone();
    let init_map: HashMap<String, f64> = user_vars
        .iter()
        .map(|v| {
            (
                v.name.clone(),
                v.initial.unwrap_or_else(|| v.default_initial()),
            )
        })
        .collect();

    let bias_ckt = SizedCircuit::build(&bias_netlist, &init_map, &lib)?;

    // Tree–link analysis on the bias circuit: node voltages reachable
    // from ground through independent voltage sources are determined;
    // every other node voltage joins x (paper §V.A).
    let determined = determined_nodes(&bias_ckt);

    // Structural restrictions of the relaxed-dc formulation: the bias
    // circuit may not contain branch elements whose current equations
    // would couple into free-node KCL (a V source floating between two
    // undetermined nodes, controlled voltage sources, inductors).
    for el in &bias_ckt.linear {
        match el {
            oblx_mna::LinElement::Vsource { p, m, .. } => {
                let p_det = p.is_none_or(|i| determined.contains(&i));
                let m_det = m.is_none_or(|i| determined.contains(&i));
                if !p_det || !m_det {
                    return Err(CompileError::Structure(
                        "bias circuit has a voltage source floating between \
                         undetermined nodes"
                            .into(),
                    ));
                }
            }
            oblx_mna::LinElement::Vcvs { .. } | oblx_mna::LinElement::Inductor { .. } => {
                return Err(CompileError::Structure(
                    "bias circuits may not contain controlled voltage sources \
                     or inductors (relaxed-dc restriction)"
                        .into(),
                ));
            }
            _ => {}
        }
    }
    let node_vars: Vec<String> = bias_ckt
        .nodes
        .iter()
        .filter(|(i, _)| !determined.contains(i))
        .map(|(_, n)| n.to_string())
        .collect();

    for jig in &problem.jigs {
        let flat = jig.netlist.flatten(&problem.subckts)?;
        let ckt = SizedCircuit::build(&flat, &init_map, &lib)?;
        // Validate analyses against the circuit.
        for a in &jig.analyses {
            let known = |n: &str| oblx_mna::NodeMap::is_ground(n) || ckt.nodes.get(n).is_some();
            if !known(&a.out_p) {
                return Err(CompileError::Structure(format!(
                    "jig `{}` analysis `{}`: unknown output node `{}`",
                    jig.name, a.name, a.out_p
                )));
            }
            if let Some(m) = &a.out_m {
                if !known(m) {
                    return Err(CompileError::Structure(format!(
                        "jig `{}` analysis `{}`: unknown output node `{m}`",
                        jig.name, a.name
                    )));
                }
            }
            if !ckt.linear_names.iter().any(|n| n == &a.source) {
                return Err(CompileError::Structure(format!(
                    "jig `{}` analysis `{}`: unknown source `{}`",
                    jig.name, a.name, a.source
                )));
            }
        }
        // The paper's type-A element count is for the *linearized*
        // circuit: each MOS contributes its small-signal template
        // (gm, gds, gmbs + five capacitances), each BJT four
        // conductances and two capacitances.
        let awe_elements = ckt.linear.len() + 8 * ckt.mosfets.len() + 6 * ckt.bjts.len();
        jigs.push(CompiledJig {
            name: jig.name.clone(),
            netlist: flat,
            analyses: jig.analyses.clone(),
            awe_size: (ckt.nodes.len(), awe_elements),
        });
    }

    // Validate goal expressions: every referenced plain identifier must
    // be a variable, an analysis handle, or a known builtin function.
    let analysis_names: HashSet<String> = problem
        .jigs
        .iter()
        .flat_map(|j| j.analyses.iter().map(|a| a.name.clone()))
        .collect();
    for goal in &problem.specs {
        for var in goal.expr.variables() {
            let known = init_map.contains_key(&var) || analysis_names.contains(&var);
            if !known {
                return Err(CompileError::Goal {
                    goal: goal.name.clone(),
                    what: format!("unknown identifier `{var}`"),
                });
            }
        }
        for call in goal.expr.calls() {
            if !crate::cost::is_known_function(&call) {
                return Err(CompileError::Goal {
                    goal: goal.name.clone(),
                    what: format!("unknown function `{call}`"),
                });
            }
        }
    }

    // Cost-term count: one per objective + per constraint + one device
    // region constraint per device + one KCL constraint per free node.
    let objectives = problem
        .specs
        .iter()
        .filter(|g| g.kind == SpecKind::Objective)
        .count();
    let constraints = problem.specs.len() - objectives;
    let device_terms = bias_ckt.mosfets.len() + bias_ckt.bjts.len();
    let terms = objectives + constraints + device_terms + node_vars.len();

    let mut stats = CompileStats {
        netlist_lines: problem.line_stats.netlist_lines,
        synthesis_lines: problem.line_stats.synthesis_lines,
        user_vars: user_vars.len(),
        node_vars: node_vars.len(),
        terms,
        c_lines: 0,
        // Type-B (large-signal) element count: each MOS large-signal
        // template is a controlled current source plus three
        // conductances; a BJT contributes two sources and three
        // conductances.
        bias_size: (
            bias_ckt.nodes.len(),
            bias_ckt.linear.len() + 4 * bias_ckt.mosfets.len() + 5 * bias_ckt.bjts.len(),
        ),
        awe_sizes: jigs.iter().map(|j| j.awe_size).collect(),
    };

    // Region requirements: validate device names against the bias
    // circuit.
    let mut region_reqs = HashMap::new();
    for r in &problem.regions {
        let exists = bias_ckt.mosfets.iter().any(|m| m.name == r.device)
            || bias_ckt.bjts.iter().any(|q| q.name == r.device)
            || bias_ckt.diodes.iter().any(|d| d.name == r.device);
        if !exists {
            return Err(CompileError::Structure(format!(
                ".region names unknown device `{}`",
                r.device
            )));
        }
        let req = match r.region.as_str() {
            "triode" => RegionRequirement::Triode,
            "off" => RegionRequirement::Off,
            "any" => RegionRequirement::Any,
            _ => RegionRequirement::Saturation,
        };
        region_reqs.insert(r.device.clone(), req);
    }

    let demand = goal_demand(&problem);
    let mut compiled = CompiledProblem {
        problem,
        lib,
        user_vars,
        node_vars,
        bias_netlist,
        jigs,
        region_reqs,
        demand,
        stats: stats.clone(),
    };
    stats.c_lines = crate::emit::emit_c(&compiled).lines().count();
    compiled.stats = stats;
    Ok(compiled)
}

/// The demand pass: marks every analysis handle [`Demand::DcOnly`] when
/// each reference to it in a goal expression is the first argument of
/// `dc_gain` or `dcv` — both read only the exact `µ0` — and
/// [`Demand::Model`] when any reference reads more (`ugf`,
/// `phase_margin`, `gain_at`, `pole`, `zero`, or the bare identifier).
/// A handle no goal references is dc-only: nothing reads its poles.
fn goal_demand(problem: &Problem) -> HashMap<String, Demand> {
    fn mark(expr: &Expr, demand: &mut HashMap<String, Demand>) {
        match expr {
            Expr::Var(h) => {
                if let Some(d) = demand.get_mut(h) {
                    *d = Demand::Model;
                }
            }
            Expr::Call(f, args) => {
                // The handle of `dc_gain(h)`/`dcv(h)` reads µ0 alone;
                // any further argument is read as usual.
                let dc_handle = matches!(f.as_str(), "dc_gain" | "dcv")
                    && matches!(args.first(), Some(Expr::Var(_)));
                for a in &args[usize::from(dc_handle)..] {
                    mark(a, demand);
                }
            }
            Expr::Bin(_, a, b) => {
                mark(a, demand);
                mark(b, demand);
            }
            Expr::Neg(a) => mark(a, demand),
            Expr::Num(_) | Expr::Path(_) => {}
        }
    }
    let mut demand: HashMap<String, Demand> = problem
        .jigs
        .iter()
        .flat_map(|j| j.analyses.iter().map(|a| (a.name.clone(), Demand::DcOnly)))
        .collect();
    for goal in &problem.specs {
        mark(&goal.expr, &mut demand);
    }
    demand
}

/// Identifies bias-circuit nodes whose voltage is fixed by a chain of
/// independent voltage sources from ground (the "trivially determined"
/// nodes of the tree–link analysis).
pub fn determined_nodes(ckt: &SizedCircuit) -> HashSet<usize> {
    let mut det: HashSet<usize> = HashSet::new();
    // Iterate to a fixed point: a V source with one side determined
    // (or ground) determines the other side.
    loop {
        let mut changed = false;
        for el in &ckt.linear {
            if let oblx_mna::LinElement::Vsource { p, m, .. } = el {
                let p_det = p.is_none_or(|i| det.contains(&i));
                let m_det = m.is_none_or(|i| det.contains(&i));
                if p_det && !m_det {
                    det.insert(m.expect("non-ground because !m_det"));
                    changed = true;
                } else if m_det && !p_det {
                    det.insert(p.expect("non-ground because !p_det"));
                    changed = true;
                }
            }
        }
        if !changed {
            return det;
        }
    }
}

/// Computes the determined node voltages for a concrete bias circuit
/// (dc source values already resolved against the variable map).
///
/// Returns `None` for free nodes.
pub fn determined_voltages(ckt: &SizedCircuit) -> Vec<Option<f64>> {
    let mut v: Vec<Option<f64>> = vec![None; ckt.nodes.len()];
    loop {
        let mut changed = false;
        for el in &ckt.linear {
            if let oblx_mna::LinElement::Vsource { p, m, dc, .. } = el {
                let vp = p.map_or(Some(0.0), |i| v[i]);
                let vm = m.map_or(Some(0.0), |i| v[i]);
                match (vp, vm) {
                    (Some(a), None) => {
                        if let Some(i) = *m {
                            v[i] = Some(a - dc);
                            changed = true;
                        }
                    }
                    (None, Some(b)) => {
                        if let Some(i) = *p {
                            v[i] = Some(b + dc);
                            changed = true;
                        }
                    }
                    _ => {}
                }
            }
        }
        if !changed {
            return v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_suite;

    const DIFFAMP: &str = r#"
.title section-iv diff amp
.var W 2u 500u log
.var L 1u 20u log
.var I 2u 2m log
.var Vb 0.8 4.2 lin cont

.model nmos nmos level=1 vto=0.75 kp=5.2e-5 gamma=0.55 lambda=0.03
.model pmos pmos level=1 vto=-0.85 kp=1.8e-5 gamma=0.5 lambda=0.045

.subckt amp in+ in- out+ out- nvdd nvss
m1 out- in+ t nvss nmos w='W' l='L'
m2 out+ in- t nvss nmos w='W' l='L'
m3 out- bias nvdd nvdd pmos w=40u l=2u
m4 out+ bias nvdd nvdd pmos w=40u l=2u
vb bias nvdd '0-Vb'
ib t nvss 'I'
.ends

.jig acjig
xamp in+ in- out+ out- nvdd nvss amp
vdd nvdd 0 5
vss nvss 0 0
vin in+ 0 0 ac 1
ein in- 0 0 in+ 1
cl1 out+ 0 1p
cl2 out- 0 1p
.pz tf v(out+) vin
.endjig

.bias
xamp in+ in- out+ out- nvdd nvss amp
vdd nvdd 0 5
vss nvss 0 0
vc1 in+ 0 2.5
vc2 in- 0 2.5
.endbias

.obj adm 'db(dc_gain(tf))' good=40 bad=5
.spec ugf 'ugf(tf)' good=1Meg bad=10k
.spec sr 'I/(2*(1p+xamp.m1.cd+xamp.m3.cd))' good=1Meg bad=10k
"#;

    #[test]
    fn compiles_diffamp() {
        let c = compile_source(DIFFAMP).unwrap();
        assert_eq!(c.user_vars.len(), 4);
        assert_eq!(c.jigs.len(), 1);
        // Bias free nodes: out+, out-, t (bias node is V-determined
        // relative to nvdd; in+/in-/nvdd/nvss determined).
        assert_eq!(c.node_vars.len(), 3, "{:?}", c.node_vars);
        assert!(c.node_vars.contains(&"out+".to_string()));
        assert!(c.node_vars.contains(&"out-".to_string()));
        assert!(c.node_vars.contains(&"xamp.t".to_string()));
        // Terms: 1 obj + 2 spec + 4 devices + 3 KCL = 10.
        assert_eq!(c.stats.terms, 10);
        assert_eq!(c.stats.user_vars, 4);
        assert!(c.stats.c_lines > 60, "c_lines = {}", c.stats.c_lines);
        assert!(c.stats.bias_size.0 >= 6);
        assert_eq!(c.dim(), 7);
    }

    #[test]
    fn determined_voltage_chains() {
        let c = compile_source(DIFFAMP).unwrap();
        let vars = c.var_map(&c.initial_user_values());
        let ckt = SizedCircuit::build(&c.bias_netlist, &vars, &c.lib).unwrap();
        let det = determined_voltages(&ckt);
        let idx = |n: &str| ckt.nodes.get(n).unwrap();
        assert_eq!(det[idx("nvdd")], Some(5.0));
        assert_eq!(det[idx("nvss")], Some(0.0));
        assert_eq!(det[idx("in+")], Some(2.5));
        // Chained through vb: bias = nvdd + (0 − Vb) = 5 − Vb.
        let vb = vars["vb"];
        assert!((det[idx("xamp.bias")].unwrap() - (5.0 - vb)).abs() < 1e-12);
        assert_eq!(det[idx("out+")], None);
    }

    #[test]
    fn missing_bias_is_structural_error() {
        let src = DIFFAMP
            .replace(".bias", ".jig dummy")
            .replace(".endbias", ".endjig");
        match compile_source(&src) {
            Err(CompileError::Structure(s)) => assert!(s.contains("bias")),
            other => panic!("expected structure error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_identifier_in_goal() {
        let src = DIFFAMP.replace("'ugf(tf)'", "'ugf(tf)+Bogus'");
        match compile_source(&src) {
            Err(CompileError::Goal { what, .. }) => assert!(what.contains("bogus")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_function_in_goal() {
        let src = DIFFAMP.replace("'ugf(tf)'", "'settling(tf)'");
        assert!(matches!(
            compile_source(&src),
            Err(CompileError::Goal { .. })
        ));
    }

    #[test]
    fn unknown_pz_source_rejected() {
        let src = DIFFAMP.replace(".pz tf v(out+) vin", ".pz tf v(out+) nosource");
        assert!(matches!(
            compile_source(&src),
            Err(CompileError::Structure(_))
        ));
    }

    #[test]
    fn unknown_pz_node_rejected() {
        let src = DIFFAMP.replace(".pz tf v(out+) vin", ".pz tf v(nowhere) vin");
        assert!(matches!(
            compile_source(&src),
            Err(CompileError::Structure(_))
        ));
    }

    /// One demand-pass case per row: the goal expressions of a deck with
    /// analyses `tf`, `tfvdd` and `tfvss`, and the demand of each. A
    /// handle a row does not name is unreferenced, so dc-only.
    #[test]
    fn demand_pass_marks_what_the_goals_read() {
        use Demand::{DcOnly, Model};
        let deck = |goals: &str| {
            let src = DIFFAMP
                .replace(
                    ".pz tf v(out+) vin",
                    ".pz tf v(out+) vin\n.pz tfvdd v(out+) vdd\n.pz tfvss v(out+) vss",
                )
                .replace(
                    ".obj adm 'db(dc_gain(tf))' good=40 bad=5\n\
                     .spec ugf 'ugf(tf)' good=1Meg bad=10k\n",
                    goals,
                );
            compile_source(&src).expect("compiles").demand
        };
        let cases: [(&str, [Demand; 3]); 10] = [
            (
                ".spec p 'db(dc_gain(tf))-db(dc_gain(tfvss))' good=60 bad=0\n",
                [DcOnly, DcOnly, DcOnly],
            ),
            (".spec v 'dcv(tf)' good=1 bad=0\n", [DcOnly; 3]),
            (
                ".spec u 'ugf(tf)' good=1Meg bad=10k\n",
                [Model, DcOnly, DcOnly],
            ),
            (
                ".spec pm 'phase_margin(tf)' good=60 bad=30\n",
                [Model, DcOnly, DcOnly],
            ),
            (
                ".spec g 'gain_at(tf, 1k)' good=10 bad=1\n",
                [Model, DcOnly, DcOnly],
            ),
            (
                ".spec p 'pole(tf, 1)' good=1k bad=1\n",
                [Model, DcOnly, DcOnly],
            ),
            (
                ".spec z 'zero(tf, 1)' good=1k bad=1\n",
                [Model, DcOnly, DcOnly],
            ),
            (
                ".spec m 'min(dc_gain(tf), ugf(tf))' good=1 bad=0\n",
                [Model, DcOnly, DcOnly],
            ),
            (".spec b 'tf' good=1 bad=0\n", [Model, DcOnly, DcOnly]),
            (
                ".spec n 'dc_gain(tfvdd)*ugf(tfvss)' good=1 bad=0\n",
                [DcOnly, DcOnly, Model],
            ),
        ];
        for (goals, [tf, tfvdd, tfvss]) in cases {
            let d = deck(goals);
            assert_eq!(
                (d["tf"], d["tfvdd"], d["tfvss"]),
                (tf, tfvdd, tfvss),
                "{goals}"
            );
        }
    }

    /// In every benchmark deck the supply-rejection analyses are read
    /// only through `dc_gain`, and the gain analysis through more.
    #[test]
    fn bench_decks_fit_only_the_gain_analysis() {
        for b in bench_suite::all() {
            let c = compile(b.problem().expect("parses")).expect("compiles");
            assert_eq!(c.demand["tf"], Demand::Model, "{}", b.name);
            for h in ["tfvdd", "tfvss"] {
                if let Some(d) = c.demand.get(h) {
                    assert_eq!(*d, Demand::DcOnly, "{}: {h}", b.name);
                }
            }
            assert!(
                c.demand.contains_key("tfvdd") || c.demand.contains_key("tfvss"),
                "{}: no supply-rejection analysis",
                b.name
            );
        }
    }

    #[test]
    fn whole_bench_suite_compiles() {
        for b in bench_suite::all() {
            let c = compile(b.problem().expect("parses")).unwrap_or_else(|e| {
                panic!("{} failed to compile: {e}", b.name);
            });
            assert!(c.dim() > 0, "{}", b.name);
            assert!(
                c.stats.node_vars >= c.stats.user_vars / 2,
                "{}: relaxed-dc should add many node vars ({} vs {})",
                b.name,
                c.stats.node_vars,
                c.stats.user_vars
            );
        }
    }
}
