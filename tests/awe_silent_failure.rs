//! Regression: an AWE model whose every pole sits in the right half
//! plane must surface as an evaluation *failure*, not silently satisfy
//! magnitude-only specs.
//!
//! Pre-fix behaviour: the negative-resistance jig below fits a single
//! RHP pole at +1/(RC).  Its magnitude response is identical to the
//! stable mirror-image pole, so `ugf(tf)` evaluated to ≈16 kHz, the
//! spec was "met", and the annealer happily kept an unstable circuit.
//! Post-fix, `analyze` rejects the all-RHP model with
//! `AweError::NoModel`, which the cost layer maps to the failure cliff.
//!
//! The rule covers analyses read through a pole-dependent measure. Read
//! only through `dc_gain`, the same jig needs no fit: its exact µ0
//! scores.

use astrx_oblx::cost::{CostEvaluator, EvalFailure, FAILURE_COST};
use astrx_oblx::AdaptiveWeights;

/// A VCVS driving an RC whose load conductance is made *negative* by a
/// VCCS (g_net = 1/(1000R) − 2m/R = −1m/R): one pole at +1000/R rad/s,
/// dc gain −100.  |H(jω)| matches the stable mirror circuit exactly;
/// only the pole sign differs.
const RHP_DECK: &str = "\
.title all-RHP silent-failure regression
.var R 0.5 2 lin cont

.jig rhp
vin in 0 0 ac 1
e1 x 0 in 0 100
r1 x out '1000*R'
c1 out 0 1u
g1 out 0 out 0 '-0.002/R'
.pz tf v(out) vin
.endjig

.bias
v1 a 0 1
rb a 0 1k
.endbias

.spec ugf 'ugf(tf)' good=100 bad=1
";

#[test]
fn all_rhp_model_is_an_eval_failure_not_a_met_spec() {
    let c = astrx_oblx::astrx::compile_source(RHP_DECK).expect("deck compiles");
    let mut ev = CostEvaluator::new(&c);
    let user = c.initial_user_values();
    let nodes = vec![0.0; c.node_vars.len()];
    let w = AdaptiveWeights::new(&c);

    // Surfacing path: the AWE rejection is visible as an Awe failure.
    let err = ev
        .try_evaluate(&user, &nodes, &w)
        .expect_err("all-RHP transfer function must not evaluate");
    assert!(
        matches!(err, EvalFailure::Awe(_)),
        "expected an AWE failure, got: {err}"
    );

    // Annealer-facing path: the failure cliff, not a near-zero cost.
    let b = ev.evaluate(&user, &nodes, &w);
    assert!(b.failed, "breakdown must be flagged failed");
    assert_eq!(b.total, FAILURE_COST);
}

#[test]
fn stable_mirror_of_the_jig_still_evaluates() {
    // Flip the VCCS sign so g_net = +3m/R: same |H| shape, pole now in
    // the LHP.  This must keep evaluating cleanly, proving the guard
    // keys on pole location rather than rejecting the topology.
    let deck = RHP_DECK.replace("'-0.002/R'", "'0.002/R'");
    let c = astrx_oblx::astrx::compile_source(&deck).expect("deck compiles");
    let mut ev = CostEvaluator::new(&c);
    let user = c.initial_user_values();
    let nodes = vec![0.0; c.node_vars.len()];
    let w = AdaptiveWeights::new(&c);

    let b = ev
        .try_evaluate(&user, &nodes, &w)
        .expect("stable jig evaluates");
    assert!(!b.failed);
    // ugf ≈ 100·1000/(2π·R) Hz — comfortably above the 100 Hz spec.
    assert!(b.measured[0] > 1.0e3, "ugf = {}", b.measured[0]);
}

#[test]
fn all_rhp_jig_read_only_through_dc_gain_scores_its_exact_mu0() {
    // dc gain −100 (|µ0| = 100), whatever the pole's half-plane: no fit
    // runs, so the all-RHP rule has nothing to reject.
    let deck = RHP_DECK.replace(
        ".spec ugf 'ugf(tf)' good=100 bad=1",
        ".spec gain 'dc_gain(tf)' good=100 bad=1\n.spec sign 'dcv(tf)' good=-100 bad=0",
    );
    let c = astrx_oblx::astrx::compile_source(&deck).expect("deck compiles");
    assert_eq!(c.demand["tf"], oblx_awe::Demand::DcOnly);
    let mut ev = CostEvaluator::new(&c);
    let user = c.initial_user_values();
    let nodes = vec![0.0; c.node_vars.len()];
    let w = AdaptiveWeights::new(&c);

    let b = ev
        .try_evaluate(&user, &nodes, &w)
        .expect("the exact dc gain evaluates");
    assert!(!b.failed);
    assert!(
        (b.measured[0] - 100.0).abs() < 1e-9 * 100.0,
        "dc_gain = {}",
        b.measured[0]
    );
    assert!(
        (b.measured[1] + 100.0).abs() < 1e-9 * 100.0,
        "dcv = {}",
        b.measured[1]
    );
}
