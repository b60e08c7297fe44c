//! Asymptotic Waveform Evaluation (AWE) for linear circuit analysis.
//!
//! AWE is the performance-prediction engine that lets ASTRX/OBLX work
//! *equation-free*: instead of designer-derived symbolic transfer
//! functions (which explode to 10,000+ terms for ten devices), it
//! matches the first `2q` Maclaurin **moments** of the exact response to
//! a reduced `q`-pole model. The cost is essentially **one LU
//! factorization of the conductance matrix plus `2q` back-substitutions**
//! — orders of magnitude cheaper than a per-frequency complex solve, and
//! the reason OBLX can afford tens of thousands of circuit evaluations
//! per annealing run.
//!
//! Pipeline (see [`analyze`]):
//!
//! 1. adjoint moments: `a₀ = G⁻ᵀ·l`, `a_{k+1} = −G⁻ᵀ·Cᵀ·a_k`, outputs
//!    `µ_k = a_k·b` — mathematically identical to the direct recurrence
//!    `m₀ = G⁻¹·b`, `µ_k = l·m_k`, but the solve chain depends only on
//!    the *output probe*, so every stimulus sharing a probe (gain and
//!    both PSRR analyses of one amplifier) reuses it ([`analyze_batch`]);
//! 2. frequency scaling by `ω₀ = |µ₀/µ₁|` to condition the Hankel
//!    system;
//! 3. Padé: Hankel solve for the denominator, Aberth roots for poles,
//!    Vandermonde solve for residues;
//! 4. adaptive order: start at the requested `q` and shrink until the
//!    model reproduces its own moments.
//!
//! Steps 2–4 run only for [`Demand::Model`] jobs. A [`Demand::DcOnly`]
//! job, for a caller that reads nothing but the dc value, stops after
//! `µ0 = a₀·b`, which is exact, and returns a pole-free model of it.
//!
//! The resulting [`ReducedModel`] answers the measurement requests that
//! specifications reference: `dc_gain`, `ugf`, `phase_margin`,
//! `gain_at`, poles and zeros.
//!
//! # Examples
//!
//! ```
//! use oblx_netlist::parse_problem;
//! use oblx_devices::ModelLibrary;
//! use oblx_mna::{SizedCircuit, solve_dc, LinearSystem};
//! use oblx_awe::analyze;
//! use std::collections::HashMap;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let p = parse_problem("\
//! .jig j
//! vin in 0 0 ac 1
//! r1 in out 1k
//! c1 out 0 1u
//! .endjig
//! ")?;
//! let flat = p.jigs[0].netlist.flatten(&p.subckts)?;
//! let ckt = SizedCircuit::build(&flat, &HashMap::new(), &ModelLibrary::new())?;
//! let op = solve_dc(&ckt)?;
//! let sys = LinearSystem::from_op(&ckt, &op);
//! let out = sys.output_selector("out", None).expect("node exists");
//! let model = analyze(&sys, "vin", out, 3)?;
//! // Single real pole at −1/RC = −1000 rad/s.
//! let p0 = model.poles()[0];
//! assert!((p0.re + 1000.0).abs() < 1e-6 && p0.im.abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

mod measure;
mod model;
pub mod moments;

pub use measure::{gain_at, phase_margin, unity_gain_frequency};
pub use model::{AweError, ReducedModel};
pub use moments::{analyze, analyze_batch, analyze_batch_with, analyze_with, AweEngine, Demand};
