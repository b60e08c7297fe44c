//! In-process replay of a service seed, with the anneal split into its
//! layers.
//!
//! [`Timed`] wraps any [`AnnealProblem`] and times each call the engine
//! makes into it: `propose_dirty` is the move layer (device-geometry and
//! Newton proposals), `cost_moved` and `cost` are the cost layer
//! (devices, stamping, AWE, linalg, scoring). What is left of the anneal
//! wall is the engine's own bookkeeping. The finer split inside the cost
//! layer comes from the `cost_eval`, `awe_analyze` and `sparse_refactor`
//! telemetry spans.

use astrx_oblx::oblx::{fixed_cost, OblxProblem};
use astrx_oblx::{CompiledProblem, SynthesisOptions};
use oblx_anneal::{AnnealOptions, AnnealProblem, Annealer, DirtySet};
use rand::Rng;
use std::time::Instant;

/// Call counts and busy nanoseconds per wrapped method.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTimes {
    /// `propose` + `propose_dirty` calls.
    pub propose_calls: u64,
    /// Nanoseconds inside them.
    pub propose_ns: u64,
    /// `cost` + `cost_moved` calls.
    pub cost_calls: u64,
    /// Nanoseconds inside them.
    pub cost_ns: u64,
    /// Nanoseconds in `initial_state`, `telemetry` and `frozen`.
    pub other_ns: u64,
}

impl std::ops::AddAssign for LayerTimes {
    fn add_assign(&mut self, o: LayerTimes) {
        self.propose_calls += o.propose_calls;
        self.propose_ns += o.propose_ns;
        self.cost_calls += o.cost_calls;
        self.cost_ns += o.cost_ns;
        self.other_ns += o.other_ns;
    }
}

/// An [`AnnealProblem`] adapter that delegates every method to `inner`
/// and times it.
#[derive(Debug)]
pub struct Timed<P> {
    /// The wrapped problem.
    pub inner: P,
    /// What the calls cost so far.
    pub times: LayerTimes,
}

impl<P> Timed<P> {
    /// Wraps `inner` with zeroed timers.
    pub fn new(inner: P) -> Timed<P> {
        Timed {
            inner,
            times: LayerTimes::default(),
        }
    }
}

fn timed<T>(ns: &mut u64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *ns += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
    out
}

impl<P: AnnealProblem> AnnealProblem for Timed<P> {
    type State = P::State;

    fn initial_state(&mut self) -> P::State {
        timed(&mut self.times.other_ns, || self.inner.initial_state())
    }

    fn cost(&mut self, state: &P::State) -> f64 {
        self.times.cost_calls += 1;
        timed(&mut self.times.cost_ns, || self.inner.cost(state))
    }

    fn move_classes(&self) -> usize {
        self.inner.move_classes()
    }

    fn propose(
        &mut self,
        state: &P::State,
        class: usize,
        scale: f64,
        rng: &mut dyn Rng,
    ) -> Option<P::State> {
        self.times.propose_calls += 1;
        timed(&mut self.times.propose_ns, || {
            self.inner.propose(state, class, scale, rng)
        })
    }

    fn propose_dirty(
        &mut self,
        state: &P::State,
        class: usize,
        scale: f64,
        rng: &mut dyn Rng,
    ) -> Option<(P::State, DirtySet)> {
        self.times.propose_calls += 1;
        timed(&mut self.times.propose_ns, || {
            self.inner.propose_dirty(state, class, scale, rng)
        })
    }

    fn cost_moved(&mut self, state: &P::State, dirty: &DirtySet) -> f64 {
        self.times.cost_calls += 1;
        timed(&mut self.times.cost_ns, || {
            self.inner.cost_moved(state, dirty)
        })
    }

    fn telemetry_names(&self) -> Vec<String> {
        self.inner.telemetry_names()
    }

    fn telemetry(&mut self, state: &P::State) -> Vec<f64> {
        timed(&mut self.times.other_ns, || self.inner.telemetry(state))
    }

    fn frozen(&mut self, state: &P::State) -> bool {
        timed(&mut self.times.other_ns, || self.inner.frozen(state))
    }
}

/// One replayed seed.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// Frozen-final cost of the best state: must equal the service's
    /// `runs[].fixed_cost` bit for bit.
    pub fixed_cost: f64,
    /// Proposals the engine made.
    pub attempted: usize,
    /// Seconds from problem construction to the end of the anneal (the
    /// span `runs[].wall_seconds` covers in the service).
    pub wall_s: f64,
    /// Nanoseconds inside the engine's run alone.
    pub anneal_ns: u64,
    /// The per-layer split of that anneal.
    pub times: LayerTimes,
}

/// Re-runs one seed of a job through [`Timed`]`<`[`OblxProblem`]`>`
/// driven by [`Annealer`] with the engine options OBLX's own synthesis
/// uses.
pub fn replay_seed(compiled: &CompiledProblem, opts: &SynthesisOptions) -> Replayed {
    let start = Instant::now();
    let mut problem = Timed::new(OblxProblem::new(compiled, opts.clone()));
    let mut annealer = Annealer::new(AnnealOptions {
        moves_budget: opts.moves_budget,
        seed: opts.seed,
        trace_every: opts.trace_every,
        quench_patience: opts.quench_patience,
        ..AnnealOptions::default()
    });
    let mut anneal_ns = 0;
    let result = timed(&mut anneal_ns, || annealer.run(&mut problem));
    let wall_s = start.elapsed().as_secs_f64();
    // The scoring pass is not part of the anneal being split: keep it
    // out of the telemetry the caller reads.
    let recording = oblx_telemetry::enabled();
    oblx_telemetry::set_enabled(false);
    let fixed_cost = fixed_cost(compiled, &result.best_state);
    oblx_telemetry::set_enabled(recording);
    Replayed {
        fixed_cost,
        attempted: result.attempted,
        wall_s,
        anneal_ns,
        times: problem.times,
    }
}
