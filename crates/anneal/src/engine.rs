//! The Metropolis loop binding schedule, move statistics, and problem.

use crate::moves::{DirtySet, MoveStats, MoveStatsSnapshot};
use crate::schedule::{initial_temperature, LamSchedule, ScheduleSnapshot};
use crate::trace::{Trace, TracePoint};
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

/// A problem the annealer can optimize.
///
/// The engine owns the Metropolis loop, the cooling schedule, and the
/// move-class statistics; the problem owns representation, cost, and
/// the semantics of each move class.
pub trait AnnealProblem {
    /// The configuration being optimized.
    type State: Clone;

    /// Produces the starting configuration. The annealer is starting-
    /// point independent by design (paper §III.A); this is just *some*
    /// valid state.
    fn initial_state(&mut self) -> Self::State;

    /// The scalar cost `C(x)` to minimize.
    fn cost(&mut self, state: &Self::State) -> f64;

    /// Number of move classes the problem offers.
    fn move_classes(&self) -> usize;

    /// Proposes a perturbed state using move class `class` with range
    /// scale `scale ∈ (0, 1]`. Returning `None` means the class is
    /// inapplicable right now (counted as a rejection at zero cost).
    fn propose(
        &mut self,
        state: &Self::State,
        class: usize,
        scale: f64,
        rng: &mut dyn Rng,
    ) -> Option<Self::State>;

    /// Proposes a move together with the [`DirtySet`] of variables it
    /// touched. The default wraps [`AnnealProblem::propose`] with the
    /// everything-dirty set, which allocates nothing and draws the same
    /// random numbers. No problem in this workspace overrides it: OBLX's
    /// evaluator finds what changed by diffing states bitwise. Wrapping
    /// problems (the benchmark's replay layer) forward it.
    fn propose_dirty(
        &mut self,
        state: &Self::State,
        class: usize,
        scale: f64,
        rng: &mut dyn Rng,
    ) -> Option<(Self::State, DirtySet)> {
        self.propose(state, class, scale, rng)
            .map(|s| (s, DirtySet::everything()))
    }

    /// The cost of a state the engine just obtained from
    /// [`AnnealProblem::propose_dirty`]; `dirty` says which variables
    /// the move declared touched relative to the previous state, so an
    /// incremental evaluator can skip unchanged work. Must return the
    /// same value as [`AnnealProblem::cost`] (the default simply
    /// delegates).
    fn cost_moved(&mut self, state: &Self::State, _dirty: &DirtySet) -> f64 {
        self.cost(state)
    }

    /// Names of the telemetry channels sampled into the trace.
    fn telemetry_names(&self) -> Vec<String> {
        Vec::new()
    }

    /// Telemetry values for a state (same order as
    /// [`AnnealProblem::telemetry_names`]).
    fn telemetry(&mut self, _state: &Self::State) -> Vec<f64> {
        Vec::new()
    }

    /// Problem-specific freezing test, consulted during the final
    /// quench: `true` ends the run (paper: discrete variables stopped
    /// changing and continuous deltas within tolerance).
    fn frozen(&mut self, _state: &Self::State) -> bool {
        false
    }
}

/// Initial acceptance ratio targeted by the warm-up probe.
const CHI0: f64 = 0.95;
/// Number of warm-up probe moves for T₀ estimation.
const WARMUP_MOVES: usize = 200;
/// Re-evaluate the cached current/best costs every this many moves.
/// Needed when the problem's cost function drifts — OBLX's adaptive
/// weights change `C(x)` during the run, and stale caches would
/// otherwise freeze an early low-cost state as "best" forever.
const REFRESH_EVERY: usize = 512;

/// Engine options.
#[derive(Debug, Clone)]
pub struct AnnealOptions {
    /// Moves in the main (Lam-scheduled) phase.
    pub moves_budget: usize,
    /// RNG seed (runs are deterministic given the seed).
    pub seed: u64,
    /// Sample the trace every this many moves (0 disables tracing).
    pub trace_every: usize,
    /// Maximum attempts in the final quench without improvement.
    pub quench_patience: usize,
}

impl Default for AnnealOptions {
    fn default() -> Self {
        AnnealOptions {
            moves_budget: 50_000,
            seed: 1,
            trace_every: 0,
            quench_patience: 2_000,
        }
    }
}

/// Result of an annealing run.
#[derive(Debug, Clone)]
pub struct AnnealResult<S> {
    /// Best configuration found.
    pub best_state: S,
    /// Its cost.
    pub best_cost: f64,
    /// Cost of the final (post-quench) state.
    pub final_cost: f64,
    /// Total proposals made.
    pub attempted: usize,
    /// Total proposals accepted.
    pub accepted: usize,
    /// Sampled trace (empty unless `trace_every > 0`).
    pub trace: Trace,
    /// Lifetime per-class acceptance counts, for move-set diagnostics.
    pub class_usage: Vec<(usize, usize)>,
}

/// The phase an interrupted run stood in when its checkpoint was cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The Lam-scheduled Metropolis phase.
    Main,
    /// The zero-temperature greedy quench.
    Quench,
}

/// A complete, serializable image of an annealing run in flight.
///
/// Restarting [`Annealer::run_controlled`] from a checkpoint continues
/// the run **bit-identically**: the RNG stream, the Hustin move
/// statistics, the Lam schedule's control loop, and every counter the
/// loop consults (`attempted` drives the cost-refresh and `trace_every`
/// modulo tests) are all captured. The one thing deliberately *not*
/// captured is problem-side state — problems with internal state (cost
/// caches, adaptive weights) snapshot themselves in the same hook that
/// persists this struct, so the pair is cut at the same instant.
#[derive(Debug, Clone)]
pub struct AnnealCheckpoint<S> {
    /// Which loop the run was in.
    pub phase: Phase,
    /// Raw RNG state (xoshiro256++ words).
    pub rng: [u64; 4],
    /// Hustin move-class statistics, including in-window counters.
    pub stats: MoveStatsSnapshot,
    /// Lam schedule state (meaningful in the main phase; carried
    /// through the quench unchanged).
    pub schedule: ScheduleSnapshot,
    /// Current configuration.
    pub state: S,
    /// Its cached cost.
    pub cost: f64,
    /// Best configuration so far.
    pub best_state: S,
    /// Its cached cost.
    pub best_cost: f64,
    /// Total proposals so far.
    pub attempted: usize,
    /// Total acceptances so far.
    pub accepted: usize,
    /// Quench-phase moves since the last improvement.
    pub since_improvement: usize,
    /// Trace sampled so far.
    pub trace: Trace,
}

/// What a checkpoint hook tells the engine to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Directive {
    /// Keep annealing.
    Continue,
    /// Stop now; the run is returned as
    /// [`ControlledOutcome::Interrupted`].
    Stop,
}

/// Outcome of [`Annealer::run_controlled`].
#[derive(Debug, Clone)]
pub enum ControlledOutcome<S> {
    /// The run finished (budget exhausted, quench frozen out).
    Complete(AnnealResult<S>),
    /// A hook returned [`Directive::Stop`]; the checkpoint resumes the
    /// run exactly where it stood.
    Interrupted(Box<AnnealCheckpoint<S>>),
}

/// The simulated-annealing engine.
#[derive(Debug)]
pub struct Annealer {
    opts: AnnealOptions,
    rng: StdRng,
}

impl Annealer {
    /// Creates an engine with the given options.
    pub fn new(opts: AnnealOptions) -> Self {
        let rng = StdRng::seed_from_u64(opts.seed);
        Annealer { opts, rng }
    }

    /// Runs the full anneal: warm-up probe → Lam-scheduled Metropolis →
    /// zero-temperature quench. Returns the best state visited.
    pub fn run<P: AnnealProblem>(&mut self, problem: &mut P) -> AnnealResult<P::State> {
        match self.run_controlled(problem, None, 0, |_, _| Directive::Continue) {
            ControlledOutcome::Complete(r) => r,
            ControlledOutcome::Interrupted(_) => {
                unreachable!("no hook ever issued Stop")
            }
        }
    }

    /// Runs the anneal under external control: every `checkpoint_every`
    /// proposals the engine cuts an [`AnnealCheckpoint`] and hands it to
    /// `hook` together with the problem (so the problem can snapshot its
    /// own state at the same instant). A [`Directive::Stop`] ends the
    /// run immediately; passing the returned checkpoint back as `resume`
    /// later continues it bit-identically, skipping the warm-up probe.
    ///
    /// With `checkpoint_every == 0` the hook is never called and the run
    /// is exactly [`Annealer::run`].
    pub fn run_controlled<P: AnnealProblem>(
        &mut self,
        problem: &mut P,
        resume: Option<AnnealCheckpoint<P::State>>,
        checkpoint_every: usize,
        mut hook: impl FnMut(&mut P, &AnnealCheckpoint<P::State>) -> Directive,
    ) -> ControlledOutcome<P::State> {
        let mut stats;
        let mut state;
        let mut cost;
        let mut best_state;
        let mut best_cost;
        let mut trace;
        let mut schedule;
        let mut attempted;
        let mut accepted_count;
        let mut since_improvement;
        let phase;

        match resume {
            Some(ck) => {
                // Continue exactly where the checkpoint was cut; the
                // warm-up probe already happened in the original run.
                self.rng = StdRng::from_state(ck.rng);
                stats = MoveStats::from_snapshot(ck.stats);
                schedule = LamSchedule::from_snapshot(ck.schedule);
                state = ck.state;
                cost = ck.cost;
                best_state = ck.best_state;
                best_cost = ck.best_cost;
                trace = ck.trace;
                attempted = ck.attempted;
                accepted_count = ck.accepted;
                since_improvement = ck.since_improvement;
                phase = ck.phase;
            }
            None => {
                stats = MoveStats::new(problem.move_classes());
                state = problem.initial_state();
                cost = problem.cost(&state);
                best_state = state.clone();
                best_cost = cost;
                trace = Trace::new(problem.telemetry_names());

                // Warm-up probe: sample deltas to set T₀.
                let mut deltas = Vec::with_capacity(WARMUP_MOVES);
                for _ in 0..WARMUP_MOVES {
                    let class = stats.pick(&mut self.rng);
                    if let Some((cand, dirty)) =
                        problem.propose_dirty(&state, class, 1.0, &mut self.rng)
                    {
                        let c = problem.cost_moved(&cand, &dirty);
                        deltas.push(c - cost);
                        // Drift through the probe (keeps it away from a
                        // single point) but only downhill, so T₀
                        // reflects the start.
                        if c < cost {
                            state = cand;
                            cost = c;
                            if c < best_cost {
                                best_cost = c;
                                best_state = state.clone();
                            }
                        }
                    }
                }
                let t0 = initial_temperature(&deltas, CHI0);
                schedule = LamSchedule::new(t0, self.opts.moves_budget);
                attempted = 0usize;
                accepted_count = 0usize;
                since_improvement = 0usize;
                phase = Phase::Main;
            }
        }

        macro_rules! cut_checkpoint {
            ($phase:expr) => {
                AnnealCheckpoint {
                    phase: $phase,
                    rng: self.rng.state(),
                    stats: stats.snapshot(),
                    schedule: schedule.snapshot(),
                    state: state.clone(),
                    cost,
                    best_state: best_state.clone(),
                    best_cost,
                    attempted,
                    accepted: accepted_count,
                    since_improvement,
                    trace: trace.clone(),
                }
            };
        }

        // Main Lam-scheduled phase.
        if phase == Phase::Main {
            while !schedule.exhausted() {
                let class = stats.pick(&mut self.rng);
                let scale = stats.scale(class);
                attempted += 1;
                let proposal = problem.propose_dirty(&state, class, scale, &mut self.rng);
                let accepted = match proposal {
                    None => {
                        stats.record(class, false, 0.0);
                        schedule.record(false);
                        false
                    }
                    Some((cand, dirty)) => {
                        let cand_cost = problem.cost_moved(&cand, &dirty);
                        let delta = cand_cost - cost;
                        let t = schedule.temperature();
                        let take = delta <= 0.0
                            || (t > 0.0 && self.rng.random::<f64>() < (-delta / t).exp());
                        stats.record(class, take, delta);
                        schedule.record(take);
                        if take {
                            state = cand;
                            cost = cand_cost;
                            accepted_count += 1;
                            if cost < best_cost {
                                best_cost = cost;
                                best_state = state.clone();
                            }
                        }
                        take
                    }
                };
                let _ = accepted;
                if attempted.is_multiple_of(REFRESH_EVERY) {
                    cost = problem.cost(&state);
                    best_cost = problem.cost(&best_state);
                    if cost < best_cost {
                        best_cost = cost;
                        best_state = state.clone();
                    }
                }
                if self.opts.trace_every > 0 && attempted.is_multiple_of(self.opts.trace_every) {
                    trace.points.push(TracePoint {
                        move_index: attempted,
                        cost,
                        best_cost,
                        temperature: schedule.temperature(),
                        acceptance: schedule.acceptance(),
                        telemetry: problem.telemetry(&state),
                    });
                }
                if checkpoint_every > 0 && attempted.is_multiple_of(checkpoint_every) {
                    let ck = cut_checkpoint!(Phase::Main);
                    if hook(problem, &ck) == Directive::Stop {
                        return ControlledOutcome::Interrupted(Box::new(ck));
                    }
                }
            }

            // Quench entry: greedy descent starts from the best state
            // found, with the cached costs re-evaluated so a drifting
            // cost function cannot leave the quench comparing against a
            // stale number.
            state = best_state.clone();
            cost = problem.cost(&state);
            best_cost = cost;
            since_improvement = 0;
        }

        // Quench phase.
        while since_improvement < self.opts.quench_patience {
            if problem.frozen(&state) {
                break;
            }
            let class = stats.pick(&mut self.rng);
            let scale = stats.scale(class);
            attempted += 1;
            since_improvement += 1;
            if let Some((cand, dirty)) = problem.propose_dirty(&state, class, scale, &mut self.rng)
            {
                let cand_cost = problem.cost_moved(&cand, &dirty);
                let delta = cand_cost - cost;
                let take = delta < 0.0;
                stats.record(class, take, delta);
                if take {
                    state = cand;
                    cost = cand_cost;
                    accepted_count += 1;
                    since_improvement = 0;
                    if cost < best_cost {
                        best_cost = cost;
                        best_state = state.clone();
                    }
                }
            }
            if self.opts.trace_every > 0 && attempted.is_multiple_of(self.opts.trace_every) {
                trace.points.push(TracePoint {
                    move_index: attempted,
                    cost,
                    best_cost,
                    temperature: 0.0,
                    acceptance: 0.0,
                    telemetry: problem.telemetry(&state),
                });
            }
            if checkpoint_every > 0 && attempted.is_multiple_of(checkpoint_every) {
                let ck = cut_checkpoint!(Phase::Quench);
                if hook(problem, &ck) == Directive::Stop {
                    return ControlledOutcome::Interrupted(Box::new(ck));
                }
            }
        }

        ControlledOutcome::Complete(AnnealResult {
            final_cost: cost,
            best_state,
            best_cost,
            attempted,
            accepted: accepted_count,
            trace,
            class_usage: stats
                .classes()
                .iter()
                .map(|c| (c.total_attempts, c.total_accepts))
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shifted sphere: unique minimum at (1.5, −2.5, 0.5, …).
    struct Sphere {
        dim: usize,
    }

    impl AnnealProblem for Sphere {
        type State = Vec<f64>;
        fn initial_state(&mut self) -> Vec<f64> {
            vec![5.0; self.dim]
        }
        fn cost(&mut self, x: &Vec<f64>) -> f64 {
            x.iter()
                .enumerate()
                .map(|(i, &v)| {
                    let target = [1.5, -2.5, 0.5][i % 3];
                    (v - target) * (v - target)
                })
                .sum()
        }
        fn move_classes(&self) -> usize {
            2
        }
        fn propose(
            &mut self,
            x: &Vec<f64>,
            class: usize,
            scale: f64,
            rng: &mut dyn Rng,
        ) -> Option<Vec<f64>> {
            let mut y = x.clone();
            let r = |rng: &mut dyn Rng| rng.next_u64() as f64 / u64::MAX as f64 - 0.5;
            match class {
                0 => {
                    let i = (rng.next_u64() as usize) % self.dim;
                    y[i] += 10.0 * scale * r(rng);
                }
                _ => {
                    for v in y.iter_mut() {
                        *v += 4.0 * scale * r(rng);
                    }
                }
            }
            Some(y)
        }
    }

    /// Rastrigin-style multimodal in 2-D: global minimum 0 at origin,
    /// many local minima on the integer lattice.
    struct Rastrigin;

    impl AnnealProblem for Rastrigin {
        type State = (f64, f64);
        fn initial_state(&mut self) -> (f64, f64) {
            (4.3, -3.7) // deliberately in a far local basin
        }
        fn cost(&mut self, &(x, y): &(f64, f64)) -> f64 {
            20.0 + x * x - 10.0 * (2.0 * std::f64::consts::PI * x).cos() + y * y
                - 10.0 * (2.0 * std::f64::consts::PI * y).cos()
        }
        fn move_classes(&self) -> usize {
            1
        }
        fn propose(
            &mut self,
            &(x, y): &(f64, f64),
            _class: usize,
            scale: f64,
            rng: &mut dyn Rng,
        ) -> Option<(f64, f64)> {
            let r = |rng: &mut dyn Rng| rng.next_u64() as f64 / u64::MAX as f64 - 0.5;
            Some((x + 10.0 * scale * r(rng), y + 10.0 * scale * r(rng)))
        }
        fn telemetry_names(&self) -> Vec<String> {
            vec!["radius".into()]
        }
        fn telemetry(&mut self, &(x, y): &(f64, f64)) -> Vec<f64> {
            vec![x.hypot(y)]
        }
    }

    #[test]
    fn sphere_converges_tightly() {
        let mut a = Annealer::new(AnnealOptions {
            moves_budget: 30_000,
            seed: 42,
            ..AnnealOptions::default()
        });
        let res = a.run(&mut Sphere { dim: 6 });
        assert!(res.best_cost < 1e-3, "best = {}", res.best_cost);
        assert!((res.best_state[0] - 1.5).abs() < 0.05);
        assert!((res.best_state[1] + 2.5).abs() < 0.05);
    }

    #[test]
    fn rastrigin_escapes_local_minima() {
        // A greedy optimizer started at (4.3, −3.7) stays near cost ≈ 30;
        // the annealer must find the global basin.
        let mut a = Annealer::new(AnnealOptions {
            moves_budget: 60_000,
            seed: 7,
            ..AnnealOptions::default()
        });
        let res = a.run(&mut Rastrigin);
        assert!(
            res.best_cost < 1.0,
            "should reach the global basin, got {}",
            res.best_cost
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut a = Annealer::new(AnnealOptions {
                moves_budget: 5_000,
                seed,
                ..AnnealOptions::default()
            });
            a.run(&mut Sphere { dim: 3 }).best_cost
        };
        assert_eq!(run(9).to_bits(), run(9).to_bits());
        assert_ne!(run(9).to_bits(), run(10).to_bits());
    }

    #[test]
    fn trace_is_sampled() {
        let mut a = Annealer::new(AnnealOptions {
            moves_budget: 5_000,
            seed: 3,
            trace_every: 100,
            ..AnnealOptions::default()
        });
        let res = a.run(&mut Rastrigin);
        assert!(res.trace.points.len() >= 50);
        assert_eq!(res.trace.names, vec!["radius".to_string()]);
        // Telemetry series exists and ends near the origin.
        let series = res.trace.series("radius").unwrap();
        assert!(series.last().unwrap().1 < 1.0);
        // Cost stored in points decreases overall.
        let first = res.trace.points.first().unwrap().cost;
        let last = res.trace.points.last().unwrap().cost;
        assert!(last <= first);
    }

    #[test]
    fn both_classes_used() {
        let mut a = Annealer::new(AnnealOptions {
            moves_budget: 10_000,
            seed: 5,
            ..AnnealOptions::default()
        });
        let res = a.run(&mut Sphere { dim: 4 });
        assert_eq!(res.class_usage.len(), 2);
        assert!(res.class_usage[0].0 > 100);
        assert!(res.class_usage[1].0 > 100);
    }

    /// A problem whose `frozen` hook fires immediately in quench.
    struct FreezeFast(Sphere);
    impl AnnealProblem for FreezeFast {
        type State = Vec<f64>;
        fn initial_state(&mut self) -> Vec<f64> {
            self.0.initial_state()
        }
        fn cost(&mut self, s: &Vec<f64>) -> f64 {
            self.0.cost(s)
        }
        fn move_classes(&self) -> usize {
            self.0.move_classes()
        }
        fn propose(
            &mut self,
            s: &Vec<f64>,
            c: usize,
            sc: f64,
            rng: &mut dyn Rng,
        ) -> Option<Vec<f64>> {
            self.0.propose(s, c, sc, rng)
        }
        fn frozen(&mut self, _s: &Vec<f64>) -> bool {
            true
        }
    }

    #[test]
    fn acceptance_tracks_lam_target_midrun() {
        // On a smooth problem the schedule's control loop must pull the
        // measured acceptance toward the 0.44 plateau through the
        // middle of the run.
        struct Probe {
            inner: Sphere,
        }
        impl AnnealProblem for Probe {
            type State = Vec<f64>;
            fn initial_state(&mut self) -> Vec<f64> {
                self.inner.initial_state()
            }
            fn cost(&mut self, s: &Vec<f64>) -> f64 {
                self.inner.cost(s)
            }
            fn move_classes(&self) -> usize {
                self.inner.move_classes()
            }
            fn propose(
                &mut self,
                s: &Vec<f64>,
                c: usize,
                sc: f64,
                rng: &mut dyn Rng,
            ) -> Option<Vec<f64>> {
                self.inner.propose(s, c, sc, rng)
            }
            fn telemetry_names(&self) -> Vec<String> {
                vec!["dummy".into()]
            }
            fn telemetry(&mut self, _s: &Vec<f64>) -> Vec<f64> {
                vec![0.0]
            }
        }
        let mut a = Annealer::new(AnnealOptions {
            moves_budget: 40_000,
            seed: 13,
            trace_every: 500,
            ..AnnealOptions::default()
        });
        let mut p = Probe {
            inner: Sphere { dim: 4 },
        };
        let res = a.run(&mut p);
        // Mid-run points (30–60% progress) should hover near the 0.44
        // plateau.
        let mid: Vec<f64> = res
            .trace
            .points
            .iter()
            .filter(|pt| {
                let prog = pt.move_index as f64 / 40_000.0;
                (0.3..0.6).contains(&prog)
            })
            .map(|pt| pt.acceptance)
            .collect();
        assert!(!mid.is_empty());
        let mean = mid.iter().sum::<f64>() / mid.len() as f64;
        assert!(
            (0.25..0.65).contains(&mean),
            "mid-run acceptance should track the Lam plateau: {mean:.3}"
        );
    }

    #[test]
    fn controlled_run_without_stop_matches_plain_run() {
        let opts = AnnealOptions {
            moves_budget: 6_000,
            seed: 17,
            trace_every: 200,
            ..AnnealOptions::default()
        };
        let plain = Annealer::new(opts.clone()).run(&mut Rastrigin);
        let mut hooks = 0usize;
        let controlled =
            match Annealer::new(opts).run_controlled(&mut Rastrigin, None, 250, |_, ck| {
                hooks += 1;
                assert!(ck.attempted.is_multiple_of(250));
                Directive::Continue
            }) {
                ControlledOutcome::Complete(r) => r,
                ControlledOutcome::Interrupted(_) => unreachable!(),
            };
        assert!(hooks > 10, "hook fired {hooks} times");
        assert_eq!(plain.best_cost.to_bits(), controlled.best_cost.to_bits());
        assert_eq!(plain.final_cost.to_bits(), controlled.final_cost.to_bits());
        assert_eq!(plain.attempted, controlled.attempted);
        assert_eq!(plain.accepted, controlled.accepted);
        assert_eq!(plain.trace.points, controlled.trace.points);
    }

    #[test]
    fn interrupt_and_resume_is_bit_identical() {
        let opts = AnnealOptions {
            moves_budget: 6_000,
            seed: 21,
            trace_every: 300,
            quench_patience: 1_500,
        };
        let full = Annealer::new(opts.clone()).run(&mut Rastrigin);
        // Interrupt in the main phase (early, late) and in the quench.
        for stop_at in [400usize, 5_200, 6_300] {
            let outcome =
                Annealer::new(opts.clone()).run_controlled(&mut Rastrigin, None, 100, |_, ck| {
                    if ck.attempted >= stop_at {
                        Directive::Stop
                    } else {
                        Directive::Continue
                    }
                });
            let ck = match outcome {
                ControlledOutcome::Interrupted(ck) => *ck,
                // The quench may freeze out before a late stop point —
                // then there is nothing to resume.
                ControlledOutcome::Complete(_) => continue,
            };
            if stop_at > 6_000 {
                assert_eq!(ck.phase, Phase::Quench);
            } else {
                assert_eq!(ck.phase, Phase::Main);
            }
            let resumed = match Annealer::new(opts.clone()).run_controlled(
                &mut Rastrigin,
                Some(ck),
                0,
                |_, _| Directive::Continue,
            ) {
                ControlledOutcome::Complete(r) => r,
                ControlledOutcome::Interrupted(_) => unreachable!(),
            };
            assert_eq!(full.best_cost.to_bits(), resumed.best_cost.to_bits());
            assert_eq!(full.final_cost.to_bits(), resumed.final_cost.to_bits());
            assert_eq!(full.best_state.0.to_bits(), resumed.best_state.0.to_bits());
            assert_eq!(full.best_state.1.to_bits(), resumed.best_state.1.to_bits());
            assert_eq!(full.attempted, resumed.attempted);
            assert_eq!(full.accepted, resumed.accepted);
            assert_eq!(full.trace.points, resumed.trace.points);
            assert_eq!(full.class_usage, resumed.class_usage);
        }
    }

    #[test]
    fn frozen_hook_ends_quench() {
        let budget = 2_000;
        let mut a = Annealer::new(AnnealOptions {
            moves_budget: budget,
            seed: 5,
            quench_patience: 1_000_000, // would run ~forever without the hook
            ..AnnealOptions::default()
        });
        let res = a.run(&mut FreezeFast(Sphere { dim: 2 }));
        assert!(res.attempted <= budget + 1);
    }
}
