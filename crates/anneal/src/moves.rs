//! Hustin-style adaptive move-class selection.
//!
//! The annealer must decide, at every step, which *kind* of move to
//! make: perturb one variable, perturb several, take a Newton–Raphson
//! jump, step a discrete grid… Hustin's method (from the TIM placer,
//! adopted by OBLX) keeps per-class statistics of how much accepted
//! cost change each class produces per attempt, and samples classes in
//! proportion to that measured *quality* — so gradient moves dominate
//! exactly when they help, with no hand-tuned mix ratios.

use rand::Rng;

/// What a proposed move touched, relative to the state it was derived
/// from — the contract between [`crate::AnnealProblem::propose_dirty`]
/// and [`crate::AnnealProblem::cost_moved`].
///
/// The split into *primary* and *auxiliary* indices is generic: the
/// problem defines what each group means (for OBLX's state they would
/// be the user variables and the relaxed-dc node voltages; OBLX itself
/// declares no sets, its evaluator diffs states bitwise). A move must
/// declare a **superset** of what it actually changed; declaring too
/// much only costs speed, declaring too little is a correctness bug
/// (incremental evaluators may reuse stale partial results).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirtySet {
    /// Conservative flag: everything may have changed. When set, the
    /// index lists are irrelevant.
    pub all: bool,
    /// Indices of changed primary variables.
    pub primary: Vec<usize>,
    /// Indices of changed auxiliary variables.
    pub aux: Vec<usize>,
}

impl DirtySet {
    /// The conservative set: everything may have changed.
    pub fn everything() -> Self {
        DirtySet {
            all: true,
            primary: Vec::new(),
            aux: Vec::new(),
        }
    }

    /// A precise set from primary and auxiliary index lists.
    pub fn of(primary: Vec<usize>, aux: Vec<usize>) -> Self {
        DirtySet {
            all: false,
            primary,
            aux,
        }
    }

    /// `true` when index `i` is declared dirty in the primary group.
    pub fn primary_dirty(&self, i: usize) -> bool {
        self.all || self.primary.contains(&i)
    }

    /// `true` when index `i` is declared dirty in the auxiliary group.
    pub fn aux_dirty(&self, i: usize) -> bool {
        self.all || self.aux.contains(&i)
    }
}

/// Statistics for one move class.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClassStats {
    /// Attempts in the current window.
    pub attempts: usize,
    /// Acceptances in the current window.
    pub accepts: usize,
    /// Σ|ΔC| over accepted moves in the window.
    pub accepted_delta: f64,
    /// Current selection probability.
    pub probability: f64,
    /// Current move-range scale in `(0, 1]`.
    pub scale: f64,
    /// Lifetime attempts (for reporting).
    pub total_attempts: usize,
    /// Lifetime acceptances (for reporting).
    pub total_accepts: usize,
}

/// Adaptive move-class selector.
#[derive(Debug, Clone)]
pub struct MoveStats {
    classes: Vec<ClassStats>,
    window: usize,
    seen: usize,
    p_min: f64,
}

/// A plain-data image of a [`MoveStats`], for checkpoint/restore. All
/// fields are public so external serializers can write any format; the
/// restore path ([`MoveStats::from_snapshot`]) reproduces the selector
/// bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct MoveStatsSnapshot {
    /// Per-class statistics, including the in-window counters.
    pub classes: Vec<ClassStats>,
    /// Re-balance window length (attempts between rebalances).
    pub window: usize,
    /// Attempts recorded since the last rebalance.
    pub seen: usize,
    /// Probability floor applied at rebalance.
    pub p_min: f64,
}

impl MoveStats {
    /// Creates a selector over `n` classes with uniform initial
    /// probabilities and full move range.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one move class");
        let p = 1.0 / n as f64;
        MoveStats {
            classes: (0..n)
                .map(|_| ClassStats {
                    probability: p,
                    scale: 1.0,
                    ..ClassStats::default()
                })
                .collect(),
            window: 100 * n,
            seen: 0,
            // A 2% floor keeps every class alive enough to re-prove
            // itself when the cost landscape shifts (e.g. Newton moves
            // become decisive once the KCL weights ramp up late in an
            // OBLX run).
            p_min: 0.02,
        }
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// `true` when there are no classes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Per-class statistics.
    pub fn classes(&self) -> &[ClassStats] {
        &self.classes
    }

    /// Captures the full selector state for checkpointing.
    pub fn snapshot(&self) -> MoveStatsSnapshot {
        MoveStatsSnapshot {
            classes: self.classes.clone(),
            window: self.window,
            seen: self.seen,
            p_min: self.p_min,
        }
    }

    /// Rebuilds a selector from a [`MoveStats::snapshot`], continuing
    /// the exact adaptive trajectory.
    ///
    /// # Panics
    ///
    /// Panics when the snapshot holds no classes (such a selector could
    /// never have existed).
    pub fn from_snapshot(s: MoveStatsSnapshot) -> Self {
        assert!(!s.classes.is_empty(), "snapshot must hold move classes");
        MoveStats {
            classes: s.classes,
            window: s.window,
            seen: s.seen,
            p_min: s.p_min,
        }
    }

    /// Samples a move class according to the current probabilities.
    pub fn pick(&self, rng: &mut dyn Rng) -> usize {
        let r = (rng.next_u64() as f64 / u64::MAX as f64).min(1.0 - f64::EPSILON);
        let mut acc = 0.0;
        for (i, c) in self.classes.iter().enumerate() {
            acc += c.probability;
            if r < acc {
                return i;
            }
        }
        self.classes.len() - 1
    }

    /// The move-range scale for a class.
    pub fn scale(&self, class: usize) -> f64 {
        self.classes[class].scale
    }

    /// Records an attempt outcome; periodically re-balances
    /// probabilities (Hustin quality) and per-class ranges.
    pub fn record(&mut self, class: usize, accepted: bool, delta_cost: f64) {
        oblx_telemetry::move_result(class, accepted);
        let c = &mut self.classes[class];
        c.attempts += 1;
        c.total_attempts += 1;
        if accepted {
            c.accepts += 1;
            c.total_accepts += 1;
            c.accepted_delta += delta_cost.abs();
        }
        self.seen += 1;
        if self.seen >= self.window {
            self.rebalance();
        }
    }

    fn rebalance(&mut self) {
        self.seen = 0;
        // Quality: accepted |ΔC| per attempt. Classes that move the
        // cost (in either direction, while being accepted) are the ones
        // teaching the annealer something.
        let qualities: Vec<f64> = self
            .classes
            .iter()
            .map(|c| {
                if c.attempts == 0 {
                    0.0
                } else {
                    c.accepted_delta / c.attempts as f64
                }
            })
            .collect();
        let total: f64 = qualities.iter().sum();
        let n = self.classes.len() as f64;
        for (c, q) in self.classes.iter_mut().zip(qualities.iter()) {
            let p_raw = if total > 0.0 { q / total } else { 1.0 / n };
            c.probability = p_raw.max(self.p_min);
            // Range adaptation: aim for a mid acceptance ratio.
            if c.attempts > 0 {
                let acc = c.accepts as f64 / c.attempts as f64;
                if acc > 0.6 {
                    c.scale = (c.scale * 1.25).min(1.0);
                } else if acc < 0.25 {
                    c.scale = (c.scale * 0.8).max(1e-4);
                }
            }
            c.attempts = 0;
            c.accepts = 0;
            c.accepted_delta = 0.0;
        }
        // Renormalize after flooring.
        let sum: f64 = self.classes.iter().map(|c| c.probability).sum();
        for c in &mut self.classes {
            c.probability /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_at_start() {
        let ms = MoveStats::new(4);
        for c in ms.classes() {
            assert!((c.probability - 0.25).abs() < 1e-12);
            assert_eq!(c.scale, 1.0);
        }
    }

    #[test]
    fn pick_respects_probabilities() {
        let mut ms = MoveStats::new(2);
        // Make class 0 overwhelmingly productive.
        for _ in 0..ms.window {
            ms.record(0, true, 10.0);
        }
        let mut rng = StdRng::seed_from_u64(1);
        let picks0 = (0..2_000).filter(|_| ms.pick(&mut rng) == 0).count();
        assert!(picks0 > 1_800, "class 0 should dominate: {picks0}");
        // But class 1 keeps a floor probability.
        assert!(ms.classes()[1].probability > 0.0);
    }

    #[test]
    fn useless_class_decays_but_survives() {
        let mut ms = MoveStats::new(3);
        for i in 0..3 * ms.window {
            let class = i % 3;
            // Class 2 is never accepted.
            let accepted = class != 2;
            ms.record(class, accepted, 1.0);
        }
        assert!(ms.classes()[2].probability < 0.05);
        assert!(ms.classes()[2].probability >= ms.p_min / 2.0);
    }

    #[test]
    fn range_adapts_to_acceptance() {
        let mut ms = MoveStats::new(1);
        for _ in 0..ms.window {
            ms.record(0, true, 1.0); // 100% acceptance ⇒ widen
        }
        assert!(ms.scale(0) >= 1.0 - 1e-12); // clamped at 1.0
        for _ in 0..10 * ms.window {
            ms.record(0, false, 0.0); // 0% acceptance ⇒ shrink
        }
        assert!(ms.scale(0) < 0.2, "scale = {}", ms.scale(0));
    }

    #[test]
    fn probabilities_always_normalized() {
        let mut ms = MoveStats::new(5);
        let mut rng = StdRng::seed_from_u64(2);
        for i in 0..10 * ms.window {
            let cls = ms.pick(&mut rng);
            ms.record(cls, i % 3 == 0, (i % 7) as f64);
        }
        let sum: f64 = ms.classes().iter().map(|c| c.probability).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
}
