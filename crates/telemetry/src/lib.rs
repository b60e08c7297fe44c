//! Process-wide synthesis telemetry: counters, histograms, gauges, and
//! lightweight tracing spans — with **zero external dependencies**,
//! matching the workspace's vendored-crate policy.
//!
//! OBLX evaluates thousands of candidate circuits per second; a degenerate
//! AWE fit or an ill-conditioned LU factorization that fails *silently*
//! inside that loop is invisible from the outside. This crate gives every
//! layer of the stack a place to record what actually happened:
//!
//! * per-move-class attempt/accept counts (annealer),
//! * cost-term breakdowns `C^obj / C^perf / C^dev / C^dc` (evaluator),
//! * AWE fit orders, fallbacks, and instability counts (AWE engine),
//! * LU `pivot_ratio` conditioning histograms (linear solver),
//! * evaluation-latency histograms (tracing spans),
//! * per-worker busy/idle utilization (`oblxd` pool).
//!
//! # Hot-path cost
//!
//! All recording is gated behind a single process-wide [`AtomicBool`]
//! ([`enabled`]). When the flag is off — the default — every hook
//! reduces to one relaxed atomic load, so instrumented hot paths (the
//! incremental cost evaluator, `Lu::factor`) pay well under the 5%
//! overhead budget enforced by the `telemetry_overhead` bench. When the
//! flag is on, recording uses relaxed atomics only: telemetry is purely
//! observational and can never perturb the determinism contract
//! (bit-identical checkpoint resume, thread invariance).
//!
//! # Export
//!
//! [`Snapshot::capture`] freezes the current registry into plain data;
//! [`Snapshot::to_json`] serializes it as a single-line JSON object for
//! JSONL logs (the `oblxd` pool appends these alongside its event logs),
//! and [`Snapshot::render`] produces the human-readable report behind
//! `astrx profile` and `oblxd status --metrics`.
//!
//! # Examples
//!
//! ```
//! oblx_telemetry::reset();
//! oblx_telemetry::set_enabled(true);
//! oblx_telemetry::move_result(0, true);
//! oblx_telemetry::move_result(0, false);
//! let snap = oblx_telemetry::Snapshot::capture();
//! assert_eq!(snap.moves[0].attempts, 2);
//! assert_eq!(snap.moves[0].accepts, 1);
//! oblx_telemetry::set_enabled(false);
//! ```

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

/// Maximum move classes tracked; higher class indices are clamped.
pub const MAX_CLASSES: usize = 16;
/// Maximum worker slots tracked; higher worker indices are clamped.
pub const MAX_WORKERS: usize = 64;
/// Power-of-two buckets per histogram (bucket `i` holds values in
/// `[2^i, 2^(i+1))`).
pub const HIST_BUCKETS: usize = 64;
/// Maximum AWE fit order tracked in the order histogram.
pub const MAX_FIT_ORDER: usize = 15;

/// A pivot ratio above this is counted as an ill-conditioning warning.
pub const PIVOT_RATIO_WARN: f64 = 1e12;

// `AtomicU64` is not `Copy`; a const item makes `[ZERO; N]` legal.
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Named monotonic counters. The discriminant is the storage index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// AWE moment fits attempted (`fit_model` calls): model analyses
    /// only, with each shifted re-expansion's fit counted too.
    AweFit,
    /// AWE fits that fell back to the forced one-pole model.
    AweForcedOnePole,
    /// AWE fits that degenerated to a constant (pole-free) model.
    AweConstant,
    /// AWE analyses rejected with `AweError::NoModel`.
    AweNoModel,
    /// Reduced models flagged unstable (RHP or dropped poles).
    AweUnstable,
    /// Non-finite poles dropped during model sanitization.
    AweDroppedPoles,
    /// Shifted re-expansions applied for far-crossing accuracy.
    AweShiftApplied,
    /// Shifted re-expansions rejected by the arbitration check.
    AweShiftRejected,
    /// AWE analyses that the goals read only through `dc_gain`/`dcv`,
    /// answered from the exact `µ0` with no fit.
    AweDcOnly,
    /// Successful LU factorizations observed. The registry cell counts
    /// only those whose pivot ratio the pivot histogram cannot bin;
    /// snapshots add the histogram's samples, so a record costs one
    /// relaxed add.
    LuFactor,
    /// LU factorizations whose pivot ratio exceeded [`PIVOT_RATIO_WARN`].
    LuIllConditioned,
    /// Cost evaluations on the cold (non-plan) path.
    EvalCold,
    /// Plan evaluations that rebuilt every jig.
    EvalFull,
    /// Plan evaluations that reran only dirty jigs.
    EvalIncremental,
    /// Plan evaluations served entirely from slot caches.
    EvalCached,
    /// Evaluations that ended in the failure-cost cliff.
    EvalFailure,
    /// Corrupt spool entries quarantined by the worker pool.
    JobCorrupt,
    /// Seed tasks that panicked and were contained by the pool.
    SeedPanic,
    /// Structural nonzeros handed to sparse symbolic analysis (summed).
    SparseNnz,
    /// Factor nonzeros after fill-in, as computed by symbolic analysis
    /// (summed; compare against [`Counter::SparseNnz`] for fill ratio).
    SparseFill,
    /// Sparse numeric refactorizations performed.
    SparseRefactor,
    /// HTTP requests accepted for handling by the API edge.
    HttpRequest,
    /// HTTP requests answered with a 4xx status (client errors).
    Http4xx,
    /// HTTP requests answered with a 5xx status (server errors).
    Http5xx,
    /// HTTP requests rejected 429 by the per-client token bucket.
    HttpQuotaRejected,
    /// Connections shed 429 because the admission queue was full.
    HttpAdmissionRejected,
    /// Jobs that reached the `cancelled` terminal state.
    JobCancelled,
    /// Leases written at claim time (jobs and seeds).
    LeaseAcquired,
    /// Leases released after normal completion.
    LeaseReleased,
    /// Leases of dead hosts taken over by a surviving host.
    LeaseReaped,
    /// Fence checks that found the lease gone or someone else's — the
    /// holder was fenced out and abandoned its work item.
    LeaseLost,
    /// Seed tasks claimed from a job sharded by a different host.
    SeedStolen,
    /// Number of counters (array size), not a real counter.
    Count,
}

const COUNTER_NAMES: [&str; Counter::Count as usize] = [
    "awe_fit",
    "awe_forced_one_pole",
    "awe_constant",
    "awe_no_model",
    "awe_unstable",
    "awe_dropped_poles",
    "awe_shift_applied",
    "awe_shift_rejected",
    "awe_dc_only",
    "lu_factor",
    "lu_ill_conditioned",
    "eval_cold",
    "eval_full",
    "eval_incremental",
    "eval_cached",
    "eval_failure",
    "job_corrupt",
    "seed_panic",
    "sparse_nnz",
    "sparse_fill",
    "sparse_refactor",
    "http_request",
    "http_4xx",
    "http_5xx",
    "http_quota_rejected",
    "http_admission_rejected",
    "job_cancelled",
    "lease_acquired",
    "lease_released",
    "lease_reaped",
    "lease_lost",
    "seed_stolen",
];

static COUNTERS: [AtomicU64; Counter::Count as usize] = [ZERO; Counter::Count as usize];

/// Tracing-span kinds, each backed by a latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum SpanKind {
    /// One full cost evaluation (plan or cold path).
    CostEval,
    /// One AWE transfer-function analysis.
    AweAnalyze,
    /// One sparse symbolic factorization (fill-in pattern + pivot order).
    SparseSymbolic,
    /// One sparse numeric refactorization over a fixed pattern.
    SparseRefactor,
    /// One HTTP request handled by the API edge (parse → response).
    HttpRequest,
    /// One relaxed-dc Newton step through the bias plan (patch,
    /// linearize, dense LU of the free-node block).
    NewtonStep,
    /// The base moment fit of one AWE analysis (nested in
    /// [`SpanKind::AweAnalyze`]).
    AweBaseFit,
    /// One shifted re-expansion of an AWE analysis: refactor, adjoint
    /// chain and fit (nested in [`SpanKind::AweAnalyze`]).
    AweShift,
    /// Number of span kinds (array size), not a real span.
    Count,
}

const SPAN_NAMES: [&str; SpanKind::Count as usize] = [
    "cost_eval",
    "awe_analyze",
    "sparse_symbolic",
    "sparse_refactor",
    "http_request",
    "newton_step",
    "awe_base_fit",
    "awe_shift",
];

/// A power-of-two histogram. The sample count is the sum of the
/// buckets, so a record costs two relaxed adds, not three.
struct Hist {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

impl Hist {
    const fn new() -> Hist {
        Hist {
            buckets: [ZERO; HIST_BUCKETS],
            sum: AtomicU64::new(0),
        }
    }

    fn record(&self, value: u64) {
        self.record_bucket(value);
        self.sum.fetch_add(value, Relaxed);
    }

    /// Records `value` in its bucket only, for a histogram whose sum is
    /// never read (the pivot ratios).
    fn record_bucket(&self, value: u64) {
        let bucket = (64 - value.leading_zeros() as usize).min(HIST_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Relaxed);
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
        self.sum.store(0, Relaxed);
    }

    fn snapshot(&self) -> HistStats {
        let buckets: Vec<u64> = self.buckets.iter().map(|b| b.load(Relaxed)).collect();
        let count = buckets.iter().sum();
        let sum = self.sum.load(Relaxed);
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let target = (q * count as f64).ceil() as u64;
            let mut seen = 0u64;
            for (i, n) in buckets.iter().enumerate() {
                seen += n;
                if seen >= target {
                    // Geometric midpoint of [2^(i-1), 2^i).
                    return if i == 0 { 0 } else { 3u64 << (i - 1) >> 1 };
                }
            }
            0
        };
        HistStats {
            count,
            sum,
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
            buckets,
        }
    }
}

static SPAN_HISTS: [Hist; SpanKind::Count as usize] = [
    Hist::new(),
    Hist::new(),
    Hist::new(),
    Hist::new(),
    Hist::new(),
    Hist::new(),
    Hist::new(),
    Hist::new(),
];
static PIVOT_HIST: Hist = Hist::new();

static MOVE_ATTEMPTS: [AtomicU64; MAX_CLASSES] = [ZERO; MAX_CLASSES];
static MOVE_ACCEPTS: [AtomicU64; MAX_CLASSES] = [ZERO; MAX_CLASSES];
static FIT_ORDERS: [AtomicU64; MAX_FIT_ORDER + 1] = [ZERO; MAX_FIT_ORDER + 1];
/// Fits by the number of Padé orders they tried: base fits, then the
/// fits of shifted re-expansions.
static ORDERS_TRIED: [[AtomicU64; MAX_FIT_ORDER + 1]; 2] =
    [[ZERO; MAX_FIT_ORDER + 1], [ZERO; MAX_FIT_ORDER + 1]];

// Cost-term accumulators: c_obj, c_perf, c_dev, c_dc, total (f64 bits).
static COST_SUMS: [AtomicU64; 5] = [ZERO; 5];
static COST_SAMPLES: AtomicU64 = AtomicU64::new(0);

static WORKER_BUSY_NS: [AtomicU64; MAX_WORKERS] = [ZERO; MAX_WORKERS];
static WORKER_IDLE_NS: [AtomicU64; MAX_WORKERS] = [ZERO; MAX_WORKERS];
static WORKER_TASKS: [AtomicU64; MAX_WORKERS] = [ZERO; MAX_WORKERS];

static CLASS_NAMES: Mutex<Vec<String>> = Mutex::new(Vec::new());

fn fadd(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Relaxed);
    loop {
        let new = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, new, Relaxed, Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Whether hot-path recording is on. One relaxed load; callers should
/// check this before doing any non-trivial work (e.g. reading a clock).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Turns recording on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Clears every counter, histogram, and gauge (the enable flag is left
/// as-is). Intended for tests, benches, and per-run isolation.
pub fn reset() {
    for c in &COUNTERS {
        c.store(0, Relaxed);
    }
    for h in &SPAN_HISTS {
        h.reset();
    }
    PIVOT_HIST.reset();
    for a in MOVE_ATTEMPTS
        .iter()
        .chain(&MOVE_ACCEPTS)
        .chain(&FIT_ORDERS)
        .chain(ORDERS_TRIED.iter().flatten())
    {
        a.store(0, Relaxed);
    }
    for s in &COST_SUMS {
        s.store(0, Relaxed);
    }
    COST_SAMPLES.store(0, Relaxed);
    for w in WORKER_BUSY_NS
        .iter()
        .chain(&WORKER_IDLE_NS)
        .chain(&WORKER_TASKS)
    {
        w.store(0, Relaxed);
    }
}

/// Increments `counter` by one (no-op while disabled).
#[inline]
pub fn incr(counter: Counter) {
    if enabled() {
        COUNTERS[counter as usize].fetch_add(1, Relaxed);
    }
}

/// Adds `n` to `counter` (no-op while disabled).
#[inline]
pub fn add(counter: Counter, n: u64) {
    if enabled() {
        COUNTERS[counter as usize].fetch_add(n, Relaxed);
    }
}

/// Records one annealer move outcome for `class` (no-op while disabled).
#[inline]
pub fn move_result(class: usize, accepted: bool) {
    if enabled() {
        let i = class.min(MAX_CLASSES - 1);
        MOVE_ATTEMPTS[i].fetch_add(1, Relaxed);
        if accepted {
            MOVE_ACCEPTS[i].fetch_add(1, Relaxed);
        }
    }
}

/// Registers human-readable move-class names used by snapshots.
pub fn set_class_names(names: &[&str]) {
    if let Ok(mut lock) = CLASS_NAMES.lock() {
        *lock = names.iter().map(|s| (*s).to_string()).collect();
    }
}

/// Records one evaluated cost breakdown (no-op while disabled).
#[inline]
pub fn record_cost_terms(c_obj: f64, c_perf: f64, c_dev: f64, c_dc: f64) {
    if enabled() {
        // One ±inf sample (a graded-but-unbounded objective) would
        // poison every later mean; only finite breakdowns contribute.
        let total = c_obj + c_perf + c_dev + c_dc;
        if !total.is_finite() {
            return;
        }
        fadd(&COST_SUMS[0], c_obj);
        fadd(&COST_SUMS[1], c_perf);
        fadd(&COST_SUMS[2], c_dev);
        fadd(&COST_SUMS[3], c_dc);
        fadd(&COST_SUMS[4], total);
        COST_SAMPLES.fetch_add(1, Relaxed);
    }
}

/// Records a successful AWE fit of order `q` (no-op while disabled).
#[inline]
pub fn record_fit_order(q: usize) {
    if enabled() {
        FIT_ORDERS[q.min(MAX_FIT_ORDER)].fetch_add(1, Relaxed);
    }
}

/// Records that one AWE fit tried `tried` Padé orders (q = 1 …
/// `tried`), as a shifted re-expansion's fit or a base fit (no-op while
/// disabled). One relaxed add per fit.
#[inline]
pub fn record_orders_tried(shifted: bool, tried: usize) {
    if enabled() {
        ORDERS_TRIED[usize::from(shifted)][tried.min(MAX_FIT_ORDER)].fetch_add(1, Relaxed);
    }
}

/// Records an LU pivot ratio, flagging ill-conditioned factorizations
/// (no-op while disabled).
#[inline]
pub fn record_pivot_ratio(ratio: f64) {
    if enabled() {
        if ratio.is_finite() && ratio >= 1.0 {
            PIVOT_HIST.record_bucket(ratio as u64);
        } else {
            COUNTERS[Counter::LuFactor as usize].fetch_add(1, Relaxed);
        }
        // NaN counts as ill-conditioned: a pivot ratio that cannot even
        // be computed is the worst conditioning signal there is.
        if ratio >= PIVOT_RATIO_WARN || ratio.is_nan() {
            COUNTERS[Counter::LuIllConditioned as usize].fetch_add(1, Relaxed);
        }
    }
}

/// Adds busy/idle nanoseconds to `worker`'s utilization tally.
#[inline]
pub fn record_worker_time(worker: usize, busy_ns: u64, idle_ns: u64) {
    if enabled() {
        let i = worker.min(MAX_WORKERS - 1);
        WORKER_BUSY_NS[i].fetch_add(busy_ns, Relaxed);
        WORKER_IDLE_NS[i].fetch_add(idle_ns, Relaxed);
    }
}

/// Counts one finished seed task for `worker`.
#[inline]
pub fn record_worker_task(worker: usize) {
    if enabled() {
        WORKER_TASKS[worker.min(MAX_WORKERS - 1)].fetch_add(1, Relaxed);
    }
}

/// A live tracing span; records its elapsed time into the latency
/// histogram for `kind` when dropped. While telemetry is disabled the
/// span is inert and never reads the clock.
#[derive(Debug)]
pub struct Span {
    kind: SpanKind,
    start: Option<Instant>,
}

/// Opens a span of `kind`. Drop it to record.
#[inline]
pub fn span(kind: SpanKind) -> Span {
    Span {
        kind,
        start: enabled().then(Instant::now),
    }
}

impl Span {
    /// Opens a span of `kind` that starts when `self` did, for a span
    /// opened first thing inside another: it saves a clock read.
    #[inline]
    pub fn nested(&self, kind: SpanKind) -> Span {
        Span {
            kind,
            start: self.start,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            SPAN_HISTS[self.kind as usize].record(ns);
        }
    }
}

// ---------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------

/// Frozen histogram statistics. Quantiles are approximate (power-of-two
/// bucket midpoints).
#[derive(Debug, Clone, Default)]
pub struct HistStats {
    /// Samples recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Approximate 50th percentile.
    pub p50: u64,
    /// Approximate 90th percentile.
    pub p90: u64,
    /// Approximate 99th percentile.
    pub p99: u64,
    /// Raw bucket counts (`buckets[i]` covers `[2^(i-1), 2^i)`).
    pub buckets: Vec<u64>,
}

impl HistStats {
    /// Mean recorded value, or 0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One move class's frozen attempt/accept counts.
#[derive(Debug, Clone)]
pub struct MoveClassSnap {
    /// Registered class name (or `class<i>`).
    pub name: String,
    /// Moves proposed.
    pub attempts: u64,
    /// Moves accepted.
    pub accepts: u64,
}

impl MoveClassSnap {
    /// Accept fraction in `[0, 1]`, or 0 with no attempts.
    pub fn accept_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.accepts as f64 / self.attempts as f64
        }
    }
}

/// One worker slot's frozen utilization tally.
#[derive(Debug, Clone)]
pub struct WorkerSnap {
    /// Worker index.
    pub worker: usize,
    /// Nanoseconds spent running seed tasks.
    pub busy_ns: u64,
    /// Nanoseconds spent waiting for work.
    pub idle_ns: u64,
    /// Seed tasks completed.
    pub tasks: u64,
}

impl WorkerSnap {
    /// Busy fraction in `[0, 1]`, or 0 with no recorded time.
    pub fn utilization(&self) -> f64 {
        let total = self.busy_ns + self.idle_ns;
        if total == 0 {
            0.0
        } else {
            self.busy_ns as f64 / total as f64
        }
    }
}

/// A frozen copy of the whole registry, ready for export.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Per-move-class outcomes (only classes with attempts).
    pub moves: Vec<MoveClassSnap>,
    /// Named counters in declaration order (zeros included).
    pub counters: Vec<(&'static str, u64)>,
    /// Cost evaluations contributing to the term sums below.
    pub cost_samples: u64,
    /// Summed `[c_obj, c_perf, c_dev, c_dc, total]` over those samples.
    pub cost_sums: [f64; 5],
    /// Span latency histograms, by [`SpanKind`] name.
    pub spans: Vec<(&'static str, HistStats)>,
    /// AWE fit-order histogram (`fit_orders[q]` = fits of order `q`).
    pub fit_orders: Vec<u64>,
    /// Base AWE fits by the number of Padé orders they tried
    /// (`base_orders_tried[t]` = fits that tried q = 1 … `t`).
    pub base_orders_tried: Vec<u64>,
    /// The same for the fits of shifted re-expansions.
    pub shift_orders_tried: Vec<u64>,
    /// LU pivot-ratio histogram (its `sum` is not kept).
    pub pivot_ratio: HistStats,
    /// Per-worker utilization (only workers with activity).
    pub workers: Vec<WorkerSnap>,
}

impl Snapshot {
    /// Freezes the current registry. Relaxed loads only; concurrent
    /// writers may land between fields (snapshots are advisory).
    pub fn capture() -> Snapshot {
        let names = CLASS_NAMES.lock().map(|n| n.clone()).unwrap_or_default();
        let moves = (0..MAX_CLASSES)
            .filter_map(|i| {
                let attempts = MOVE_ATTEMPTS[i].load(Relaxed);
                if attempts == 0 {
                    return None;
                }
                Some(MoveClassSnap {
                    name: names.get(i).cloned().unwrap_or_else(|| format!("class{i}")),
                    attempts,
                    accepts: MOVE_ACCEPTS[i].load(Relaxed),
                })
            })
            .collect();
        let pivot_ratio = PIVOT_HIST.snapshot();
        let counters = COUNTER_NAMES
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let n = COUNTERS[i].load(Relaxed);
                if i == Counter::LuFactor as usize {
                    (*name, n + pivot_ratio.count)
                } else {
                    (*name, n)
                }
            })
            .collect();
        let spans = SPAN_NAMES
            .iter()
            .enumerate()
            .map(|(i, name)| (*name, SPAN_HISTS[i].snapshot()))
            .collect();
        let workers = (0..MAX_WORKERS)
            .filter_map(|i| {
                let busy_ns = WORKER_BUSY_NS[i].load(Relaxed);
                let idle_ns = WORKER_IDLE_NS[i].load(Relaxed);
                let tasks = WORKER_TASKS[i].load(Relaxed);
                if busy_ns == 0 && idle_ns == 0 && tasks == 0 {
                    return None;
                }
                Some(WorkerSnap {
                    worker: i,
                    busy_ns,
                    idle_ns,
                    tasks,
                })
            })
            .collect();
        Snapshot {
            moves,
            counters,
            cost_samples: COST_SAMPLES.load(Relaxed),
            cost_sums: [
                f64::from_bits(COST_SUMS[0].load(Relaxed)),
                f64::from_bits(COST_SUMS[1].load(Relaxed)),
                f64::from_bits(COST_SUMS[2].load(Relaxed)),
                f64::from_bits(COST_SUMS[3].load(Relaxed)),
                f64::from_bits(COST_SUMS[4].load(Relaxed)),
            ],
            spans,
            fit_orders: FIT_ORDERS.iter().map(|a| a.load(Relaxed)).collect(),
            base_orders_tried: ORDERS_TRIED[0].iter().map(|a| a.load(Relaxed)).collect(),
            shift_orders_tried: ORDERS_TRIED[1].iter().map(|a| a.load(Relaxed)).collect(),
            pivot_ratio,
            workers,
        }
    }

    /// Value of a named counter (0 for unknown names).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Mean of cost term `i` (`0..5` = obj, perf, dev, dc, total).
    pub fn cost_mean(&self, i: usize) -> f64 {
        if self.cost_samples == 0 {
            0.0
        } else {
            self.cost_sums[i] / self.cost_samples as f64
        }
    }

    /// Serializes as one JSON object on a single line (JSONL-ready).
    /// Hand-rolled: every key is a static ASCII identifier, so no
    /// escaping machinery is needed.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\"moves\":[");
        for (i, m) in self.moves.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"class\":\"{}\",\"attempts\":{},\"accepts\":{}}}",
                escape(&m.name),
                m.attempts,
                m.accepts
            );
        }
        s.push_str("],\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{name}\":{v}");
        }
        let _ = write!(s, "}},\"cost\":{{\"samples\":{}", self.cost_samples);
        for (i, key) in ["c_obj", "c_perf", "c_dev", "c_dc", "total"]
            .iter()
            .enumerate()
        {
            let _ = write!(s, ",\"{key}_sum\":{}", json_f64(self.cost_sums[i]));
        }
        s.push_str("},\"spans\":{");
        for (i, (name, h)) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{name}\":{{\"count\":{},\"sum_ns\":{},\"p50_ns\":{},\"p90_ns\":{},\
                 \"p99_ns\":{}}}",
                h.count, h.sum, h.p50, h.p90, h.p99
            );
        }
        s.push('}');
        for (key, hist) in [
            ("awe_fit_orders", &self.fit_orders),
            ("awe_base_orders_tried", &self.base_orders_tried),
            ("awe_shift_orders_tried", &self.shift_orders_tried),
        ] {
            let _ = write!(s, ",\"{key}\":[");
            for (i, n) in hist.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{n}");
            }
            s.push(']');
        }
        let _ = write!(
            s,
            ",\"lu_pivot_ratio\":{{\"count\":{},\"p50\":{},\"p99\":{}}}",
            self.pivot_ratio.count, self.pivot_ratio.p50, self.pivot_ratio.p99
        );
        s.push_str(",\"workers\":[");
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"worker\":{},\"busy_ns\":{},\"idle_ns\":{},\"tasks\":{}}}",
                w.worker, w.busy_ns, w.idle_ns, w.tasks
            );
        }
        s.push_str("]}");
        s
    }

    /// Renders the human-readable report (used by `astrx profile`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.moves.is_empty() {
            let _ = writeln!(out, "move classes:");
            for m in &self.moves {
                let _ = writeln!(
                    out,
                    "  {:<18} {:>9} attempts  {:>9} accepts  ({:.1}% accept)",
                    m.name,
                    m.attempts,
                    m.accepts,
                    100.0 * m.accept_rate()
                );
            }
        }
        if self.cost_samples > 0 {
            let _ = writeln!(out, "cost terms (mean over {} evals):", self.cost_samples);
            for (i, key) in ["c_obj", "c_perf", "c_dev", "c_dc", "total"]
                .iter()
                .enumerate()
            {
                let _ = writeln!(out, "  {:<8} {:>14.6}", key, self.cost_mean(i));
            }
        }
        let _ = writeln!(
            out,
            "eval paths: {} cold / {} full / {} incremental / {} cached / {} failed",
            self.counter("eval_cold"),
            self.counter("eval_full"),
            self.counter("eval_incremental"),
            self.counter("eval_cached"),
            self.counter("eval_failure"),
        );
        let _ = writeln!(
            out,
            "awe: {} fits ({} forced 1-pole, {} constant, {} no-model, {} unstable, \
             {} dropped poles, shift {}+/{}-), {} dc-only",
            self.counter("awe_fit"),
            self.counter("awe_forced_one_pole"),
            self.counter("awe_constant"),
            self.counter("awe_no_model"),
            self.counter("awe_unstable"),
            self.counter("awe_dropped_poles"),
            self.counter("awe_shift_applied"),
            self.counter("awe_shift_rejected"),
            self.counter("awe_dc_only"),
        );
        let orders: Vec<String> = self
            .fit_orders
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(q, n)| format!("q{q}:{n}"))
            .collect();
        if !orders.is_empty() {
            let _ = writeln!(out, "awe fit orders: {}", orders.join(" "));
        }
        // Orders tried per fit, then the fits that tried each order q:
        // a fit tries q = 1, 2, … in turn, and each order whose Hankel
        // solve succeeds finds the roots of a degree-q denominator.
        let mean_tried = |hist: &[u64]| {
            let fits: u64 = hist.iter().sum();
            let tried: u64 = hist.iter().enumerate().map(|(t, n)| t as u64 * n).sum();
            (fits > 0).then(|| tried as f64 / fits as f64)
        };
        if let Some(base) = mean_tried(&self.base_orders_tried) {
            let shift = mean_tried(&self.shift_orders_tried)
                .map_or_else(|| "-".to_string(), |v| format!("{v:.2}"));
            let _ = writeln!(
                out,
                "awe orders tried: {base:.2} per base fit, {shift} per shifted re-expansion"
            );
            let by_order: Vec<String> = (1..self.base_orders_tried.len())
                .map(|q| {
                    let at_least = |hist: &[u64]| hist[q..].iter().sum::<u64>();
                    at_least(&self.base_orders_tried) + at_least(&self.shift_orders_tried)
                })
                .enumerate()
                .filter(|(_, n)| *n > 0)
                .map(|(i, n)| format!("q{}:{n}", i + 1))
                .collect();
            let _ = writeln!(out, "awe orders tried by q: {}", by_order.join(" "));
        }
        let _ = writeln!(
            out,
            "lu: {} factors, {} ill-conditioned (pivot ratio p50 {:.1e}, p99 {:.1e})",
            self.counter("lu_factor"),
            self.counter("lu_ill_conditioned"),
            self.pivot_ratio.p50 as f64,
            self.pivot_ratio.p99 as f64,
        );
        if self.counter("sparse_nnz") > 0 {
            let _ = writeln!(
                out,
                "sparse: {} refactors, nnz {} -> fill {} (summed over symbolic runs)",
                self.counter("sparse_refactor"),
                self.counter("sparse_nnz"),
                self.counter("sparse_fill"),
            );
        }
        for (name, h) in &self.spans {
            if h.count == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "span {name}: {} samples, mean {:.1}us p50 {:.1}us p90 {:.1}us p99 {:.1}us",
                h.count,
                h.mean() / 1e3,
                h.p50 as f64 / 1e3,
                h.p90 as f64 / 1e3,
                h.p99 as f64 / 1e3,
            );
        }
        for w in &self.workers {
            let _ = writeln!(
                out,
                "worker {}: {:.1}% busy, {} tasks ({:.2}s busy / {:.2}s idle)",
                w.worker,
                100.0 * w.utilization(),
                w.tasks,
                w.busy_ns as f64 / 1e9,
                w.idle_ns as f64 / 1e9,
            );
        }
        out
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if (c as u32) < 0x20 => "\\u0020".chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Telemetry state is process-global; tests share one lock so they
    /// do not interleave resets.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_records_nothing() {
        let _guard = TEST_LOCK.lock().unwrap();
        reset();
        set_enabled(false);
        incr(Counter::AweNoModel);
        move_result(1, true);
        record_cost_terms(1.0, 2.0, 3.0, 4.0);
        record_pivot_ratio(1e15);
        let snap = Snapshot::capture();
        assert_eq!(snap.counter("awe_no_model"), 0);
        assert!(snap.moves.is_empty());
        assert_eq!(snap.cost_samples, 0);
        assert_eq!(snap.counter("lu_ill_conditioned"), 0);
    }

    #[test]
    fn counters_and_moves_accumulate() {
        let _guard = TEST_LOCK.lock().unwrap();
        reset();
        set_enabled(true);
        set_class_names(&["node_single", "node_all"]);
        for _ in 0..10 {
            move_result(0, true);
        }
        for _ in 0..30 {
            move_result(0, false);
        }
        incr(Counter::AweNoModel);
        add(Counter::AweDroppedPoles, 3);
        record_cost_terms(1.0, 0.5, 0.25, 0.25);
        record_cost_terms(3.0, 1.5, 0.75, 0.75);
        let snap = Snapshot::capture();
        set_enabled(false);
        assert_eq!(snap.moves.len(), 1);
        assert_eq!(snap.moves[0].name, "node_single");
        assert_eq!(snap.moves[0].attempts, 40);
        assert!((snap.moves[0].accept_rate() - 0.25).abs() < 1e-12);
        assert_eq!(snap.counter("awe_no_model"), 1);
        assert_eq!(snap.counter("awe_dropped_poles"), 3);
        assert_eq!(snap.cost_samples, 2);
        assert!((snap.cost_mean(0) - 2.0).abs() < 1e-12);
        assert!((snap.cost_mean(4) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn pivot_ratio_warns_above_threshold() {
        let _guard = TEST_LOCK.lock().unwrap();
        reset();
        set_enabled(true);
        record_pivot_ratio(10.0);
        record_pivot_ratio(1e13);
        record_pivot_ratio(f64::INFINITY);
        let snap = Snapshot::capture();
        set_enabled(false);
        assert_eq!(snap.counter("lu_factor"), 3);
        assert_eq!(snap.counter("lu_ill_conditioned"), 2);
        assert_eq!(snap.pivot_ratio.count, 2, "infinite ratio skips histogram");
    }

    #[test]
    fn render_reports_orders_tried_per_fit() {
        let _guard = TEST_LOCK.lock().unwrap();
        reset();
        set_enabled(true);
        record_orders_tried(false, 2);
        record_orders_tried(false, 3);
        record_orders_tried(true, 4);
        incr(Counter::AweFit);
        add(Counter::AweDcOnly, 5);
        let snap = Snapshot::capture();
        set_enabled(false);
        let text = snap.render();
        assert!(
            text.contains("awe: 1 fits (") && text.contains("shift 0+/0-), 5 dc-only\n"),
            "{text}"
        );
        assert!(
            text.contains("awe orders tried: 2.50 per base fit, 4.00 per shifted re-expansion"),
            "{text}"
        );
        assert!(
            text.contains("awe orders tried by q: q1:3 q2:3 q3:2 q4:1\n"),
            "{text}"
        );
        let json = snap.to_json();
        assert!(json.contains("\"awe_dc_only\":5"), "{json}");
        assert!(
            json.contains("\"awe_base_orders_tried\":[0,0,1,1,0,"),
            "{json}"
        );
        assert!(
            json.contains("\"awe_shift_orders_tried\":[0,0,0,0,1,"),
            "{json}"
        );
    }

    #[test]
    fn span_records_latency() {
        let _guard = TEST_LOCK.lock().unwrap();
        reset();
        set_enabled(true);
        {
            let _s = span(SpanKind::CostEval);
            std::hint::black_box(0u64);
        }
        let snap = Snapshot::capture();
        set_enabled(false);
        let (_, h) = snap.spans.iter().find(|(n, _)| *n == "cost_eval").unwrap();
        assert_eq!(h.count, 1);
    }

    #[test]
    fn json_is_single_line_and_balanced() {
        let _guard = TEST_LOCK.lock().unwrap();
        reset();
        set_enabled(true);
        move_result(2, true);
        record_fit_order(3);
        record_worker_time(0, 500, 250);
        record_worker_task(0);
        let snap = Snapshot::capture();
        set_enabled(false);
        let json = snap.to_json();
        assert!(!json.contains('\n'));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces in {json}"
        );
        assert!(json.contains("\"awe_fit_orders\":[0,0,0,1,"));
        assert!(json.contains("\"busy_ns\":500"));
        let rendered = snap.render();
        assert!(rendered.contains("worker 0"));
    }

    #[test]
    fn reset_clears_everything() {
        let _guard = TEST_LOCK.lock().unwrap();
        reset();
        set_enabled(true);
        move_result(0, true);
        incr(Counter::EvalFull);
        record_cost_terms(1.0, 1.0, 1.0, 1.0);
        reset();
        let snap = Snapshot::capture();
        set_enabled(false);
        assert!(snap.moves.is_empty());
        assert_eq!(snap.counter("eval_full"), 0);
        assert_eq!(snap.cost_samples, 0);
    }
}
