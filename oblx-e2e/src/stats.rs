//! Seeded inputs and the summary statistics every metric uses.

/// SplitMix64: the harness's own generator for workload inputs (job
/// seeds and arrival times). It is independent of the service's RNG, so
/// changing how the service anneals never changes what the benchmark
/// sends.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`, salted by `stream` so that workloads
    /// sharing a `--seed` still draw unrelated inputs.
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        let mut g = SplitMix(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A positive annealing seed that fits the API's integer field.
    pub fn job_seed(&mut self) -> u64 {
        1 + self.next_u64() % (1 << 31)
    }
}

/// Arrival offsets, in seconds from the start of the window, of `count`
/// jobs from a Poisson process of rate `count / span_s`, conditioned on
/// exactly `count` arrivals in `[0, span_s)`: sorted uniform draws.
/// Fixing the count keeps the offered load identical between runs, so
/// run-to-run spread comes from the system, not from the draw.
pub fn poisson_schedule(rng: &mut SplitMix, count: usize, span_s: f64) -> Vec<f64> {
    let mut due: Vec<f64> = (0..count).map(|_| rng.next_f64() * span_s).collect();
    due.sort_by(f64::total_cmp);
    due
}

/// The median (mean of the two middle values for an even count); NaN
/// for no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The tail value and the percentile it sits at: the highest percentile
/// with at least ten samples beyond it, and never below the median. With
/// fewer than 21 samples no such percentile exceeds the median, so the
/// tail is the median. NaN for no samples.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return (f64::NAN, f64::NAN);
    }
    if n < 21 {
        return (median(&v), 50.0);
    }
    let i = n - 11;
    (v[i], 100.0 * (i + 1) as f64 / n as f64)
}

/// Arithmetic mean; NaN for no samples.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
