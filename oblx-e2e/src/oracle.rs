//! The correctness oracle, run on every run outside the timed window.

use astrx_oblx::jobs;
use astrx_oblx::json::Value;
use astrx_oblx::oblx::fixed_cost;
use astrx_oblx::{synthesize, CompiledProblem, SynthesisOptions};

/// One seed's entry in a result's `runs`.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedRun {
    /// The seed.
    pub seed: u64,
    /// Frozen-final cost (bit-exact).
    pub fixed_cost: f64,
    /// Proposals made.
    pub attempted: usize,
    /// Seconds the service's run took.
    pub wall_seconds: f64,
    /// Whether the run's best state could not be evaluated.
    pub failed: bool,
}

/// A checked `ok` result.
#[derive(Debug, Clone, PartialEq)]
pub struct Checked {
    /// The winning seed.
    pub best_seed: u64,
    /// Its frozen-final cost.
    pub fixed_cost: f64,
    /// Every seed's run, in request order.
    pub runs: Vec<SeedRun>,
}

/// Checks one result record: status `ok`, `runs` covers exactly the
/// requested seeds, and `best_seed` and `fixed_cost` follow the pool's
/// winner rule — failed seeds excluded, lowest frozen-final cost, NaN
/// last, ties to the earlier seed in the request.
///
/// # Errors
///
/// What is wrong with the record.
pub fn check_result(record: &Value, seeds: &[u64]) -> Result<Checked, String> {
    let status = record.get("status").and_then(Value::as_str);
    if status != Some("ok") {
        return Err(format!("status {status:?}, want \"ok\""));
    }
    let bits = |v: &Value, key: &str| {
        v.get(key)
            .and_then(|x| jobs::f64_from_value(x).ok())
            .ok_or_else(|| format!("`{key}` missing or not f64 bits"))
    };
    let hex = |v: &Value, key: &str| {
        v.get(key)
            .and_then(|x| jobs::u64_from_value(x).ok())
            .ok_or_else(|| format!("`{key}` missing or not a hex u64"))
    };
    let runs = record
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or("`runs` missing")?
        .iter()
        .map(|r| {
            Ok(SeedRun {
                seed: hex(r, "seed")?,
                fixed_cost: bits(r, "fixed_cost")?,
                attempted: r
                    .get("attempted")
                    .and_then(Value::as_int)
                    .and_then(|n| usize::try_from(n).ok())
                    .ok_or("`attempted` missing")?,
                wall_seconds: r
                    .get("wall_seconds")
                    .and_then(Value::as_f64)
                    .ok_or("`wall_seconds` missing")?,
                failed: r
                    .get("failed")
                    .and_then(Value::as_bool)
                    .ok_or("`failed` missing")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let got: Vec<u64> = runs.iter().map(|r| r.seed).collect();
    if got != seeds {
        return Err(format!("runs cover seeds {got:?}, requested {seeds:?}"));
    }
    let key = |c: f64| if c.is_nan() { f64::INFINITY } else { c };
    let winner = runs
        .iter()
        .filter(|r| !r.failed)
        .fold(None::<&SeedRun>, |best, r| match best {
            Some(b) if key(b.fixed_cost) <= key(r.fixed_cost) => Some(b),
            _ => Some(r),
        })
        .ok_or("every seed failed")?;
    let best_seed = hex(record, "best_seed")?;
    let cost = bits(record, "fixed_cost")?;
    if best_seed != winner.seed || cost.to_bits() != winner.fixed_cost.to_bits() {
        return Err(format!(
            "best_seed {best_seed} (cost {cost}) breaks the winner rule: seed {} has cost {}",
            winner.seed, winner.fixed_cost
        ));
    }
    Ok(Checked {
        best_seed,
        fixed_cost: cost,
        runs,
    })
}

/// Re-runs the winning seed with [`astrx_oblx::synthesize`] and checks
/// its frozen-final cost is bit-equal to the service's. Returns the
/// re-run's anneal seconds (`wall_seconds`, as the service reports it).
///
/// # Errors
///
/// The re-run failed or disagrees with the service.
pub fn rerun_best(
    compiled: &CompiledProblem,
    opts: &SynthesisOptions,
    checked: &Checked,
) -> Result<f64, String> {
    let run_opts = SynthesisOptions {
        seed: checked.best_seed,
        ..opts.clone()
    };
    let result = synthesize(compiled, &run_opts).map_err(|e| format!("re-run failed: {e:?}"))?;
    let cost = fixed_cost(compiled, &result.state);
    if cost.to_bits() != checked.fixed_cost.to_bits() {
        return Err(format!(
            "re-run of seed {} gives fixed_cost {cost}, service gave {}",
            checked.best_seed, checked.fixed_cost
        ));
    }
    Ok(result.wall_seconds)
}
