//! `astrx` — the command-line front end.
//!
//! ```text
//! astrx compile <file.ox> [--emit-c]        analyze a description
//! astrx synth <file.ox> [--moves N] [--seeds N|a,b,c] [--threads T]
//!                       [--corners] [--yield]
//! astrx bench <name> [same options]         run a built-in benchmark
//! astrx list                                list built-in benchmarks
//! astrx profile [<file.ox>|--bench NAME] [--moves N] [--seed S] [--json]
//! ```
//!
//! `--seeds` takes either a count (`--seeds 8` runs seeds 1..=8) or an
//! explicit comma list (`--seeds 2,7,19`); `--threads` distributes the
//! per-seed runs over worker threads without changing any result.
//!
//! A run that must survive a kill is a job for the `oblxd` runtime (the
//! `oblx-runtime` crate): `oblxd submit` spools it and `oblxd run
//! --drain` runs it, checkpointing every seed, and resumes it
//! bit-identically when started again after a kill.

use astrx_oblx::jobs;
use astrx_oblx::oblx::{synthesize_multi, SynthesisOptions};
use astrx_oblx::report::{eng, pair, TextTable};
use astrx_oblx::verify::verify_result;
use astrx_oblx::{bench_suite, corners, CompiledProblem};
use std::process::ExitCode;

const USAGE: &str = "usage:
  astrx compile <file.ox> [--emit-c]
  astrx synth <file.ox> [--moves N] [--seeds N|a,b,c] [--threads T]
              [--corners] [--yield]
  astrx bench <name> [same options as synth]
  astrx list
  astrx profile [<file.ox> | --bench NAME] [--moves N] [--seed S] [--json]
               (default: the Two-Stage benchmark; prints the telemetry
                report — accept rates, cost terms, AWE/LU health)

A run that must survive a kill goes through the oblxd job runtime:
  oblxd submit --dir SPOOL (<file.ox> | --bench NAME) [--seeds …] [--moves N]
  oblxd run --dir SPOOL --drain       (run it again after a kill to resume)";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        return usage();
    };
    let rest: Vec<&String> = it.collect();
    match cmd.as_str() {
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        "compile" => cmd_compile(&rest),
        "synth" => cmd_synth(&rest, None),
        "bench" => {
            let Some(name) = rest.first() else {
                return usage();
            };
            let Some(b) = bench_suite::by_name(name) else {
                eprintln!("unknown benchmark `{name}` — try `astrx list`");
                return ExitCode::FAILURE;
            };
            cmd_synth(&rest[1..], Some(b))
        }
        "list" => {
            for b in bench_suite::all() {
                println!("{:<22} {}", b.name, b.description);
            }
            ExitCode::SUCCESS
        }
        "profile" => cmd_profile(&rest),
        _ => usage(),
    }
}

fn flag(rest: &[&String], name: &str) -> bool {
    rest.iter().any(|a| a.as_str() == name)
}

fn opt<'a>(rest: &'a [&String], name: &str) -> Option<&'a str> {
    rest.iter()
        .position(|a| a.as_str() == name)
        .and_then(|i| rest.get(i + 1))
        .map(|s| s.as_str())
}

fn load(rest: &[&String]) -> Result<CompiledProblem, String> {
    let Some(path) = rest.iter().find(|a| !a.starts_with("--")) else {
        return Err("no input file given".into());
    };
    let source = std::fs::read_to_string(path.as_str()).map_err(|e| format!("{path}: {e}"))?;
    astrx_oblx::astrx::compile_source(&source).map_err(|e| format!("{path}: {e}"))
}

fn print_stats(compiled: &CompiledProblem) {
    let s = &compiled.stats;
    println!("ASTRX analysis:");
    println!(
        "  input lines         : {} netlist + {} synthesis-specific",
        s.netlist_lines, s.synthesis_lines
    );
    println!("  user variables      : {}", s.user_vars);
    println!("  relaxed-dc nodes    : {}", s.node_vars);
    println!("  cost-function terms : {}", s.terms);
    println!("  equivalent C lines  : {}", s.c_lines);
    println!(
        "  bias circuit        : {} nodes, {} elements",
        s.bias_size.0, s.bias_size.1
    );
    for (i, (n, e)) in s.awe_sizes.iter().enumerate() {
        println!("  awe circuit #{i}      : {n} nodes, {e} elements");
    }
}

/// `astrx profile` — runs one synthesis with telemetry enabled and
/// prints the recorded report: per-move-class accept rates, cost-term
/// breakdown, AWE fit/instability counts, LU conditioning, and eval
/// latency histograms. `--json` emits the snapshot as one JSON object
/// (the same schema `oblxd` appends to `events/metrics.jsonl`).
fn cmd_profile(rest: &[&String]) -> ExitCode {
    let compiled = if let Some(name) = opt(rest, "--bench") {
        let Some(b) = bench_suite::by_name(name) else {
            eprintln!("error: unknown benchmark `{name}` — try `astrx list`");
            return ExitCode::FAILURE;
        };
        match b
            .problem()
            .map_err(|e| e.to_string())
            .and_then(|p| astrx_oblx::astrx::compile(p).map_err(|e| e.to_string()))
        {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else if rest.iter().enumerate().any(|(i, a)| {
        let is_opt_value = i > 0 && rest[i - 1].starts_with("--");
        !a.starts_with("--") && !is_opt_value
    }) {
        match load(rest) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        // The paper's flagship circuit makes a representative default.
        let b = bench_suite::by_name("Two-Stage").expect("built-in benchmark");
        match b
            .problem()
            .map_err(|e| e.to_string())
            .and_then(|p| astrx_oblx::astrx::compile(p).map_err(|e| e.to_string()))
        {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let moves: usize = opt(rest, "--moves")
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);
    let seed: u64 = opt(rest, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    oblx_telemetry::reset();
    oblx_telemetry::set_enabled(true);
    let opts = SynthesisOptions {
        moves_budget: moves,
        seed,
        ..SynthesisOptions::default()
    };
    let outcome = astrx_oblx::oblx::synthesize(&compiled, &opts);
    oblx_telemetry::set_enabled(false);
    let snap = oblx_telemetry::Snapshot::capture();
    if flag(rest, "--json") {
        println!("{}", snap.to_json());
    } else {
        match &outcome {
            Ok(r) => println!(
                "profiled {} moves, seed {}: final cost {:.3}, kcl {:.2e} A\n",
                moves, seed, r.breakdown.total, r.kcl_max
            ),
            Err(e) => println!("profiled {moves} moves, seed {seed}: run failed ({e})\n"),
        }
        print!("{}", snap.render());
    }
    ExitCode::SUCCESS
}

fn cmd_compile(rest: &[&String]) -> ExitCode {
    match load(rest) {
        Ok(compiled) => {
            print_stats(&compiled);
            if flag(rest, "--emit-c") {
                println!("\n{}", astrx_oblx::emit::emit_c(&compiled));
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_synth(rest: &[&String], benchmark: Option<bench_suite::Benchmark>) -> ExitCode {
    let compiled = match benchmark {
        Some(b) => match b
            .problem()
            .map_err(|e| e.to_string())
            .and_then(|p| astrx_oblx::astrx::compile(p).map_err(|e| e.to_string()))
        {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => match load(rest) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    print_stats(&compiled);

    let moves: usize = opt(rest, "--moves")
        .and_then(|s| s.parse().ok())
        .unwrap_or(60_000);
    let seeds = match opt(rest, "--seeds").map_or(Ok(vec![1, 2, 3]), jobs::parse_seeds) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let threads: usize = opt(rest, "--threads")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);

    println!(
        "\nOBLX: {} moves × {} seed(s) on {} thread(s)…",
        moves,
        seeds.len(),
        threads.max(1).min(seeds.len())
    );
    let opts = SynthesisOptions {
        moves_budget: moves,
        ..SynthesisOptions::default()
    };
    let multi = match synthesize_multi(&compiled, &opts, &seeds, threads) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: every seed failed — first failure: {e}");
            return ExitCode::FAILURE;
        }
    };
    for run in &multi.runs {
        if run.failed {
            println!("  seed {}: failed (best state unevaluable)", run.seed);
        } else {
            println!(
                "  seed {}: cost {:.3}, kcl {:.2e} A, {:.1} s, {:.0} eval/s, \
                 {:.0}% incremental-or-cached",
                run.seed,
                run.fixed_cost,
                run.kcl_max,
                run.wall_seconds,
                run.evals_per_sec,
                100.0 * run.cache_hit_ratio
            );
        }
    }
    println!(
        "best seed {} — {:.1} s wall total, throughput {:.0} evals/s, \
         {:.0} moves/s, cache hit ratio {:.1}%",
        multi.best_seed,
        multi.wall_seconds,
        multi.best.evals_per_sec,
        multi.best.moves_per_sec,
        100.0 * multi.best.cache_hit_ratio
    );
    let result = multi.best;

    println!("\nDesign variables:");
    for (name, value) in &result.variables {
        println!("  {name:<8} = {}", eng(*value));
    }
    match verify_result(&compiled, &result) {
        Ok(v) => {
            let mut t = TextTable::new(vec!["goal", "OBLX / simulation"]);
            for (name, p, s) in &v.rows {
                t.row(vec![name.clone(), pair(*p, *s)]);
            }
            println!("\n{}", t.render());
            println!(
                "worst prediction error {:.2}%  power {}  area {} m^2",
                100.0 * v.worst_relative_error(),
                eng(v.power),
                eng(v.area)
            );
        }
        Err(e) => eprintln!("verification failed: {e}"),
    }

    if flag(rest, "--yield") {
        println!("\nMonte-Carlo mismatch yield (60 samples, A_vt = 25 mV*um):");
        match astrx_oblx::yield_mc::yield_mc(
            &compiled,
            &result.state,
            &astrx_oblx::yield_mc::YieldOptions::default(),
        ) {
            Ok(y) => {
                println!(
                    "  yield {:.1}%  ({} passed / {} samples, {} bias failures)",
                    100.0 * y.yield_fraction(),
                    y.passed,
                    y.samples,
                    y.bias_failures
                );
                for (goal, fails) in &y.failures_by_goal {
                    if *fails > 0 {
                        println!("  {goal}: {fails} failures");
                    }
                }
            }
            Err(e) => eprintln!("yield analysis failed: {e}"),
        }
    }

    if flag(rest, "--corners") {
        println!("\nOperating corners:");
        match corners::verify_corners(
            &compiled,
            &result.state,
            &result.measured,
            &corners::standard_corners(),
        ) {
            Ok(results) => {
                let mut t = TextTable::new(vec!["corner", "goal", "simulated"]);
                for cr in &results {
                    for (name, _, sim) in &cr.verified.rows {
                        t.row(vec![cr.name.to_string(), name.clone(), eng(*sim)]);
                    }
                }
                println!("{}", t.render());
            }
            Err(e) => eprintln!("corner analysis failed: {e}"),
        }
    }
    ExitCode::SUCCESS
}
