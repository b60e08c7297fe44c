//! The end-to-end benchmark's command line; see the crate docs of
//! `oblx_e2e` for what it measures.
//!
//! ```text
//! cargo bench --offline --manifest-path oblx-e2e/Cargo.toml --bench e2e -- \
//!     [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
//! ```

use astrx_oblx::json::{ObjBuilder, Value};
use oblx_e2e::report::Report;
use oblx_e2e::run::{out_dir, run_workload, write_report};
use oblx_e2e::workload::{plan, Workload};
use std::process::ExitCode;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        quick: false,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: usize, flag: &str| {
        raw.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < raw.len() {
        match raw[i].as_str() {
            "--workload" => {
                let w = value(i, "--workload")?;
                let parsed =
                    Workload::parse(&w).ok_or_else(|| format!("unknown workload `{w}`"))?;
                args.workloads = vec![parsed];
                i += 1;
            }
            "--seed" => {
                args.seed = value(i, "--seed")?
                    .parse()
                    .map_err(|_| "--seed wants a non-negative integer")?;
                i += 1;
            }
            "--seconds" => {
                args.seconds = value(i, "--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| (1.0..=600.0).contains(s))
                    .ok_or("--seconds wants a number from 1 to 600")?;
                i += 1;
            }
            "--trace" => match raw.get(i + 1).map(String::as_str) {
                Some("0") => {
                    args.trace = false;
                    i += 1;
                }
                Some("1") => {
                    args.trace = true;
                    i += 1;
                }
                _ => args.trace = true,
            },
            "--quick" => args.quick = true,
            // `cargo bench` appends this to every bench binary's arguments.
            "--bench" => {}
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: e2e [--workload {}] [--seed N] [--seconds S] [--trace [0|1]] [--quick]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    oblx_telemetry::set_enabled(true);
    let out = out_dir();
    let mut reports = Vec::new();
    for &w in &args.workloads {
        let p = plan(w, args.seed, args.seconds, args.quick);
        let report = match run_workload(&p, args.seed, args.trace, &out) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        for line in &report.info {
            println!("info {} {line}", report.workload);
        }
        for line in report.metric_lines() {
            println!("{line}");
        }
        match write_report(&out, &report, args.trace) {
            Ok(path) => println!("info {} report: {}", report.workload, path.display()),
            Err(e) => eprintln!("warning: {e}"),
        }
        for e in &report.errors {
            eprintln!("incorrect: {}: {e}", report.workload);
        }
        reports.push(report);
    }
    println!("{}", result_line(&reports, args.trace).to_json());
    if reports.iter().all(Report::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The last stdout line. One workload gives its own result object;
/// several are merged, with metric names prefixed by the workload.
fn result_line(reports: &[Report], trace: bool) -> Value {
    if let [one] = reports {
        return one.result_json(trace);
    }
    let mut metrics = Vec::new();
    for r in reports {
        if let Some(Value::Obj(members)) = r.result_json(trace).get("metrics") {
            for (name, v) in members {
                metrics.push((format!("{}.{name}", r.workload), v.clone()));
            }
        }
    }
    ObjBuilder::new()
        .field("correct", reports.iter().all(Report::correct))
        .field(
            "attempted",
            reports.iter().map(|r| r.attempted).sum::<usize>(),
        )
        .field("failed", reports.iter().map(|r| r.failed).sum::<usize>())
        .field("metrics", Value::Obj(metrics))
        .build()
}
