//! Tests of the end-to-end benchmark's own logic, plus a quick smoke run
//! of every workload that checks correctness only.

use astrx_oblx::json::{self, Value};
use astrx_oblx::oblx::fixed_cost;
use oblx_anneal::{AnnealOptions, AnnealProblem, Annealer, DirtySet};
use oblx_e2e::oracle::check_result;
use oblx_e2e::replay::{replay_seed, Timed};
use oblx_e2e::report::{END_TO_END, PER_LAYER};
use oblx_e2e::run::{out_dir, run_workload};
use oblx_e2e::stats::{median, poisson_schedule, tail, SplitMix};
use oblx_e2e::trace::{trace_line, JobEvents, Phases};
use oblx_e2e::workload::{plan, Workload};
use rand::{Rng, RngExt};

#[test]
fn poisson_schedule_is_seeded_and_keeps_its_rate() {
    let schedule = |seed| poisson_schedule(&mut SplitMix::new(seed, 1), 1000, 1000.0 / 30.0);
    let a = schedule(7);
    assert_eq!(a, schedule(7), "same seed, same arrivals");
    assert_ne!(a, schedule(8), "another seed, other arrivals");
    assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals are sorted");

    let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
    let mean_gap = gaps.iter().sum::<f64>() / gaps.len() as f64;
    let rate = 1.0 / mean_gap;
    assert!((rate / 30.0 - 1.0).abs() < 0.05, "mean rate {rate}/s");
    // Exponential gaps have a coefficient of variation of 1; a regular
    // schedule would have 0.
    let sd = (gaps.iter().map(|g| (g - mean_gap).powi(2)).sum::<f64>() / gaps.len() as f64).sqrt();
    assert!(
        (sd / mean_gap - 1.0).abs() < 0.1,
        "gap cv {}",
        sd / mean_gap
    );
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
    let up_to = |n: usize| (1..=n).rev().map(|i| i as f64).collect::<Vec<_>>();
    assert_eq!(tail(&up_to(1000)), (990.0, 99.0));
    assert_eq!(tail(&up_to(100)), (90.0, 90.0));
    let (v, p) = tail(&up_to(600));
    assert_eq!(v, 590.0);
    assert!((p - 98.333).abs() < 1e-3);
    // Too few samples for any percentile above the median.
    assert_eq!(tail(&up_to(15)), (8.0, 50.0));
    assert_eq!(median(&up_to(4)), 2.5);
    assert!(tail(&[]).0.is_nan());
}

fn event(ts: f64, name: &str, seed: Option<&str>) -> String {
    match seed {
        Some(s) => format!("{{\"ts\":{ts},\"event\":\"{name}\",\"seed\":\"{s}\"}}\n"),
        None => format!("{{\"ts\":{ts},\"event\":\"{name}\"}}\n"),
    }
}

#[test]
fn phases_sum_to_the_job_latency() {
    let t0 = 1_700_000_000.25;
    let log = [
        event(t0 + 0.002, "submitted", None),
        event(t0 + 0.040, "started", None),
        event(t0 + 0.041, "seed_started", Some("a")),
        event(t0 + 0.043, "seed_started", Some("b")),
        event(t0 + 1.000, "checkpoint", Some("a")),
        event(t0 + 1.500, "seed_done", Some("a")),
        event(t0 + 1.700, "seed_done", Some("b")),
        event(t0 + 1.701, "done", None),
    ]
    .concat();
    let ev = JobEvents::parse(&log).unwrap();
    assert_eq!(ev.checkpoints, 1);
    assert_eq!(ev.seeds.len(), 2);
    let due = t0;
    let phases = ev.phases(due);
    assert!(phases.as_array().iter().all(|&p| p >= 0.0), "{phases:?}");
    assert!((phases.total() - (ev.done - due)).abs() < 1e-9);
    assert!((phases.seeds - 1.659).abs() < 1e-6);
    assert!((ev.seed_busy() - (1.459 + 1.657)).abs() < 1e-6);

    let line = json::parse(&trace_line("j1", "Two-Stage", due, &ev, &[(10, 1.4)])).unwrap();
    let spans = line.get("spans").and_then(Value::as_arr).unwrap();
    let names: Vec<&str> = spans
        .iter()
        .filter_map(|s| s.get("name")?.as_str())
        .collect();
    assert_eq!(&names[..5], Phases::NAMES);
    assert_eq!(names[5..], ["seed 10", "seed 11"]);

    let truncated = [event(t0, "submitted", None), event(t0, "started", None)].concat();
    assert!(JobEvents::parse(&truncated).is_err());
}

/// A problem that overrides every method and counts each call.
#[derive(Default)]
struct Counting {
    calls: [usize; 9],
}

impl AnnealProblem for Counting {
    type State = f64;
    fn initial_state(&mut self) -> f64 {
        self.calls[0] += 1;
        3.0
    }
    fn cost(&mut self, x: &f64) -> f64 {
        self.calls[1] += 1;
        x * x
    }
    fn move_classes(&self) -> usize {
        2
    }
    fn propose(&mut self, x: &f64, class: usize, scale: f64, rng: &mut dyn Rng) -> Option<f64> {
        self.calls[2] += 1;
        let step = scale * (rng.random::<f64>() - 0.5);
        Some(if class == 0 { x + step } else { x - step })
    }
    fn propose_dirty(
        &mut self,
        x: &f64,
        class: usize,
        scale: f64,
        rng: &mut dyn Rng,
    ) -> Option<(f64, DirtySet)> {
        self.calls[3] += 1;
        let step = scale * (rng.random::<f64>() - 0.5);
        Some((
            if class == 0 { x + step } else { x - step },
            DirtySet::everything(),
        ))
    }
    fn cost_moved(&mut self, x: &f64, _dirty: &DirtySet) -> f64 {
        self.calls[4] += 1;
        x * x
    }
    fn telemetry_names(&self) -> Vec<String> {
        vec!["x".into()]
    }
    fn telemetry(&mut self, x: &f64) -> Vec<f64> {
        self.calls[6] += 1;
        vec![*x]
    }
    fn frozen(&mut self, x: &f64) -> bool {
        self.calls[7] += 1;
        x.abs() < 1e-9
    }
}

#[test]
fn timed_adapter_delegates_every_method() {
    let mut t = Timed::new(Counting::default());
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
    assert_eq!(t.initial_state(), 3.0);
    assert_eq!(t.cost(&2.0), 4.0);
    assert_eq!(t.move_classes(), 2);
    assert!(t.propose(&1.0, 0, 0.1, &mut rng).is_some());
    assert!(t.propose_dirty(&1.0, 1, 0.1, &mut rng).is_some());
    assert_eq!(t.cost_moved(&3.0, &DirtySet::everything()), 9.0);
    assert_eq!(t.telemetry_names(), vec!["x".to_string()]);
    assert_eq!(t.telemetry(&5.0), vec![5.0]);
    assert!(t.frozen(&0.0));
    assert_eq!(t.inner.calls, [1, 1, 1, 1, 1, 0, 1, 1, 0]);
    assert_eq!(t.times.propose_calls, 2);
    assert_eq!(t.times.cost_calls, 2);

    // Driven by the engine, the wrapper changes nothing about the run.
    let opts = || AnnealOptions {
        moves_budget: 2_000,
        seed: 5,
        trace_every: 100,
        quench_patience: 300,
        ..AnnealOptions::default()
    };
    let plain = Annealer::new(opts()).run(&mut Counting::default());
    let mut timed = Timed::new(Counting::default());
    let wrapped = Annealer::new(opts()).run(&mut timed);
    assert_eq!(plain.best_cost.to_bits(), wrapped.best_cost.to_bits());
    assert_eq!(plain.attempted, wrapped.attempted);
    assert_eq!(plain.trace.points, wrapped.trace.points);
    assert!(timed.inner.calls[3] > 0 && timed.inner.calls[4] > 0 && timed.inner.calls[7] > 0);
}

#[test]
fn replay_is_bit_equal_to_synthesize_on_a_short_simple_ota_seed() {
    let job = &plan(Workload::SvcSteady, 3, 1.0, false).jobs[0];
    let compiled = oblx_runtime::validate_job(&job.request("replay")).unwrap();
    let opts = job.seed_options(job.seeds[0]);
    let replayed = replay_seed(&compiled, &opts);
    let reference = astrx_oblx::synthesize(&compiled, &opts).unwrap();
    assert_eq!(
        replayed.fixed_cost.to_bits(),
        fixed_cost(&compiled, &reference.state).to_bits()
    );
    assert_eq!(replayed.attempted, reference.attempted);
    assert!(replayed.times.propose_calls > 0 && replayed.times.cost_calls > 0);
}

fn record(best: u64, cost: f64, runs: &[(u64, f64, bool)]) -> Value {
    let hex = |v: f64| format!("\"{:016x}\"", v.to_bits());
    let runs: Vec<String> = runs
        .iter()
        .map(|(s, c, failed)| {
            format!(
                "{{\"seed\":\"{s:x}\",\"fixed_cost\":{},\"attempted\":10,\"wall_seconds\":0.5,\
                 \"failed\":{failed}}}",
                hex(*c)
            )
        })
        .collect();
    json::parse(&format!(
        "{{\"status\":\"ok\",\"best_seed\":\"{best:x}\",\"fixed_cost\":{},\"runs\":[{}]}}",
        hex(cost),
        runs.join(",")
    ))
    .unwrap()
}

#[test]
fn oracle_enforces_the_winner_rule() {
    let runs = [(3, 2.0, false), (5, 1.0, false), (9, 1.0, false)];
    let ok = check_result(&record(5, 1.0, &runs), &[3, 5, 9]).unwrap();
    assert_eq!((ok.best_seed, ok.runs.len()), (5, 3));
    // Ties go to the earlier seed.
    assert!(check_result(&record(9, 1.0, &runs), &[3, 5, 9]).is_err());
    // NaN sorts last, failed seeds are skipped.
    let odd = [(3, f64::NAN, false), (5, -1.0, true), (9, 4.0, false)];
    assert!(check_result(&record(9, 4.0, &odd), &[3, 5, 9]).is_ok());
    assert!(check_result(&record(5, -1.0, &odd), &[3, 5, 9]).is_err());
    // Runs must cover exactly the requested seeds.
    assert!(check_result(&record(5, 1.0, &runs), &[3, 5]).is_err());
    let failed = json::parse("{\"status\":\"failed\"}").unwrap();
    assert!(check_result(&failed, &[1]).is_err());
}

#[test]
fn quick_runs_of_every_workload_are_correct() {
    oblx_telemetry::set_enabled(true);
    let out = out_dir().join("tests");
    for w in Workload::ALL {
        // One workload also exercises the traced path: span trees that
        // must sum to each job's latency and bit-equal seed replays.
        let trace = w == Workload::SvcSteady;
        let p = plan(w, 11, 20.0, true);
        let report = run_workload(&p, 11, trace, &out).unwrap();
        assert!(report.correct(), "{}: {:?}", w.name(), report.errors);
        assert_eq!((report.attempted, report.failed), (p.jobs.len(), 0));
        let traced = out.join(format!("{}.trace.jsonl", w.name())).exists();
        assert_eq!(traced, trace);
    }
    let _ = std::fs::remove_dir_all(out);
}

#[test]
fn benchmark_json_declares_what_the_harness_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names = |key: &str| -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    };
    let specs = |list: &[(&str, &str, bool)]| -> Vec<(String, String, String)> {
        list.iter()
            .map(|(n, u, higher)| {
                let better = if *higher { "higher" } else { "lower" };
                (n.to_string(), u.to_string(), better.to_string())
            })
            .collect()
    };
    assert_eq!(names("end_to_end"), specs(&END_TO_END));
    assert_eq!(names("per_layer"), specs(&PER_LAYER));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .filter_map(|w| Some(w.get("name")?.as_str()?.to_string()))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
}
