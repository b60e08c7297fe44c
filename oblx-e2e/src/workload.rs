//! The three workloads: what each submits, how load arrives, and why it
//! was chosen. Every job seed and arrival time is drawn from `--seed`.

use crate::stats::{poisson_schedule, SplitMix};
use astrx_oblx::jobs::JobRequest;
use astrx_oblx::json::{ObjBuilder, Value};
use astrx_oblx::SynthesisOptions;

/// One workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open loop, seeded Poisson arrivals of tiny Simple OTA jobs.
    SvcSteady,
    /// Closed loop, one client, the canonical Two-Stage job.
    TwoStage,
    /// Closed loop, one client, six circuits of the paper's suite.
    Suite,
}

/// Offered load of `svc_steady`, jobs/s: about 40% of what two workers
/// sustain for these jobs. At 30/s (~70%) a slow patch on a shared
/// machine tipped the queue into overload and the median latency of a
/// run jumped from ~0.1 s to several seconds.
const STEADY_RATE: f64 = 15.0;

/// Approximate seconds one `two_stage` job takes on two workers; sizes
/// the closed loop to `--seconds`.
const TWO_STAGE_JOB_S: f64 = 2.2;

/// Approximate seconds one pass of `suite` takes.
const SUITE_PASS_S: f64 = 4.5;

/// Quench patience of the `two_stage` and `suite` jobs. The quench runs
/// until this many moves in a row fail to improve, so its length is the
/// seed's luck: at the default 2000, one Two-Stage seed of 8000 moves
/// took anywhere from 10k to 18k moves, and the median of a run's jobs
/// moved with the seeds drawn rather than with the system. At 200 every
/// seed does about its move budget, and the quench is still exercised.
const QUENCH: usize = 200;

/// The `suite` circuits: all-dense Simple OTA up to the largest sparse
/// jig, with BJT lanes in BiCMOS.
const SUITE: [&str; 6] = [
    "Simple OTA",
    "OTA",
    "Folded Cascode",
    "Comparator",
    "BiCMOS Two-Stage",
    "Novel Folded Cascode",
];

impl Workload {
    /// Every workload, in the order a full run measures them.
    pub const ALL: [Workload; 3] = [Workload::SvcSteady, Workload::TwoStage, Workload::Suite];

    /// The CLI and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SvcSteady => "svc_steady",
            Workload::TwoStage => "two_stage",
            Workload::Suite => "suite",
        }
    }

    /// Parses a CLI name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Jobs of this workload whose seeds a traced run replays.
    fn replay_jobs(self) -> usize {
        match self {
            Workload::SvcSteady => 20,
            Workload::TwoStage => 2,
            Workload::Suite => SUITE.len(),
        }
    }
}

/// How jobs arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// Each job is due at its scheduled offset, whatever the system does.
    Open,
    /// The next job is sent once the previous one's result is fetched.
    Closed,
}

/// One job to submit.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Benchmark circuit name, resolved server-side.
    pub bench: &'static str,
    /// Annealing seeds, distinct within the job.
    pub seeds: Vec<u64>,
    /// Move budget per seed.
    pub moves: usize,
    /// Quench patience.
    pub quench: usize,
    /// Due offset in seconds from the window start (open loop only).
    pub due_s: f64,
}

impl JobSpec {
    /// The `POST /v1/jobs` body.
    pub fn body(&self, name: &str) -> String {
        ObjBuilder::new()
            .field("name", name)
            .field("bench", self.bench)
            .field(
                "seeds",
                Value::Arr(self.seeds.iter().map(|&s| Value::Int(s as i64)).collect()),
            )
            .field("moves", self.moves)
            .field("quench", self.quench)
            .build()
            .to_json()
    }

    /// The request the edge builds from [`JobSpec::body`]: the same
    /// circuit, deck and options, for in-process compiles and replays.
    pub fn request(&self, name: &str) -> JobRequest {
        let b = astrx_oblx::bench_suite::by_name(self.bench).expect("suite circuits exist");
        JobRequest {
            name: name.to_string(),
            source: b.source.to_string(),
            deck: b.deck.label().to_string(),
            options: self.options(),
            seeds: self.seeds.clone(),
            priority: 0,
        }
    }

    /// The options of one seed's run.
    pub fn seed_options(&self, seed: u64) -> SynthesisOptions {
        SynthesisOptions {
            seed,
            ..self.options()
        }
    }

    fn options(&self) -> SynthesisOptions {
        SynthesisOptions {
            moves_budget: self.moves,
            quench_patience: self.quench,
            ..SynthesisOptions::default()
        }
    }
}

/// A workload instantiated for one seed and run length.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// How the jobs arrive.
    pub load: Load,
    /// The jobs, in submission order.
    pub jobs: Vec<JobSpec>,
    /// Leading jobs whose seeds a traced run replays.
    pub replay_jobs: usize,
}

/// Builds the inputs of `workload` for `seed`, sized to measure for
/// about `seconds`. `quick` cuts the length and every move budget to a
/// tenth: a smoke run that checks correctness, not speed.
pub fn plan(workload: Workload, seed: u64, seconds: f64, quick: bool) -> Plan {
    let mut rng = SplitMix::new(seed, workload as u64 + 1);
    let span = if quick { seconds / 10.0 } else { seconds };
    let scale = |n: usize| if quick { (n / 10).max(1) } else { n };
    let tiny = |rng: &mut SplitMix| JobSpec {
        bench: "Simple OTA",
        seeds: vec![rng.job_seed()],
        moves: 60,
        quench: 100,
        due_s: 0.0,
    };
    let (load, jobs) = match workload {
        Workload::SvcSteady => {
            let count = ((STEADY_RATE * span).round() as usize).max(1);
            let due = poisson_schedule(&mut rng, count, span);
            let jobs: Vec<JobSpec> = due
                .into_iter()
                .map(|due_s| JobSpec {
                    due_s,
                    ..tiny(&mut rng)
                })
                .collect();
            (Load::Open, jobs)
        }
        Workload::TwoStage => {
            let count = ((span / TWO_STAGE_JOB_S).round() as usize).max(1);
            let jobs: Vec<JobSpec> = (0..count)
                .map(|_| JobSpec {
                    bench: "Two-Stage",
                    seeds: distinct_seeds(&mut rng, 4),
                    moves: scale(8_000),
                    quench: scale(QUENCH),
                    due_s: 0.0,
                })
                .collect();
            (Load::Closed, jobs)
        }
        Workload::Suite => {
            let passes = ((span / SUITE_PASS_S).round() as usize).max(1);
            let jobs: Vec<JobSpec> = (0..passes)
                .flat_map(|_| SUITE)
                .map(|bench| JobSpec {
                    bench,
                    seeds: distinct_seeds(&mut rng, 2),
                    moves: scale(3_000),
                    quench: scale(QUENCH),
                    due_s: 0.0,
                })
                .collect();
            (Load::Closed, jobs)
        }
    };
    let replay_jobs = workload.replay_jobs().min(jobs.len());
    Plan {
        workload,
        load,
        jobs,
        replay_jobs,
    }
}

fn distinct_seeds(rng: &mut SplitMix, n: usize) -> Vec<u64> {
    let mut seeds = Vec::with_capacity(n);
    while seeds.len() < n {
        let s = rng.job_seed();
        if !seeds.contains(&s) {
            seeds.push(s);
        }
    }
    seeds
}
