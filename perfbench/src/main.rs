//! The repository benchmark: one process runs one seeded workload of the
//! distributed min-cut pipeline, checks every answer, and prints its
//! metrics as one JSON object on the last line of standard output.
//!
//! ```text
//! perfbench --workload <large_sparse|packed_exact|lossy_chaos>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times untraced solves and prints the end-to-end metrics;
//! `--trace 1` attaches the program's obs sink, probes the layers from
//! outside, and prints the per-layer metrics (see `layers.rs`). The
//! workloads, metrics, and the figures measured when the benchmark
//! landed are documented in `README.md` beside this crate.

mod layers;
mod stats;
mod workload;

use std::process::ExitCode;
use std::time::Instant;
use workload::{Instance, Oracle, Setup, Solved, Workload};

/// Timed set-up samples per run (each a batch of set-ups).
const SETUP_SAMPLES: usize = 15;
/// A run times at least this many solves, however short `--seconds`.
const MIN_TIMED: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or(format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Solve outcomes of a run: every solve attempted, including warm-ups
/// and reference solves, counts.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Runs and checks one solve; a solver error or a failed check is a
    /// miss, reported on stderr and returned as `None`.
    pub fn solve(
        &mut self,
        run: &Run,
        executor: Option<congest::ExecutorKind>,
        obs: Option<&congest::ObsHandle>,
    ) -> Option<Solved> {
        self.attempted += 1;
        let outcome = workload::solve(&run.instance, executor, obs)
            .map_err(|e| e.to_string())
            .and_then(|s| {
                run.oracle
                    .check(&run.instance.graph, &s, run.reference.as_ref())
                    .map(|()| s)
            });
        match outcome {
            Ok(s) => Some(s),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: solve {} failed: {e}", self.attempted);
                None
            }
        }
    }

    pub fn solved_share(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }
}

/// One run's instance, oracle, and the reference solve every later solve
/// must repeat exactly.
pub struct Run {
    pub workload: Workload,
    pub instance: Instance,
    pub oracle: Oracle,
    /// Wall seconds the oracle took.
    pub oracle_s: f64,
    pub reference: Option<Solved>,
}

impl Run {
    /// Computes the oracle, then the discarded warm-up solve, which
    /// becomes the reference.
    fn start(workload: Workload, instance: Instance, tally: &mut Tally) -> Result<Run, String> {
        let t = Instant::now();
        let oracle = Oracle::compute(workload, &instance)?;
        let oracle_s = t.elapsed().as_secs_f64();
        let mut run = Run {
            workload,
            instance,
            oracle,
            oracle_s,
            reference: None,
        };
        run.reference = tally.solve(&run, None, None);
        Ok(run)
    }
}

/// Calls `each` with solve indices 0, 1, … until `seconds` have been
/// spent, not starting a solve that would overrun once `MIN_TIMED` are
/// in.
pub fn timed_loop(seconds: f64, mut each: impl FnMut(usize)) {
    let start = Instant::now();
    let mut last = 0.0;
    for i in 0.. {
        if i >= MIN_TIMED && start.elapsed().as_secs_f64() + last > seconds {
            break;
        }
        let t = Instant::now();
        each(i);
        last = t.elapsed().as_secs_f64();
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let Setup {
        instance,
        setup_s,
        build_s,
    } = workload::setup(args.workload, args.seed, SETUP_SAMPLES)?;
    let mut tally = Tally::default();
    let run = Run::start(args.workload, instance, &mut tally)?;
    let metrics = if args.trace {
        layers::measure(&run, &mut tally, args.seconds, &build_s, args.seed)?
    } else {
        end_to_end(&run, &mut tally, args.seconds, &setup_s)?
    };
    println!(
        "# workload={} seed={} nproc={} n={} m={} solves={} failed={}",
        args.workload.name(),
        args.seed,
        nproc(),
        run.instance.graph.node_count(),
        run.instance.graph.edge_count(),
        tally.attempted,
        tally.failed
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        metrics
            .iter()
            .map(|m| m.json())
            .collect::<Vec<_>>()
            .join(", ")
    );
    Ok(())
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }

    fn json(&self) -> String {
        // `{}` prints the shortest exact decimal form, never an exponent.
        format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            self.name, self.value, self.unit
        )
    }
}

/// The untraced run: times the solves and reports the 8 end-to-end
/// metrics, with the spread of each timing on a `#` line above.
fn end_to_end(
    run: &Run,
    tally: &mut Tally,
    seconds: f64,
    setup_s: &[f64],
) -> Result<Vec<Metric>, String> {
    let mut walls = Vec::new();
    timed_loop(seconds, |_| {
        if let Some(s) = tally.solve(run, None, None) {
            walls.push(s.wall_s);
        }
    });
    let reference = run
        .reference
        .as_ref()
        .ok_or("the reference solve failed; no counters to report")?;
    for (name, v) in [("solve_s", &walls[..]), ("setup_s", setup_s)] {
        println!("# {name} {} nproc={}", stats::summary(v), nproc());
        let samples: Vec<String> = v.iter().map(|x| format!("{x:.4e}")).collect();
        println!("# {name} samples [{}]", samples.join(", "));
    }
    let solve_s = stats::median(&walls).ok_or("no solve succeeded")?;
    Ok(vec![
        Metric::new("solve_s", solve_s, "s"),
        Metric::new("setup_s", stats::median(setup_s).unwrap_or(0.0), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        Metric::new("rounds", reference.rounds as f64, "rounds"),
        Metric::new("messages", reference.messages as f64, "msgs"),
        Metric::new("bits", reference.bits as f64, "bits"),
        Metric::new("phys_rounds", reference.phys_rounds as f64, "ticks"),
        Metric::new("solved_share", tally.solved_share(), "ratio"),
    ])
}
