//! The traced run: per-layer metrics, measured from outside the program
//! by timing calls into each layer's public functions and by reading
//! what the program already exports (the result's `MetricsLedger` and
//! the `ObsHandle` profile). Every row is tagged with the end-to-end
//! metric it should move and the workload it should move it on.

use crate::stats::median;
use crate::workload::{survivor_graph, Solved, Workload};
use crate::{nproc, timed_loop, Metric, Run, Tally};
use congest::obs::CostCenter;
use congest::primitives::convergecast::{Convergecast, SumU64};
use congest::primitives::leader_bfs::LeaderBfs;
use congest::{ExecutorKind, Network, NetworkConfig, ObsHandle};
use graphs::WeightedGraph;
use std::fmt::Write as _;
use std::time::Instant;

/// Stem groups of the pipeline's phases (`s2` = `s2a`–`s2c`, and so on).
const STEMS: [&str; 12] = [
    "leader_bfs",
    "init",
    "mstA",
    "mstB",
    "orient",
    "s2",
    "s3",
    "s4",
    "s5",
    "side",
    "recover",
    "census",
];

/// The transport cost centers reported, as `sim.<label>_s`.
const CENTERS: [CostCenter; 5] = [
    CostCenter::ChannelScan,
    CostCenter::Bookkeeping,
    CostCenter::AckBookkeeping,
    CostCenter::Execute,
    CostCenter::Retransmit,
];

/// Repetitions of each engine and certification probe.
const PROBES: usize = 5;

/// The stem group of a phase name, if it is one of [`STEMS`].
fn stem_group(phase: &str) -> Option<usize> {
    let stem = phase.split('.').next().unwrap_or(phase);
    let digit = stem.as_bytes().get(1).is_some_and(u8::is_ascii_digit);
    let stem = if stem.starts_with('s') && digit {
        &stem[..2]
    } else {
        stem
    };
    STEMS.iter().position(|s| *s == stem)
}

/// What one traced solve showed, beyond its (deterministic) ledger.
struct Traced {
    wall_s: f64,
    /// Ledger wall time per stem group; `None` for a group whose phases
    /// ran but whose ledger entries carry no wall time.
    stem_wall_s: [Option<f64>; STEMS.len()],
    /// Σ of every phase's wall time, as the obs sink recorded it.
    phase_wall_s: f64,
    ledger_wall_s: f64,
    center_s: [f64; CENTERS.len()],
    /// `(busy share, node imbalance)` of the parallel workers, if any ran.
    workers: Option<(f64, f64)>,
}

fn traced(s: &Solved, obs: &ObsHandle) -> Traced {
    let report = obs.sink().snapshot();
    let mut stem_wall_s = [Some(0.0); STEMS.len()];
    for (stem, _) in s.ledger.grouped_by_stem() {
        if let Some(i) = stem_group(&stem) {
            let wall_ms = s.ledger.wall_ms_of_stem(&stem);
            stem_wall_s[i] = stem_wall_s[i]
                .zip((wall_ms > 0.0).then_some(wall_ms / 1e3))
                .map(|(a, b)| a + b);
        }
    }
    let phase_wall_s: f64 = report.phases.iter().map(|p| p.wall_ms / 1e3).sum();
    let profile = &report.profile;
    let workers = (!profile.workers.is_empty()).then(|| {
        let w = &profile.workers;
        let busy: u64 = w.iter().map(|x| x.busy_ns).sum();
        let nodes: Vec<f64> = w.iter().map(|x| x.nodes as f64).collect();
        let mean = nodes.iter().sum::<f64>() / nodes.len() as f64;
        let max = nodes.iter().copied().fold(0.0, f64::max);
        (
            busy as f64 / 1e9 / (w.len() as f64 * phase_wall_s),
            max / mean,
        )
    });
    Traced {
        wall_s: s.wall_s,
        stem_wall_s,
        phase_wall_s,
        ledger_wall_s: s.ledger.total_wall_ms() / 1e3,
        center_s: CENTERS.map(|c| profile.center_ns(c) as f64 / 1e9),
        workers,
    }
}

/// Serial `LeaderBfs` then a `Convergecast` over its BFS tree on `g`:
/// nanoseconds per delivered message and per round, `PROBES` times.
fn engine_probe(g: &WeightedGraph) -> Result<(Vec<f64>, Vec<f64>), String> {
    let n = g.node_count();
    let (mut per_msg, mut per_round) = (Vec::new(), Vec::new());
    for _ in 0..PROBES {
        let mut net = Network::new(g, NetworkConfig::default()).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let bfs = net
            .run("leader_bfs", &LeaderBfs::new(), vec![(); n])
            .map_err(|e| e.to_string())?;
        per_msg.push(t.elapsed().as_nanos() as f64 / bfs.metrics.messages.max(1) as f64);
        let inputs = bfs
            .outputs
            .into_iter()
            .map(|o| (o.tree, SumU64(1)))
            .collect();
        let t = Instant::now();
        let cc = net
            .run("init.count", &Convergecast::<SumU64>::new(), inputs)
            .map_err(|e| e.to_string())?;
        per_round.push(t.elapsed().as_nanos() as f64 / cc.metrics.rounds.max(1) as f64);
        let counted: Vec<u64> = cc.outputs.iter().flatten().map(|s| s.0).collect();
        if counted != [n as u64] {
            return Err(format!(
                "convergecast counted {counted:?} nodes, want [{n}]"
            ));
        }
    }
    Ok((per_msg, per_round))
}

/// One per-layer row: `value` is `None` when the program cannot supply
/// it on this workload.
struct Row {
    name: String,
    value: Option<f64>,
    unit: &'static str,
    source: &'static str,
    moves: &'static str,
    on: &'static str,
}

fn row(
    name: impl Into<String>,
    value: Option<f64>,
    unit: &'static str,
    source: &'static str,
    moves: &'static str,
    on: &'static str,
) -> Row {
    Row {
        name: name.into(),
        value,
        unit,
        source,
        moves,
        on,
    }
}

/// Median of one field over the traced solves.
fn med(t: &[Traced], f: impl Fn(&Traced) -> f64) -> Option<f64> {
    median(&t.iter().map(f).collect::<Vec<_>>())
}

/// The traced run: alternates untraced and traced solves for `seconds`
/// (on `large_sparse`, also under the parallel executor), probes the
/// engine and the certification oracle, and returns the per-layer
/// metrics (writing the full table, `null`s included, to `results/`
/// beside this crate and to stdout).
pub fn measure(
    run: &Run,
    tally: &mut Tally,
    seconds: f64,
    build_s: &[f64],
    seed: u64,
) -> Result<Vec<Metric>, String> {
    // On `large_sparse` every second pair of solves runs under the
    // parallel executor with `nproc` threads. Its timing is too
    // sensitive to host contention for a bounded end-to-end metric, so
    // it is reported here; its outputs and counters are still held to
    // the serial reference's like every solve's.
    let parallel = (run.workload == Workload::LargeSparse)
        .then(|| ExecutorKind::Parallel { threads: nproc() });
    let cycle = if parallel.is_some() { 4 } else { 2 };
    let (mut untraced, mut traces) = (Vec::new(), Vec::new());
    let (mut par_untraced, mut par_traces) = (Vec::new(), Vec::new());
    timed_loop(seconds, |i| {
        let executor = parallel.clone().filter(|_| i % cycle >= 2);
        let (walls, traced_solves) = match executor {
            Some(_) => (&mut par_untraced, &mut par_traces),
            None => (&mut untraced, &mut traces),
        };
        if i % 2 == 0 {
            if let Some(s) = tally.solve(run, executor, None) {
                walls.push(s.wall_s);
            }
        } else {
            let obs = ObsHandle::new();
            if let Some(s) = tally.solve(run, executor, Some(&obs)) {
                traced_solves.push(traced(&s, &obs));
            }
        }
    });
    let reference = run.reference.as_ref().ok_or("the reference solve failed")?;
    if traces.is_empty() || untraced.is_empty() {
        return Err("no traced or no untraced solve succeeded".into());
    }
    let g = &run.instance.graph;
    let (per_msg, per_round) = engine_probe(g)?;
    let certify_s = match &reference.recovered {
        Some(r) => {
            let survivors = survivor_graph(g, &r.survivors)?;
            let mut walls = Vec::new();
            for _ in 0..PROBES {
                let t = Instant::now();
                mincut::seq::stoer_wagner::stoer_wagner(&survivors).map_err(|e| e.to_string())?;
                walls.push(t.elapsed().as_secs_f64());
            }
            median(&walls)
        }
        None => Some(run.oracle_s),
    };

    let large = "large_sparse";
    let chaos = "lossy_chaos";
    let mut rows = vec![
        row(
            "graphs.build_s",
            median(build_s),
            "s",
            "generator + WeightedGraph::from_edges in set-up",
            "setup_s",
            large,
        ),
        row(
            "engine.ns_per_msg",
            median(&per_msg),
            "ns",
            "serial Network::run(LeaderBfs) wall / messages",
            "solve_s",
            "large_sparse, then packed_exact",
        ),
        row(
            "engine.ns_per_round",
            median(&per_round),
            "ns",
            "serial Network::run(Convergecast) over the BFS tree, wall / rounds",
            "solve_s",
            "packed_exact",
        ),
        row(
            "parallel.solve_s",
            median(&par_untraced),
            "s",
            "untraced solve wall under the parallel executor (nproc threads)",
            "none (unbounded: host contention)",
            large,
        ),
        row(
            "parallel.speedup",
            median(&untraced)
                .zip(median(&par_untraced))
                .map(|(serial, par)| serial / par),
            "ratio",
            "serial / parallel median untraced solve wall",
            "none (unbounded: host contention)",
            large,
        ),
        row(
            "parallel.busy_share",
            med_all(&par_traces, |t| t.workers.map(|w| w.0)),
            "ratio",
            "obs Profile::workers busy / (workers x phase wall), traced parallel solves",
            "parallel.solve_s",
            large,
        ),
        row(
            "parallel.node_imbalance",
            med_all(&par_traces, |t| t.workers.map(|w| w.1)),
            "ratio",
            "obs Profile::workers max / mean nodes, traced parallel solves",
            "parallel.solve_s",
            large,
        ),
    ];
    for (i, c) in CENTERS.iter().enumerate() {
        rows.push(row(
            format!("sim.{}_s", c.label()),
            med(&traces, |t| t.center_s[i]),
            "s",
            "obs Profile cost center",
            "solve_s",
            chaos,
        ));
    }
    let rounds = reference.rounds.max(1) as f64;
    let messages = reference.messages.max(1) as f64;
    rows.push(row(
        "sim.overhead",
        Some(reference.phys_rounds as f64 / rounds),
        "ratio",
        "phys_rounds / rounds",
        "phys_rounds",
        chaos,
    ));
    rows.push(row(
        "sim.retransmit_share",
        Some(reference.ledger.total_retransmitted() as f64 / messages),
        "ratio",
        "ledger retransmitted / messages",
        "phys_rounds",
        chaos,
    ));

    let mut stem_rounds = [0u64; STEMS.len()];
    let mut stem_messages = [0u64; STEMS.len()];
    for (stem, group) in reference.ledger.grouped_by_stem() {
        match stem_group(&stem) {
            Some(i) => {
                stem_rounds[i] += group.rounds;
                stem_messages[i] += group.messages;
            }
            None => eprintln!("perfbench: phase stem {stem:?} is in no stem group"),
        }
    }
    for (i, stem) in STEMS.iter().enumerate() {
        let on = if i >= 10 {
            chaos
        } else {
            "large_sparse, packed_exact"
        };
        rows.push(row(
            format!("stem.{stem}.rounds"),
            Some(stem_rounds[i] as f64),
            "rounds",
            "ledger grouped_by_stem",
            "rounds",
            on,
        ));
        rows.push(row(
            format!("stem.{stem}.messages"),
            Some(stem_messages[i] as f64),
            "msgs",
            "ledger grouped_by_stem",
            "messages",
            on,
        ));
        rows.push(row(
            format!("stem.{stem}.wall_s"),
            med_all(&traces, |t| t.stem_wall_s[i]),
            "s",
            "ledger wall_ms_of_stem",
            "solve_s",
            on,
        ));
    }

    let packing = reference.packing;
    rows.extend([
        row(
            "driver.between_phases_s",
            med(&traces, |t| t.wall_s - t.phase_wall_s),
            "s",
            "traced solve wall - sum of obs phase walls",
            "solve_s",
            "packed_exact",
        ),
        row(
            "driver.ledger_wall_share",
            med(&traces, |t| t.ledger_wall_s / t.phase_wall_s),
            "ratio",
            "ledger total_wall_ms / sum of obs phase walls",
            "none (attribution)",
            chaos,
        ),
        row(
            "driver.phases",
            Some(reference.ledger.phases().len() as f64),
            "count",
            "ledger phase count",
            "rounds",
            "packed_exact",
        ),
        row(
            "driver.useful_tree_share",
            packing.map(|(packed, best, _)| best as f64 / packed.max(1) as f64),
            "ratio",
            "trees_to_best / trees_packed",
            "rounds",
            "packed_exact",
        ),
    ]);
    let rec = reference.recovered.as_ref();
    rows.extend([
        row(
            "recover.recovery_rounds",
            Some(rec.map_or(0, |r| r.recovery_rounds) as f64),
            "rounds",
            "RecoveredMinCut",
            "rounds",
            chaos,
        ),
        row(
            "recover.recovery_messages",
            Some(rec.map_or(0, |r| r.recovery_messages) as f64),
            "msgs",
            "RecoveredMinCut",
            "messages",
            chaos,
        ),
        row(
            "recover.epochs",
            Some(rec.map_or(1, |r| r.epochs) as f64),
            "count",
            "RecoveredMinCut (exact_mincut: one attempt)",
            "rounds",
            chaos,
        ),
        row(
            "recover.useful_round_share",
            Some(1.0 - rec.map_or(0, |r| r.recovery_rounds) as f64 / rounds),
            "ratio",
            "1 - recovery_rounds / rounds",
            "rounds",
            chaos,
        ),
        row(
            "recover.certify_s",
            certify_s,
            "s",
            "Stoer-Wagner on the survivor graph (large_sparse: the packing oracle)",
            "solve_s",
            chaos,
        ),
        row(
            "obs.overhead",
            median(&traces.iter().map(|t| t.wall_s).collect::<Vec<_>>())
                .zip(median(&untraced))
                .map(|(t, u)| t / u),
            "ratio",
            "traced / untraced median solve wall",
            "none",
            "all",
        ),
    ]);
    report(run.workload, seed, &rows, traces.len(), untraced.len())?;
    // The JSON line carries numbers only: a value the program cannot
    // supply is -1 there, `null` in the table.
    Ok(rows
        .into_iter()
        .map(|r| Metric::new(r.name, r.value.unwrap_or(-1.0), r.unit))
        .collect())
}

/// Median of a field that may be missing: `None` if any solve lacks it.
fn med_all(t: &[Traced], f: impl Fn(&Traced) -> Option<f64>) -> Option<f64> {
    let v: Option<Vec<f64>> = t.iter().map(f).collect();
    median(&v?)
}

/// Prints the per-layer table on `#` lines and writes it as JSON to
/// `results/layers-<workload>-<seed>.json` beside this crate.
fn report(
    workload: Workload,
    seed: u64,
    rows: &[Row],
    traced: usize,
    untraced: usize,
) -> Result<(), String> {
    let value = |v: Option<f64>| v.map_or("null".to_string(), |v| v.to_string());
    let mut json = format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"traced_solves\": {traced}, \"untraced_solves\": {untraced}, \"rows\": [\n",
        workload.name()
    );
    for (i, r) in rows.iter().enumerate() {
        println!(
            "# {:<28} {:>16} {:<6} moves {} on {} [{}]",
            r.name,
            value(r.value),
            r.unit,
            r.moves,
            r.on,
            r.source
        );
        let sep = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "  {{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"moves\": \"{}\", \"on\": \"{}\", \"source\": \"{}\"}}{sep}",
            r.name,
            value(r.value),
            r.unit,
            r.moves,
            r.on,
            r.source
        );
    }
    json.push_str("]}\n");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("layers-{}-{seed}.json", workload.name()));
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))
}
