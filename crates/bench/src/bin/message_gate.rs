//! CI regression gates for message volume and synchronizer overhead.
//!
//! Two deterministic gates, both exact (no flaky thresholds):
//!
//! 1. **Election messages** — the staged `leader_bfs` on the canonical
//!    70602-node large-`n` instance must stay under a checked-in budget
//!    *and* at least 8× cheaper than the legacy flood, so the staged
//!    election's order-of-magnitude win cannot silently regress.
//! 2. **Synchronizer overhead** — the whole exact pipeline on
//!    torus24x24 under the fault-injecting executor (the shared
//!    [`mincut_bench::SMOKE_FAULTS`] plan: 5% drops, 2.5% duplication,
//!    delay window 2, fixed seed) must finish within a checked-in
//!    factor of the serial run's rounds, pinning what asynchrony costs
//!    the paper's `O(D + √n·polylog n)` bound in this harness. The run
//!    double-checks bit parity of the cut on the way.
//! 3. **mstA messages** — phase-A fragment growth (frozen-level skip +
//!    fused cand/dec + deterministic mating) must stay under a checked-in
//!    `mstA` message budget on torus24x24 *and* on the canonical
//!    70602-node instance. Each budget is at most half of what the
//!    coin-mating phase A it replaced moved on the same graph. Every
//!    packed tree must equal the sequential greedy packing's tree edge
//!    for edge, so traffic can never be traded for correctness.

use congest::primitives::leader_bfs::LeaderBfs;
use congest::{ExecutorKind, Network, NetworkConfig};
use graphs::generators;
use mincut::dist::driver::{exact_mincut, ExactConfig};
use mincut::seq::tree_packing::{greedy_packing, PackingConfig, PackingSize};
use std::process::ExitCode;

/// Message budget for the staged election on the 70602-node instance.
/// Measured: 494,813 (vs 7,589,564 legacy — a 15.3× cut). The budget
/// leaves ~30% headroom for benign protocol tweaks; anything beyond that
/// is a regression of the staged election itself.
const STAGED_BUDGET: u64 = 650_000;

/// The staged election must stay at least this many times cheaper than
/// the legacy flood (the PR's acceptance criterion was 5×; measured
/// 15.3×, gated at 8× to leave room without letting the win erode).
const MIN_RATIO: u64 = 8;

/// Synchronizer-overhead budget: physical transport rounds of the full
/// exact pipeline on torus24x24 under [`mincut_bench::SMOKE_FAULTS`],
/// divided by the serial run's rounds, must stay below this factor
/// (×100 — integer arithmetic on a deterministic measurement).
/// Measured: 7.92× (the fault-free α-synchronizer floor is 3.09× — the
/// data → ack → safe-announce chain is three ticks per round — and the
/// plan's 5% drops at retransmit timeout 4 contribute the rest). The
/// budget leaves ~25% headroom for benign protocol tweaks; a
/// synchronizer regression (a lost piggybacking opportunity costs a
/// whole tick per round per phase, ≥ +30%) blows well past it.
const MAX_OVERHEAD_PCT: u64 = 1000;

/// `mstA` message budget on torus24x24 with the canonical 3-tree
/// packing (the instance BENCH_rounds.json tracks). Measured: 26,046.
/// The coin-mating phase A this protocol replaced moved 54,077 here;
/// the budget stays below half of that, so the 2× win cannot erode.
const MSTA_TORUS_BUDGET: u64 = 27_000;

/// `mstA` message budget on the 70602-node instance (single packed
/// tree, the `tests/large_n.rs` workload). Measured: 1,657,900. The
/// budget is exactly half of the 3,376,228 messages the coin-mating
/// phase A it replaced moved here (~1.8% headroom).
const MSTA_LARGE_BUDGET: u64 = 1_688_114;

/// The mstA gate probe: run the exact pipeline, check every packed tree
/// against the sequential greedy packing, and return the `mstA` message
/// total.
fn msta_probe(g: &graphs::WeightedGraph, cfg: &ExactConfig, label: &str) -> u64 {
    let r = exact_mincut(g, cfg).expect("exact run succeeds");
    let want: Vec<Vec<graphs::EdgeId>> = greedy_packing(g, r.trees_packed)
        .expect("sequential packing succeeds")
        .into_iter()
        .map(|mut t| {
            t.sort_unstable();
            t
        })
        .collect();
    assert_eq!(
        r.tree_edges, want,
        "{label}: distributed trees must equal the sequential packing"
    );
    r.ledger.messages_matching("mstA")
}

fn count(g: &graphs::WeightedGraph, algo: &LeaderBfs) -> u64 {
    let mut net = Network::new(g, NetworkConfig::default()).expect("valid topology");
    net.run("leader_bfs", algo, vec![(); g.node_count()])
        .expect("election succeeds in strict mode")
        .metrics
        .messages
}

/// The synchronizer-overhead gate: serial vs faulty exact pipeline on
/// torus24x24. Returns `(serial rounds, faulty physical rounds)`.
fn overhead_probe() -> (u64, u64) {
    let g = generators::torus2d(24, 24).expect("valid torus");
    let serial = exact_mincut(&g, &ExactConfig::default()).expect("serial run succeeds");
    let cfg =
        ExactConfig::default().with_executor(ExecutorKind::Faulty(mincut_bench::SMOKE_FAULTS));
    let faulty = exact_mincut(&g, &cfg).expect("faulty run succeeds");
    assert_eq!(
        (faulty.cut.value, faulty.rounds, faulty.messages),
        (serial.cut.value, serial.rounds, serial.messages),
        "faulty executor must be bit-identical at the payload level"
    );
    (serial.rounds, faulty.ledger.total_phys_rounds())
}

fn main() -> ExitCode {
    let g = mincut_bench::large_n_graph();
    let staged = count(&g, &LeaderBfs::new());
    let legacy = count(&g, &LeaderBfs::legacy());
    println!(
        "leader_bfs on n = {}: staged {staged} msgs, legacy {legacy} msgs ({:.1}x)",
        g.node_count(),
        legacy as f64 / staged as f64
    );
    let mut ok = true;
    if staged > STAGED_BUDGET {
        eprintln!(
            "GATE FAILED: staged leader_bfs moved {staged} messages > budget {STAGED_BUDGET}"
        );
        ok = false;
    }
    if staged * MIN_RATIO > legacy {
        eprintln!("GATE FAILED: staged/legacy ratio fell below {MIN_RATIO}x");
        ok = false;
    }
    // Gate 3a: mstA on torus24x24 with the canonical 3-tree packing.
    let torus = generators::torus2d(24, 24).expect("valid torus");
    let torus_cfg = ExactConfig {
        packing: PackingConfig {
            size: PackingSize::Fixed(3),
            max_trees: 3,
        },
        ..Default::default()
    };
    let msta_t = msta_probe(&torus, &torus_cfg, "torus24x24");
    println!("mstA on torus24x24: {msta_t} msgs (budget {MSTA_TORUS_BUDGET})");
    if msta_t > MSTA_TORUS_BUDGET {
        eprintln!("GATE FAILED: mstA moved {msta_t} messages > budget {MSTA_TORUS_BUDGET}");
        ok = false;
    }
    // Gate 3b: mstA on the 70602-node instance (single packed tree, the
    // large-n workload; parallel executor — parity-guaranteed — for
    // wall-clock).
    let large_cfg = ExactConfig {
        packing: PackingConfig {
            size: PackingSize::Fixed(1),
            max_trees: 1,
        },
        ..Default::default()
    }
    .with_executor(ExecutorKind::Parallel { threads: 4 });
    let msta_l = msta_probe(&g, &large_cfg, "large_n");
    println!(
        "mstA on n = {}: {msta_l} msgs (budget {MSTA_LARGE_BUDGET})",
        g.node_count()
    );
    if msta_l > MSTA_LARGE_BUDGET {
        eprintln!("GATE FAILED: mstA moved {msta_l} messages > budget {MSTA_LARGE_BUDGET}");
        ok = false;
    }
    let (serial_rounds, phys_rounds) = overhead_probe();
    println!(
        "exact pipeline on torus24x24: serial {serial_rounds} rounds, faulty {phys_rounds} transport rounds ({:.2}x overhead)",
        phys_rounds as f64 / serial_rounds as f64
    );
    if phys_rounds * 100 > serial_rounds * MAX_OVERHEAD_PCT {
        eprintln!(
            "GATE FAILED: synchronizer overhead {phys_rounds}/{serial_rounds} rounds exceeds {}.{:02}x budget",
            MAX_OVERHEAD_PCT / 100,
            MAX_OVERHEAD_PCT % 100
        );
        ok = false;
    }
    if ok {
        println!(
            "message gate passed (budget {STAGED_BUDGET}, min ratio {MIN_RATIO}x, overhead ≤ {}.{:02}x)",
            MAX_OVERHEAD_PCT / 100,
            MAX_OVERHEAD_PCT % 100
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
