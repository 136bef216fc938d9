//! Full-pipeline phase-A parity, crossed with the executor grid:
//! `exact_mincut` with the `mstA` protocol (frozen-level skip, fused
//! cand/dec convergecast, deterministic mating) returns **bit-identical
//! cuts and trees** under the serial, parallel, and fault-injecting
//! executors alike, and those trees are the sequential greedy packing —
//! the MST under the weight-then-edge-id order is unique, so this is the
//! same output the retired coin-mating phase A produced — while moving
//! at most ⅔ of the coin-mating protocol's `mstA` messages. The
//! randomized per-family parity suite lives in
//! `crates/core/tests/msta_parity.rs`; this test pins the property on
//! planted-cut instances end to end, including the α-synchronizer
//! (whose payload-bit-parity the protocol must preserve).

use mincut_repro::congest::sim::FaultPlan;
use mincut_repro::congest::ExecutorKind;
use mincut_repro::graphs::generators;
use mincut_repro::graphs::EdgeId;
use mincut_repro::mincut::dist::driver::{exact_mincut, ExactConfig};
use mincut_repro::mincut::seq::tree_packing::{greedy_packing, packing_mincut};

fn cfg(executor: ExecutorKind) -> ExactConfig {
    ExactConfig::default().with_executor(executor)
}

#[test]
fn optimized_phase_a_matches_legacy_across_executors() {
    // Third field: ⅔ of the coin-mating phase A's `mstA` message count on
    // the instance (default packing), recorded when that protocol was
    // retired. Message counts are executor-independent.
    let planted = generators::clique_pair(8, 3).unwrap();
    let cases = [
        ("clique_pair8", planted.graph, 4_162u64),
        ("torus6x5", generators::torus2d(6, 5).unwrap(), 10_504),
    ];
    let executors = [
        ("serial", ExecutorKind::Serial),
        ("parallel", ExecutorKind::Parallel { threads: 4 }),
        (
            "faulty",
            ExecutorKind::Faulty(
                FaultPlan::with_drop(200, 0xA1_57)
                    .delayed(2)
                    .duplicated(100),
            ),
        ),
    ];
    for (name, g, legacy_floor) in &cases {
        let packing = ExactConfig::default().packing;
        let seq = packing_mincut(g, &packing).expect("sequential pipeline runs");
        let want: Vec<Vec<EdgeId>> = greedy_packing(g, seq.trees_packed)
            .expect("sequential packing runs")
            .into_iter()
            .map(|mut t| {
                t.sort_unstable();
                t
            })
            .collect();
        for (exec_name, executor) in &executors {
            let tag = format!("{name} under {exec_name}");
            let opt = exact_mincut(g, &cfg(executor.clone())).expect("run succeeds");
            assert_eq!(opt.cut.value, seq.cut.value, "{tag}: lambda");
            assert_eq!(opt.cut.side, seq.cut.side, "{tag}: side");
            assert_eq!(opt.trees_packed, seq.trees_packed, "{tag}: trees");
            assert_eq!(opt.trees_to_best, seq.trees_to_best, "{tag}: trees_to_best");
            assert_eq!(opt.best_node, seq.best_node, "{tag}: best_node");
            assert_eq!(
                opt.tree_edges, want,
                "{tag}: MST edge sets must be the greedy packing"
            );
            // The win, not just the parity: at most ⅔ of the coin-mating
            // mstA traffic on every instance and executor. (The ≥2× bar
            // lives in `message_gate`, on the canonical torus24x24 and
            // 70602-node instances — tiny graphs amortize fewer levels,
            // so the floor here is looser.)
            let om = opt.ledger.messages_matching("mstA");
            assert!(
                om <= *legacy_floor,
                "{tag}: mstA moved {om} msgs > 2/3 of coin-mating's ({legacy_floor})"
            );
        }
    }
}

#[test]
fn executor_grid_is_mode_internally_consistent() {
    // The three executors agree with each other on rounds/messages too
    // (payload bit-parity) — so the assertions above compare
    // well-defined quantities.
    let g = generators::torus2d(6, 5).unwrap();
    let serial = exact_mincut(&g, &cfg(ExecutorKind::Serial)).unwrap();
    for (tag, executor) in [
        ("parallel", ExecutorKind::Parallel { threads: 2 }),
        (
            "faulty",
            ExecutorKind::Faulty(FaultPlan::with_drop(50, 0xA1_59).delayed(1)),
        ),
    ] {
        let other = exact_mincut(&g, &cfg(executor)).unwrap();
        assert_eq!(other.rounds, serial.rounds, "{tag}");
        assert_eq!(other.messages, serial.messages, "{tag}");
        assert_eq!(other.cut.value, serial.cut.value, "{tag}");
        assert_eq!(other.tree_edges, serial.tree_edges, "{tag}");
        assert_eq!(
            other.ledger.messages_matching("mstA"),
            serial.ledger.messages_matching("mstA"),
            "{tag}"
        );
    }
}
