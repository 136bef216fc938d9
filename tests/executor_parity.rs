//! Full-pipeline executor parity: `exact_mincut` under the parallel
//! round executor is bit-identical to the serial run — same cut, same
//! side, same packed trees, same total rounds/messages, and the same
//! per-phase metrics, entry by entry. The congest-level randomized
//! parity suite lives in `crates/congest/tests/executor_parity.rs`; this
//! test pins the property on the *whole* paper pipeline, where dozens of
//! heterogeneous phases (MST levels, fragment floods, keyed-stream
//! aggregations) run back to back over shared per-node memory.

use mincut_repro::congest::ExecutorKind;
use mincut_repro::graphs::generators;
use mincut_repro::mincut::dist::driver::{exact_mincut, ExactConfig};

#[test]
fn exact_mincut_parallel_matches_serial_on_planted_graphs() {
    let planted = generators::clique_pair(8, 3).unwrap();
    let cases = [
        ("clique_pair8", planted.graph),
        ("torus5x4", generators::torus2d(5, 4).unwrap()),
    ];
    for (name, g) in &cases {
        let serial = exact_mincut(g, &ExactConfig::default()).expect("serial run succeeds");
        for threads in [2usize, 4] {
            let cfg = ExactConfig::default().with_executor(ExecutorKind::Parallel { threads });
            let par = exact_mincut(g, &cfg).expect("parallel run succeeds");
            assert_eq!(par.cut.value, serial.cut.value, "{name} t={threads}");
            assert_eq!(par.cut.side, serial.cut.side, "{name} t={threads}");
            assert_eq!(par.trees_packed, serial.trees_packed, "{name} t={threads}");
            assert_eq!(
                par.trees_to_best, serial.trees_to_best,
                "{name} t={threads}"
            );
            assert_eq!(par.best_node, serial.best_node, "{name} t={threads}");
            assert_eq!(par.tree_edges, serial.tree_edges, "{name} t={threads}");
            assert_eq!(par.rounds, serial.rounds, "{name} t={threads}");
            assert_eq!(par.messages, serial.messages, "{name} t={threads}");
            // Phase-by-phase: names, rounds, messages, bits, and both
            // load maxima all agree.
            assert_eq!(
                par.ledger.phases(),
                serial.ledger.phases(),
                "{name} t={threads}: per-phase metrics diverged"
            );
        }
    }
}

#[test]
fn planted_cut_value_is_found_by_both_executors() {
    let planted = generators::clique_pair(8, 3).unwrap();
    let want = planted.planted_value;
    let serial = exact_mincut(&planted.graph, &ExactConfig::default()).unwrap();
    assert_eq!(serial.cut.value, want);
    let cfg = ExactConfig::default().with_executor(ExecutorKind::parallel());
    let par = exact_mincut(&planted.graph, &cfg).unwrap();
    assert_eq!(par.cut.value, want);
}
