//! Downstream election parity: the pipeline that opens with `leader_bfs`
//! computes exactly what the sequential packing computes — cut value,
//! cut side, tree counts, argmin node — and the election's message bill
//! on the 24×24 torus stays within its budget under both round
//! executors.

use mincut_repro::congest::ExecutorKind;
use mincut_repro::graphs::generators;
use mincut_repro::mincut::dist::driver::{exact_mincut, ExactConfig};
use mincut_repro::mincut::seq::tree_packing::packing_mincut;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The elected BFS tree opens every pipeline stage; on five instance
/// families the pipeline built on it returns exactly the sequential
/// packing's answer.
#[test]
fn staged_and_legacy_elections_agree_end_to_end() {
    let mut rng = StdRng::seed_from_u64(23);
    let mut cases = vec![
        generators::cycle(12).unwrap(),
        generators::torus2d(5, 6).unwrap(),
        generators::clique_pair(6, 2).unwrap().graph,
        generators::das_sarma_style(2, 8).unwrap(),
    ];
    let base = generators::erdos_renyi_connected(24, 0.2, &mut rng).unwrap();
    cases.push(generators::randomize_weights(&base, 1, 5, &mut rng).unwrap());
    let cfg = ExactConfig::default();
    for (i, g) in cases.iter().enumerate() {
        let dist = exact_mincut(g, &cfg).expect("strict-mode run succeeds");
        let seq = packing_mincut(g, &cfg.packing).expect("sequential pipeline runs");
        assert_eq!(dist.cut.value, seq.cut.value, "case {i}: lambda");
        assert_eq!(dist.cut.side, seq.cut.side, "case {i}: cut side");
        assert_eq!(dist.trees_packed, seq.trees_packed, "case {i}: trees");
        assert_eq!(
            dist.trees_to_best, seq.trees_to_best,
            "case {i}: trees_to_best"
        );
        assert_eq!(dist.best_node, seq.best_node, "case {i}: best_node");
    }
}

/// The pipeline's `leader_bfs` phase on the 24×24 torus stays at or
/// below ⌊24,190 / 5⌋ = 4,838 messages (the ≥ 5× cut against the
/// retired every-node flood's 24,190; measured 2,879), under the serial
/// *and* the parallel executor, with the identical minimum cut.
#[test]
fn torus24_leader_messages_drop_five_fold_under_both_executors() {
    let g = generators::torus2d(24, 24).unwrap();
    let runs: Vec<_> = [ExecutorKind::Serial, ExecutorKind::Parallel { threads: 4 }]
        .into_iter()
        .map(|kind| {
            let cfg = ExactConfig::default().with_executor(kind.clone());
            let r = exact_mincut(&g, &cfg).expect("strict-mode run succeeds");
            let msgs = r.ledger.messages_matching("leader_bfs");
            assert!(msgs <= 4_838, "{kind:?}: leader_bfs moved {msgs} messages");
            r
        })
        .collect();
    assert_eq!(runs[0].cut.value, runs[1].cut.value);
    assert_eq!(runs[0].cut.side, runs[1].cut.side);
}
