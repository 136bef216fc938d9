//! Full-pipeline fault parity: `exact_mincut` under the fault-injecting
//! executor — message drops, duplication, bounded delay with in-window
//! reordering, all seeded and deterministic — returns **bit-identical**
//! results to the serial executor: same cut value, same side, same packed
//! trees, same arg-min node, same virtual rounds and payload traffic.
//! The α-synchronizer (`congest::sim`) is what makes dozens of
//! heterogeneous phases (elections, MST levels, fragment floods,
//! pipelined keyed-stream aggregations) survive an adversarial network
//! without a single algorithm change; this suite pins that on the whole
//! paper pipeline. The congest-level randomized suite lives in
//! `crates/congest/tests/sim_determinism.rs`.

use mincut_repro::congest::sim::FaultPlan;
use mincut_repro::congest::ExecutorKind;
use mincut_repro::graphs::generators;
use mincut_repro::mincut::dist::driver::{exact_mincut, ExactConfig};

/// The fault grid of the acceptance criteria: drop p ∈ {0, 0.05, 0.2},
/// delay window ≤ 3, fixed seeds (plus duplication on the lossiest
/// plan, so all three fault species run against the full pipeline).
fn plans() -> [FaultPlan; 4] {
    [
        FaultPlan::lossless(),
        FaultPlan::with_drop(50, 0xFA_07).delayed(1),
        FaultPlan::with_drop(200, 0xFA_11).delayed(3),
        FaultPlan::with_drop(200, 0xFA_13)
            .delayed(2)
            .duplicated(100),
    ]
}

#[test]
fn exact_mincut_under_faults_matches_serial_on_planted_graphs() {
    let planted = generators::clique_pair(8, 3).unwrap();
    let cases = [
        ("clique_pair8", planted.graph),
        ("torus5x4", generators::torus2d(5, 4).unwrap()),
    ];
    for (name, g) in &cases {
        let serial = exact_mincut(g, &ExactConfig::default()).expect("serial run succeeds");
        for plan in plans() {
            let tag = format!("{name} plan {plan:?}");
            let cfg = ExactConfig::default().with_executor(ExecutorKind::Faulty(plan));
            let faulty = exact_mincut(g, &cfg).expect("faulty run succeeds");
            assert_eq!(faulty.cut.value, serial.cut.value, "{tag}");
            assert_eq!(faulty.cut.side, serial.cut.side, "{tag}");
            assert_eq!(faulty.trees_packed, serial.trees_packed, "{tag}");
            assert_eq!(faulty.trees_to_best, serial.trees_to_best, "{tag}");
            assert_eq!(faulty.best_node, serial.best_node, "{tag}");
            assert_eq!(faulty.tree_edges, serial.tree_edges, "{tag}");
            assert_eq!(faulty.rounds, serial.rounds, "{tag}");
            assert_eq!(faulty.messages, serial.messages, "{tag}");
            // Phase by phase, the payload-level metrics match the serial
            // ledger exactly; only the transport-layer `sim` block may
            // (and, whenever frames moved, must) differ.
            assert_eq!(
                faulty.ledger.phases().len(),
                serial.ledger.phases().len(),
                "{tag}"
            );
            for (f, s) in faulty.ledger.phases().iter().zip(serial.ledger.phases()) {
                let mut payload = f.clone();
                payload.sim = s.sim;
                assert_eq!(&payload, s, "{tag}: phase {} diverged", s.name);
                if f.messages > 0 {
                    assert!(
                        f.sim.phys_rounds > f.rounds,
                        "{tag}: phase {} paid no synchronizer overhead",
                        f.name
                    );
                }
            }
            // The overhead is measured, not hidden.
            assert!(faulty.ledger.total_phys_rounds() > serial.rounds, "{tag}");
            assert!(faulty.ledger.sim_overhead_factor() > 1.0, "{tag}");
        }
    }
}

/// Lossy runs with the same plan are byte-identical end to end —
/// including every transport counter — and the planted cut is found.
#[test]
fn faulty_runs_are_deterministic_per_plan() {
    let planted = generators::clique_pair(8, 3).unwrap();
    let plan = FaultPlan::with_drop(150, 77).delayed(2).duplicated(50);
    let cfg = ExactConfig::default().with_executor(ExecutorKind::Faulty(plan));
    let a = exact_mincut(&planted.graph, &cfg).unwrap();
    let b = exact_mincut(&planted.graph, &cfg).unwrap();
    assert_eq!(a.cut.value, planted.planted_value);
    assert_eq!(a.cut.value, b.cut.value);
    assert_eq!(a.cut.side, b.cut.side);
    assert_eq!(
        a.ledger.phases(),
        b.ledger.phases(),
        "ledger must be byte-identical"
    );
    assert_eq!(a.ledger.total_dropped(), b.ledger.total_dropped());
    assert!(a.ledger.total_dropped() > 0, "the adversary was not idle");
}

/// A starved channel reports *where* it starved: the typed
/// `RetransmitExhausted` names both endpoints of the directed edge
/// (`node` → `peer`) and the virtual round of the stuck payload, and the
/// diagnosis is deterministic.
#[test]
fn retransmit_exhaustion_names_the_starved_edge() {
    use mincut_repro::congest::CongestError;
    use mincut_repro::mincut::MinCutError;

    let g = generators::torus2d(4, 4).unwrap();
    // Total frame loss: the first scheduled payload retransmission
    // budget to run out aborts the phase.
    let plan = FaultPlan::with_drop(1000, 0xDEAD);
    let run = || {
        let cfg = ExactConfig::default().with_executor(ExecutorKind::Faulty(plan.clone()));
        exact_mincut(&g, &cfg).expect_err("total loss cannot complete")
    };
    let err = run();
    let MinCutError::Congest(CongestError::RetransmitExhausted {
        phase,
        node,
        peer,
        round,
        attempts,
        ..
    }) = &err
    else {
        panic!("expected RetransmitExhausted, got {err:?}");
    };
    assert_eq!(phase, "leader_bfs", "the very first phase starves");
    assert_ne!(node, peer, "a directed edge has distinct endpoints");
    assert!(
        g.neighbors(*node).iter().any(|a| a.neighbor == *peer),
        "the reported pair is an actual edge of the graph"
    );
    assert_eq!(*attempts, 64, "the plan's budget is echoed back");
    assert_eq!(*round, 0, "the stuck payload was sent at boot");
    assert_eq!(err, run(), "the starvation diagnosis is deterministic");
}
