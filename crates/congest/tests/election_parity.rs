//! Election parity against a sequential BFS oracle, plus message and
//! round budgets on row-major and adversarial identifier layouts.
//!
//! The oracle: the leader is node 0 (the minimum identifier), each
//! node's depth is its `graphs::traversal::bfs` distance, its parent is
//! the smallest port whose neighbor is one level closer to the root,
//! and its children are the ports whose neighbor's parent edge is that
//! port's edge. `LeaderBfs` must match it node by node, field by field,
//! on every topology and under the serial, parallel, and faulty
//! executors.
//!
//! Strict mode is on throughout, so any protocol violation the doubling
//! schedule could introduce (a probe or ack reaching a halted node, a
//! front outrunning its stage) would fail the run itself, not just the
//! assertions.
//!
//! The message budgets replace ratios against the retired every-node
//! flood (all nodes candidates, fronts unthrottled): each is the ratio
//! applied to that flood's count on the same instance, recorded when it
//! was retired (`docs/elections.md`).

use congest::primitives::leader_bfs::{LeaderBfs, LeaderBfsOutput};
use congest::sim::FaultPlan;
use congest::{ExecutorKind, Network, NetworkConfig, Port, TreeInfo};
use graphs::{generators, NodeId, WeightedGraph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// One graph from the three stress families, keyed by `family % 3`
/// (mirrors the executor parity suite).
fn make_graph(family: u8, seed: u64, size: usize) -> WeightedGraph {
    match family % 3 {
        // Random tree: node i attaches to a uniform ancestor — deep
        // BFS trees, many local minima among the leaves.
        0 => {
            let n = size.max(2);
            let mut rng = StdRng::seed_from_u64(seed);
            let edges: Vec<(u32, u32, u64)> = (1..n)
                .map(|i| {
                    let parent = rng.gen_range(0..i) as u32;
                    (parent, i as u32, 1 + (seed + i as u64) % 7)
                })
                .collect();
            WeightedGraph::from_edges(n, edges).expect("valid tree")
        }
        // Torus: uniform degree 4, wrap-around routing, one local
        // minimum under row-major ids.
        1 => {
            let side = 3 + size % 5;
            generators::torus2d(side, side).expect("valid torus")
        }
        // Clique: diameter 1, every probe is a crossing.
        _ => generators::complete(3 + size % 6, 1 + seed % 5).expect("valid clique"),
    }
}

/// Runs the election under `kind`; returns (outputs, rounds, messages).
fn run(g: &WeightedGraph, kind: ExecutorKind) -> (Vec<LeaderBfsOutput>, u64, u64) {
    let cfg = NetworkConfig {
        executor: kind,
        parallel_inline_threshold: 0,
        ..Default::default()
    };
    let mut net = Network::new(g, cfg).expect("valid topology");
    let out = net
        .run("leader_bfs", &LeaderBfs::new(), vec![(); g.node_count()])
        .expect("election succeeds in strict mode");
    (out.outputs, out.metrics.rounds, out.metrics.messages)
}

/// The sequential oracle: the BFS tree of the minimum identifier, with
/// every tie broken toward the smallest port.
fn bfs_oracle(g: &WeightedGraph) -> Vec<LeaderBfsOutput> {
    let root = NodeId::new(0);
    let dist = graphs::traversal::bfs(g, root).dist;
    let parents: Vec<Option<Port>> = g
        .nodes()
        .map(|v| {
            g.neighbors(v)
                .iter()
                .position(|a| dist[a.neighbor.index()] + 1 == dist[v.index()])
                .map(|i| Port(i as u32))
        })
        .collect();
    let parent_edge = |v: NodeId| parents[v.index()].map(|p| g.neighbors(v)[p.index()].edge);
    g.nodes()
        .map(|v| LeaderBfsOutput {
            leader: root,
            tree: TreeInfo {
                parent: parents[v.index()],
                children: g
                    .neighbors(v)
                    .iter()
                    .enumerate()
                    .filter(|(_, a)| parent_edge(a.neighbor) == Some(a.edge))
                    .map(|(i, _)| Port(i as u32))
                    .collect(),
                depth: dist[v.index()],
            },
        })
        .collect()
}

/// Relabels `g` by a seeded uniform permutation: node `v` becomes
/// `perm[v]`, adjacency and weights unchanged.
fn permute_ids(g: &WeightedGraph, seed: u64) -> WeightedGraph {
    let n = g.node_count();
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.shuffle(&mut StdRng::seed_from_u64(seed));
    let edges: Vec<(u32, u32, u64)> = g
        .edge_tuples()
        .map(|(_, u, v, w)| (perm[u.index()], perm[v.index()], w))
        .collect();
    WeightedGraph::from_edges(n, edges).expect("permutation preserves validity")
}

/// Number of local-minimum identifiers — the election's candidate count.
fn local_minima(g: &WeightedGraph) -> usize {
    g.nodes()
        .filter(|&v| {
            g.neighbors(v)
                .iter()
                .all(|a| a.neighbor.index() > v.index())
        })
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The election equals the oracle, node by node, field by field,
    /// under the serial, the parallel, and the faulty executor.
    #[test]
    fn election_matches_bfs_oracle_everywhere(family in 0u8..3, seed in 0u64..1000, size in 2usize..40) {
        let g = make_graph(family, seed, size);
        let want = bfs_oracle(&g);
        for kind in [
            ExecutorKind::Serial,
            ExecutorKind::Parallel { threads: 3 },
            ExecutorKind::Faulty(FaultPlan::with_drop(100, seed).delayed(2).duplicated(50)),
        ] {
            let (got, _, _) = run(&g, kind.clone());
            prop_assert_eq!(&got, &want, "executor {:?}", kind);
        }
    }
}

/// Random weighted graphs (not from the three families): denser, with
/// shortcut edges that give equal-depth parent candidates — the
/// tie-break territory — and one input with parallel edges, which the
/// graph builder merges.
#[test]
fn election_matches_bfs_oracle_on_random_graphs() {
    let mut rng = StdRng::seed_from_u64(99);
    for n in [2usize, 5, 17, 40, 90] {
        for p in [0.06, 0.2, 0.6] {
            let g = generators::erdos_renyi_connected(n, p, &mut rng).unwrap();
            let (got, _, _) = run(&g, ExecutorKind::Serial);
            assert_eq!(got, bfs_oracle(&g), "n = {n}, p = {p}");
        }
    }
    let multi = WeightedGraph::from_edges(
        5,
        [
            (0, 1, 1),
            (1, 0, 2),
            (1, 2, 1),
            (2, 3, 1),
            (3, 2, 4),
            (3, 4, 1),
            (4, 0, 1),
        ],
    )
    .unwrap();
    let (got, _, _) = run(&multi, ExecutorKind::Serial);
    assert_eq!(got, bfs_oracle(&multi), "multigraph");
}

/// On the row-major 24×24 torus the every-node flood moved 24,190
/// messages; the ≥ 5× cut it was gated at is the budget ⌊24,190 / 5⌋
/// (measured 2,879).
#[test]
fn torus24_election_stays_under_its_message_budget() {
    let g = generators::torus2d(24, 24).unwrap();
    let (got, _, msgs) = run(&g, ExecutorKind::Serial);
    assert_eq!(got, bfs_oracle(&g));
    assert!(msgs <= 4_838, "torus24x24 election moved {msgs} messages");
}

/// Checks oracle parity and budgets on one permuted-identifier instance.
///
/// `max_msgs` and `max_rounds` are the retired flood's ratios applied
/// to its recorded counts: 0.9 × its messages, and (5 × its rounds + 20) / 4 rounds.
fn check_instance(
    name: &str,
    g: &WeightedGraph,
    min_minima: usize,
    max_msgs: u64,
    max_rounds: u64,
) {
    let minima = local_minima(g);
    assert!(
        minima >= min_minima,
        "{name}: permutation produced only {minima} local minima"
    );
    let (got, rounds, msgs) = run(g, ExecutorKind::Serial);
    assert_eq!(got, bfs_oracle(g), "{name}: outputs ≠ BFS oracle");

    let d = u64::from(got.iter().map(|o| o.tree.depth).max().expect("nonempty"));
    let m2 = 2 * g.edge_count() as u64;
    let log_d = 64 - d.max(1).leading_zeros() as u64;
    // O(m log D) probes + O(n) acks/done — the front bound, with a
    // constant ≤ 2 (measured ≈ 1.1 on the torus, ≈ 0.5 on the ER
    // instance, where D and hence log D is tiny).
    assert!(
        msgs <= 2 * m2 * (log_d + 2),
        "{name}: {msgs} msgs vs 2m(log D + 2) = {}",
        2 * m2 * (log_d + 2)
    );
    assert!(msgs <= max_msgs, "{name}: {msgs} msgs > budget {max_msgs}");
    // Rounds stay in the O(D) envelope, with a small constant over the
    // unthrottled flood thanks to the eccentricity-seeded first radius.
    assert!(rounds <= 6 * d + 30, "{name}: {rounds} rounds on D = {d}");
    assert!(
        rounds <= max_rounds,
        "{name}: {rounds} rounds > budget {max_rounds}"
    );
}

/// Torus24x24 with uniformly permuted identifiers: ~n/5 local minima
/// instead of one — the layout the doubling schedule exists for. The
/// flood it replaced moved 11,631 / 11,511 / 11,991 messages in 72
/// rounds on seeds 1 / 42 / 1337.
#[test]
fn permuted_torus24x24_validates_the_log_d_front_bound() {
    let g = generators::torus2d(24, 24).unwrap();
    for (seed, max_msgs) in [(1u64, 10_467), (42, 10_359), (1337, 10_791)] {
        let pg = permute_ids(&g, seed);
        // A uniform permutation yields ≈ n/(Δ+1) = 115 expected minima.
        check_instance(&format!("torus24x24 seed {seed}"), &pg, 80, max_msgs, 95);
    }
}

/// A connected Erdős–Rényi graph (small diameter, many minima after
/// permutation): the opposite regime from the torus. The flood it
/// replaced moved 11,979 / 11,586 messages in 15 / 13 rounds on seeds
/// 7 / 21.
#[test]
fn permuted_erdos_renyi_stays_parity_and_budgeted() {
    let mut rng = StdRng::seed_from_u64(99);
    let g = generators::erdos_renyi_connected(400, 0.02, &mut rng).unwrap();
    for (seed, max_msgs, max_rounds) in [(7u64, 10_781, 23), (21, 10_427, 21)] {
        let pg = permute_ids(&g, seed);
        check_instance(&format!("er400 seed {seed}"), &pg, 30, max_msgs, max_rounds);
    }
}
