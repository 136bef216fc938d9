//! Phase-A parity against the sequential oracle: the distributed MST of
//! every packing iteration — capped fragment growth (`mstA`: boundary
//! label refresh, fused cand/dec pass, deterministic mating) followed by
//! Borůvka through the leader (`mstB`) — is **the** greedy packing tree,
//! because the MST under the weight-then-edge-id total order is unique.
//!
//! What is asserted per drawn instance:
//!  - `tree_edges` equals the sorted `seq::tree_packing::greedy_packing`
//!    trees, tree by tree;
//!  - λ, cut side, tree counts, and arg-min node equal
//!    `seq::tree_packing::packing_mincut` under the same packing config.
//!
//! A last test pins `mstA`'s message volume on two small instances as
//! ceilings, so a protocol change that loses the frozen-level skip, the
//! delta-silent `.cd` pass, or the boundary-only label refresh shows up
//! here before it reaches `message_gate`.

use mincut::dist::driver::{exact_mincut, ExactConfig};
use mincut::seq::tree_packing::{greedy_packing, packing_mincut, PackingConfig, PackingSize};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random recursive tree: node `v ≥ 1` attaches to a uniform earlier
/// node. Exactly `n − 1` edges — phase A must hook every one of them.
fn random_tree(n: usize, rng: &mut StdRng) -> graphs::WeightedGraph {
    let edges: Vec<(u32, u32, u64)> = (1..n as u32).map(|v| (rng.gen_range(0..v), v, 1)).collect();
    graphs::WeightedGraph::from_edges(n, edges).expect("valid tree")
}

fn assert_parity(tag: &str, g: &graphs::WeightedGraph, trees: usize) {
    let packing = PackingConfig {
        size: PackingSize::Fixed(trees),
        max_trees: trees,
    };
    let cfg = ExactConfig {
        packing: packing.clone(),
        ..Default::default()
    };
    let dist = exact_mincut(g, &cfg).expect("pipeline runs");
    let want: Vec<Vec<graphs::EdgeId>> = greedy_packing(g, trees)
        .expect("sequential packing runs")
        .into_iter()
        .map(|mut t| {
            t.sort_unstable();
            t
        })
        .collect();
    assert_eq!(dist.tree_edges, want, "{tag}: MST edge sets");
    let seq = packing_mincut(g, &packing).expect("sequential pipeline runs");
    assert_eq!(dist.cut.value, seq.cut.value, "{tag}: lambda");
    assert_eq!(dist.cut.side, seq.cut.side, "{tag}: cut side");
    assert_eq!(dist.trees_packed, seq.trees_packed, "{tag}: trees");
    assert_eq!(
        dist.trees_to_best, seq.trees_to_best,
        "{tag}: trees_to_best"
    );
    assert_eq!(dist.best_node, seq.best_node, "{tag}: best_node");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random trees: phase A *is* the whole MST here — every edge must
    /// be hooked, nothing is cut (and λ = 1 on any tree).
    #[test]
    fn parity_on_random_trees(n in 8usize..40, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_tree(n, &mut rng);
        assert_parity(&format!("tree n={n} seed={seed}"), &g, 1);
    }

    /// Tori: the canonical benchmark family (vertex-transitive, every
    /// level of fragment growth exercised, freezes guaranteed once
    /// fragments reach the √n cap).
    #[test]
    fn parity_on_tori(rows in 4usize..8, cols in 4usize..8) {
        let g = graphs::generators::torus2d(rows, cols).expect("torus");
        assert_parity(&format!("torus{rows}x{cols}"), &g, 2);
    }

    /// Connected Erdős–Rényi graphs: irregular degrees, multi-edge-free
    /// but unstructured — the adversarial case for the deterministic
    /// mating rule (arbitrary fragment-id adjacencies).
    #[test]
    fn parity_on_er_graphs(n in 10usize..32, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = graphs::generators::erdos_renyi_connected(n, 0.2, &mut rng)
            .expect("connected ER graph");
        assert_parity(&format!("er n={n} seed={seed}"), &g, 2);
    }
}

/// `mstA` message ceilings under the default packing and the serial
/// executor — today's counts, which are deterministic. Each is tighter
/// than the ⅔-of-coin-mating floor it replaced (4,162 and 10,504).
#[test]
fn msta_messages_stay_under_their_ceilings() {
    let planted = graphs::generators::clique_pair(8, 3).expect("clique pair");
    let cases = [
        ("clique_pair8", planted.graph, 2_819u64),
        (
            "torus6x5",
            graphs::generators::torus2d(6, 5).expect("torus"),
            8_120,
        ),
    ];
    for (name, g, ceiling) in &cases {
        let r = exact_mincut(g, &ExactConfig::default()).expect("pipeline runs");
        let msgs = r.ledger.messages_matching("mstA");
        assert!(
            msgs <= *ceiling,
            "{name}: mstA moved {msgs} messages > ceiling {ceiling}"
        );
    }
}
