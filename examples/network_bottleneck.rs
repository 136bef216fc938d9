//! Domain scenario: find the bandwidth bottleneck of an ad-hoc wireless
//! network. The nodes of a random geometric graph (radio range ≈ 0.18)
//! cooperatively compute the global minimum cut — the links whose failure
//! partitions the network — using only `O(log n)`-bit messages. The walk
//! then zooms into where the MST construction (phase A, the dominant
//! message sink of each packed tree) spends its traffic, and what its
//! frozen-fragment skip saves.
//!
//! ```text
//! cargo run --release --example network_bottleneck
//! ```

use mincut_repro::congest::MetricsLedger;
use mincut_repro::graphs::{generators, traversal};
use mincut_repro::mincut::dist::driver::{exact_mincut, ExactConfig};
use mincut_repro::mincut::seq::tree_packing::greedy_packing;

/// Sums `(messages, rounds, phases)` of the `mstA` sub-phases ending in
/// `suffix` ("" aggregates all of phase A).
fn msta(ledger: &MetricsLedger, suffix: &str) -> (u64, u64, usize) {
    ledger
        .phases()
        .iter()
        .filter(|p| p.name.starts_with("mstA") && p.name.ends_with(suffix))
        .fold((0, 0, 0), |(m, r, c), p| {
            (m + p.messages, r + p.rounds, c + 1)
        })
}

/// Number of phase-A growth levels the run went through (levels appear
/// as `mstA.l{level}.…` sub-phases; every level runs its `.cd` pass, so
/// counting those is exact).
fn levels(ledger: &MetricsLedger) -> usize {
    msta(ledger, ".cd").2
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(2024);
    let g = generators::random_geometric(160, 0.18, &mut rng)?;
    let diameter = traversal::two_sweep_diameter(&g);
    println!(
        "ad-hoc network: n = {}, m = {}, diameter ≈ {diameter}",
        g.node_count(),
        g.edge_count()
    );

    let result = exact_mincut(&g, &ExactConfig::default())?;
    let weak_side = result.cut.smaller_side();
    println!();
    println!("bottleneck capacity (min cut): {}", result.cut.value);
    println!(
        "weak partition: {} nodes {:?}{}",
        weak_side.len(),
        &weak_side[..weak_side.len().min(12)],
        if weak_side.len() > 12 { " …" } else { "" }
    );
    println!();
    println!("CONGEST cost:");
    println!("  rounds   : {}", result.rounds);
    println!("  messages : {}", result.messages);
    let sqrt_n_d = (g.node_count() as f64).sqrt() + diameter as f64;
    println!(
        "  rounds / (√n + D) = {:.1}  (the paper's Õ(√n + D) scaling unit)",
        result.rounds as f64 / sqrt_n_d
    );

    // Where do the MST messages go? Phase A grows ⌈√n⌉-capped fragments
    // level by level; its three message species are the boundary
    // announcements (exch), the fused candidate/decision pass (cd), and
    // the hook handshake + re-root floods.
    let (a_msgs, a_rounds, a_phases) = msta(&result.ledger, "");
    println!();
    println!("mstA breakdown ({} trees packed):", result.trees_packed);
    println!(
        "  total    : {a_msgs} msgs over {a_rounds} rounds in {a_phases} sub-phases ({} growth levels)",
        levels(&result.ledger)
    );
    for (label, suffix) in [
        ("exch (boundary announcements)", ".exch"),
        ("cd   (fused cand/dec pass)   ", ".cd"),
        ("hook (mating + re-root)      ", ".hook"),
    ] {
        let (m, r, c) = msta(&result.ledger, suffix);
        println!(
            "  {label}: {m} msgs / {r} rounds in {c} phases ({:.0}% of phase A)",
            100.0 * m as f64 / a_msgs.max(1) as f64
        );
    }
    // Freeze statistics, read off the ledger: once a fragment hits the
    // size cap it freezes — frozen nodes skip the cd pass entirely,
    // and a level whose boundary didn't change skips its exch phase
    // (the driver elides globally silent exchanges). Fewer exch phases
    // than levels = levels that moved zero announcement messages.
    let lv = levels(&result.ledger);
    let (_, _, exch_phases) = msta(&result.ledger, ".exch");
    println!(
        "  freeze effect: {}/{lv} levels needed no boundary announcements at all",
        lv - exch_phases.min(lv)
    );

    // Every distributed tree is the sequential greedy packing's tree.
    let seq_trees = greedy_packing(&g, result.trees_packed)?;
    for (got, mut want) in result.tree_edges.iter().zip(seq_trees) {
        want.sort_unstable();
        assert_eq!(
            got, &want,
            "distributed MST differs from the sequential packing"
        );
    }
    println!(
        "  all {} trees equal the sequential greedy packing, edge for edge",
        result.trees_packed
    );
    Ok(())
}
