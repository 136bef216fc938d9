//! Leader election fused with BFS-tree construction.
//!
//! # The protocol
//!
//! [`LeaderBfs`] elects the minimum identifier with a *throttled-front*
//! flood. Every **candidate** starts a probe flood of its own identifier;
//! every node adopts the smallest identifier it has seen ("best"),
//! remembers the first port it heard that identifier from (its parent —
//! ties broken toward the smallest port among equal-depth arrivals), and
//! forwards the probe on its other ports. Termination is the classic
//! echo: a node acknowledges its parent once every other port is
//! *resolved* (a crossing probe for the same best, or a child's ack), and
//! only the global minimum — the one candidate no probe can beat — ever
//! completes its echo, since a region that elects a *local* minimum can
//! never resolve its ports toward the nodes that know a smaller
//! identifier. The root's completed echo triggers a `Done` wave down its
//! tree that halts everyone.
//!
//! Two rules keep the flood message-frugal:
//!
//! * **Local-minima candidacy.** Only nodes smaller than all their
//!   neighbors flood (neighbor identifiers are a node's a-priori local
//!   knowledge, see [`crate::node::NeighborInfo`]). Sound because a
//!   non-minimal node can never win; complete because the global
//!   minimum is always a local minimum. This removes the `Θ(n·deg)` boot
//!   flood and, on identifier layouts with few local minima, collapses
//!   the election to a single wave.
//! * **Radius-doubling fronts.** A probe at distance `d` from its
//!   candidate is forwarded only once the globally known round schedule
//!   releases radius `> d`: stage `k` permits radius `R_k = r0·2^k` and
//!   lasts `R_k + 2` rounds, so a front alternately advances one annulus
//!   and pauses. A candidate that is not the minimum in its current ball
//!   is overrun by a smaller front while paused, so the number of live
//!   fronts — and with it the re-flood traffic — collapses geometrically
//!   with the stage index instead of every local minimum flooding the
//!   whole graph. The first radius is `r0 = ⌈log₂ n⌉`: every node knows
//!   `n`, so the schedule stays a function of the synchronized round
//!   number alone.
//!
//! # Message and round bounds
//!
//! Each node re-floods once per candidate front that reaches it; fronts
//! that reach a node are pairwise separated by the doubling radii, so a
//! node sees `O(log D)` fronts in the worst case and `O(1)` on
//! identifier layouts with isolated local minima — total messages `O(m)`
//! on such layouts. Rounds stay `O(D)`: the stage windows sum
//! geometrically, so the winning front reaches radius `D` within
//! `O(D + log D)` rounds, and the echo and done waves add `2D`. Every
//! message is `O(log n)` bits. `docs/elections.md` has the measurements.
//!
//! # Output
//!
//! The leader is the minimum identifier, every depth is the true BFS
//! distance from it, and every parent is the smallest port toward a node
//! one level closer: the winning wave advances one hop per released
//! round and all nodes at depth `d − 1` forward in the same round (the
//! schedule depends on the round number only), so a node at depth `d`
//! hears the winner simultaneously from all its depth-`d − 1` neighbors
//! and picks the smallest port. The parity suite
//! (`crates/congest/tests/election_parity.rs`) checks every field
//! against a sequential BFS oracle on random trees, tori, cliques, and
//! random graphs under the serial, parallel, and faulty executors.

use crate::algorithm::{Algorithm, FinishResult, Outbox, Step};
use crate::message::{value_bits, Message, TAG_BITS};
use crate::node::{NodeCtx, Port, TreeInfo};
use graphs::NodeId;

/// Messages of the leader/BFS phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LeaderMsg {
    /// "My current leader is `leader`, at distance `depth` from me."
    Probe {
        /// Leader id being flooded.
        leader: u32,
        /// Sender's distance from that leader.
        depth: u32,
    },
    /// "My subtree has fully joined `leader`'s tree; I am your child."
    Ack {
        /// Leader this ack refers to (stale acks are ignored).
        leader: u32,
    },
    /// "The election is over; halt after forwarding to your children."
    Done {
        /// The elected leader.
        leader: u32,
    },
}

impl Message for LeaderMsg {
    fn bit_len(&self) -> usize {
        match self {
            LeaderMsg::Probe { leader, depth } => {
                TAG_BITS + value_bits(*leader as u64) + value_bits(*depth as u64)
            }
            LeaderMsg::Ack { leader } | LeaderMsg::Done { leader } => {
                TAG_BITS + value_bits(*leader as u64)
            }
        }
    }
}

/// Per-node output: the elected leader and this node's place in its BFS tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LeaderBfsOutput {
    /// The elected leader (the minimum identifier in the network).
    pub leader: NodeId,
    /// Parent/children/depth in the leader's BFS tree.
    pub tree: TreeInfo,
}

/// The leader-election + BFS-tree phase. See module docs.
#[derive(Copy, Clone, Debug, Default)]
pub struct LeaderBfs;

impl LeaderBfs {
    /// The election phase.
    pub fn new() -> Self {
        LeaderBfs
    }
}

/// The schedule's first radius for an `n`-node network: `⌈log₂ n⌉`.
/// A radius-`r0` ball a probe must cover before its first pause holds at
/// most `Δ^{r0}` nodes, so on any graph whose depth is below `log₂ n`
/// stage 0 already spans the graph, while on bounded-degree graphs —
/// where `D ≥ log_Δ n = Θ(log n)` — the seed is a diameter lower bound
/// and the stages it skips would be pure pause. A wire probe of the real
/// eccentricity would cost `Ω(m)` messages, more than the whole election
/// moves on few-minima layouts, so the seed stays a-priori.
fn first_radius(n: usize) -> u64 {
    crate::message::id_bits(n) as u64
}

/// The probe radius the doubling schedule with first radius `r0`
/// permits in `round`: a node at depth `d` may forward iff
/// `d < radius_at(r0, round)`.
fn radius_at(r0: u64, round: u64) -> u64 {
    // Stage k spans [T_k, T_{k+1}) with T_{k+1} = T_k + R_k + 2 and
    // R_k = r0 << k; walk the (≤ 64) stages.
    let mut start = 0u64;
    let mut radius = r0.max(1);
    loop {
        let next = start.saturating_add(radius.saturating_add(2));
        if round < next || next == u64::MAX {
            return radius;
        }
        start = next;
        radius = radius.saturating_mul(2);
    }
}

/// Node state for [`LeaderBfs`].
#[derive(Debug)]
pub struct ElectionState {
    /// Smallest identifier seen (the current tree's candidate).
    best: u32,
    depth: u32,
    parent: Option<Port>,
    /// Per-port resolution for the current `best`.
    resolved: Vec<bool>,
    /// Ports that acked us as their parent (our children).
    children: Vec<bool>,
    /// Probes for `best` not yet sent (awaiting the schedule's release).
    probe_pending: bool,
    acked: bool,
}

impl ElectionState {
    fn adopt(&mut self, leader: u32, depth: u32, via: Port, degree: usize) {
        self.best = leader;
        self.depth = depth;
        self.parent = Some(via);
        self.resolved.clear();
        self.resolved.resize(degree, false);
        self.resolved[via.index()] = true;
        self.children.clear();
        self.children.resize(degree, false);
        self.probe_pending = true;
        self.acked = false;
    }

    fn all_resolved(&self) -> bool {
        self.resolved.iter().all(|&r| r)
    }

    /// Queues probes for `best` on all non-parent ports.
    fn flood(&self, ctx: &NodeCtx<'_>, out: &mut Outbox<LeaderMsg>) {
        for p in ctx.ports() {
            if Some(p) != self.parent {
                out.send(
                    p,
                    LeaderMsg::Probe {
                        leader: self.best,
                        depth: self.depth,
                    },
                );
            }
        }
    }

    /// Sends the halting `Done` wave to our children.
    fn done_wave(&self, ctx: &NodeCtx<'_>, out: &mut Outbox<LeaderMsg>) {
        for p in ctx.ports() {
            if self.children[p.index()] {
                out.send(p, LeaderMsg::Done { leader: self.best });
            }
        }
    }
}

impl Algorithm for LeaderBfs {
    type Input = ();
    type State = ElectionState;
    type Msg = LeaderMsg;
    type Output = LeaderBfsOutput;

    fn boot(&self, ctx: &NodeCtx<'_>, _input: ()) -> (ElectionState, Outbox<LeaderMsg>) {
        let deg = ctx.degree();
        let me = ctx.node.raw();
        let state = ElectionState {
            best: me,
            depth: 0,
            parent: None,
            resolved: vec![false; deg],
            children: vec![false; deg],
            probe_pending: false,
            acked: false,
        };
        let mut out = Outbox::new();
        // Boot counts as round 0; R_0 ≥ 1 > 0, so a candidate's own
        // probe is never gated.
        if ctx.neighbors().all(|(_, ni)| ni.id.raw() > me) {
            state.flood(ctx, &mut out);
        }
        (state, out)
    }

    fn round(
        &self,
        s: &mut ElectionState,
        ctx: &NodeCtx<'_>,
        inbox: &[(Port, LeaderMsg)],
    ) -> Step<LeaderMsg> {
        let deg = ctx.degree();
        let mut done = false;
        // Phase 1: adopt the best probe in this inbox, if it improves.
        let mut best_new: Option<(u32, u32, Port)> = None;
        for (port, msg) in inbox {
            if let LeaderMsg::Probe { leader, depth } = msg {
                if *leader < s.best {
                    let cand = (*leader, *depth, *port);
                    best_new = Some(match best_new {
                        // Prefer the smaller leader; among equal leaders the
                        // smaller depth, then the smaller port.
                        Some(prev) if prev <= cand => prev,
                        _ => cand,
                    });
                }
            }
        }
        if let Some((leader, depth, port)) = best_new {
            s.adopt(leader, depth + 1, port, deg);
        }
        // Phase 2: resolutions for the current leader.
        for (port, msg) in inbox {
            match msg {
                LeaderMsg::Probe { leader, .. } => {
                    if *leader == s.best && Some(*port) != s.parent {
                        s.resolved[port.index()] = true;
                    }
                    // leader > best: ignore (our wave overruns theirs);
                    // leader < best handled in phase 1 (parent port already
                    // marked resolved by adopt).
                }
                LeaderMsg::Ack { leader } => {
                    if *leader == s.best {
                        s.resolved[port.index()] = true;
                        s.children[port.index()] = true;
                    }
                }
                LeaderMsg::Done { leader } => {
                    debug_assert_eq!(*leader, s.best, "done wave carries the winner");
                    done = true;
                }
            }
        }

        let mut out = Outbox::new();
        // Done wave: forward to children and halt.
        if done {
            s.done_wave(ctx, &mut out);
            return Step::Halt(out);
        }
        // A pending probe fires once the schedule releases this depth: a
        // front pauses at each stage radius and resumes — on all
        // non-parent ports, so the crossing probes the neighbors' echoes
        // wait for are never skipped — when the next stage begins.
        if s.probe_pending && u64::from(s.depth) < radius_at(first_radius(ctx.n), ctx.round) {
            s.probe_pending = false;
            s.flood(ctx, &mut out);
        }
        // Echo: ack the parent once everything else is resolved.
        if s.all_resolved() && !s.acked && !s.probe_pending {
            match s.parent {
                Some(p) => {
                    s.acked = true;
                    out.send(p, LeaderMsg::Ack { leader: s.best });
                }
                None => {
                    // We are the root and our echo completed: we are the
                    // global minimum (no other candidate's echo can ever
                    // complete — any foreign tree has an unresolvable port
                    // toward the region that knows a smaller id). Fire the
                    // done wave and halt.
                    debug_assert_eq!(s.best, ctx.node.raw());
                    s.done_wave(ctx, &mut out);
                    return Step::Halt(out);
                }
            }
        }
        Step::Continue(out)
    }

    fn finish(&self, s: ElectionState, ctx: &NodeCtx<'_>) -> FinishResult<LeaderBfsOutput> {
        let children: Vec<Port> = ctx.ports().filter(|p| s.children[p.index()]).collect();
        Ok(LeaderBfsOutput {
            leader: NodeId::new(s.best),
            tree: TreeInfo {
                parent: s.parent,
                children,
                depth: s.depth,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use crate::engine::Network;
    use graphs::generators;
    use graphs::WeightedGraph;

    fn run_leader(g: &WeightedGraph) -> (Vec<LeaderBfsOutput>, u64, u64) {
        let mut net = Network::new(g, NetworkConfig::default()).unwrap();
        let out = net
            .run("leader_bfs", &LeaderBfs::new(), vec![(); g.node_count()])
            .expect("leader election succeeds");
        (out.outputs, out.metrics.rounds, out.metrics.messages)
    }

    fn check_bfs_tree(g: &WeightedGraph, outs: &[LeaderBfsOutput]) {
        let n = g.node_count();
        let dist = graphs::traversal::bfs(g, NodeId::new(0)).dist;
        for (v, o) in outs.iter().enumerate() {
            assert_eq!(o.leader, NodeId::new(0), "node {v} elected {:?}", o.leader);
            assert_eq!(o.tree.depth, dist[v], "node {v} depth");
            if v == 0 {
                assert!(o.tree.is_root());
            } else {
                let p = o.tree.parent.expect("non-root has parent");
                let parent_id = g.neighbors(NodeId::from_index(v))[p.index()].neighbor;
                assert_eq!(dist[parent_id.index()] + 1, dist[v], "BFS parent");
            }
        }
        // Children lists are consistent with parents.
        let mut child_count = 0;
        for (v, o) in outs.iter().enumerate() {
            for &c in &o.tree.children {
                let child_id = g.neighbors(NodeId::from_index(v))[c.index()].neighbor;
                let cp = outs[child_id.index()]
                    .tree
                    .parent
                    .expect("child has parent");
                let back = g.neighbors(child_id)[cp.index()].neighbor;
                assert_eq!(back, NodeId::from_index(v));
                child_count += 1;
            }
        }
        assert_eq!(child_count, n - 1, "tree has n-1 edges");
    }

    #[test]
    fn elects_on_path() {
        let g = generators::path(12).unwrap();
        let (outs, rounds, _) = run_leader(&g);
        check_bfs_tree(&g, &outs);
        // Path diameter 11: stage windows + echo + done ≈ 6D.
        assert!(rounds <= 6 * 11 + 12, "rounds = {rounds}");
    }

    #[test]
    fn elects_on_grid_and_torus() {
        for g in [
            generators::grid2d(5, 7).unwrap(),
            generators::torus2d(4, 4).unwrap(),
        ] {
            let (outs, rounds, _) = run_leader(&g);
            check_bfs_tree(&g, &outs);
            let d = graphs::traversal::exact_diameter(&g) as u64;
            assert!(rounds <= 6 * d + 16, "rounds = {rounds}, D = {d}");
        }
    }

    #[test]
    fn elects_on_random_graphs() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for n in [2usize, 3, 10, 50, 120] {
            let g = generators::erdos_renyi_connected(n, 0.08, &mut rng).unwrap();
            check_bfs_tree(&g, &run_leader(&g).0);
        }
    }

    #[test]
    fn single_node_network() {
        let g = WeightedGraph::from_edges(1, []).unwrap();
        let (outs, rounds, _) = run_leader(&g);
        assert_eq!(outs[0].leader, NodeId::new(0));
        assert!(outs[0].tree.is_root());
        assert!(rounds <= 2);
    }

    #[test]
    fn rounds_scale_with_diameter_not_n() {
        // A star has D = 2 regardless of n: rounds must stay constant-ish
        // (stage 0 already releases radius ⌈log₂ 200⌉ = 8 > D).
        let g = generators::star(200).unwrap();
        let (_, rounds, _) = run_leader(&g);
        assert!(rounds <= 12, "rounds = {rounds} on a star");
    }

    #[test]
    fn messages_are_small() {
        let g = generators::grid2d(6, 6).unwrap();
        let mut net = Network::new(&g, NetworkConfig::default()).unwrap();
        let out = net
            .run("leader_bfs", &LeaderBfs::new(), vec![(); 36])
            .unwrap();
        assert!(out.metrics.max_message_bits <= net.bandwidth_bits());
    }

    /// On a row-major torus (one local minimum) the election is a single
    /// wave plus echo and done, and the eccentricity seed removes the
    /// early pause stages. Budgets: a third of the 3,454 messages, and
    /// under 1.25× the 36 rounds, of the every-node flood (all nodes
    /// candidates, fronts unthrottled) on this torus.
    #[test]
    fn staged_cuts_messages_on_torus() {
        let g = generators::torus2d(12, 12).unwrap();
        let (outs, rounds, msgs) = run_leader(&g);
        check_bfs_tree(&g, &outs);
        assert!(msgs <= 1_151, "torus12x12 election moved {msgs} messages");
        assert_eq!(msgs, 719, "one candidate: one wave, echo, and done");
        assert!(rounds <= 44, "torus12x12 election took {rounds} rounds");
    }

    #[test]
    fn doubling_schedule_windows() {
        // Stage 0: rounds 0..3 (R = 1, window 3).
        for r in 0..3 {
            assert_eq!(radius_at(1, r), 1, "round {r}");
        }
        // Stage 1: rounds 3..7 (R = 2, window 4).
        for r in 3..7 {
            assert_eq!(radius_at(1, r), 2, "round {r}");
        }
        // Stage 2: rounds 7..13 (R = 4, window 6).
        for r in 7..13 {
            assert_eq!(radius_at(1, r), 4, "round {r}");
        }
        assert_eq!(radius_at(1, 13), 8);
    }

    #[test]
    fn ecc_seed_resolves_against_n() {
        assert_eq!(first_radius(576), 10);
        assert_eq!(first_radius(2), 1);
        assert_eq!(first_radius(0), 1);
    }

    #[test]
    fn doubling_schedule_scales_with_r0_and_saturates() {
        assert_eq!(radius_at(4, 0), 4);
        assert_eq!(radius_at(4, 6), 8);
        // A zero r0 is clamped to 1 (radius 0 would gate forever).
        assert_eq!(radius_at(0, 0), 1);
        // Enormous rounds terminate (saturating walk) with a huge radius.
        assert!(radius_at(1, u64::MAX - 1) > 1 << 60);
    }

    #[test]
    fn radius_release_round_grows_linearly() {
        // The round at which radius R is first allowed must be O(R): the
        // stage windows sum to R_k + 2k + const, which is what keeps the
        // election inside the O(D) round envelope.
        for k in 0..20u32 {
            let radius = 1u64 << k;
            let release = (0..u64::MAX)
                .find(|&r| radius_at(1, r) > radius)
                .expect("released");
            assert!(
                release <= 2 * radius + 2 * u64::from(k) + 3,
                "radius {radius} released only at round {release}"
            );
        }
    }
}
