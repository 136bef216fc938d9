//! The distributed minimum spanning tree, Kutten–Peleg style, as used by
//! the greedy tree packing.
//!
//! The MST is built in two phases over whatever edge key the packing
//! supplies (relative load, weight, edge id — a strict total order, so
//! the MST is unique and equals the sequential
//! [`trees::mst::kruskal_by`] tree):
//!
//! * **Phase A (`mstA.*`) — capped local growth.** Fragments grow by
//!   Borůvka hooking with a size cap of `√n`. Each level refreshes the
//!   fragment labels across fragment boundaries (`.exch`), then runs one
//!   fused up-then-down pass over every unfrozen fragment tree (`.cd`):
//!   the minimum outgoing edge and the fragment size converge at the
//!   root, which freezes the fragment at the cap or decides by the
//!   deterministic [`hooks_toward`] mating rule whether to hook, and
//!   sends the decision back down only when the fragment acts. Hooking
//!   fragments then re-root into their targets (`.hook`). The mating
//!   rule admits no 2-cycles, so hook chains have length one, a level
//!   costs `O(fragment diameter)` rounds, and all fragments run in
//!   parallel; frozen fragments sit every later level out. After
//!   `O(log n)` levels every fragment has ≥ `√n` nodes, so at most `√n`
//!   fragments remain.
//! * **Phase B (`mstB.*`) — Borůvka through the leader.** With `k ≤ √n`
//!   fragments left, each iteration aggregates the per-component minimum
//!   outgoing edge at the leader with one pipelined grouped argmin over
//!   the BFS tree (`O(k + D)` rounds), the leader merges components
//!   locally and broadcasts the merge table (`O(k + D)`), and components
//!   at least halve. Fragments stay *physical* (their internal trees are
//!   untouched); phase-B edges become the inter-fragment edges of the
//!   final tree, which is exactly the fragment decomposition Section 2
//!   needs.
//!
//! This module holds the node-side algorithms and wire types; the phase
//! sequencing lives in [`crate::dist::driver`], and `docs/mst.md`
//! explains the phase-A protocol in full.

use crate::dist::packing::Cand;
use congest::message::TAG_BITS;
use congest::primitives::grouped_min::KeyedItem;
use congest::{value_bits, Algorithm, FinishResult, Message, NodeCtx, Outbox, Port, Step};

/// Configuration of the distributed MST stage.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MstConfig {
    /// Fragment size cap of phase A; `None` derives the paper's `⌈√n⌉`.
    /// Smaller caps mean more (cheaper) fragments, larger caps fewer
    /// (deeper) ones — experiment E8 sweeps this.
    pub cap: Option<usize>,
}

impl MstConfig {
    /// The effective fragment size cap for an `n`-node network.
    pub fn effective_cap(&self, n: usize) -> usize {
        match self.cap {
            Some(c) => c.max(2),
            None => (n as f64).sqrt().ceil() as usize,
        }
    }
}

/// Phase A's deterministic mating rule — a one-shot Cole–Vishkin-style
/// symmetry breaker on the fragment choice graph. Fragment `frag`, whose
/// minimum outgoing edge leads to (unfrozen) fragment `target`, hooks
/// along it iff `frag`'s bit is `0` at the *lowest differing bit
/// position* of the two ids.
///
/// Two properties make the rule correct and live:
///
/// * **No 2-cycles.** For any unordered pair `{F, T}` the rule fires in
///   exactly one direction (the differing bit is `0` on exactly one
///   side), so two fragments that choose each other — in particular the
///   two endpoints of a GHS *core* edge — never both hook: one hooks,
///   the other is not hooking and therefore accepts. Hook chains have
///   length one on every level.
/// * **Progress.** In each choice-graph component the minimum-key edge
///   is the minimum outgoing edge of *both* endpoints (keys are a total
///   order), and by the point above exactly one endpoint hooks along it
///   and the other accepts — every component merges at least one pair
///   per level, so phase A finishes in `O(log n)` levels,
///   deterministically.
pub fn hooks_toward(frag: u32, target: u32) -> bool {
    debug_assert_ne!(frag, target, "choice edges join distinct fragments");
    let i = (frag ^ target).trailing_zeros();
    (frag >> i) & 1 == 0
}

// ---------------------------------------------------------------------------
// Phase A: label refresh (`mstA.*.exch`)
// ---------------------------------------------------------------------------

/// The `mstA.*.exch` payload: the sender's fragment and frozen state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FragMsg {
    /// Sender's fragment id.
    pub frag: u32,
    /// Sender's fragment is frozen.
    pub frozen: bool,
}

impl Message for FragMsg {
    fn bit_len(&self) -> usize {
        TAG_BITS + value_bits(self.frag as u64) + 1
    }
}

// ---------------------------------------------------------------------------
// Phase A: fused candidate/decision round-trip (`mstA.*.cd`)
// ---------------------------------------------------------------------------

/// A fragment root's decision, sent down the fragment tree in the `.cd`
/// pass (as [`CdMsg::Dec`]) only when the fragment freezes or hooks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecMsg {
    /// The fragment has reached the size cap.
    pub frozen: bool,
    /// Edge to hook along this level (`None`: stay put).
    pub hook_edge: Option<u32>,
}

/// A phase-A candidate: the edge's packing key plus the fragment across
/// it — the root needs the target's *id* to evaluate
/// [`hooks_toward`] and its frozen state for the unconditional-hook rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MoeCand {
    /// The candidate edge's key fields.
    pub cand: Cand,
    /// Fragment id across the edge.
    pub target_frag: u32,
    /// The fragment across the edge is frozen.
    pub target_frozen: bool,
}

/// The better (smaller-key) of two optional phase-A candidates.
pub fn better_moe(a: Option<MoeCand>, b: Option<MoeCand>) -> Option<MoeCand> {
    match (a, b) {
        (Some(x), Some(y)) => Some(if x.cand.key() <= y.cand.key() { x } else { y }),
        (x, None) => x,
        (None, y) => y,
    }
}

/// The subtree aggregate of the fused pass: size plus best outgoing
/// candidate. This is a *wire* type: the `.cd` pass does its own
/// delta-scheduled aggregation instead of going through the counting
/// [`congest::primitives::Convergecast`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MoeAgg {
    /// Nodes in the subtree.
    pub size: u64,
    /// Best outgoing edge in the subtree, if any.
    pub cand: Option<MoeCand>,
}

/// Messages of [`CandDec`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CdMsg {
    /// Subtree aggregate, child → parent (only when changed).
    Up(MoeAgg),
    /// Fragment decision, parent → child (only when hooking or freezing).
    Dec(DecMsg),
}

impl Message for CdMsg {
    fn bit_len(&self) -> usize {
        TAG_BITS
            + match self {
                CdMsg::Up(a) => {
                    value_bits(a.size)
                        + 1
                        + a.cand
                            .map_or(0, |c| c.cand.bits() + value_bits(c.target_frag as u64) + 1)
                }
                CdMsg::Dec(d) => 2 + d.hook_edge.map_or(0, |e| value_bits(e as u64)),
            }
    }
}

/// Input of [`CandDec`] for one node. The caches (`sent`, `children`)
/// persist across levels in the driver's `NodeMem` — they are what makes
/// the convergecast a *delta*: a quiescent subtree stays silent.
#[derive(Clone, Debug)]
pub struct CdInput {
    /// Fragment-tree view (parent + children ports).
    pub tree: congest::TreeInfo,
    /// This node's depth in its fragment tree (maintained by the hook
    /// phase; roots are 0).
    pub depth: u32,
    /// Maximum unfrozen-fragment depth network-wide this level — the
    /// shared schedule bound (driver control plane, see `docs/mst.md`).
    pub maxdepth: u32,
    /// This node's fragment id.
    pub frag: u32,
    /// Phase-A size cap.
    pub cap: u64,
    /// Frozen fragments sit the pass out entirely (level skip).
    pub frozen: bool,
    /// This node's best local outgoing candidate.
    pub local: Option<MoeCand>,
    /// This node's tree links flipped since the last level (re-root
    /// path): send unconditionally so the (possibly new) parent's cache
    /// entry is refreshed.
    pub purge: bool,
    /// The aggregate last sent up (`None` before the first send).
    pub sent: Option<MoeAgg>,
    /// Last aggregate received per port (children caches).
    pub children: Vec<Option<MoeAgg>>,
}

/// Output of [`CandDec`] for one node.
#[derive(Clone, Debug, Default)]
pub struct CdOutput {
    /// The decision this node learned: at a root, its own (if it decided
    /// to act); elsewhere, the broadcast received. `None` = the fragment
    /// neither hooks nor freezes this level (the silent default).
    pub dec: Option<DecMsg>,
    /// Updated `sent` cache, to persist in `NodeMem`.
    pub sent: Option<MoeAgg>,
    /// Updated children caches, to persist in `NodeMem`.
    pub children: Vec<Option<MoeAgg>>,
}

/// The fused cand/dec round-trip (`mstA.l*.cd`): one up-then-down pass
/// over every unfrozen fragment tree.
///
/// **Up.** A node at depth `d` sends its subtree aggregate at round
/// `maxdepth − d` — *iff* it differs from what it last sent (or the
/// fragment was restructured). By that round all children (depth `d+1`,
/// scheduled one round earlier) have spoken or stayed silent, and
/// silence means "unchanged": the parent's cached copy is current. A
/// fully quiescent subtree costs zero messages.
///
/// **Down.** The root's aggregate is complete at round `maxdepth`; it
/// decides (freeze at the cap, else the [`hooks_toward`] mating rule on
/// the best candidate) and broadcasts the decision — *only* if the
/// fragment hooks or freezes. Members that hear nothing by round
/// `maxdepth + depth` know the fragment stays put and halt: silence
/// down is "no hook", and a fragment whose minimum outgoing edge went
/// nowhere this level ends the pass with zero traffic in both
/// directions.
///
/// Rounds: `maxdepth + depth` per node, ≤ `2·maxdepth` + 1 total —
/// the order of a convergecast followed by a broadcast, in one phase.
#[derive(Clone, Debug, Default)]
pub struct CandDec;

/// Node state for [`CandDec`].
#[derive(Debug)]
pub struct CdState {
    input: CdInput,
    dec: Option<DecMsg>,
}

impl CdState {
    /// Own value + cached child aggregates. Every current child has a
    /// live cache entry by this node's send slot: unchanged children
    /// carried one over, restructured children were forced to speak.
    fn compute(&self) -> MoeAgg {
        let mut agg = MoeAgg {
            size: 1,
            cand: self.input.local,
        };
        for &p in &self.input.tree.children {
            if let Some(c) = &self.input.children[p.index()] {
                agg.size += c.size;
                agg.cand = better_moe(agg.cand, c.cand);
            }
        }
        agg
    }

    /// The root's per-fragment decision on its completed aggregate.
    fn decide(&self, agg: MoeAgg) -> Option<DecMsg> {
        let frozen = agg.size >= self.input.cap;
        let hook_edge = if frozen {
            None
        } else {
            agg.cand
                .filter(|c| c.target_frozen || hooks_toward(self.input.frag, c.target_frag))
                .map(|c| c.cand.edge)
        };
        (frozen || hook_edge.is_some()).then_some(DecMsg { frozen, hook_edge })
    }
}

impl Algorithm for CandDec {
    type Input = CdInput;
    type State = CdState;
    type Msg = CdMsg;
    type Output = CdOutput;

    fn boot(&self, _ctx: &NodeCtx<'_>, input: CdInput) -> (CdState, Outbox<CdMsg>) {
        let mut out = Outbox::new();
        // A purged node force-sends (its parent is new, or its child set
        // flipped) but keeps its caches: entries of *continuing* children
        // are still in sync with their `sent`, and every freshly flipped
        // child is itself purged and overwrites its entry this pass.
        let mut s = CdState { input, dec: None };
        if s.input.frozen {
            return (s, out);
        }
        if s.input.tree.is_root() {
            if s.input.maxdepth == 0 {
                // Singleton fragment: the aggregate is complete at boot.
                s.dec = s.decide(s.compute());
                // A singleton has no children to broadcast to.
            }
        } else if s.input.depth == s.input.maxdepth {
            // Deepest nodes send at slot 0, i.e. at boot.
            let agg = s.compute();
            if s.input.purge || s.input.sent != Some(agg) {
                s.input.sent = Some(agg);
                out.send(s.input.tree.parent.unwrap(), CdMsg::Up(agg));
            }
        }
        (s, out)
    }

    fn round(&self, s: &mut CdState, ctx: &NodeCtx<'_>, inbox: &[(Port, CdMsg)]) -> Step<CdMsg> {
        if s.input.frozen {
            return Step::halt();
        }
        for (port, msg) in inbox {
            match msg {
                CdMsg::Up(agg) => s.input.children[port.index()] = Some(*agg),
                CdMsg::Dec(d) => s.dec = Some(*d),
            }
        }
        let mut out = Outbox::new();
        let (depth, maxdepth) = (s.input.depth as u64, s.input.maxdepth as u64);
        if s.input.tree.is_root() {
            if ctx.round >= maxdepth {
                if ctx.round == maxdepth {
                    s.dec = s.decide(s.compute());
                    if let Some(d) = s.dec {
                        for &p in &s.input.tree.children {
                            out.send(p, CdMsg::Dec(d));
                        }
                    }
                }
                return Step::Halt(out);
            }
        } else {
            if ctx.round == maxdepth - depth {
                let agg = s.compute();
                if s.input.purge || s.input.sent != Some(agg) {
                    s.input.sent = Some(agg);
                    out.send(s.input.tree.parent.unwrap(), CdMsg::Up(agg));
                }
            }
            if ctx.round >= maxdepth + depth {
                if let Some(d) = s.dec {
                    for &p in &s.input.tree.children {
                        out.send(p, CdMsg::Dec(d));
                    }
                }
                return Step::Halt(out);
            }
        }
        Step::Continue(out)
    }

    fn finish(&self, s: CdState, _ctx: &NodeCtx<'_>) -> FinishResult<CdOutput> {
        Ok(CdOutput {
            dec: s.dec,
            sent: s.input.sent,
            children: s.input.children,
        })
    }
}

// ---------------------------------------------------------------------------
// Phase A: hook handshake + re-root flood (`mstA.*.hook`)
// ---------------------------------------------------------------------------

/// A node's role in one `mstA.*.hook` phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HookRole {
    /// The endpoint of a hooking fragment's chosen edge.
    Connector {
        /// Port of the hook edge.
        port: Port,
        /// Fragment id on the other side (learned in the exchange).
        target_frag: u32,
    },
    /// Other member of a hooking fragment: awaits the re-root flood.
    Await,
    /// Member of a fragment that is not hooking this level.
    Passive,
}

/// Input of [`FragHook`] for one node.
#[derive(Clone, Debug)]
pub struct HookInput {
    /// Current in-fragment tree ports (undirected set: parent + children).
    pub tree_ports: Vec<Port>,
    /// This node's role.
    pub role: HookRole,
    /// Whether this node's fragment accepts incoming hooks this level:
    /// *every* fragment that is not itself hooking accepts (frozen
    /// included) — [`hooks_toward`] guarantees no 2-cycles.
    pub eligible: bool,
    /// Whether this node's fragment is frozen (echoed in grants so the
    /// absorbed fragment adopts the state).
    pub frozen: bool,
    /// This node's depth in its fragment tree (grants and re-root
    /// floods maintain depths for the next level's `.cd` schedule).
    pub depth: u32,
}

/// Output of [`FragHook`] for one node.
#[derive(Clone, Debug, Default)]
pub struct HookOutput {
    /// `Some((f, frozen))`: the fragment re-rooted, adopting fragment id
    /// `f` and the target fragment's frozen state.
    pub new_frag: Option<(u32, bool)>,
    /// New parent port after a re-root (the hook port at the connector).
    pub new_parent: Option<Port>,
    /// Hook ports accepted from other fragments (new child tree edges).
    pub accepted: Vec<Port>,
    /// New fragment-tree depth after a re-root (`None`: unchanged).
    pub new_depth: Option<u32>,
}

/// Messages of [`FragHook`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HookMsg {
    /// "My fragment's mating rule chose this edge."
    Request,
    /// "Granted — adopt my fragment id." Carries the granting fragment's
    /// frozen state and the acceptor's depth (the connector hangs one
    /// below it).
    Accept {
        /// The granting fragment is already frozen.
        frozen: bool,
        /// The acceptor's fragment-tree depth.
        depth: u32,
    },
    /// "Denied — my fragment is hooking elsewhere, try another level."
    Reject,
    /// Re-root flood: adopt fragment `frag`, parent = arrival port,
    /// depth = `depth + 1`.
    Reroot {
        /// The adopted fragment id.
        frag: u32,
        /// The adopted fragment's frozen state.
        frozen: bool,
        /// The flooding sender's (new) depth.
        depth: u32,
    },
    /// The hook was rejected: keep the old tree, stop waiting.
    Keep,
}

impl Message for HookMsg {
    fn bit_len(&self) -> usize {
        TAG_BITS
            + match self {
                HookMsg::Accept { depth, .. } => 1 + value_bits(*depth as u64),
                HookMsg::Reroot { frag, depth, .. } => {
                    1 + value_bits(*frag as u64) + value_bits(*depth as u64)
                }
                _ => 0,
            }
    }
}

/// One level's hook handshake: connectors fire a request at boot,
/// targets grant in round 1 unless their own fragment is hooking, and
/// granted fragments re-root toward the hook edge with an in-fragment
/// flood that also recomputes depths. Because [`hooks_toward`] admits no
/// 2-cycles, two fragments never request each other: on a GHS core edge
/// exactly one side is the connector and the other side accepts like any
/// target. Rounds: `2 + fragment diameter`; all fragments in parallel.
#[derive(Clone, Debug, Default)]
pub struct FragHook;

/// Node state for [`FragHook`].
#[derive(Debug)]
pub struct HookState {
    input: HookInput,
    out: HookOutput,
}

impl Algorithm for FragHook {
    type Input = HookInput;
    type State = HookState;
    type Msg = HookMsg;
    type Output = HookOutput;

    fn boot(&self, _ctx: &NodeCtx<'_>, input: HookInput) -> (HookState, Outbox<HookMsg>) {
        let mut out = Outbox::new();
        if let HookRole::Connector { port, .. } = input.role {
            out.send(port, HookMsg::Request);
        }
        (
            HookState {
                input,
                out: HookOutput::default(),
            },
            out,
        )
    }

    fn round(
        &self,
        s: &mut HookState,
        _ctx: &NodeCtx<'_>,
        inbox: &[(Port, HookMsg)],
    ) -> Step<HookMsg> {
        let mut out = Outbox::new();
        let hook_port = match s.input.role {
            HookRole::Connector { port, .. } => Some(port),
            _ => None,
        };
        // Requests only ever arrive in round 1 (sent at boot). The mating
        // rule fires in one direction per fragment pair, so a request can
        // never arrive on the connector's own hook port.
        for (port, msg) in inbox {
            if matches!(msg, HookMsg::Request) {
                debug_assert_ne!(
                    Some(*port),
                    hook_port,
                    "deterministic mating admits no mutual hooks"
                );
                if s.input.eligible {
                    s.out.accepted.push(*port);
                    out.send(
                        *port,
                        HookMsg::Accept {
                            frozen: s.input.frozen,
                            depth: s.input.depth,
                        },
                    );
                } else {
                    out.send(*port, HookMsg::Reject);
                }
            }
        }
        match s.input.role.clone() {
            HookRole::Passive => {
                // Nothing else can reach a passive node after round 1.
                return Step::Halt(out);
            }
            HookRole::Connector { port, target_frag } => {
                let reply = inbox.iter().find_map(|(p, m)| {
                    (*p == port && matches!(m, HookMsg::Accept { .. } | HookMsg::Reject))
                        .then_some(*m)
                });
                if let Some(reply) = reply {
                    let flood = if let HookMsg::Accept { frozen, depth } = reply {
                        s.out.new_frag = Some((target_frag, frozen));
                        s.out.new_parent = Some(port);
                        s.out.new_depth = Some(depth + 1);
                        HookMsg::Reroot {
                            frag: target_frag,
                            frozen,
                            depth: depth + 1,
                        }
                    } else {
                        HookMsg::Keep
                    };
                    for &p in &s.input.tree_ports {
                        out.send(p, flood);
                    }
                    return Step::Halt(out);
                }
            }
            HookRole::Await => {
                let flood = inbox.iter().find_map(|(p, m)| {
                    matches!(m, HookMsg::Reroot { .. } | HookMsg::Keep).then_some((*p, *m))
                });
                if let Some((from, msg)) = flood {
                    let fwd = if let HookMsg::Reroot {
                        frag,
                        frozen,
                        depth,
                    } = msg
                    {
                        s.out.new_frag = Some((frag, frozen));
                        s.out.new_parent = Some(from);
                        s.out.new_depth = Some(depth + 1);
                        HookMsg::Reroot {
                            frag,
                            frozen,
                            depth: depth + 1,
                        }
                    } else {
                        msg
                    };
                    for &p in &s.input.tree_ports {
                        if p != from {
                            out.send(p, fwd);
                        }
                    }
                    return Step::Halt(out);
                }
            }
        }
        Step::Continue(out)
    }

    fn finish(&self, s: HookState, _ctx: &NodeCtx<'_>) -> FinishResult<HookOutput> {
        Ok(s.out)
    }
}

// ---------------------------------------------------------------------------
// Phase B wire types
// ---------------------------------------------------------------------------

/// The `mstB.*.exch` payload: current component and physical fragment of
/// the sender.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompMsg {
    /// Sender's Borůvka component.
    pub comp: u32,
    /// Sender's physical fragment (phase-A).
    pub frag: u32,
}

impl Message for CompMsg {
    fn bit_len(&self) -> usize {
        TAG_BITS + value_bits(self.comp as u64) + value_bits(self.frag as u64)
    }
}

/// A Borůvka candidate flowing up the BFS tree in `mstB.*.cand`: the best
/// outgoing edge proposal of one component.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BorCand {
    /// The proposing component (grouping key).
    pub comp: u32,
    /// The candidate edge's packing key fields.
    pub cand: Cand,
    /// Component on the other side of the edge.
    pub other_comp: u32,
}

impl Message for BorCand {
    fn bit_len(&self) -> usize {
        TAG_BITS
            + value_bits(self.comp as u64)
            + self.cand.bits()
            + value_bits(self.other_comp as u64)
    }
}

impl KeyedItem for BorCand {
    fn key(&self) -> u64 {
        self.comp as u64
    }
    fn better_than(&self, other: &Self) -> bool {
        self.cand.key() < other.cand.key()
    }
}

/// Items of the `mstB.*.merge` broadcast.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeItem {
    /// Component `from` is now part of component `to`.
    Remap {
        /// Old component id.
        from: u32,
        /// New (representative) component id.
        to: u32,
    },
    /// This edge joined the tree; both endpoints mark it.
    Chosen {
        /// Global edge id.
        edge: u32,
    },
}

impl Message for MergeItem {
    fn bit_len(&self) -> usize {
        TAG_BITS
            + match self {
                MergeItem::Remap { from, to } => value_bits(*from as u64) + value_bits(*to as u64),
                MergeItem::Chosen { edge } => value_bits(*edge as u64),
            }
    }
}

/// Items of the `mstB.report` upcast: an endpoint of a chosen
/// inter-fragment edge reporting its side, so the leader can assemble the
/// fragment tree `T_F` with exact endpoints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReportItem {
    /// The chosen edge.
    pub edge: u32,
    /// The reporting endpoint's physical fragment.
    pub frag: u32,
    /// The reporting endpoint.
    pub node: u32,
}

impl Message for ReportItem {
    fn bit_len(&self) -> usize {
        TAG_BITS
            + value_bits(self.edge as u64)
            + value_bits(self.frag as u64)
            + value_bits(self.node as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_cap_defaults_to_sqrt_n() {
        let cfg = MstConfig::default();
        assert_eq!(cfg.effective_cap(36), 6);
        assert_eq!(cfg.effective_cap(144), 12);
        assert_eq!(cfg.effective_cap(50), 8); // ⌈7.07⌉
        let fixed = MstConfig { cap: Some(1) };
        // A cap below 2 would freeze singletons instantly; clamped.
        assert_eq!(fixed.effective_cap(100), 2);
    }

    #[test]
    fn message_sizes_are_logarithmic() {
        let dec = DecMsg {
            frozen: true,
            hook_edge: Some(200),
        };
        assert!(CdMsg::Dec(dec).bit_len() <= TAG_BITS + 2 + 8);
        let bc = BorCand {
            comp: 100,
            cand: Cand {
                load: 3,
                weight: 9,
                edge: 250,
            },
            other_comp: 40,
        };
        assert!(bc.bit_len() <= TAG_BITS + 7 + 2 + 4 + 8 + 6);
        assert_eq!(
            (HookMsg::Request.bit_len(), HookMsg::Keep.bit_len()),
            (TAG_BITS, TAG_BITS)
        );
        assert!(
            HookMsg::Reroot {
                frag: 7,
                frozen: true,
                depth: 3
            }
            .bit_len()
                <= TAG_BITS + 6
        );
    }

    #[test]
    fn bor_cand_orders_by_relative_load() {
        let mk = |load, weight, edge| BorCand {
            comp: 1,
            cand: Cand { load, weight, edge },
            other_comp: 2,
        };
        // 1/4 beats 1/2; equal ratios fall back to weight then id.
        assert!(mk(1, 4, 9).better_than(&mk(1, 2, 0)));
        assert!(mk(1, 2, 0).better_than(&mk(2, 4, 1)));
        assert!(mk(1, 2, 0).better_than(&mk(1, 2, 1)));
    }
}
