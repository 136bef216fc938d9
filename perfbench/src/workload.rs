//! The four seeded workloads: how each instance is generated, how it is
//! solved, and how every answer is checked.

use congest::{ExecutorKind, MetricsLedger, ObsHandle};
use graphs::{generators, CutResult, EdgeId, NodeId, WeightedGraph};
use mincut::dist::driver::{exact_mincut, ExactConfig};
use mincut::dist::{recover_mincut, RecoverConfig};
use mincut::seq::stoer_wagner::stoer_wagner;
use mincut::seq::tree_packing::{greedy_packing, packing_mincut, PackingConfig, PackingSize};
use mincut::MinCutError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// The benchmark's workloads (one per process).
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 26×25×25 3D torus + 300 seeded weight-7 chords, relabeled; one
    /// packed tree on the serial executor (its traced run also times the
    /// parallel executor on the same instance).
    LargeSparse,
    /// `community_pair(256, 8, 4)` with the default heuristic packing.
    PackedExact,
    /// torus24x24 under the chaos fault plan, healed by `recover_mincut`.
    LossyChaos,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::LargeSparse,
        Workload::PackedExact,
        Workload::LossyChaos,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LargeSparse => "large_sparse",
            Workload::PackedExact => "packed_exact",
            Workload::LossyChaos => "lossy_chaos",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Setups per timed setup sample: enough that one sample takes tens
    /// of milliseconds, well above timer and allocator jitter.
    fn setup_batch(self) -> usize {
        match self {
            Workload::LargeSparse => 4,
            Workload::PackedExact => 100,
            Workload::LossyChaos => 800,
        }
    }
}

/// The large instance's torus dimensions and chord count.
const LARGE_DIMS: (usize, usize, usize) = (26, 25, 25);
const LARGE_CHORDS: usize = 300;
/// Weight of a chord: above the torus degree, so no chord-free cut gets
/// cheaper than a lower-half singleton (λ = 6).
const CHORD_WEIGHT: u64 = 7;
const LARGE_LAMBDA: u64 = 6;
/// λ of torus24x24 once node 0 is excised (its neighbours keep 3 edges).
const CHAOS_LAMBDA: u64 = 3;
const CHAOS_TREES: usize = 3;

/// How an instance is solved.
pub enum Solver {
    Exact(ExactConfig),
    Recover(RecoverConfig),
}

/// A generated instance and its solver configuration: everything the
/// run does once before its first solve.
pub struct Instance {
    pub graph: WeightedGraph,
    pub solver: Solver,
}

/// The timed set-up of one run.
pub struct Setup {
    pub instance: Instance,
    /// Wall seconds of one full set-up (median over batches).
    pub setup_s: Vec<f64>,
    /// Wall seconds of the generator + CSR build part alone.
    pub build_s: Vec<f64>,
}

/// Seeds a stream of its own for each use of the workload seed.
fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The chaos plan's link-fault seed for workload seed `seed`; seed 0 is
/// the canonical plan of `mincut_bench::chaos_plan()`.
fn chaos_fault_seed(seed: u64) -> u64 {
    mincut_bench::SMOKE_FAULTS
        .seed
        .wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn large_graph(seed: u64) -> Result<WeightedGraph, String> {
    let (a, b, c) = LARGE_DIMS;
    let torus = generators::torus3d_with_chords(a, b, c, 0).map_err(|e| e.to_string())?;
    let n = torus.node_count();
    let mut edges: Vec<(u32, u32, u64)> = torus
        .edge_tuples()
        .map(|(_, u, v, w)| (u.raw(), v.raw(), w))
        .collect();
    // Chords join upper-half nodes only, so every lower-half node keeps
    // its 6 unit torus edges and λ stays 6.
    let mut draw = rng(seed, 1);
    let upper = (n / 2) as u32..n as u32;
    for _ in 0..LARGE_CHORDS {
        let u = draw.gen_range(upper.clone());
        let v = draw.gen_range(upper.clone());
        if u != v {
            edges.push((u, v, CHORD_WEIGHT));
        }
    }
    // Relabel by a seeded translation of the torus: the id layout keeps
    // its locality, while the leader (the minimum id) moves relative to
    // the chords.
    let (dx, dy, dz) = (
        draw.gen_range(0..a),
        draw.gen_range(0..b),
        draw.gen_range(0..c),
    );
    let label = |v: u32| -> u32 {
        let v = v as usize;
        let (x, y, z) = (v / (b * c), v / c % b, v % c);
        ((((x + dx) % a) * b + (y + dy) % b) * c + (z + dz) % c) as u32
    };
    WeightedGraph::from_edges(
        n,
        edges.into_iter().map(|(u, v, w)| (label(u), label(v), w)),
    )
    .map_err(|e| e.to_string())
}

fn generate(workload: Workload, seed: u64) -> Result<WeightedGraph, String> {
    match workload {
        Workload::LargeSparse => large_graph(seed),
        Workload::PackedExact => generators::community_pair(256, 8, 4, &mut rng(seed, 3))
            .map(|p| p.graph)
            .map_err(|e| e.to_string()),
        Workload::LossyChaos => generators::torus2d(24, 24).map_err(|e| e.to_string()),
    }
}

fn fixed_trees(k: usize) -> PackingConfig {
    PackingConfig {
        size: PackingSize::Fixed(k),
        max_trees: k,
    }
}

fn solver(workload: Workload, seed: u64) -> Solver {
    match workload {
        Workload::LargeSparse => Solver::Exact(ExactConfig {
            packing: fixed_trees(1),
            ..Default::default()
        }),
        Workload::PackedExact => Solver::Exact(ExactConfig::default()),
        Workload::LossyChaos => {
            let mut plan = mincut_bench::chaos_plan();
            plan.seed = chaos_fault_seed(seed);
            Solver::Recover(
                RecoverConfig {
                    base: ExactConfig {
                        packing: fixed_trees(CHAOS_TREES),
                        ..Default::default()
                    },
                    ..Default::default()
                }
                .with_plan(plan),
            )
        }
    }
}

/// Sets the workload up `samples` times (each sample times a batch of
/// set-ups) and returns the last instance with the per-set-up timings.
pub fn setup(workload: Workload, seed: u64, samples: usize) -> Result<Setup, String> {
    let batch = workload.setup_batch();
    let mut setup_s = Vec::with_capacity(samples);
    let mut build_s = Vec::with_capacity(samples);
    let mut last = None;
    for _ in 0..samples {
        let mut build = 0.0;
        let t = Instant::now();
        for _ in 0..batch {
            let tb = Instant::now();
            let graph = generate(workload, seed)?;
            build += tb.elapsed().as_secs_f64();
            let solver = solver(workload, seed);
            last = Some(Instance { graph, solver });
        }
        setup_s.push(t.elapsed().as_secs_f64() / batch as f64);
        build_s.push(build / batch as f64);
    }
    Ok(Setup {
        instance: last.ok_or("no set-up sample was taken")?,
        setup_s,
        build_s,
    })
}

/// What one solve returned, in one shape for both drivers.
pub struct Solved {
    pub wall_s: f64,
    pub cut: CutResult,
    pub rounds: u64,
    pub messages: u64,
    pub bits: u64,
    pub phys_rounds: u64,
    pub tree_edges: Vec<Vec<EdgeId>>,
    /// `(trees_packed, trees_to_best, best_node)`; `None` for recovered runs.
    pub packing: Option<(usize, usize, Option<NodeId>)>,
    pub recovered: Option<Recovered>,
    pub ledger: MetricsLedger,
}

/// The recovery accounting of a `recover_mincut` solve.
pub struct Recovered {
    pub survivors: Vec<NodeId>,
    pub dead: Vec<NodeId>,
    pub oracle: Option<u64>,
    pub epochs: usize,
    pub recovery_rounds: u64,
    pub recovery_messages: u64,
}

impl Solved {
    /// The first output that differs from `other`'s, if any: everything
    /// here must repeat exactly across the solves of one seed.
    fn first_difference(&self, other: &Solved) -> Option<&'static str> {
        let recovery = |s: &Solved| {
            s.recovered.as_ref().map(|r| {
                (
                    r.dead.clone(),
                    r.epochs,
                    r.recovery_rounds,
                    r.recovery_messages,
                )
            })
        };
        [
            ("cut value", self.cut.value == other.cut.value),
            ("cut side", self.cut.side == other.cut.side),
            ("tree edges", self.tree_edges == other.tree_edges),
            ("rounds", self.rounds == other.rounds),
            ("messages", self.messages == other.messages),
            ("bits", self.bits == other.bits),
            ("phys_rounds", self.phys_rounds == other.phys_rounds),
            ("packing counters", self.packing == other.packing),
            ("recovery accounting", recovery(self) == recovery(other)),
        ]
        .into_iter()
        .find(|&(_, same)| !same)
        .map(|(what, _)| what)
    }
}

/// Runs one solve of `instance` (optionally under `executor` instead of
/// the configured one, and with an obs sink attached); only the
/// `exact_mincut` / `recover_mincut` call is timed.
pub fn solve(
    instance: &Instance,
    executor: Option<ExecutorKind>,
    obs: Option<&ObsHandle>,
) -> Result<Solved, MinCutError> {
    let g = &instance.graph;
    match &instance.solver {
        Solver::Exact(cfg) => {
            let mut cfg = cfg.clone();
            if let Some(kind) = executor {
                cfg = cfg.with_executor(kind);
            }
            if let Some(h) = obs {
                cfg = cfg.with_obs(h.clone());
            }
            let t = Instant::now();
            let r = exact_mincut(g, &cfg)?;
            let wall_s = t.elapsed().as_secs_f64();
            Ok(Solved {
                wall_s,
                rounds: r.rounds,
                messages: r.messages,
                bits: r.ledger.total_bits(),
                phys_rounds: r.ledger.total_phys_rounds(),
                tree_edges: r.tree_edges,
                packing: Some((r.trees_packed, r.trees_to_best, r.best_node)),
                recovered: None,
                cut: r.cut,
                ledger: r.ledger,
            })
        }
        Solver::Recover(cfg) => {
            let mut cfg = cfg.clone();
            if let Some(h) = obs {
                cfg = cfg.with_obs(h.clone());
            }
            let t = Instant::now();
            let r = recover_mincut(g, &cfg)?;
            let wall_s = t.elapsed().as_secs_f64();
            Ok(Solved {
                wall_s,
                rounds: r.rounds,
                messages: r.messages,
                bits: r.ledger.total_bits(),
                phys_rounds: r.ledger.total_phys_rounds(),
                tree_edges: Vec::new(),
                packing: None,
                recovered: Some(Recovered {
                    survivors: r.survivors,
                    dead: r.dead,
                    oracle: r.oracle,
                    epochs: r.epochs,
                    recovery_rounds: r.recovery_rounds,
                    recovery_messages: r.recovery_messages,
                }),
                cut: r.cut,
                ledger: r.ledger,
            })
        }
    }
}

/// The sequential ground truth of one instance, computed once outside
/// the timed solves.
pub enum Oracle {
    /// `large_sparse`: the planted λ plus the sequential packing pipeline's
    /// cut and trees, which the distributed run must match bit for bit.
    Planted {
        lambda: u64,
        cut: CutResult,
        packing: (usize, usize, Option<NodeId>),
        trees: Vec<Vec<EdgeId>>,
    },
    /// `packed_exact`: Stoer–Wagner's λ.
    StoerWagner { lambda: u64 },
    /// `lossy_chaos`: λ of the survivors and the nodes the plan kills.
    Recovered { lambda: u64, dead: Vec<NodeId> },
}

impl Oracle {
    pub fn compute(workload: Workload, instance: &Instance) -> Result<Oracle, String> {
        let g = &instance.graph;
        Ok(match workload {
            Workload::LargeSparse => {
                let seq = packing_mincut(g, &fixed_trees(1)).map_err(|e| e.to_string())?;
                let mut trees = greedy_packing(g, 1).map_err(|e| e.to_string())?;
                for t in &mut trees {
                    t.sort_unstable();
                }
                Oracle::Planted {
                    lambda: LARGE_LAMBDA,
                    packing: (seq.trees_packed, seq.trees_to_best, seq.best_node),
                    cut: seq.cut,
                    trees,
                }
            }
            Workload::PackedExact => Oracle::StoerWagner {
                lambda: stoer_wagner(g).map_err(|e| e.to_string())?.value,
            },
            Workload::LossyChaos => Oracle::Recovered {
                lambda: CHAOS_LAMBDA,
                dead: mincut_bench::SMOKE_CRASHES
                    .iter()
                    .map(|c| NodeId::new(c.node))
                    .collect(),
            },
        })
    }

    /// Checks one solve against the oracle and, when given, against the
    /// run's reference solve (every deterministic output must repeat).
    pub fn check(
        &self,
        g: &WeightedGraph,
        s: &Solved,
        reference: Option<&Solved>,
    ) -> Result<(), String> {
        match self {
            Oracle::Planted {
                lambda,
                cut,
                packing,
                trees,
            } => {
                expect("λ", s.cut.value, *lambda)?;
                mincut::verify::check_cut(g, &s.cut).map_err(|e| e.to_string())?;
                expect("cut value vs packing_mincut", s.cut.value, cut.value)?;
                if s.cut.side != cut.side {
                    return Err("cut side differs from packing_mincut".into());
                }
                expect("packing counters", s.packing, Some(*packing))?;
                if &s.tree_edges != trees {
                    return Err("tree edges differ from greedy_packing".into());
                }
            }
            Oracle::StoerWagner { lambda } => {
                expect("λ vs Stoer–Wagner", s.cut.value, *lambda)?;
                mincut::verify::check_cut(g, &s.cut).map_err(|e| e.to_string())?;
            }
            Oracle::Recovered { lambda, dead } => {
                let r = s.recovered.as_ref().ok_or("not a recovered solve")?;
                expect("λ of the survivors", s.cut.value, *lambda)?;
                expect("driver certification", r.oracle, Some(s.cut.value))?;
                expect("dead set", &r.dead, dead)?;
                let survivors = survivor_graph(g, &r.survivors)?;
                mincut::verify::check_cut(&survivors, &s.cut).map_err(|e| e.to_string())?;
            }
        }
        if let Some(what) = reference.and_then(|r| s.first_difference(r)) {
            return Err(format!("{what} differs from the reference solve"));
        }
        Ok(())
    }
}

fn expect<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, want {want:?}"))
    }
}

/// The subgraph induced by `survivors` (ascending original ids),
/// relabeled `0..survivors.len()` as `recover_mincut` reports its cut.
pub fn survivor_graph(g: &WeightedGraph, survivors: &[NodeId]) -> Result<WeightedGraph, String> {
    let mut new_id = vec![u32::MAX; g.node_count()];
    for (i, v) in survivors.iter().enumerate() {
        new_id[v.index()] = i as u32;
    }
    let edges = g.edge_tuples().filter_map(|(_, u, v, w)| {
        let (a, b) = (new_id[u.index()], new_id[v.index()]);
        (a != u32::MAX && b != u32::MAX).then_some((a, b, w))
    });
    WeightedGraph::from_edges(survivors.len(), edges).map_err(|e| e.to_string())
}
