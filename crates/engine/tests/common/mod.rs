//! Shared scaffolding for the randomized engine tests: a seeded workload
//! generator producing base graphs plus mutation-batch sequences (with
//! routine delete-then-reinsert traffic), and per-algorithm input/config
//! builders, plus the equivalence suites' simpler insert/delete workload
//! and each program's attribute and global names. Used by the parallel
//! incremental oracle (`parallel_oracle.rs`) and the durability tests
//! (`crash_history/`), which must both drive the *same* histories, and by
//! the equivalence suites. [`EdgeModel`] is the registry tests' oracle
//! for the current graph, and [`alloc`] a counting allocator for the
//! memory tests.
#![allow(dead_code)]

pub mod alloc;

use itg_algorithms::programs;
use itg_engine::{EngineConfig, GraphInput};
use itg_gsa::VertexId;
use itg_store::{EdgeMutation, MutationBatch};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// The graph a registry serves, modelled apart from the edge store: an
/// edge multiset that takes each batch consolidated — an insert adds a
/// copy, a delete drops every copy — keyed `(min, max)` when undirected,
/// over a vertex space that grows to cover every endpoint.
pub struct EdgeModel {
    undirected: bool,
    num_vertices: usize,
    copies: BTreeMap<(VertexId, VertexId), usize>,
}

impl EdgeModel {
    /// The model of `input` after `batches`.
    pub fn after(input: &GraphInput, batches: &[MutationBatch]) -> EdgeModel {
        let mut model = EdgeModel {
            undirected: input.undirected,
            num_vertices: input.num_vertices,
            copies: BTreeMap::new(),
        };
        for &(s, d) in &input.edges {
            *model.copies.entry(model.key(s, d)).or_insert(0) += 1;
        }
        for batch in batches {
            model.apply(batch);
        }
        model
    }

    fn key(&self, s: VertexId, d: VertexId) -> (VertexId, VertexId) {
        if self.undirected {
            (s.min(d), s.max(d))
        } else {
            (s, d)
        }
    }

    pub fn apply(&mut self, batch: &MutationBatch) {
        for m in batch.consolidated().edges() {
            let key = self.key(m.src, m.dst);
            self.num_vertices = self.num_vertices.max(key.0.max(key.1) as usize + 1);
            if m.is_insert() {
                *self.copies.entry(key).or_insert(0) += 1;
            } else {
                self.copies.remove(&key);
            }
        }
    }

    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// The modelled graph as an input: every copy of every pair, sorted.
    pub fn input(&self) -> GraphInput {
        let edges = self
            .copies
            .iter()
            .flat_map(|(&e, &n)| std::iter::repeat_n(e, n))
            .collect();
        GraphInput {
            num_vertices: self.num_vertices,
            edges,
            undirected: self.undirected,
        }
    }
}

pub const N: usize = 32;
pub const ALGOS: [&str; 6] = ["pr", "lp", "wcc", "bfs", "tc", "lcc"];

/// How mutation endpoints are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MutationMode {
    /// Endpoints uniform over `0..N`.
    #[default]
    Uniform,
    /// Skewed: ~70% of endpoints land on a small hot set
    /// ([`HOT_VERTICES`]), so successive batches keep touching the same
    /// vertices — long delta chains on the same rows, the shape the vertex
    /// store's merge policy consolidates.
    HotVertex,
}

/// A `PROD` and a `MAX` accumulator — lanes none of the six programs use.
/// The factor `u.id % 3 - 1` takes the values −1, 0 and 1, so a retracted
/// 0 has no inverse and the group rule must recompute; `hi` spreads the
/// largest id by `MAX`, whose retractions the monoid rule settles.
pub const PROD_MAX: &str = r#"
    Vertex (id, active, nbrs, p: long, hi: long, m: Accm<long, PROD>, x: Accm<long, MAX>)
    Initialize (u): {
        u.p = 1;
        u.hi = u.id;
        u.active = true;
    }
    Traverse (u): {
        For v in u.nbrs {
            v.m.Accumulate(u.id % 3 - 1);
            v.x.Accumulate(u.hi);
        }
    }
    Update (u): {
        u.p = u.m;
        If (u.x > u.hi) {
            u.hi = u.x;
            u.active = true;
        }
    }
"#;

/// The hot set for [`MutationMode::HotVertex`].
pub const HOT_VERTICES: u64 = 4;

#[derive(Debug, Clone)]
pub struct Scenario {
    pub algo: &'static str,
    pub machines: usize,
    pub threads: usize,
    pub seed: u64,
    pub batches: usize,
    pub batch_size: usize,
    pub mutation_mode: MutationMode,
}

/// Base graph plus batches. Deleted edges go into a `dead` pool that later
/// batches preferentially reinsert from, so delete-then-reinsert sequences
/// are a routine part of the workload, not a corner case.
pub fn build_workload(sc: &Scenario) -> (Vec<(VertexId, VertexId)>, Vec<MutationBatch>) {
    let mut rng = SmallRng::seed_from_u64(sc.seed);
    let want = 60 + sc.batches * sc.batch_size;
    let mut universe: Vec<(VertexId, VertexId)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let endpoint = |rng: &mut SmallRng| match sc.mutation_mode {
        MutationMode::Uniform => rng.gen_range(0..N as u64),
        MutationMode::HotVertex => {
            if rng.gen_range(0..10u32) < 7 {
                rng.gen_range(0..HOT_VERTICES)
            } else {
                rng.gen_range(0..N as u64)
            }
        }
    };
    while universe.len() < want {
        let a = endpoint(&mut rng);
        let b = endpoint(&mut rng);
        if a != b && seen.insert((a.min(b), a.max(b))) {
            universe.push((a.min(b), a.max(b)));
        }
    }
    let base: Vec<_> = universe[..60].to_vec();
    let mut fresh: Vec<_> = universe[60..].to_vec();
    let mut alive = base.clone();
    let mut dead: Vec<(VertexId, VertexId)> = Vec::new();
    let mut out = Vec::new();
    for _ in 0..sc.batches {
        let mut muts = Vec::new();
        // Edges deleted within this batch are not eligible for reinsertion
        // until the next batch.
        let mut dead_this_batch: Vec<(VertexId, VertexId)> = Vec::new();
        for _ in 0..sc.batch_size {
            let roll = rng.gen_range(0..10u32);
            if roll < 3 && !dead.is_empty() {
                // Reinsert a previously deleted edge.
                let i = rng.gen_range(0..dead.len());
                let e = dead.swap_remove(i);
                muts.push(EdgeMutation::insert(e.0, e.1));
                alive.push(e);
            } else if roll < 7 && alive.len() >= 4 {
                let i = rng.gen_range(0..alive.len());
                let e = alive.swap_remove(i);
                muts.push(EdgeMutation::delete(e.0, e.1));
                dead_this_batch.push(e);
            } else if let Some(e) = fresh.pop() {
                muts.push(EdgeMutation::insert(e.0, e.1));
                alive.push(e);
            }
        }
        dead.append(&mut dead_this_batch);
        if muts.is_empty() {
            // Unreachable in practice (the fresh pool is sized for every
            // batch), but an empty batch would make the scenario vacuous.
            let e = fresh.pop().expect("fresh pool sized for all batches");
            muts.push(EdgeMutation::insert(e.0, e.1));
            alive.push(e);
        }
        out.push(MutationBatch::new(muts));
    }
    (base, out)
}

pub fn mk_input(algo: &str, edges: &[(VertexId, VertexId)]) -> GraphInput {
    let mut input = if programs::is_undirected(algo) {
        GraphInput::undirected(edges.to_vec())
    } else {
        GraphInput::directed(edges.to_vec())
    };
    input.num_vertices = N;
    input
}

pub fn mk_config(algo: &str, machines: usize, threads: usize) -> EngineConfig {
    let mut config = EngineConfig {
        machines,
        parallel: machines > 1,
        ..EngineConfig::default()
    }
    .with_threads(threads);
    if matches!(algo, "pr" | "lp") {
        config.max_supersteps = 10;
    }
    config
}

pub fn attr_names(algo: &str) -> &'static [&'static str] {
    match algo {
        "pr" => &["rank"],
        "lp" => &["label"],
        "wcc" => &["comp"],
        "bfs" => &["dist"],
        "tc" => &[],
        "lcc" => &["lcc"],
        _ => unreachable!(),
    }
}

/// The globals each program exposes.
pub fn global_names(algo: &str) -> &'static [&'static str] {
    match algo {
        "tc" => &["cnts"],
        _ => &[],
    }
}

/// A random undirected base graph over `0..n` and `batches` mutation
/// batches of `batch_size` (70 % inserts from a fresh pool, the rest
/// deletes of live edges): the equivalence suites' workload shape.
pub fn random_workload(
    seed: u64,
    n: u64,
    base_edges: usize,
    batches: usize,
    batch_size: usize,
) -> (Vec<(VertexId, VertexId)>, Vec<MutationBatch>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut all: Vec<(VertexId, VertexId)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    while all.len() < base_edges + batches * batch_size {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b && seen.insert((a.min(b), a.max(b))) {
            all.push((a.min(b), a.max(b)));
        }
    }
    let base: Vec<_> = all[..base_edges].to_vec();
    let mut pool: Vec<_> = all[base_edges..].to_vec();
    let mut alive = base.clone();
    let mut out = Vec::new();
    for _ in 0..batches {
        let mut muts = Vec::new();
        for _ in 0..batch_size {
            if rng.gen_bool(0.7) || alive.len() < 4 {
                if let Some(e) = pool.pop() {
                    muts.push(EdgeMutation::insert(e.0, e.1));
                    alive.push(e);
                }
            } else {
                let i = rng.gen_range(0..alive.len());
                let e = alive.swap_remove(i);
                muts.push(EdgeMutation::delete(e.0, e.1));
            }
        }
        out.push(MutationBatch::new(muts));
    }
    (base, out)
}

/// Vertices of [`small_rmat`].
pub const RMAT_N: usize = 64;

/// A fixed small RMAT graph (64 vertices, ≤ 320 canonical `a < b` pairs):
/// skewed enough that hubs, leaves and isolated vertices all occur.
pub fn small_rmat() -> Vec<(VertexId, VertexId)> {
    let cfg = itg_graphgen::rmat::RmatConfig {
        scale: 6,
        edges: 320,
        a: 0.57,
        b: 0.19,
        c: 0.19,
        seed: 23,
    };
    itg_graphgen::canonical_undirected(&itg_graphgen::rmat::generate(&cfg))
}

/// [`small_rmat`] split into a base graph and three batches: insert-only;
/// delete-heavy (every 9th base edge); and mixed — every third of those
/// deletes reinserted, some batch-1 inserts deleted, fresh inserts, and two
/// edges to vertices past [`RMAT_N`] (vertex growth).
pub fn rmat_history() -> (Vec<(VertexId, VertexId)>, Vec<MutationBatch>) {
    let all = small_rmat();
    let (base, pool) = all.split_at(all.len() - 24);
    let n = RMAT_N as u64;
    let ins = |e: &(VertexId, VertexId)| EdgeMutation::insert(e.0, e.1);
    let del = |e: &(VertexId, VertexId)| EdgeMutation::delete(e.0, e.1);
    let b1: Vec<_> = pool[..16].iter().map(ins).collect();
    let mut b2: Vec<_> = base.iter().step_by(9).map(del).collect();
    b2.extend(pool[16..18].iter().map(ins));
    let mut b3: Vec<_> = base.iter().step_by(27).map(ins).collect();
    b3.extend(pool[..16].iter().step_by(4).map(del));
    b3.extend(pool[18..].iter().map(ins));
    b3.push(EdgeMutation::insert(3, n));
    b3.push(EdgeMutation::insert(n, n + 1));
    (base.to_vec(), vec![b1, b2, b3].into_iter().map(MutationBatch::new).collect())
}
