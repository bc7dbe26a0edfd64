//! The accumulator image's two load paths (DESIGN.md §4.5): a superstep
//! that reads a large share of a partition's rows overlays the whole
//! accumulator window (dense), one that reads a few point-loads them
//! through the store's latest-writer index (sparse), and the next superstep
//! resets what was loaded.
//!
//! BFS, WCC, PageRank, label propagation, a program whose Update reads a
//! MIN global, and a query with two actions on one MIN accumulator run on
//! a hub star joined to a long path, at one and three machines. The
//! batches cut and re-link star spokes (many rows per superstep) and path
//! edges (a few), with deletes that send the monoid lanes through their
//! recompute. After every batch the incremental attributes and globals
//! must equal a fresh one-shot's on the same graph, and over the history
//! both paths must have run (`accm/dense_windows`, `accm/point_rows`).
//!
//! A superstep reads `A^accm_{t-1,s}` from the accumulator store, which its
//! own record of `(t, s)` may merge away: a load moved after that record
//! is refused by the store, and fails here.

mod common;

use common::EdgeModel;
use itg_algorithms::programs;
use itg_engine::{EngineConfig, GraphInput, Session, SessionBuilder};
use itg_gsa::{Value, VertexId};
use itg_store::{EdgeMutation, MutationBatch};

/// Vertices: the hub 0, its spokes `1..=SPOKES`, and a path on to `N - 1`.
const SPOKES: u64 = 40;
const N: u64 = 120;

/// A WCC-like minimum label, and each label's distance above a MIN global
/// that follows the highest id with a neighbour — Update reads the global,
/// which the last two batches move (a retraction, then an insert).
const MIN_GLOBAL: &str = r#"
    Vertex (id, active, nbrs, lo: long, gap: long, m: Accm<long, MIN>)
    GlobalVariable (g: Accm<long, MIN>)
    Initialize (u): { u.lo = u.id; u.active = true; }
    Traverse (u): {
        For v in u.nbrs {
            v.m.Accumulate(u.lo);
            g.Accumulate(1000 - u.id);
        }
    }
    Update (u): {
        If (u.m < u.lo) { u.lo = u.m; u.active = true; }
        u.gap = u.lo - g;
    }
"#;

/// `multi_action_recompute_regression`'s query.
const TWO_ACTIONS_ONE_MIN: &str = r#"
    Vertex (id, active, nbrs, lo: long, m: Accm<long, MIN>)
    Initialize (u): { u.lo = 1000; u.active = true; }
    Traverse (u): {
        For v in u.nbrs { v.m.Accumulate(u.id); v.m.Accumulate(u.id + 100); }
    }
    Update (u): { u.lo = u.m; }
"#;

fn base_edges() -> Vec<(VertexId, VertexId)> {
    let star = (1..=SPOKES).map(|v| (0, v));
    let path = (SPOKES..N - 1).map(|v| (v, v + 1));
    star.chain(path).collect()
}

fn batches() -> Vec<MutationBatch> {
    let cut_spokes = (1..=SPOKES).step_by(2).map(|v| EdgeMutation::delete(0, v));
    let relink = (1..=SPOKES).step_by(2).map(|v| EdgeMutation::insert(v, v + 1));
    vec![
        // A few rows: one path edge cut, one shortcut.
        MutationBatch::new(vec![EdgeMutation::delete(80, 81), EdgeMutation::insert(100, 3)]),
        // Most of the star: every other spoke cut, and its leaf re-linked.
        MutationBatch::new(cut_spokes.chain(relink).collect()),
        // A few rows again: the cut path edge back, the far end cut off, the
        // last vertex isolated.
        MutationBatch::new(vec![
            EdgeMutation::insert(80, 81),
            EdgeMutation::delete(110, 111),
            EdgeMutation::delete(N - 2, N - 1),
        ]),
        // The hub loses its first spoke, a new vertex joins the last one.
        MutationBatch::new(vec![EdgeMutation::delete(0, 2), EdgeMutation::insert(N - 1, N)]),
    ]
}

fn config(machines: usize, max_supersteps: usize, profile: bool) -> EngineConfig {
    let mut cfg = EngineConfig {
        machines,
        parallel: false,
        max_supersteps,
        ..EngineConfig::default()
    };
    if profile {
        cfg.obs = itg_obs::Recorder::enabled();
    }
    cfg
}

fn session(src: &str, input: &GraphInput, cfg: EngineConfig) -> Session {
    let mut s = SessionBuilder::from_config(cfg).from_source(src, input).expect("compiles");
    s.run_oneshot();
    s
}

/// Every attribute column, then every global.
fn results(s: &Session) -> Vec<Value> {
    let symbols = &s.program.symbols;
    let attrs = symbols.attrs.iter().flat_map(|a| s.attr_column(&a.name).unwrap());
    let globals = symbols.globals.iter().map(|g| s.global_value(&g.name, None).unwrap());
    attrs.chain(globals).collect()
}

/// Run `src`'s history at `machines`; returns the refreshes' dense windows
/// and point-loaded rows.
fn check(name: &str, src: &str, undirected: bool, machines: usize) -> (u64, u64) {
    let max_ss = if matches!(name, "pr" | "lp") { 10 } else { usize::MAX };
    let mut input = if undirected {
        GraphInput::undirected(base_edges())
    } else {
        GraphInput::directed(base_edges())
    };
    input.num_vertices = N as usize;
    let mut s = session(src, &input, config(machines, max_ss, true));
    let batches = batches();
    let (mut dense, mut points) = (0, 0);
    for (k, batch) in batches.iter().enumerate() {
        s.apply_mutations(batch);
        let profile = s.run_incremental().profile.expect("an enabled recorder");
        dense += profile.counter_total("accm/dense_windows");
        points += profile.counter_total("accm/point_rows");
        let fresh = session(src, &EdgeModel::after(&input, &batches[..=k]).input(), {
            config(machines, max_ss, false)
        });
        assert_eq!(results(&s), results(&fresh), "{name}, {machines} machines, batch {k}");
    }
    (dense, points)
}

#[test]
fn dense_and_sparse_accumulator_loads_match_fresh_one_shots() {
    let cases = [
        ("bfs", programs::source("bfs").unwrap(), true),
        ("wcc", programs::source("wcc").unwrap(), true),
        ("pr", programs::source("pr").unwrap(), false),
        ("lp", programs::source("lp").unwrap(), true),
        ("min_global", MIN_GLOBAL.to_string(), true),
        ("two_actions_one_min", TWO_ACTIONS_ONE_MIN.to_string(), true),
    ];
    for (name, src, undirected) in &cases {
        for machines in [1, 3] {
            let (dense, points) = check(name, src, *undirected, machines);
            let at = format!("{name}, {machines} machines: {dense} dense windows, {points} rows");
            assert!(dense > 0, "no refresh superstep loaded its window whole — {at}");
            assert!(points > 0, "no refresh superstep point-loaded a row — {at}");
        }
    }
}
