//! Regression: a walk query with two actions on one MIN accumulator must
//! re-derive it once per walk, not once per action.
//!
//! The monoid recompute pass used to loop over *actions* while its target
//! filter matched by accumulator only, so every contribution to the
//! accumulator fired once per action on it: support and count came back
//! doubled, the next retraction of the minimum "decremented the support"
//! instead of recomputing, and the value went stale. On the star
//! `1–9, 2–9, 3–9` the hub's `lo` stayed 2 after both its smaller
//! neighbours were cut off. The compiled recompute plan lists each query
//! once per accumulator, which fixes it by construction.
//!
//! After every batch the incremental result is held against a from-scratch
//! session on the same graph, and the incremental session's dynamic state
//! image must be one and the same under all 16 combinations of the four
//! `OptFlags` that choose a code path (`specialize` chooses none) —
//! maintained (CNT on) and recomputed (CNT off) support columns included.

use itg_engine::{EngineConfig, GraphInput, OptFlags, Session, SessionBuilder};
use itg_gsa::Value;
use itg_store::{EdgeMutation, MutationBatch};

const TWO_ACTIONS_ONE_MIN: &str = r#"
    Vertex (id, active, nbrs, lo: long, m: Accm<long, MIN>)
    Initialize (u): { u.lo = 1000; u.active = true; }
    Traverse (u): {
        For v in u.nbrs { v.m.Accumulate(u.id); v.m.Accumulate(u.id + 100); }
    }
    Update (u): { u.lo = u.m; }
"#;

fn session(edges: &[(u64, u64)], opts: OptFlags) -> Session {
    let mut input = GraphInput::undirected(edges.to_vec());
    input.num_vertices = 10;
    let cfg = EngineConfig { opts, ..EngineConfig::default() };
    let mut s = SessionBuilder::from_config(cfg)
        .from_source(TWO_ACTIONS_ONE_MIN, &input)
        .expect("program compiles");
    s.run_oneshot();
    s
}

fn all_opt_flags() -> impl Iterator<Item = OptFlags> {
    (0..16u8).map(|bits| OptFlags {
        traversal_reorder: bits & 1 != 0,
        neighbor_prune: bits & 2 != 0,
        seek_window_share: bits & 4 != 0,
        min_count: bits & 8 != 0,
        ..OptFlags::default()
    })
}

#[test]
fn hub_minimum_survives_two_cuts_of_a_star() {
    let mut images: Vec<Vec<Vec<u8>>> = Vec::new();
    for opts in all_opt_flags() {
        let mut edges = vec![(1, 9), (2, 9), (3, 9)];
        let mut s = session(&edges, opts);
        let mut per_batch = Vec::new();
        for (cut, want) in [((1, 9), 2), ((2, 9), 3)] {
            edges.retain(|&e| e != cut);
            s.apply_mutations(&MutationBatch::new(vec![EdgeMutation::delete(cut.0, cut.1)]));
            s.run_incremental();
            let lo = s.attr_column("lo").unwrap();
            assert_eq!(lo[9], Value::Long(want), "hub after cutting {cut:?} under {opts:?}");
            assert_eq!(
                lo,
                session(&edges, opts).attr_column("lo").unwrap(),
                "incremental vs from-scratch after cutting {cut:?} under {opts:?}"
            );
            per_batch.push(s.dynamic_state_image());
        }
        images.push(per_batch);
    }
    for (bits, per_batch) in images.iter().enumerate() {
        assert!(
            per_batch == &images[0],
            "dynamic state image under OptFlags #{bits} differs from OptFlags::none()'s"
        );
    }
}
