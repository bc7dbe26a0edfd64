//! Regression: a MIN accumulator whose *support* moved while its value and
//! contribution count stayed put must still be recorded as changed.
//!
//! On an even ring, label 0 reaches the far vertex over both arcs in the
//! same superstep, so its MIN support is 2. Cutting one arc retracts one
//! supporter and — in the same batch — re-derives the value over the other
//! arc: value and count end equal, support drops to 1. `apply_contribution`
//! used to report that as `Unchanged`, the new support was never stored,
//! and the second cut decremented a stale 2 → 1 instead of triggering the
//! recompute: the whole path kept label 0. Every history here is checked
//! after each batch against a from-scratch session on the same graph, with
//! `OptFlags::min_count` on and off, for WCC and BFS.

use itg_algorithms::programs;
use itg_engine::{EngineConfig, GraphInput, OptFlags, SessionBuilder};
use itg_gsa::Value;
use itg_store::{EdgeMutation, MutationBatch};

fn config(min_count: bool) -> EngineConfig {
    EngineConfig {
        opts: OptFlags { min_count, ..OptFlags::default() },
        ..EngineConfig::default()
    }
}

fn from_scratch(source: &str, attr: &str, n: u64, edges: &[(u64, u64)], min_count: bool) -> Vec<Value> {
    let mut input = GraphInput::undirected(edges.to_vec());
    input.num_vertices = n as usize;
    let mut s = SessionBuilder::from_config(config(min_count))
        .from_source(source, &input)
        .expect("program compiles");
    s.run_oneshot();
    s.attr_column(attr).expect("result attribute exists")
}

/// Cut `(0, n-1)` then `(0, 1)` out of the `n`-ring, one batch each, and
/// hold the incremental result against a from-scratch run after each cut.
fn cut_ring_twice(source: &str, attr: &str, n: u64, min_count: bool) -> Vec<Value> {
    let mut edges: Vec<(u64, u64)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
    let mut s = SessionBuilder::from_config(config(min_count))
        .from_source(source, &GraphInput::undirected(edges.clone()))
        .expect("program compiles");
    s.run_oneshot();
    for cut in [(n - 1, 0), (0, 1)] {
        edges.retain(|&e| e != cut);
        s.apply_mutations(&MutationBatch::new(vec![EdgeMutation::delete(cut.0, cut.1)]));
        s.run_incremental();
        assert_eq!(
            s.attr_column(attr).unwrap(),
            from_scratch(source, attr, n, &edges, min_count),
            "{attr} on the {n}-ring after cutting {cut:?} (min_count={min_count})"
        );
    }
    s.attr_column(attr).unwrap()
}

#[test]
fn wcc_survives_two_cuts_of_a_ring() {
    for min_count in [true, false] {
        for n in 4..=16 {
            let comp = cut_ring_twice(programs::WCC, "comp", n, min_count);
            // Vertex 0 is cut off; the rest is one path labelled by vertex 1.
            let mut want = vec![Value::Long(1); n as usize];
            want[0] = Value::Long(0);
            assert_eq!(comp, want, "{n}-ring, min_count={min_count}");
        }
    }
}

#[test]
fn bfs_survives_two_cuts_of_a_ring() {
    for min_count in [true, false] {
        for n in 4..=16 {
            let dist = cut_ring_twice(&programs::bfs(0), "dist", n, min_count);
            let mut want = vec![Value::Long(programs::BFS_INF); n as usize];
            want[0] = Value::Long(0);
            assert_eq!(dist, want, "{n}-ring, min_count={min_count}");
        }
    }
}
