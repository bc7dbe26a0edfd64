//! Cluster-simulation behaviour: partial pre-aggregation on the exchange
//! path, network accounting, vertex growth, and composite (Array)
//! attribute support.

use itg_engine::{EngineConfig, GraphInput, SessionBuilder};
use itg_gsa::Value;
use itg_store::{EdgeMutation, MutationBatch};

#[test]
fn preaggregation_bounds_network_volume() {
    // A star: every leaf contributes to the hub each superstep. With
    // partial pre-aggregation, each *machine* sends one folded
    // contribution to the hub's owner per superstep — not one per leaf.
    let leaves = 64u64;
    let hub = 1u64; // owner = 1 % machines
    let edges: Vec<(u64, u64)> = (0..=leaves)
        .filter(|&v| v != hub)
        .map(|v| (v, hub))
        .collect();
    let src = r#"
        Vertex (id, active, out_nbrs, s: Accm<long, SUM>, x: long)
        Initialize (u): { u.active = true; }
        Traverse (u): {
            For v in u.out_nbrs { v.s.Accumulate(1); }
        }
        Update (u): { u.x = u.s; }
    "#;
    let machines = 4;
    let input = GraphInput::directed(edges);
    let mut s = SessionBuilder::from_config(EngineConfig::with_machines(machines)).from_source(src, &input).unwrap();
    let m = s.run_oneshot();
    assert_eq!(s.attr_value(hub, "x").unwrap(), Value::Long(leaves as i64));
    // Upper bound: per superstep, at most (machines − 1) remote folded
    // contributions to the hub plus the remote adjacency seeks. The seeks
    // dominate; the accumulator exchange itself must stay ~O(machines),
    // not O(leaves). Contribution wire size is ~40B.
    let exchanges = (machines as u64 - 1) * 40 * m.supersteps as u64;
    assert!(
        m.io.net_bytes < exchanges + leaves * 16 * m.supersteps as u64,
        "net bytes {} suggest unaggregated sends",
        m.io.net_bytes
    );
}

#[test]
fn remote_seeks_are_charged() {
    // Two machines; all edges owned by machine 0's vertices, traversals
    // started from machine 1's vertex cross over.
    let edges = vec![(1u64, 0u64), (1, 2), (0, 2), (2, 0)];
    let src = r#"
        Vertex (id, active, out_nbrs, s: Accm<long, SUM>)
        Initialize (u): { u.active = true; }
        Traverse (u): {
            For v in u.out_nbrs { For w in v.out_nbrs { w.s.Accumulate(1); } }
        }
        Update (u): { }
    "#;
    let input = GraphInput::directed(edges);
    let mut s = SessionBuilder::from_config(EngineConfig::with_machines(2)).from_source(src, &input).unwrap();
    let m = s.run_oneshot();
    assert!(m.io.net_bytes > 0, "cross-partition traversal must hit the network");
}

#[test]
fn array_attributes_flow_through_the_engine() {
    // Each vertex owns a fixed embedding; neighbors accumulate a scalar
    // projection of it; Update folds it back into a score.
    let src = r#"
        Vertex (id, active, nbrs, emb: Array<long, 3>,
                s: Accm<long, SUM>, score: long)
        Initialize (u): {
            u.active = true;
        }
        Traverse (u): {
            For v in u.nbrs { v.s.Accumulate(u.emb[0] + u.emb[2]); }
        }
        Update (u): { u.score = u.s; }
    "#;
    let input = GraphInput::undirected(vec![(0, 1), (1, 2)]);
    let mut s = SessionBuilder::from_config(EngineConfig::default()).from_source(src, &input).unwrap();
    s.run_oneshot();
    // Embeddings default to zero-filled arrays, so scores are 0 — but the
    // Array read path (AttrElem) ran for every walk.
    assert_eq!(s.attr_value(1, "score").unwrap(), Value::Long(0));
    let emb = s.attr_value(0, "emb").unwrap();
    assert_eq!(
        emb,
        Value::Array(vec![Value::Long(0), Value::Long(0), Value::Long(0)])
    );
}

#[test]
fn vertex_growth_mid_stream() {
    // New vertices appear via mutations; Initialize runs for them and they
    // participate in subsequent supersteps.
    let src = r#"
        Vertex (id, active, nbrs, comp: long, m: Accm<long, MIN>)
        Initialize (u): { u.comp = u.id; u.active = true; }
        Traverse (u): { For v in u.nbrs { v.m.Accumulate(u.comp); } }
        Update (u): { If (u.m < u.comp) { u.comp = u.m; u.active = true; } }
    "#;
    let input = GraphInput::undirected(vec![(0, 1)]);
    let mut s = SessionBuilder::from_config(EngineConfig::with_machines(2)).from_source(src, &input).unwrap();
    s.run_oneshot();
    // Vertex 5 does not exist yet.
    s.apply_mutations(&MutationBatch::new(vec![
        EdgeMutation::insert(1, 5),
        EdgeMutation::insert(5, 3),
    ]));
    s.run_incremental();
    assert_eq!(s.attr_value(5, "comp").unwrap(), Value::Long(0));
    assert_eq!(s.attr_value(3, "comp").unwrap(), Value::Long(0));
}

#[test]
fn edge_compaction_between_snapshots_is_transparent() {
    let input = GraphInput::undirected(vec![(0, 1), (1, 2), (0, 2), (2, 3)]);
    let mut s = SessionBuilder::from_config(EngineConfig::with_machines(2)).from_source(itg_algorithms::programs::TRIANGLE_COUNT, &input)
    .unwrap();
    s.run_oneshot();
    // Several snapshots build up a delta-segment chain.
    for m in [
        EdgeMutation::insert(1, 3),
        EdgeMutation::insert(3, 0),
        EdgeMutation::delete(0, 1),
    ] {
        s.apply_mutations(&MutationBatch::new(vec![m]));
        s.run_incremental();
    }
    let count_before = s.global_value("cnts", None).unwrap();
    let bytes_before = s.graph.edge_store_bytes();

    s.compact_edges();
    assert!(s.graph.edge_store_bytes() <= bytes_before);

    // The session keeps working across post-compaction batches, with
    // identical results.
    s.apply_mutations(&MutationBatch::new(vec![EdgeMutation::insert(0, 1)]));
    s.run_incremental();
    let expected = {
        // (0,1) back in: triangles of the final graph.
        use itg_algorithms::native::{triangle_count, SimpleGraph};
        let g = SimpleGraph::undirected(
            4,
            &[(0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (3, 0)],
        );
        triangle_count(&g)
    };
    assert_eq!(s.global_value("cnts", None).unwrap(), Value::Long(expected));
    let _ = count_before;
}

#[test]
fn unsupported_fragment_is_a_clean_error_at_session_creation() {
    // Deep attribute reads type-check (the language allows them) but sit
    // outside the engine's executable fragment: rejected up front with a
    // diagnosable error rather than a mid-run panic.
    let src = r#"
        Vertex (id, active, nbrs, w: long, s: Accm<long, SUM>)
        Initialize (u): { u.w = u.id; u.active = true; }
        Traverse (u): {
            For v in u.nbrs { For x in v.nbrs { x.s.Accumulate(v.w); } }
        }
        Update (u): { }
    "#;
    let input = GraphInput::undirected(vec![(0, 1), (1, 2)]);
    let err = match SessionBuilder::from_config(EngineConfig::default()).from_source(src, &input) {
        Err(e) => e,
        Ok(_) => panic!("deep-attr program should be rejected"),
    };
    assert!(err.to_string().contains("first vertex"), "{err}");
}

#[test]
fn durability_with_a_cluster_is_refused_before_anything_starts() {
    use itg_engine::{ClusterSpec, DurabilityKind};
    let input = GraphInput::undirected(vec![(0, 1), (1, 2)]);
    let err = SessionBuilder::from_config(EngineConfig::with_machines(2))
        .cluster(ClusterSpec::tcp(2))
        .durability(DurabilityKind::Wal { dir: std::env::temp_dir().join("itg-never-created") })
        .from_source(itg_algorithms::programs::TRIANGLE_COUNT, &input)
        .map(|_| ())
        .expect_err("a WAL cannot cover a worker fleet");
    assert!(err.to_string().contains("durability requires the local transport"), "{err}");
}

#[test]
fn protocol_misuse_is_a_clean_error() {
    let input = GraphInput::undirected(vec![(0, 1), (1, 2), (0, 2)]);
    let mut s = SessionBuilder::from_config(EngineConfig::default()).from_source(itg_algorithms::programs::TRIANGLE_COUNT, &input)
    .unwrap();
    // Incremental before one-shot.
    assert!(s.try_run_incremental().is_err());
    s.run_oneshot();
    // Incremental without a pending batch.
    assert!(s.try_run_incremental().is_err());
    s.apply_mutations(&MutationBatch::new(vec![EdgeMutation::insert(1, 3)]));
    assert!(s.try_run_incremental().is_ok());
    // And again without a new batch.
    assert!(s.try_run_incremental().is_err());
}

/// A refresh consumes exactly one batch: with two batches pending it is an
/// error that says so, not an index out of bounds in the driver, and the
/// session is left as it was.
#[test]
fn two_batches_before_one_refresh_is_an_error() {
    let input = GraphInput::undirected(vec![(0, 1), (1, 2), (0, 2)]);
    let mut s = SessionBuilder::from_config(EngineConfig::default())
        .from_source(itg_algorithms::programs::TRIANGLE_COUNT, &input)
        .unwrap();
    s.run_oneshot();
    s.apply_mutations(&MutationBatch::new(vec![EdgeMutation::insert(1, 3)]));
    s.apply_mutations(&MutationBatch::new(vec![EdgeMutation::insert(0, 3)]));
    let err = s.try_run_incremental().map(|_| ()).expect_err("two batches, one refresh");
    assert!(err.to_string().contains("2 mutation batches are pending"), "{err}");
    assert_eq!(s.superstep_counts().len(), 1, "the refused refresh ran nothing");
}

/// Compaction keeps the pending batch: compacting between
/// `apply_mutations` and the refresh leaves the refresh's `Old` view and
/// Δ intact, so deleting the middle edge of the path 0–5 still splits it —
/// as a one-shot on the remaining edges does.
#[test]
fn compaction_before_the_refresh_keeps_the_batch() {
    let path: Vec<(u64, u64)> = (0..5).map(|v| (v, v + 1)).collect();
    let comp = |s: &itg_engine::Session| {
        (0..6).map(|v| s.attr_value(v, "comp").unwrap()).collect::<Vec<_>>()
    };
    for machines in [1, 2] {
        let session = |edges: &[(u64, u64)]| {
            let input = GraphInput::undirected(edges.to_vec());
            let mut s = SessionBuilder::from_config(EngineConfig::with_machines(machines))
                .from_source(itg_algorithms::programs::WCC, &input)
                .unwrap();
            s.run_oneshot();
            s
        };
        let mut s = session(&path);
        // A chain of several batches, so compaction has segments to fold.
        for batch in [EdgeMutation::insert(0, 2), EdgeMutation::delete(0, 2), EdgeMutation::delete(2, 3)] {
            s.apply_mutations(&MutationBatch::new(vec![batch]));
            s.compact_edges();
            s.run_incremental();
        }
        let split: Vec<(u64, u64)> = path.iter().copied().filter(|&e| e != (2, 3)).collect();
        let want: Vec<Value> = [0, 0, 0, 3, 3, 3].map(Value::Long).to_vec();
        assert_eq!(comp(&session(&split)), want, "{machines} machines, one-shot");
        assert_eq!(comp(&s), want, "{machines} machines");
    }
}

#[test]
fn empty_batch_is_a_noop() {
    let input = GraphInput::undirected(vec![(0, 1), (1, 2), (0, 2)]);
    let mut s = SessionBuilder::from_config(EngineConfig::default()).from_source(itg_algorithms::programs::TRIANGLE_COUNT, &input)
    .unwrap();
    s.run_oneshot();
    s.apply_mutations(&MutationBatch::new(vec![]));
    let inc = s.run_incremental();
    assert_eq!(s.global_value("cnts", None).unwrap(), Value::Long(1));
    assert_eq!(inc.io.walks_enumerated, 0, "no deltas → no Δ-walks");
}

/// MIN/MAX globals under deletions: the refresh's global delta carries a
/// monoid retraction, so every plane re-derives the globals by a full
/// scan. Each batch's globals must equal a fresh one-shot run over the
/// same graph, and Local, TCP and Unix sockets must agree on globals
/// and attribute columns.
#[cfg(unix)]
#[test]
fn monoid_globals_agree_on_every_plane() {
    use itg_engine::{ClusterSpec, Session, TransportKind};
    let src = r#"
        Vertex (id, active, nbrs, s: Accm<long, SUM>, deg: long)
        GlobalVariable (hi: Accm<long, MAX>, lo: Accm<long, MIN>, tot: Accm<long, SUM>)
        Initialize (u): { u.active = true; }
        Traverse (u): {
            For v in u.nbrs {
                hi.Accumulate(u.id);
                lo.Accumulate(u.id);
                tot.Accumulate(1);
                v.s.Accumulate(1);
            }
        }
        Update (u): { u.deg = u.s; }
    "#;
    let path: Vec<(u64, u64)> = (0..5).map(|v| (v, v + 1)).collect();
    let batches = [
        vec![EdgeMutation::delete(4, 5)],
        vec![EdgeMutation::delete(0, 1)],
        vec![EdgeMutation::insert(0, 1), EdgeMutation::insert(4, 5)],
    ];
    let want: [[i64; 3]; 4] = [[5, 0, 10], [4, 0, 8], [4, 1, 6], [5, 0, 10]];
    let build = |transport: TransportKind, edges: Vec<(u64, u64)>| -> Session {
        let mut input = GraphInput::undirected(edges);
        input.num_vertices = 6;
        SessionBuilder::from_config(EngineConfig::with_machines(2))
            .transport(transport)
            .from_source(src, &input)
            .unwrap()
    };
    let observe = |s: &Session| -> (Vec<Value>, Vec<Value>) {
        let globals = ["hi", "lo", "tot"].map(|g| s.global_value(g, None).unwrap());
        (globals.to_vec(), s.attr_column("deg").unwrap())
    };
    let transcript = |transport: TransportKind| {
        let mut s = build(transport, path.clone());
        s.run_oneshot();
        let mut out = vec![observe(&s)];
        let mut edges = path.clone();
        for batch in &batches {
            s.apply_mutations(&MutationBatch::new(batch.clone()));
            s.run_incremental();
            for m in batch {
                if m.mult > 0 {
                    edges.push((m.src, m.dst));
                } else {
                    edges.retain(|&e| e != (m.src, m.dst));
                }
            }
            let mut fresh = build(TransportKind::Local, edges.clone());
            fresh.run_oneshot();
            assert_eq!(
                observe(&s).0,
                observe(&fresh).0,
                "globals ≠ a fresh one-shot"
            );
            out.push(observe(&s));
        }
        out
    };
    let local = transcript(TransportKind::Local);
    for (i, (globals, _)) in local.iter().enumerate() {
        assert_eq!(
            globals,
            &want[i].map(Value::Long).to_vec(),
            "after batch {i}"
        );
    }
    for spec in [ClusterSpec::tcp(2), ClusterSpec::uds(2)] {
        let label = format!("{spec:?}");
        assert_eq!(
            transcript(TransportKind::Cluster(spec)),
            local,
            "{label} ≢ Local"
        );
    }
}

#[test]
fn repeated_batches_between_runs_are_rejected_gracefully() {
    // Two mutation batches before one incremental run: the engine processes
    // against the latest snapshot; the older delta folds into the Old view.
    // (A production system would queue; we document the semantics: each
    // run_incremental consumes exactly the latest batch, so callers must
    // alternate apply/run. This test pins the supported pattern.)
    let input = GraphInput::undirected(vec![(0, 1), (1, 2), (0, 2)]);
    let mut s = SessionBuilder::from_config(EngineConfig::default()).from_source(itg_algorithms::programs::TRIANGLE_COUNT, &input)
    .unwrap();
    s.run_oneshot();
    for (a, b) in [(2u64, 3u64), (3, 0)] {
        s.apply_mutations(&MutationBatch::new(vec![EdgeMutation::insert(a, b)]));
        s.run_incremental();
    }
    assert_eq!(s.global_value("cnts", None).unwrap(), Value::Long(2));
}
