//! End-to-end equivalence: for every evaluation algorithm, the engine's
//! one-shot results must match the independent native reference, and the
//! engine's *incremental* results after a sequence of mutation batches
//! must match a fresh one-shot execution on the mutated graph — bit for
//! bit (the programs use integer arithmetic to make this exact).

mod common;

use common::{attr_names, random_workload, EdgeModel, PROD_MAX};
use itg_algorithms::native::{self, SimpleGraph};
use itg_algorithms::programs;
use itg_engine::{EngineConfig, GraphInput, SessionBuilder};
use itg_gsa::{Value, VertexId};
use itg_store::{EdgeMutation, MutationBatch};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn longs(vals: Vec<Value>) -> Vec<i64> {
    vals.into_iter().map(|v| v.as_i64().unwrap()).collect()
}

/// The paper's running example G_0 (Figure 6).
fn paper_edges() -> Vec<(VertexId, VertexId)> {
    vec![
        (0, 1),
        (0, 5),
        (1, 5),
        (2, 3),
        (2, 5),
        (3, 4),
        (4, 5),
        (6, 7),
    ]
}

fn cfg(machines: usize) -> EngineConfig {
    EngineConfig {
        machines,
        parallel: false,
        ..EngineConfig::default()
    }
}

#[test]
fn paper_example_tc_one_shot_and_incremental() {
    let input = GraphInput::undirected(paper_edges());
    let mut s = SessionBuilder::from_config(cfg(2)).from_source(programs::TRIANGLE_COUNT, &input).unwrap();
    let one = s.run_oneshot();
    assert_eq!(s.global_value("cnts", None).unwrap(), Value::Long(1));
    assert_eq!(one.supersteps, 1);

    // ΔG_1 = {insert (3,5)} — Figure 10: triangles <2,3,5> and <3,4,5>.
    s.apply_mutations(&MutationBatch::new(vec![EdgeMutation::insert(3, 5)]));
    let inc = s.run_incremental();
    assert_eq!(s.global_value("cnts", None).unwrap(), Value::Long(3));
    assert!(inc.supersteps >= 1);

    // ΔG_2 = {delete (0,5), insert (6, 2)}: drops <0,1,5>.
    s.apply_mutations(&MutationBatch::new(vec![
        EdgeMutation::delete(0, 5),
        EdgeMutation::insert(6, 2),
    ]));
    s.run_incremental();
    assert_eq!(s.global_value("cnts", None).unwrap(), Value::Long(2));
}

#[test]
fn wcc_incremental_merges_components() {
    let input = GraphInput::undirected(paper_edges());
    let mut s = SessionBuilder::from_config(cfg(3)).from_source(programs::WCC, &input).unwrap();
    s.run_oneshot();
    let comp = longs(s.attr_column("comp").unwrap());
    let reference = native::wcc(&SimpleGraph::undirected(8, &paper_edges()));
    assert_eq!(comp, reference);

    // Connect the {6,7} component to the rest.
    s.apply_mutations(&MutationBatch::new(vec![EdgeMutation::insert(5, 6)]));
    s.run_incremental();
    let comp = longs(s.attr_column("comp").unwrap());
    assert!(comp.iter().all(|&c| c == 0), "all merged: {comp:?}");
}

#[test]
fn wcc_incremental_deletion_splits_component() {
    // Chain 0-1-2-3; deleting (1,2) splits into {0,1} and {2,3}. The Min
    // accumulator is a monoid: this exercises the recompute path.
    let input = GraphInput::undirected(vec![(0, 1), (1, 2), (2, 3)]);
    let mut s = SessionBuilder::from_config(cfg(2)).from_source(programs::WCC, &input).unwrap();
    s.run_oneshot();
    assert_eq!(longs(s.attr_column("comp").unwrap()), vec![0, 0, 0, 0]);

    s.apply_mutations(&MutationBatch::new(vec![EdgeMutation::delete(1, 2)]));
    let inc = s.run_incremental();
    let comp = longs(s.attr_column("comp").unwrap());
    assert_eq!(comp, vec![0, 0, 2, 2], "after split: {comp:?}");
    assert!(inc.recomputed_vertices > 0, "deletion must trigger monoid recompute");
}

/// Apply batches to a plain edge set.
fn apply_to_edges(edges: &mut Vec<(VertexId, VertexId)>, batch: &MutationBatch) {
    for m in batch.edges() {
        let key = (m.src.min(m.dst), m.src.max(m.dst));
        if m.is_insert() {
            edges.push(key);
        } else {
            edges.retain(|&e| e != key);
        }
    }
}

/// The core property: incremental results across several batches equal a
/// fresh one-shot on the final graph, for every algorithm.
fn check_algorithm(name: &str, machines: usize, seed: u64) {
    let (base, batches) = random_workload(seed, 24, 40, 3, 6);
    let src = programs::source(name).unwrap();
    let undirected = programs::is_undirected(name);
    let max_ss = if matches!(name, "pr" | "lp") { 10 } else { usize::MAX };

    let mk_input = |edges: &[(VertexId, VertexId)]| {
        let mut input = if undirected {
            GraphInput::undirected(edges.to_vec())
        } else {
            GraphInput::directed(edges.to_vec())
        };
        input.num_vertices = 24;
        input
    };

    let mut config = cfg(machines);
    config.max_supersteps = max_ss;

    // Incremental path.
    let mut sess = SessionBuilder::from_config(config.clone()).from_source(&src, &mk_input(&base)).unwrap();
    sess.run_oneshot();
    let mut edges = base.clone();
    for batch in &batches {
        sess.apply_mutations(batch);
        sess.run_incremental();
        apply_to_edges(&mut edges, batch);
    }

    // Fresh one-shot on the final graph.
    let mut fresh = SessionBuilder::from_config(config).from_source(&src, &mk_input(&edges)).unwrap();
    fresh.run_oneshot();

    // Compare all user-visible state.
    for attr in attr_names(name) {
        let a = sess.attr_column(attr).unwrap();
        let b = fresh.attr_column(attr).unwrap();
        assert_eq!(
            a, b,
            "{name}: attribute `{attr}` diverged after incremental runs (seed {seed})"
        );
    }
    if name == "tc" {
        assert_eq!(
            sess.global_value("cnts", None).unwrap(),
            fresh.global_value("cnts", None).unwrap(),
            "{name}: global count diverged (seed {seed})"
        );
        // And against the native reference.
        let g = SimpleGraph::undirected(24, &edges);
        assert_eq!(
            sess.global_value("cnts", None).unwrap(),
            Value::Long(native::triangle_count(&g))
        );
    }
}

#[test]
fn pr_incremental_equals_fresh_oneshot() {
    check_algorithm("pr", 1, 11);
    check_algorithm("pr", 3, 12);
}

#[test]
fn lp_incremental_equals_fresh_oneshot() {
    check_algorithm("lp", 1, 21);
    check_algorithm("lp", 2, 22);
}

#[test]
fn wcc_incremental_equals_fresh_oneshot() {
    check_algorithm("wcc", 1, 31);
    check_algorithm("wcc", 3, 32);
}

#[test]
fn bfs_incremental_equals_fresh_oneshot() {
    check_algorithm("bfs", 1, 41);
    check_algorithm("bfs", 2, 42);
}

#[test]
fn tc_incremental_equals_fresh_oneshot() {
    check_algorithm("tc", 1, 51);
    check_algorithm("tc", 3, 52);
}

#[test]
fn lcc_incremental_equals_fresh_oneshot() {
    check_algorithm("lcc", 1, 61);
    check_algorithm("lcc", 2, 62);
}

#[test]
fn oneshot_matches_native_references() {
    let (base, _) = random_workload(99, 24, 50, 0, 0);
    let g = SimpleGraph::undirected(24, &base);
    let mut input = GraphInput::undirected(base.clone());
    input.num_vertices = 24;

    let mut s = SessionBuilder::from_config(cfg(2)).from_source(programs::WCC, &input).unwrap();
    s.run_oneshot();
    assert_eq!(longs(s.attr_column("comp").unwrap()), native::wcc(&g));

    let mut s = SessionBuilder::from_config(cfg(2)).from_source(&programs::bfs(0), &input).unwrap();
    s.run_oneshot();
    assert_eq!(longs(s.attr_column("dist").unwrap()), native::bfs(&g, 0));

    let mut s = SessionBuilder::from_config(cfg(2)).from_source(programs::LCC, &input).unwrap();
    s.run_oneshot();
    assert_eq!(longs(s.attr_column("lcc").unwrap()), native::lcc(&g));

    let mut c = cfg(2);
    c.max_supersteps = 10;
    let mut s = SessionBuilder::from_config(c).from_source(programs::LABEL_PROP, &input).unwrap();
    s.run_oneshot();
    assert_eq!(
        longs(s.attr_column("label").unwrap()),
        native::label_prop(&g, 10)
    );

    // Directed PR against the native reference.
    let dir_edges: Vec<(u64, u64)> = base.iter().flat_map(|&(a, b)| [(a, b), (b, a)]).collect();
    let gd = SimpleGraph::directed(24, &dir_edges);
    let mut input_d = GraphInput::directed(dir_edges);
    input_d.num_vertices = 24;
    let mut c = cfg(2);
    c.max_supersteps = 10;
    let mut s = SessionBuilder::from_config(c).from_source(programs::PAGERANK, &input_d).unwrap();
    s.run_oneshot();
    assert_eq!(
        longs(s.attr_column("rank").unwrap()),
        native::pagerank(&gd, 10)
    );
}

/// Every Δ-walk optimization configuration — BASE, TR, TR+NP and all on —
/// leaves one dynamic state image after every batch, for TC, LCC and the
/// four directed id-only programs (whose Δ hops run rooted under TR). The
/// MIN and OR programs' deletes retract contributions that held a result,
/// so their recompute path runs beside the rooted walks.
#[test]
fn optimizations_do_not_change_results() {
    use itg_engine::OptFlags;
    let undirected = random_workload(77, 20, 36, 2, 6);
    let directed = directed_workload(78, 16, 60, 3, 8, 0.6);
    let cases = [
        (programs::TRIANGLE_COUNT, &undirected, false),
        (programs::LCC, &undirected, false),
        (programs::DIRECTED_3_CYCLES, &directed, true),
        (programs::DIRECTED_2_PATHS, &directed, true),
        (DIRECTED_2_PATH_MIN, &directed, true),
        (DIRECTED_2_PATH_OR, &directed, true),
    ];
    for (src, (base, batches), is_directed) in cases {
        let monoid = [DIRECTED_2_PATH_MIN, DIRECTED_2_PATH_OR].contains(&src);
        let mut images = Vec::new();
        for opts in [
            OptFlags::none(),
            OptFlags {
                traversal_reorder: true,
                ..OptFlags::none()
            },
            OptFlags {
                traversal_reorder: true,
                neighbor_prune: true,
                ..OptFlags::none()
            },
            OptFlags::default(),
        ] {
            let mut config = cfg(2);
            config.opts = opts;
            let mut input = if is_directed {
                GraphInput::directed(base.clone())
            } else {
                GraphInput::undirected(base.clone())
            };
            input.num_vertices = 20;
            let mut s = SessionBuilder::from_config(config).from_source(src, &input).unwrap();
            s.run_oneshot();
            let (mut per_batch, mut recomputed) = (Vec::new(), 0);
            for b in batches {
                s.apply_mutations(b);
                recomputed += s.run_incremental().recomputed_vertices;
                per_batch.push(s.dynamic_state_image());
            }
            // Without support counting every retraction recomputes.
            let counted = opts.min_count;
            assert!(!monoid || counted || recomputed > 0, "no delete retracted a result of\n{src}");
            images.push(per_batch);
        }
        assert!(
            images.windows(2).all(|w| w[0] == w[1]),
            "optimization flags changed the state of\n{src}"
        );
    }
}

/// Directed 2-paths `u → v → w` as in `DIRECTED_2_PATHS`, folding the
/// smallest start id into `w` on the non-invertible MIN lane.
const DIRECTED_2_PATH_MIN: &str = r#"
    Vertex (id, active, out_nbrs, lo: Accm<long, MIN>, low: long)
    Initialize (u): { If (u.id % 4 != 1) { u.active = true; } }
    Traverse (u): {
        For v in u.out_nbrs Where (u != v) {
            For w in v.out_nbrs Where (w != u) { w.lo.Accumulate(u.id); }
        }
    }
    Update (u): { u.low = u.lo; }
"#;

/// Whether a directed 2-path reaches `w` from a smaller start, on the
/// non-invertible OR lane.
const DIRECTED_2_PATH_OR: &str = r#"
    Vertex (id, active, out_nbrs, hit: Accm<bool, OR>, reached: bool)
    Initialize (u): { u.active = true; }
    Traverse (u): {
        For v in u.out_nbrs Where (u != v) {
            For w in v.out_nbrs Where (u < w) { w.hit.Accumulate(true); }
        }
    }
    Update (u): { u.reached = u.hit; }
"#;

/// A random directed base graph on `n` vertices (no self-loops; about one
/// edge in eight a second copy of one already drawn) and `batches`
/// batches of `batch_size` mutations. With probability `p_insert` a
/// mutation inserts an absent edge or, one time in eight, a second copy of
/// a present edge that was never deleted; else it deletes an edge present
/// once. The store hides every copy of a deleted pair and emits a revived
/// pair once, so the history keeps repeated edges away from both.
fn directed_workload(
    seed: u64,
    n: u64,
    base_edges: usize,
    batches: usize,
    batch_size: usize,
    p_insert: f64,
) -> (Vec<(VertexId, VertexId)>, Vec<MutationBatch>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut alive: Vec<(VertexId, VertexId)> = Vec::new();
    let mut deleted: Vec<(VertexId, VertexId)> = Vec::new();
    let copies = |alive: &[(VertexId, VertexId)], e| alive.iter().filter(|&&a| a == e).count();
    // An absent edge, or one time in eight a copy of a present, never
    // deleted one.
    let draw = |alive: &[(VertexId, VertexId)], deleted: &[_], rng: &mut SmallRng| loop {
        if !alive.is_empty() && rng.gen_range(0..8) == 0 {
            let e = alive[rng.gen_range(0..alive.len())];
            if !deleted.contains(&e) {
                return e;
            }
        }
        let e = (rng.gen_range(0..n), rng.gen_range(0..n));
        if e.0 != e.1 && !alive.contains(&e) {
            return e;
        }
    };
    while alive.len() < base_edges {
        let e = draw(&alive, &deleted, &mut rng);
        alive.push(e);
    }
    let base = alive.clone();
    let mut out = Vec::new();
    for _ in 0..batches {
        let mut muts = Vec::new();
        let mut touched = Vec::new();
        while muts.len() < batch_size {
            if rng.gen_bool(p_insert) || alive.len() < 4 {
                let e = draw(&alive, &deleted, &mut rng);
                if touched.contains(&e) {
                    continue;
                }
                muts.push(EdgeMutation::insert(e.0, e.1));
                alive.push(e);
                touched.push(e);
            } else {
                let e = alive[rng.gen_range(0..alive.len())];
                if touched.contains(&e) || copies(&alive, e) > 1 {
                    continue;
                }
                alive.retain(|&a| a != e);
                muts.push(EdgeMutation::delete(e.0, e.1));
                deleted.push(e);
                touched.push(e);
            }
        }
        out.push(MutationBatch::new(muts));
    }
    (base, out)
}

/// The reference counts of the two directed programs over `edges`:
/// directed 3-cycles, and per vertex the 2-paths from an active start
/// ending there.
fn directed_reference(n: usize, edges: &[(VertexId, VertexId)]) -> (i64, Vec<i64>) {
    let mut out = vec![Vec::new(); n];
    for &(a, b) in edges {
        out[a as usize].push(b as usize);
    }
    let (mut cycles, mut paths) = (0, vec![0; n]);
    for u in 0..n {
        for &v in out[u].iter().filter(|&&v| v != u) {
            for &w in out[v].iter().filter(|&&w| w != u) {
                paths[w] += (u % 4 != 1) as i64;
                if u < v && u < w {
                    cycles += out[w].iter().filter(|&&x| x == u).count() as i64;
                }
            }
        }
    }
    (cycles, paths)
}

/// The directed id-only programs, incremental ≡ a fresh one-shot (and the
/// 3-cycle and 2-path reference counts) after every batch, over an
/// insert-heavy and a delete-heavy history with repeated edges, at 1 and
/// 3 machines and 1 and 4 threads.
#[test]
fn directed_id_only_programs_incremental_equals_fresh_oneshot_after_every_batch() {
    let n = 16;
    let (mut cycles_seen, mut repeats_seen) = (0, 0);
    for (h, p_insert) in [0.8, 0.25].into_iter().enumerate() {
        let (base, batches) = directed_workload(0xD1 + h as u64, n as u64, 60, 4, 8, p_insert);
        let mut distinct = base.clone();
        distinct.sort_unstable();
        distinct.dedup();
        repeats_seen += base.len() - distinct.len();
        for (machines, threads) in [(1, 1), (1, 4), (3, 1), (3, 4)] {
            let config = EngineConfig { machines, parallel: false, ..EngineConfig::default() };
            let config = config.with_threads(threads);
            let session = |src: &str, edges: &[(VertexId, VertexId)]| {
                let mut input = GraphInput::directed(edges.to_vec());
                input.num_vertices = n;
                let mut s = SessionBuilder::from_config(config.clone())
                    .from_source(src, &input)
                    .unwrap();
                s.run_oneshot();
                s
            };
            let mut cyc = session(programs::DIRECTED_3_CYCLES, &base);
            let mut paths = session(programs::DIRECTED_2_PATHS, &base);
            let mut lo = session(DIRECTED_2_PATH_MIN, &base);
            let mut hit = session(DIRECTED_2_PATH_OR, &base);
            let mut edges = base.clone();
            for (i, batch) in batches.iter().enumerate() {
                let at = format!("history {h}, batch {i}, {machines} machines, {threads} threads");
                for s in [&mut cyc, &mut paths, &mut lo, &mut hit] {
                    s.apply_mutations(batch);
                    s.run_incremental();
                }
                for m in batch.edges() {
                    if m.is_insert() {
                        edges.push((m.src, m.dst));
                    } else {
                        edges.retain(|&e| e != (m.src, m.dst));
                    }
                }
                let (want_cycles, want_paths) = directed_reference(n, &edges);
                cycles_seen += want_cycles;
                let fresh = session(programs::DIRECTED_3_CYCLES, &edges);
                let got = cyc.global_value("cycles", None).unwrap();
                assert_eq!(got, fresh.global_value("cycles", None).unwrap(), "{at}");
                assert_eq!(got, Value::Long(want_cycles), "{at}");
                let fresh = session(programs::DIRECTED_2_PATHS, &edges);
                let got = longs(paths.attr_column("paths").unwrap());
                assert_eq!(got, longs(fresh.attr_column("paths").unwrap()), "{at}");
                assert_eq!(got, want_paths, "{at}");
                let fresh = session(DIRECTED_2_PATH_MIN, &edges);
                assert_eq!(lo.attr_column("low").unwrap(), fresh.attr_column("low").unwrap(), "{at}");
                let fresh = session(DIRECTED_2_PATH_OR, &edges);
                assert_eq!(hit.attr_column("reached").unwrap(), fresh.attr_column("reached").unwrap(), "{at}");
            }
        }
    }
    assert!(cycles_seen > 0, "the histories close no directed 3-cycle");
    assert!(repeats_seen > 0, "the histories start with no repeated edge");
}

/// A repeated directed edge counts once per copy whichever hop closes the
/// walk: on `0→1, 1→2, 1→2`, inserting `2→0` closes two 3-cycles under
/// BASE, where the Δ hop closes the walk as a probe, and under traversal
/// reordering, where the walk starts at the Δ edge and probes `1→2` — as
/// many as a fresh one-shot on the four edges counts.
#[test]
fn a_repeated_directed_edge_counts_once_per_copy_on_every_delta_path() {
    use itg_engine::OptFlags;
    let base = [(0, 1), (1, 2), (1, 2)];
    let batch = MutationBatch::new(vec![EdgeMutation::insert(2, 0)]);
    for opts in [OptFlags::none(), OptFlags::default()] {
        for machines in [1, 3] {
            let session = |edges: &[(VertexId, VertexId)]| {
                let mut config = cfg(machines);
                config.opts = opts;
                let input = GraphInput::directed(edges.to_vec());
                let mut s = SessionBuilder::from_config(config)
                    .from_source(programs::DIRECTED_3_CYCLES, &input)
                    .unwrap();
                s.run_oneshot();
                s
            };
            let at = format!("{opts:?}, {machines} machines");
            let mut s = session(&base);
            assert_eq!(s.global_value("cycles", None).unwrap(), Value::Long(0), "{at}");
            s.apply_mutations(&batch);
            s.run_incremental();
            let fresh = session(&[(0, 1), (1, 2), (1, 2), (2, 0)]);
            assert_eq!(fresh.global_value("cycles", None).unwrap(), Value::Long(2), "{at}");
            assert_eq!(s.global_value("cycles", None).unwrap(), Value::Long(2), "{at}");
        }
    }
}

/// Deleting a pair with several copies hides every copy, so the Δ stream
/// retracts every copy: on `0→1, 0→1, 1→2`, deleting `0→1` leaves no
/// 2-path, incrementally as in a fresh one-shot on `1→2` — and the graph
/// the registry holds drops the pair, as the edge-multiset model does, so
/// a query registered after the delete sees the same graph.
#[test]
fn a_deleted_repeated_edge_retracts_every_copy() {
    use itg_engine::{QueryRegistry, ServeLimits};
    let base = [(0, 1), (0, 1), (1, 2)];
    let delete = MutationBatch::new(vec![EdgeMutation::delete(0, 1)]);
    let paths = |s: &itg_engine::Session| longs(s.attr_column("paths").unwrap());
    for machines in [1, 3] {
        let session = |edges: &[(VertexId, VertexId)]| {
            let input = GraphInput::directed(edges.to_vec());
            let mut s = SessionBuilder::from_config(cfg(machines))
                .from_source(programs::DIRECTED_2_PATHS, &input)
                .unwrap();
            s.run_oneshot();
            s
        };
        let mut s = session(&base);
        assert_eq!(paths(&s), [0, 0, 2], "{machines} machines, before");
        s.apply_mutations(&delete);
        s.run_incremental();
        assert_eq!(paths(&s), paths(&session(&[(1, 2)])), "{machines} machines");
        assert_eq!(paths(&s), [0, 0, 0], "{machines} machines");

        let input = GraphInput::directed(base.to_vec());
        let mut reg = QueryRegistry::new(&input, cfg(machines), ServeLimits::default());
        let early = reg.register("early", programs::DIRECTED_2_PATHS).unwrap();
        reg.commit(&delete).unwrap();
        let model = EdgeModel::after(&input, std::slice::from_ref(&delete));
        assert_eq!(model.input().edges, [(1, 2)]);
        assert_eq!(reg.current_input().edges, model.input().edges, "{machines} machines");
        assert_eq!(reg.num_vertices(), model.num_vertices(), "{machines} machines");
        let late = reg.register("late", programs::DIRECTED_2_PATHS).unwrap();
        for id in [early, late] {
            assert_eq!(longs(reg.attr_column(id, "paths").unwrap()), [0, 0, 0], "{machines} machines");
        }
    }
}

/// A pair re-inserted after its delete and then inserted again holds two
/// copies, so the final delete retracts both: on `1→2`, the batches
/// `+0 1, −0 1, +0 1, +0 1, −0 1` leave `paths` = `[0, 0, 2]` after the
/// fourth and `[0, 0, 0]` after the fifth, as a fresh one-shot on each
/// multiset gives — in sessions and in a registry, for a query registered
/// before the history and one registered after the fourth batch.
#[test]
fn a_revived_pair_inserted_again_counts_each_copy() {
    use itg_engine::{QueryRegistry, ServeLimits};
    let base = vec![(1, 2)];
    let batches = [true, false, true, true, false].map(|insert| {
        let m = if insert { EdgeMutation::insert(0, 1) } else { EdgeMutation::delete(0, 1) };
        MutationBatch::new(vec![m])
    });
    let paths = |s: &itg_engine::Session| longs(s.attr_column("paths").unwrap());
    for machines in [1, 3] {
        let session = |edges: &[(VertexId, VertexId)]| {
            let input = GraphInput::directed(edges.to_vec());
            let mut s = SessionBuilder::from_config(cfg(machines))
                .from_source(programs::DIRECTED_2_PATHS, &input)
                .unwrap();
            s.run_oneshot();
            s
        };
        let mut s = session(&base);
        let input = GraphInput::directed(base.clone());
        let mut reg = QueryRegistry::new(&input, cfg(machines), ServeLimits::default());
        let mut ids = vec![reg.register("early", programs::DIRECTED_2_PATHS).unwrap()];
        for (i, batch) in batches.iter().enumerate() {
            s.apply_mutations(batch);
            s.run_incremental();
            reg.commit(batch).unwrap();
            // The multiset: an insert adds a copy, a delete drops them all.
            let model = EdgeModel::after(&input, &batches[..=i]);
            if i == 3 {
                ids.push(reg.register("late", programs::DIRECTED_2_PATHS).unwrap());
            }
            let at = format!("{machines} machines, after batch {}", i + 1);
            assert_eq!(reg.current_input().edges, model.input().edges, "{at}");
            assert_eq!(reg.num_vertices(), model.num_vertices(), "{at}");
            let fresh = paths(&session(&model.input().edges));
            assert_eq!(paths(&s), fresh, "{at}");
            for &id in &ids {
                assert_eq!(longs(reg.attr_column(id, "paths").unwrap()), fresh, "{at}, query {id:?}");
            }
            match i {
                3 => assert_eq!(fresh, [0, 0, 2], "{at}"),
                4 => assert_eq!(fresh, [0, 0, 0], "{at}"),
                _ => {}
            }
        }
    }
}

#[test]
fn parallel_execution_matches_sequential() {
    let (base, batches) = random_workload(88, 30, 60, 2, 8);
    let run = |parallel: bool| {
        let mut config = cfg(4);
        config.parallel = parallel;
        let mut input = GraphInput::undirected(base.clone());
        input.num_vertices = 30;
        let mut s = SessionBuilder::from_config(config).from_source(programs::WCC, &input).unwrap();
        s.run_oneshot();
        for b in &batches {
            s.apply_mutations(b);
            s.run_incremental();
        }
        longs(s.attr_column("comp").unwrap())
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn reach2_oneshot_and_incremental_match_reference() {
    // The seventh program (not in the paper's evaluation set): self-
    // targeted accumulation over a branching 2-hop walk.
    let (base, batches) = random_workload(71, 18, 30, 3, 5);
    let mut input = GraphInput::undirected(base.clone());
    input.num_vertices = 18;
    let mut s = SessionBuilder::from_config(cfg(2)).from_source(programs::REACH2, &input).unwrap();
    s.run_oneshot();
    let g = SimpleGraph::undirected(18, &base);
    assert_eq!(longs(s.attr_column("reach").unwrap()), native::reach2(&g));

    let mut edges = base;
    for b in &batches {
        s.apply_mutations(b);
        s.run_incremental();
        apply_to_edges(&mut edges, b);
    }
    let g = SimpleGraph::undirected(18, &edges);
    assert_eq!(
        longs(s.attr_column("reach").unwrap()),
        native::reach2(&g),
        "incremental reach2 diverged"
    );
}

/// The `PROD` and `MAX` lanes end to end, incremental ≡ a fresh one-shot
/// after every batch: a 10-vertex star loses two spokes (a retracted
/// factor 0 recomputes the hub's product), then takes a mixed batch, then
/// a random history; on one and on two machines.
#[test]
fn prod_max_incremental_equals_fresh_oneshot_after_every_batch() {
    let star: Vec<(VertexId, VertexId)> = (1..10).map(|v| (0, v)).collect();
    let star_batches = vec![
        MutationBatch::new(vec![EdgeMutation::delete(0, 3), EdgeMutation::delete(0, 4)]),
        MutationBatch::new(vec![
            EdgeMutation::insert(3, 4),
            EdgeMutation::delete(0, 8),
            EdgeMutation::insert(0, 3),
        ]),
    ];
    let histories = [(star, star_batches, 10), {
        let (base, batches) = random_workload(0x9E0D, 24, 40, 3, 6);
        (base, batches, 24)
    }];
    for (h, (base, batches, n)) in histories.into_iter().enumerate() {
        for machines in [1, 2] {
            let session = |edges: &[(VertexId, VertexId)]| {
                let mut input = GraphInput::undirected(edges.to_vec());
                input.num_vertices = n;
                let mut s = SessionBuilder::from_config(cfg(machines))
                    .from_source(PROD_MAX, &input)
                    .unwrap();
                s.run_oneshot();
                s
            };
            let mut sess = session(&base);
            let mut edges = base.clone();
            for (i, batch) in batches.iter().enumerate() {
                sess.apply_mutations(batch);
                let recomputed = sess.run_incremental().recomputed_vertices;
                assert!(
                    h > 0 || i > 0 || recomputed > 0,
                    "cutting a 0 factor recomputes"
                );
                apply_to_edges(&mut edges, batch);
                let fresh = session(&edges);
                for attr in ["p", "hi"] {
                    assert_eq!(
                        sess.attr_column(attr).unwrap(),
                        fresh.attr_column(attr).unwrap(),
                        "`{attr}` after batch {i} (machines {machines})"
                    );
                }
            }
        }
    }
}
