//! Behavioural tests for the engine's run-time optimizations: they must
//! not change results (covered in `equivalence.rs`) and they must actually
//! deliver the work/IO reductions the paper attributes to them.

use itg_algorithms::programs;
use itg_engine::{EngineConfig, GraphInput, OptFlags, SessionBuilder};
use itg_graphgen::{canonical_undirected, generate_undirected, RmatConfig};
use itg_store::{EdgeMutation, MutationBatch};

fn rmat(x: u32, seed: u64) -> (usize, Vec<(u64, u64)>) {
    let cfg = RmatConfig::paper_scale(x, seed);
    (
        cfg.num_vertices(),
        canonical_undirected(&generate_undirected(&cfg)),
    )
}

fn tc_incremental_with(opts: OptFlags, pool_bytes: u64) -> itg_engine::RunMetrics {
    let (n, edges) = rmat(11, 9);
    let cut = edges.len() - 30;
    let mut input = GraphInput::undirected(edges[..cut].to_vec());
    input.num_vertices = n;
    let cfg = EngineConfig {
        opts,
        buffer_pool_bytes: pool_bytes,
        ..EngineConfig::default()
    };
    let mut s = SessionBuilder::from_config(cfg).from_source(programs::TRIANGLE_COUNT, &input).unwrap();
    s.run_oneshot();
    s.apply_mutations(&MutationBatch::new(
        edges[cut..]
            .iter()
            .map(|&(a, b)| EdgeMutation::insert(a, b))
            .collect(),
    ));
    s.run_incremental()
}

#[test]
fn pruning_cuts_delta_walk_work() {
    let base = tc_incremental_with(OptFlags::none(), 1 << 20);
    let pruned = tc_incremental_with(
        OptFlags {
            traversal_reorder: true,
            neighbor_prune: true,
            ..OptFlags::none()
        },
        1 << 20,
    );
    assert!(
        (pruned.io.walks_enumerated as f64) < base.io.walks_enumerated as f64 * 0.75,
        "NP should cut walk work by at least 25%: {} !<< {}",
        pruned.io.walks_enumerated,
        base.io.walks_enumerated
    );
}

/// Rule ⑦ anchored at the Δ edge, closed by intersection: a TC or LCC
/// refresh enumerates in proportion to the common neighbourhoods of the Δ
/// edges' endpoints, whatever the size of the graph — 10 inserts and 2
/// deletes on RMAT 10, 12 and 14.
///
/// The bound is `c·I + a·A + c'·|Δ|`, with `I = Σ_{(u,v)∈Δ} |N*(u) ∩
/// N*(v)|`, `N*` a vertex's neighbours in the old or the new view, and
/// `A = Σ_{(u,v)∈Δ} (deg'(u) + deg'(v))` over current degrees. Counting:
/// a hop scan counts every neighbour it reads, and the intersection that
/// closes the last two hops counts its common targets — never more than
/// the two views share. Each Δ edge is stored in both orientations, so a
/// Δ-hop scan reads `2·|Δ|` entries. Per sub-query (ΔQ.j has the Δ at
/// stream j; ΔQ.0, the Δvs one, has no starts here):
///
/// - TC, `c = 4`, `a = 0`, `c' = 6`. ΔQ.1 starts at the Δ sources, scans
///   the Δ hop and keeps one orientation (`u0 < u1`), then intersects
///   `N(u1)` with `N(u0)`: `≤ I`. Rooted ΔQ.2 keeps one orientation
///   (`u1 < u2`): `≤ I`. Rooted ΔQ.3 binds `u1` only in the intersection,
///   so both orientations reach it: `≤ 2I`. Three Δ-hop scans: `6·|Δ|`.
/// - LCC, `c = 5`, `a = 1`, `c' = 4`. ΔQ.1 reaches the intersection of
///   `N(u0)` and `N(u1)` in both orientations: `≤ 2I`. ΔQ.2's Δ hop
///   leaves the start, so it is not rooted: it scans `N'(u0)` once per Δ
///   source (`≤ A`), and its Δ hop is the penultimate one, so each `u1`
///   intersects `u0`'s Δ run with `N(u1)` — summed over `u1`, the common
///   neighbours of each Δ edge's ends, in both orientations: `≤ 2I`.
///   Rooted ΔQ.3 keeps one orientation (`u1 < u2`): `≤ I`. Two Δ-hop
///   scans: `4·|Δ|`.
#[test]
fn tc_and_lcc_delta_walks_are_anchored() {
    use itg_gsa::expr::EdgeDir;
    use itg_store::View;
    for x in [10u32, 12, 14] {
        let (n, edges) = rmat(x, 29);
        let cut = edges.len() - 10;
        let (base, fresh) = edges.split_at(cut);
        let deleted = [base[base.len() / 3], base[2 * base.len() / 3]];
        let mut delta: Vec<EdgeMutation> =
            fresh.iter().map(|&(a, b)| EdgeMutation::insert(a, b)).collect();
        delta.extend(deleted.iter().map(|&(a, b)| EdgeMutation::delete(a, b)));
        for (name, src, c, a_coef, c_prime) in
            [("tc", programs::TRIANGLE_COUNT, 4, 0, 6), ("lcc", programs::LCC, 5, 1, 4)]
        {
            let mut input = GraphInput::undirected(base.to_vec());
            input.num_vertices = n;
            let mut s = SessionBuilder::from_config(EngineConfig::default())
                .from_source(src, &input)
                .unwrap();
            s.run_oneshot();
            s.apply_mutations(&MutationBatch::new(delta.clone()));
            let walks = s.run_incremental().io.walks_enumerated;
            let deg = |v: u64| s.graph.degree(v, EdgeDir::Both, View::New) as u64;
            let a: u64 = delta.iter().map(|m| deg(m.src) + deg(m.dst)).sum();
            let either_view = |v: u64| {
                let mut nbrs = std::collections::BTreeSet::new();
                for view in [View::Old, View::New] {
                    s.graph.for_each_neighbor(0, v, EdgeDir::Both, view, |d| {
                        nbrs.insert(d);
                    });
                }
                nbrs
            };
            let common = |m: &EdgeMutation| either_view(m.src).intersection(&either_view(m.dst)).count();
            let i: u64 = delta.iter().map(|m| common(m) as u64).sum();
            let bound = c * i + a_coef * a + c_prime * delta.len() as u64;
            assert!(
                walks <= bound,
                "{name} on RMAT {x}: {walks} Δ-walk steps > {c}·{i} + {a_coef}·{a} + {c_prime}·{}",
                delta.len()
            );
        }
    }
}

#[test]
fn seek_window_sharing_cuts_page_reads_under_memory_pressure() {
    // With a tiny buffer pool, processing the four TC sub-queries
    // sequentially re-reads the same pages; interleaving per start vertex
    // (SWS) shares them while hot.
    let small_pool = 64 << 10;
    let without = tc_incremental_with(
        OptFlags {
            traversal_reorder: true,
            neighbor_prune: true,
            seek_window_share: false,
            min_count: true,
            ..OptFlags::default()
        },
        small_pool,
    );
    let with = tc_incremental_with(OptFlags::default(), small_pool);
    assert!(
        with.io.page_reads <= without.io.page_reads,
        "SWS should not increase page reads: {} > {}",
        with.io.page_reads,
        without.io.page_reads
    );
}

#[test]
fn cnt_avoids_min_recomputation_under_deletions() {
    // WCC on a clique: deleting one edge leaves plenty of support for the
    // minimum label, so CNT should avoid every recomputation.
    let n = 10u64;
    let edges: Vec<(u64, u64)> = (0..n)
        .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
        .collect();
    let run = |cnt: bool| {
        let input = GraphInput::undirected(edges.clone());
        let cfg = EngineConfig {
            opts: OptFlags {
                min_count: cnt,
                ..OptFlags::default()
            },
            ..EngineConfig::default()
        };
        let mut s = SessionBuilder::from_config(cfg).from_source(programs::WCC, &input).unwrap();
        s.run_oneshot();
        s.apply_mutations(&MutationBatch::new(vec![EdgeMutation::delete(3, 7)]));
        s.run_incremental()
    };
    let with_cnt = run(true);
    let without_cnt = run(false);
    assert_eq!(
        with_cnt.recomputed_vertices, 0,
        "support counting should absorb the deletion"
    );
    assert!(
        without_cnt.recomputed_vertices > 0,
        "without CNT every touched Min must recompute"
    );
}

#[test]
fn incremental_io_scales_with_delta_not_graph() {
    // Fix the batch, grow the graph: incremental walk work should stay
    // roughly flat while one-shot work grows with the graph.
    let mut oneshot_walks = Vec::new();
    let mut inc_walks = Vec::new();
    for x in [10u32, 12] {
        let (n, edges) = rmat(x, 17);
        let cut = edges.len() - 10;
        let mut input = GraphInput::undirected(edges[..cut].to_vec());
        input.num_vertices = n;
        let mut s = SessionBuilder::from_config(EngineConfig::default()).from_source(programs::TRIANGLE_COUNT, &input)
        .unwrap();
        let one = s.run_oneshot();
        s.apply_mutations(&MutationBatch::new(
            edges[cut..]
                .iter()
                .map(|&(a, b)| EdgeMutation::insert(a, b))
                .collect(),
        ));
        let inc = s.run_incremental();
        oneshot_walks.push(one.io.walks_enumerated);
        inc_walks.push(inc.io.walks_enumerated);
    }
    let oneshot_growth = oneshot_walks[1] as f64 / oneshot_walks[0].max(1) as f64;
    let inc_growth = inc_walks[1] as f64 / inc_walks[0].max(1) as f64;
    assert!(
        inc_growth < oneshot_growth,
        "incremental work should grow slower than one-shot: {inc_growth:.1} !< {oneshot_growth:.1}"
    );
}

#[test]
fn maintenance_policy_controls_store_read_growth() {
    use itg_store::MaintenancePolicy;
    // Run many snapshots; the NoMerge store's incremental read bytes grow
    // with the chain while CostBased stays bounded.
    let read_curve = |policy: MaintenancePolicy| -> (u64, u64) {
        let (n, edges) = rmat(10, 23);
        let cut = edges.len() * 9 / 10;
        let mut input = GraphInput::undirected(edges[..cut].to_vec());
        input.num_vertices = n;
        let cfg = EngineConfig {
            maintenance: policy,
            max_supersteps: 10,
            ..EngineConfig::default()
        };
        let mut s = SessionBuilder::from_config(cfg).from_source(programs::LABEL_PROP, &input).unwrap();
        s.run_oneshot();
        let mut pool: Vec<(u64, u64)> = edges[cut..].to_vec();
        let mut first = 0;
        let mut last = 0;
        let rounds = 24;
        for t in 0..rounds {
            // Alternate insert/delete of a single edge to create churn.
            let e = pool[t % pool.len()];
            let m = if t.is_multiple_of(2) {
                EdgeMutation::insert(e.0, e.1)
            } else {
                EdgeMutation::delete(e.0, e.1)
            };
            s.apply_mutations(&MutationBatch::new(vec![m]));
            let io = s.run_incremental().io;
            if t == 0 {
                first = io.disk_read_bytes;
            }
            if t == rounds - 1 {
                last = io.disk_read_bytes;
            }
        }
        let _ = &mut pool;
        (first, last)
    };
    let (nm_first, nm_last) = read_curve(MaintenancePolicy::NoMerge);
    let (cb_first, cb_last) = read_curve(MaintenancePolicy::CostBased);
    let nm_growth = nm_last as f64 / nm_first.max(1) as f64;
    let cb_growth = cb_last as f64 / cb_first.max(1) as f64;
    assert!(
        cb_growth < nm_growth,
        "cost-based merging should bound read growth: {cb_growth:.2} !< {nm_growth:.2}"
    );
}
