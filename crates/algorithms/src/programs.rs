//! The paper's six evaluation algorithms as `L_NGA` source programs
//! (§6.1): Group 1 — PageRank (PR) and Label Propagation (LP), the
//! matrix-vector multiplication algorithms; Group 2 — Weakly Connected
//! Components (WCC) and Breadth-First Search (BFS), the graph connectivity
//! algorithms; Group 3 — Triangle Counting (TC) and Local Clustering
//! Coefficient (LCC), the multi-hop NGA.
//!
//! Following the paper's own protocol for the Differential Dataflow
//! comparison, PR and LP use integer arithmetic with values scaled by
//! 1000 ("equivalent to rounding the floating numbers down to three
//! decimal places", §6.1). This also makes results bit-exact across the
//! one-shot, incremental, and reference execution paths, which the test
//! suite exploits.

/// PageRank, integer-scaled by 1000: rank = 150 + 0.85 · Σ rank/out_deg.
/// Directed; runs until the scaled ranks stabilize (cap supersteps to 10
/// for the paper's Group 1 protocol).
pub const PAGERANK: &str = r#"
    Vertex (id, active, out_nbrs, out_degree,
            rank: long, sum: Accm<long, SUM>)
    Initialize (u): {
        u.rank = 1000;
        u.active = true;
    }
    Traverse (u): {
        Let val = u.rank / u.out_degree;
        For v in u.out_nbrs {
            v.sum.Accumulate(val);
        }
    }
    Update (u): {
        Let val = 150 + (850 * u.sum) / 1000;
        If (Abs(val - u.rank) > 0) {
            u.rank = val;
            u.active = true;
        }
    }
"#;

/// Label Propagation (the matrix-vector formulation of Zhu & Ghahramani):
/// each vertex keeps 10% of its seed mass and absorbs 90% of its
/// neighbors' normalized mass. Undirected; integer-scaled by 1000.
pub const LABEL_PROP: &str = r#"
    Vertex (id, active, nbrs, degree,
            label: long, sum: Accm<long, SUM>)
    Initialize (u): {
        u.label = (u.id % 97) * 10;
        u.active = true;
    }
    Traverse (u): {
        Let val = u.label / u.degree;
        For v in u.nbrs {
            v.sum.Accumulate(val);
        }
    }
    Update (u): {
        Let val = (900 * u.sum) / 1000 + ((u.id % 97) * 10 * 100) / 1000;
        If (Abs(val - u.label) > 0) {
            u.label = val;
            u.active = true;
        }
    }
"#;

/// Weakly Connected Components by minimum-label propagation. Undirected.
pub const WCC: &str = r#"
    Vertex (id, active, nbrs, comp: long, m: Accm<long, MIN>)
    Initialize (u): {
        u.comp = u.id;
        u.active = true;
    }
    Traverse (u): {
        For v in u.nbrs {
            v.m.Accumulate(u.comp);
        }
    }
    Update (u): {
        If (u.m < u.comp) {
            u.comp = u.m;
            u.active = true;
        }
    }
"#;

/// The "infinity" distance used by [`bfs`].
pub const BFS_INF: i64 = 1_000_000_000;

/// Breadth-First Search from `root`. Undirected; distances via a Min
/// accumulator over neighbor distance + 1.
pub fn bfs(root: u64) -> String {
    format!(
        r#"
    Vertex (id, active, nbrs, dist: long, m: Accm<long, MIN>)
    Initialize (u): {{
        If (u.id == {root}) {{
            u.dist = 0;
            u.active = true;
        }} Else {{
            u.dist = {BFS_INF};
        }}
    }}
    Traverse (u): {{
        For v in u.nbrs {{
            v.m.Accumulate(u.dist + 1);
        }}
    }}
    Update (u): {{
        If (u.m < u.dist) {{
            u.dist = u.m;
            u.active = true;
        }}
    }}
"#
    )
}

/// Triangle Counting (Figure 5 of the paper). Undirected; the ordering
/// constraints count each triangle exactly once into the global `cnts`.
pub const TRIANGLE_COUNT: &str = r#"
    Vertex (id, active, nbrs)
    GlobalVariable (cnts: Accm<long, SUM>)
    Initialize (u1): {
        u1.active = true;
    }
    Traverse (u1): {
        For u2 in u1.nbrs Where (u1 < u2) {
            For u3 in u2.nbrs Where (u2 < u3) {
                For u4 in u3.nbrs Where (u4 == u1) {
                    cnts.Accumulate(1);
                }
            }
        }
    }
    Update (u1): { }
"#;

/// Local Clustering Coefficient, scaled by 1000:
/// `lcc = 1000 · 2·tri(v) / (deg(v)·(deg(v)−1))`. Undirected; the
/// branching walk enumerates unordered neighbor pairs of u1 and closes
/// them through u2's adjacency (a multi-way intersection).
pub const LCC: &str = r#"
    Vertex (id, active, nbrs, degree, tri: Accm<long, SUM>, lcc: long)
    Initialize (u1): {
        u1.active = true;
    }
    Traverse (u1): {
        For u2 in u1.nbrs {
            For u3 in u1.nbrs Where (u2 < u3) {
                For u4 in u2.nbrs Where (u4 == u3) {
                    u1.tri.Accumulate(1);
                }
            }
        }
    }
    Update (u1): {
        If (u1.degree > 1) {
            u1.lcc = (2000 * u1.tri) / (u1.degree * (u1.degree - 1));
        }
    }
"#;

/// Two-hop reach: each vertex counts the walks of length two leaving it
/// (a friend-of-friend exposure score), excluding walks that bounce
/// straight back. Not part of the paper's evaluation set — included as a
/// seventh program demonstrating NGA beyond the paper's six, with the same
/// automatic incrementalization.
pub const REACH2: &str = r#"
    Vertex (id, active, nbrs, r: Accm<long, SUM>, reach: long)
    Initialize (u): {
        u.active = true;
    }
    Traverse (u): {
        For v in u.nbrs {
            For w in v.nbrs Where (w != u) {
                u.r.Accumulate(1);
            }
        }
    }
    Update (u): {
        u.reach = u.r;
    }
"#;

/// Directed 3-cycles, each counted once from its smallest vertex, into a
/// `long` SUM global. Not part of the paper's evaluation set: an id-only
/// directed walk whose Δ at hops 1 and 2 runs rooted at the Δ edge under
/// traversal reordering — the Δ on the closing hop taken reversed (`In`)
/// from the start it closes to.
pub const DIRECTED_3_CYCLES: &str = r#"
    Vertex (id, active, out_nbrs)
    GlobalVariable (cycles: Accm<long, SUM>)
    Initialize (u): { u.active = true; }
    Traverse (u): {
        For v in u.out_nbrs Where (u < v) {
            For w in v.out_nbrs Where (u < w) {
                For x in w.out_nbrs Where (x == u) { cycles.Accumulate(1); }
            }
        }
    }
    Update (u): { }
"#;

/// Directed 2-paths `u → v → w` with three distinct vertices, counted at
/// their last vertex `w`, from every start `u` but those with `u % 4 == 1`,
/// which stay inactive. Not part of the paper's evaluation set. Rooted at a Δ on the second hop, the walk takes
/// the first hop reversed (`In`) to reach the origin `u` — whose activity
/// decides whether the walk counts — and the target is neither the origin
/// nor, on several machines, on the origin's machine.
pub const DIRECTED_2_PATHS: &str = r#"
    Vertex (id, active, out_nbrs, n: Accm<long, SUM>, paths: long)
    Initialize (u): { If (u.id % 4 != 1) { u.active = true; } }
    Traverse (u): {
        For v in u.out_nbrs Where (u != v) {
            For w in v.out_nbrs Where (w != u) { w.n.Accumulate(1); }
        }
    }
    Update (u): { u.paths = u.n; }
"#;

/// Whether an algorithm's graph is undirected in the paper's evaluation.
pub fn is_undirected(name: &str) -> bool {
    !matches!(name, "pr")
}

/// All algorithm names in the paper's group order.
pub const ALL: &[&str] = &["pr", "lp", "wcc", "bfs", "tc", "lcc"];

/// Fetch an algorithm's source by short name (`bfs` uses root 0; use
/// [`bfs`] directly for other roots).
pub fn source(name: &str) -> Option<String> {
    Some(match name {
        "pr" => PAGERANK.to_string(),
        "lp" => LABEL_PROP.to_string(),
        "wcc" => WCC.to_string(),
        "bfs" => bfs(0),
        "tc" => TRIANGLE_COUNT.to_string(),
        "lcc" => LCC.to_string(),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use itg_compiler::ActionTarget;

    #[test]
    fn all_programs_compile() {
        for name in ALL {
            let src = source(name).unwrap();
            itg_compiler::compile_source(&src)
                .unwrap_or_else(|e| panic!("{name} failed to compile: {e}"));
        }
    }

    /// The executable Δ-plan must be Rule ⑦ of each walk query and nothing
    /// else: `delta_traverse` corresponds one-to-one, per query, with the
    /// bound Walks of `incrementalize(ω)` — same count, same delta stream,
    /// same version on every stream, same dual-image flag — and the formal
    /// `P_ΔQ` is Table 4 applied to the formal `P_Q`.
    #[test]
    fn delta_traverse_is_rule_7_of_each_walk_query() {
        use itg_gsa::{delta_subqueries, incrementalize, AlgebraNode};
        // Two actions on one accumulator: sub-queries are per walk, not
        // per action.
        let two_actions = r#"
            Vertex (id, active, nbrs, lo: long, m: Accm<long, MIN>)
            Initialize (u): { u.lo = 1000; u.active = true; }
            Traverse (u): {
                For v in u.nbrs { v.m.Accumulate(u.id); v.m.Accumulate(u.id + 100); }
            }
            Update (u): { u.lo = u.m; }
        "#;
        let sources = ALL.iter().map(|name| source(name).unwrap());
        let more = [REACH2, two_actions, DIRECTED_3_CYCLES, DIRECTED_2_PATHS].map(str::to_string);
        for src in sources.chain(more) {
            let p = itg_compiler::compile_source(&src).unwrap();
            assert_eq!(p.algebra_delta, incrementalize(&p.algebra));
            for (qi, q) in p.traverse.queries.iter().enumerate() {
                let delta_walks = incrementalize(&itg_compiler::algebra::walk_node(q));
                let formal = delta_subqueries(&delta_walks);
                let executable: Vec<_> =
                    p.delta_traverse.iter().filter(|sq| sq.query == qi).collect();
                assert_eq!(executable.len(), formal.len(), "{src}: query {qi}");
                assert_eq!(formal.len(), q.hops.len() + 1);
                for (sq, (walk, d)) in executable.iter().zip(formal) {
                    let AlgebraNode::Walk { streams, delta_start_images, .. } = walk else {
                        unreachable!("delta_subqueries yields Walk nodes");
                    };
                    assert_eq!(sq.delta_stream, d);
                    let versions: Vec<_> = streams.iter().map(|r| r.version).collect();
                    assert_eq!(sq.streams, versions, "{src}: ΔQ{qi}.{d}");
                    assert_eq!(sq.hop_bindings().len(), q.hops.len());
                    assert_eq!(sq.dual_images, *delta_start_images);
                    let rootable = itg_compiler::algebra::id_only(q)
                        && sq.delta_hop().is_some_and(|h| q.hops[h].source != 0);
                    assert_eq!(sq.rooted.is_some(), rootable, "{src}: ΔQ{qi}.{d}");
                    if let Some(r) = &sq.rooted {
                        assert_rooted_walk_is_a_relabelling(q, sq, r);
                    }
                }
            }
        }
        let rooted = |src: &str| {
            let p = itg_compiler::compile_source(src).unwrap();
            p.delta_traverse.iter().map(|sq| sq.rooted.is_some()).collect::<Vec<_>>()
        };
        assert_eq!(rooted(TRIANGLE_COUNT), [false, false, true, true]);
        assert_eq!(rooted(LCC), [false, false, false, true]);
        for one_hop in ["pr", "lp", "wcc", "bfs"] {
            assert!(!rooted(&source(one_hop).unwrap()).contains(&true), "{one_hop}");
        }
    }

    /// A rooted walk is its sub-query renumbered: mapped back through
    /// `positions`, every rooted hop is an original hop — its ends (a
    /// reversed hop's swapped, with the direction reversed), direction and
    /// binding — each original constraint sits, renumbered, at the first
    /// rooted hop that binds all its positions, and every action is the
    /// original renumbered.
    fn assert_rooted_walk_is_a_relabelling(
        q: &itg_compiler::WalkQuery,
        sq: &itg_compiler::DeltaSubQuery,
        r: &itg_compiler::RootedWalk,
    ) {
        let (k, rq) = (q.hops.len(), &r.query);
        let mut order = r.order.clone();
        order.sort_unstable();
        assert_eq!(order, (0..k).collect::<Vec<_>>(), "every hop taken once");
        let d = sq.delta_hop().expect("a Δes sub-query");
        assert_eq!(r.order[0], d, "the Δ hop first");
        assert_eq!(r.origin, r.positions[0]);
        assert!(r.origin == 0 || r.origin >= 2, "the Δ hop binds the origin only as the start");
        let renumbered = |e: &itg_gsa::Expr| e.relabel(&r.positions);
        for (i, (hop, &h)) in rq.hops.iter().zip(&r.order).enumerate() {
            let orig = &q.hops[h];
            let close = rq.closes_to.filter(|_| i + 1 == k);
            let ends = (hop.source, close.unwrap_or(i + 1));
            let mapped = (r.positions[orig.source], r.positions[h + 1]);
            if ends == mapped {
                assert_eq!(hop.dir, orig.dir, "rooted hop {i}");
            } else {
                assert!(close.is_none(), "the closing hop keeps its direction");
                assert_eq!((ends.1, ends.0), mapped, "rooted hop {i} reversed");
                assert_eq!(hop.dir, orig.dir.reverse(), "rooted hop {i} reversed");
            }
            assert_eq!(r.bindings[i], sq.hop_bindings()[h], "rooted hop {i}");
            // The original constraints whose positions rooted hop i binds
            // last, in original hop order.
            let placed = q.hops.iter().filter_map(|o| o.constraint.as_ref().map(renumbered));
            let placed = placed.filter(|c| c.max_walk_pos().unwrap_or(0).saturating_sub(1) == i);
            assert_eq!(hop.constraint, placed.map(Some).fold(None, itg_gsa::Expr::and_opt));
        }
        for (a, ra) in q.actions.iter().zip(&rq.actions) {
            assert_eq!(ra.value, renumbered(&a.value));
            assert_eq!(ra.cond, a.cond.as_ref().map(renumbered));
            let target = match a.target {
                ActionTarget::VertexAccm { pos, accm } => {
                    ActionTarget::VertexAccm { pos: r.positions[pos], accm }
                }
                ActionTarget::Global(g) => ActionTarget::Global(g),
            };
            assert_eq!(ra.target, target);
        }
    }

    #[test]
    fn group3_walks_have_expected_shape() {
        let tc = itg_compiler::compile_source(TRIANGLE_COUNT).unwrap();
        assert_eq!(tc.traverse.queries[0].hops.len(), 3);
        assert_eq!(tc.traverse.queries[0].closes_to, Some(0));
        assert_eq!(tc.delta_traverse.len(), 4);

        let lcc = itg_compiler::compile_source(LCC).unwrap();
        assert_eq!(lcc.traverse.queries[0].hops.len(), 3);
        assert_eq!(lcc.traverse.queries[0].closes_to, Some(2));
        assert!(lcc.analysis.update_reads_degree);
    }

    #[test]
    fn group1_reads_degree_in_traverse() {
        let pr = itg_compiler::compile_source(PAGERANK).unwrap();
        assert!(pr.analysis.traverse_reads_degree);
        assert_eq!(pr.traverse.queries[0].hops.len(), 1);
    }

    #[test]
    fn bfs_parameterized_by_root() {
        let src = bfs(42);
        assert!(src.contains("u.id == 42"));
        itg_compiler::compile_source(&src).unwrap();
    }
}
