//! Building the formal GSA algebra plans from the lowered Traverse plan and
//! lowering the automatic incrementalization of §5.1 to what the engine
//! executes. Rule ⑦ is applied in exactly one place —
//! [`itg_gsa::incremental::incrementalize`], once per walk query — and both
//! the formal `P_ΔQ` and the executable sub-query list are assembled from
//! that one result.

use crate::plan::{
    closes_by_intersection, AccmLane, ActionTarget, DeltaSubQuery, HopSpec, RecomputeStep,
    RootedWalk, TraversePlan, WalkAction, WalkQuery,
};
use itg_gsa::incremental::{delta_subqueries, incrementalize};
use itg_gsa::plan::{AlgebraNode, StreamRef, WriteTarget};
use itg_gsa::Expr;

/// The one-shot ω of a walk query: every stream bound to its base version.
pub fn walk_node(q: &WalkQuery) -> AlgebraNode {
    AlgebraNode::Walk {
        streams: (0..=q.hops.len()).map(StreamRef::base).collect(),
        start_filter: q.start_filter.clone(),
        hop_constraints: q.hops.iter().map(|h| h.constraint.clone()).collect(),
        final_constraint: None,
        delta_start_images: false,
    }
}

/// ⊎(Π(σ?(input))) — one action over a walk stream. The scalar operators
/// distribute over deltas unchanged (Rules ①, ② and ⑥), so the same shape
/// wraps ω in `P_Q` and Δω in `P_ΔQ`.
fn action_node(a: &WalkAction, walks: AlgebraNode) -> AlgebraNode {
    let input = match &a.cond {
        Some(c) => AlgebraNode::Filter {
            pred: c.clone(),
            input: Box::new(walks),
        },
        None => walks,
    };
    let target = match &a.target {
        ActionTarget::VertexAccm { pos, accm } => WriteTarget::VertexAttr {
            key: Expr::WalkVertex(*pos),
            attr: *accm,
        },
        ActionTarget::Global(g) => WriteTarget::Global(*g),
    };
    AlgebraNode::Accumulate {
        target,
        op: a.op,
        ty: a.prim,
        value: a.value.clone(),
        input: Box::new(AlgebraNode::Map {
            exprs: vec![a.value.clone()],
            input: Box::new(input),
        }),
    }
}

fn union(mut nodes: Vec<AlgebraNode>) -> AlgebraNode {
    match nodes.len() {
        1 => nodes.pop().unwrap(),
        _ => AlgebraNode::Union(nodes),
    }
}

/// Build, per walk query, the formal one-shot plan `P_Q` (the union over
/// actions of ⊎(Π(ω(vs, es_1, ..., es_k)))), the formal `P_ΔQ`
/// (`== incrementalize(P_Q)`, which a unit test holds), and the executable
/// sub-queries: each bound Walk of `incrementalize(ω)` becomes one
/// [`DeltaSubQuery`] carrying the algebra's stream versions and
/// `delta_start_images` verbatim, plus the backward pruning path the
/// MS-BFS neighbor-pruning optimization walks and, where it exists, the
/// walk re-rooted at the Δ hop ([`root_at_delta`]).
pub fn build_plans(plan: &TraversePlan) -> (AlgebraNode, AlgebraNode, Vec<DeltaSubQuery>) {
    let (mut one_shot, mut delta, mut subqueries) = (Vec::new(), Vec::new(), Vec::new());
    for (qi, q) in plan.queries.iter().enumerate() {
        let walk = walk_node(q);
        let delta_walks = incrementalize(&walk);
        for (bound, d) in delta_subqueries(&delta_walks) {
            let AlgebraNode::Walk { streams, delta_start_images, .. } = bound else {
                unreachable!("delta_subqueries yields Walk nodes");
            };
            let mut sq = DeltaSubQuery {
                op_id: 0,
                query: qi,
                delta_stream: d,
                streams: streams.iter().map(|r| r.version).collect(),
                dual_images: *delta_start_images,
                // The hops from the start vertex to the delta hop's
                // *source* position: the backward MS-BFS starts from the
                // delta edges' sources and walks these hops in reverse to
                // find the candidate start vertices V_Δ.
                pruning_path: match d.checked_sub(1) {
                    Some(hop) => q.path_to(q.hops[hop].source),
                    None => Vec::new(),
                },
                rooted: None,
            };
            sq.rooted = root_at_delta(q, &sq);
            subqueries.push(sq);
        }
        for a in &q.actions {
            one_shot.push(action_node(a, walk.clone()));
            delta.push(action_node(a, delta_walks.clone()));
        }
    }
    (union(one_shot), union(delta), subqueries)
}

/// Whether every walk of `q` and every contribution it makes is a function
/// of walk ids alone, and every contribution folds exactly: no start
/// filter, image-independent constraints and conditions, no attribute,
/// degree or global read in a value, and no IEEE SUM or PROD lane. Such a
/// query's walks may be enumerated from any vertex in any order without
/// changing a result bit.
pub fn id_only(q: &WalkQuery) -> bool {
    let reads_ids_only = |e: &Expr| {
        let mut ids = true;
        e.visit(&mut |n| {
            ids &= !matches!(
                n,
                Expr::Attr { .. } | Expr::AttrElem { .. } | Expr::Degree { .. } | Expr::Global(_)
            );
        });
        ids
    };
    let exact = |a: &WalkAction| AccmLane::select(a.op, a.prim).is_some_and(AccmLane::is_exact);
    q.image_independent
        && q.start_filter.is_none()
        && q.actions.iter().all(|a| reads_ids_only(&a.value) && exact(a))
}

/// Re-root Δes sub-query `sq` of `q` at its Δ hop (traversal reordering,
/// paper §5.3): start at the Δ hop's source — or at its target, taking
/// it reversed, when that is the original start, so the rooted start is
/// the origin and each machine starts only at the Δ edges it owns — take
/// the Δ hop first, then every other hop outward from the bound
/// positions: the first hop, in the circular order after the Δ hop, that
/// reaches an unbound position; a hop whose target is the bound end is
/// taken reversed. The closing equality is folded in first, so a cyclic
/// walk leaves one hop over; it closes the rooted walk, which runs its
/// last two hops as one intersection. `None` when `q` is not [`id_only`],
/// for the Δvs sub-query, when the Δ hop's source is already the start
/// (rooting would change nothing), and when the hop left over does not
/// fit [`closes_by_intersection`].
pub fn root_at_delta(q: &WalkQuery, sq: &DeltaSubQuery) -> Option<RootedWalk> {
    let d = sq.delta_hop()?;
    if q.hops[d].source == 0 || !id_only(q) {
        return None;
    }
    let k = q.hops.len();
    // The walk graph with the closing position merged into the one it
    // closes to: hop h joins `ends[h]`.
    let fold = |p: usize| match q.closes_to {
        Some(c) if p == k => c,
        _ => p,
    };
    let ends: Vec<(usize, usize)> =
        q.hops.iter().enumerate().map(|(h, hop)| (hop.source, fold(h + 1))).collect();
    if ends[d].0 == ends[d].1 {
        return None;
    }
    // Root at the Δ hop's target, reversed, when it is the start.
    let reversed = ends[d].1 == 0;
    let (root, far) = if reversed { (ends[d].1, ends[d].0) } else { ends[d] };
    // `at[p]`: the rooted position of walk-graph vertex p, once bound.
    let mut at: Vec<Option<usize>> = vec![None; k + 1];
    at[root] = Some(0);
    at[far] = Some(1);
    // (original hop, rooted source, reversed), in rooted order.
    let mut taken = vec![(d, 0, reversed)];
    let outward: Vec<usize> = (d + 1..k).chain(0..d).collect();
    let free = |taken: &[(usize, usize, bool)], h: &usize| taken.iter().all(|t| t.0 != *h);
    loop {
        let next = outward.iter().filter(|h| free(&taken, h)).find_map(|&h| {
            match (at[ends[h].0], at[ends[h].1]) {
                (Some(src), None) => Some((h, src, false)),
                (None, Some(src)) => Some((h, src, true)),
                _ => None,
            }
        });
        let Some((h, src, reversed)) = next else { break };
        let reached = if reversed { ends[h].0 } else { ends[h].1 };
        at[reached] = Some(taken.len() + 1);
        taken.push((h, src, reversed));
    }
    let left: Vec<usize> = outward.iter().copied().filter(|h| free(&taken, h)).collect();
    let closes_to = match left[..] {
        [] => None,
        [h] => {
            taken.push((h, at[ends[h].0]?, false));
            Some(at[ends[h].1]?)
        }
        _ => return None,
    };
    let positions: Vec<usize> = (0..=k).map(|p| at[fold(p)]).collect::<Option<_>>()?;
    // Each constraint at the first rooted hop that binds all its positions:
    // rooted position p is bound by rooted hop p − 1, 0 and 1 by the Δ hop.
    let mut constraints: Vec<Option<Expr>> = vec![None; k];
    for c in q.hops.iter().filter_map(|hop| hop.constraint.as_ref()) {
        let c = c.relabel(&positions);
        let first = c.max_walk_pos().unwrap_or(0).saturating_sub(1);
        constraints[first] = Expr::and_opt(constraints[first].take(), Some(c));
    }
    let hops = taken.iter().zip(constraints).map(|(&(h, source, reversed), constraint)| {
        let dir = q.hops[h].dir;
        let dir = if reversed { dir.reverse() } else { dir };
        HopSpec { source, dir, constraint }
    });
    let hops: Vec<HopSpec> = hops.collect();
    if closes_to.is_some_and(|c| !closes_by_intersection(&hops, c)) {
        return None;
    }
    let actions = q.actions.iter().map(|a| {
        let value = a.value.relabel(&positions);
        WalkAction {
            cond: a.cond.as_ref().map(|c| c.relabel(&positions)),
            target: match a.target {
                ActionTarget::VertexAccm { pos, accm } => {
                    ActionTarget::VertexAccm { pos: positions[pos], accm }
                }
                ActionTarget::Global(g) => ActionTarget::Global(g),
            },
            start_invariant: value.max_walk_pos().unwrap_or(0) == 0,
            value,
            ..a.clone()
        }
    });
    let bindings = sq.hop_bindings();
    Some(RootedWalk {
        query: WalkQuery {
            op_id: 0,
            start_filter: None,
            hops,
            actions: actions.collect(),
            closes_to,
            image_independent: true,
            full_scan: q.full_scan.clone(),
            scatter: false,
        },
        order: taken.iter().map(|t| t.0).collect(),
        bindings: taken.iter().map(|t| bindings[t.0]).collect(),
        origin: positions[0],
        positions,
    })
}

/// The monoid recompute plan, indexed by vertex accumulator: every walk
/// query with an action on the accumulator, with one backward path per
/// distinct target position.
pub fn build_recompute_plan(plan: &TraversePlan, num_accms: usize) -> Vec<Vec<RecomputeStep>> {
    let mut out = vec![Vec::new(); num_accms];
    for (qi, q) in plan.queries.iter().enumerate() {
        for a in &q.actions {
            let ActionTarget::VertexAccm { pos, accm } = a.target else {
                continue;
            };
            // Queries are visited in order, so this query's step, if it
            // exists yet, is the accumulator's last.
            let steps: &mut Vec<RecomputeStep> = &mut out[accm];
            if steps.last().is_none_or(|s| s.query != qi) {
                steps.push(RecomputeStep { query: qi, paths: Vec::new() });
            }
            let paths = &mut steps.last_mut().expect("pushed above").paths;
            let path = q.path_to(pos);
            if !paths.contains(&path) {
                paths.push(path);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimize::annotate;
    use itg_gsa::accm::AccmOp;
    use itg_gsa::expr::{BinOp, EdgeDir};
    use itg_gsa::plan::StreamVersion::{Base, Delta, Primed};
    use itg_gsa::value::PrimType;

    fn pr_like_plan() -> TraversePlan {
        TraversePlan {
            queries: vec![WalkQuery {
                hops: vec![HopSpec {
                    source: 0,
                    dir: EdgeDir::Out,
                    constraint: None,
                }],
                actions: vec![WalkAction {
                    depth: 1,
                    cond: None,
                    target: ActionTarget::VertexAccm { pos: 1, accm: 0 },
                    op: AccmOp::Sum,
                    prim: PrimType::Double,
                    value: Expr::bin(
                        BinOp::Div,
                        Expr::Attr { pos: 0, attr: 1 },
                        Expr::Degree {
                            pos: 0,
                            dir: EdgeDir::Out,
                        },
                    ),
                    start_invariant: false,
                }],
                ..WalkQuery::default()
            }],
        }
    }

    #[test]
    fn algebra_has_accumulate_map_walk_shape() {
        let (alg, _, _) = build_plans(&pr_like_plan());
        let text = alg.explain();
        assert!(text.contains("⊎"));
        assert!(text.contains("ω(vs, es1)"));
    }

    #[test]
    fn subqueries_carry_the_algebra_bindings_and_paths() {
        let (_, _, subs) = build_plans(&pr_like_plan());
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[0].delta_stream, 0);
        assert_eq!(subs[0].streams, [Delta, Base]);
        assert!(subs[0].dual_images);
        assert!(subs[0].pruning_path.is_empty());
        // Delta at hop 0: its source *is* the start position, so no
        // backward traversal is needed to find V_Δ.
        assert_eq!(subs[1].delta_stream, 1);
        assert_eq!(subs[1].delta_hop(), Some(0));
        assert_eq!(subs[1].streams, [Primed, Delta]);
        assert!(!subs[1].dual_images);
        assert_eq!(subs[1].pruning_path, Vec::<usize>::new());
    }

    #[test]
    fn assembled_delta_algebra_is_table_4_applied_to_the_whole_plan() {
        let mut plan = pr_like_plan();
        let (alg, delta, _) = build_plans(&plan);
        assert_eq!(delta, incrementalize(&alg));
        assert_eq!(delta_subqueries(&delta).len(), 2);
        // Two actions, one with a residual condition: a union of two ⊎.
        let mut second = plan.queries[0].actions[0].clone();
        second.cond = Some(Expr::bin(BinOp::Lt, Expr::WalkVertex(0), Expr::WalkVertex(1)));
        plan.queries[0].actions.push(second);
        let (alg, delta, subs) = build_plans(&plan);
        assert_eq!(delta, incrementalize(&alg));
        assert_eq!(subs.len(), 2, "sub-queries are per walk query, not per action");
    }

    /// A directed chain `u0 -Out-> u1 -Out-> u2` whose walks accumulate
    /// `value` into `u2`'s accumulator (an `Accm<prim, op>`), annotated
    /// and incrementalized; its sub-queries' rooted walks, by Δ stream.
    fn chain_rooted(
        constraint: Option<Expr>,
        value: Expr,
        (op, prim): (AccmOp, PrimType),
        start_filter: Option<Expr>,
    ) -> Vec<Option<RootedWalk>> {
        let hop = |source, constraint| HopSpec { source, dir: EdgeDir::Out, constraint };
        let mut plan = TraversePlan {
            queries: vec![WalkQuery {
                start_filter,
                hops: vec![hop(0, constraint), hop(1, None)],
                actions: vec![WalkAction {
                    depth: 2,
                    cond: None,
                    target: ActionTarget::VertexAccm { pos: 2, accm: 0 },
                    op,
                    prim,
                    value,
                    start_invariant: false,
                }],
                ..WalkQuery::default()
            }],
        };
        annotate(&mut plan);
        let (_, _, subs) = build_plans(&plan);
        subs.into_iter().map(|sq| sq.rooted).collect()
    }

    fn id_chain(value: Expr, lane: (AccmOp, PrimType)) -> Vec<Option<RootedWalk>> {
        let lt = Expr::bin(BinOp::Lt, Expr::WalkVertex(0), Expr::WalkVertex(1));
        chain_rooted(Some(lt), value, lane, None)
    }

    #[test]
    fn a_directed_chain_roots_at_its_delta_hop_with_the_upstream_hop_reversed() {
        let rooted = id_chain(Expr::WalkVertex(0), (AccmOp::Sum, PrimType::Long));
        // Δvs and Δ at hop 0 (its source is the start) stay as they are.
        assert_eq!(rooted[0], None);
        assert_eq!(rooted[1], None);
        let r = rooted[2].as_ref().expect("Δ at hop 1 roots");
        // From u1: the Δ hop to u2, then hop 0 backward to u0.
        assert_eq!(r.order, [1, 0]);
        assert_eq!(r.bindings, [Delta, Primed]);
        assert_eq!(r.positions, [2, 0, 1]);
        assert_eq!(r.origin, 2);
        let dirs: Vec<_> = r.query.hops.iter().map(|h| (h.source, h.dir)).collect();
        assert_eq!(dirs, [(0, EdgeDir::Out), (0, EdgeDir::In)]);
        assert_eq!(r.query.closes_to, None);
        // `u0 < u1` needs u0, which the reversed hop binds.
        assert_eq!(r.query.hops[0].constraint, None);
        let lt = Expr::bin(BinOp::Lt, Expr::WalkVertex(2), Expr::WalkVertex(0));
        assert_eq!(r.query.hops[1].constraint, Some(lt));
        let action = &r.query.actions[0];
        assert_eq!(action.target, ActionTarget::VertexAccm { pos: 1, accm: 0 });
        assert_eq!(action.value, Expr::WalkVertex(2));
        assert!(!action.start_invariant, "the value reads the origin, not the rooted start");
    }

    #[test]
    fn only_id_only_queries_with_exact_lanes_root() {
        let one = || Expr::lit_long(1);
        for lane in [
            (AccmOp::Sum, PrimType::Int),
            (AccmOp::Prod, PrimType::Long),
            (AccmOp::Min, PrimType::Double),
            (AccmOp::Max, PrimType::Float),
            (AccmOp::Or, PrimType::Bool),
            (AccmOp::And, PrimType::Bool),
        ] {
            assert!(id_chain(one(), lane)[2].is_some(), "{lane:?} is exact");
        }
        for prim in [PrimType::Float, PrimType::Double] {
            for op in [AccmOp::Sum, AccmOp::Prod] {
                assert_eq!(id_chain(one(), (op, prim))[2], None, "{op:?} over {prim:?} rounds");
            }
        }
        let long_sum = (AccmOp::Sum, PrimType::Long);
        let attr = || Expr::Attr { pos: 0, attr: 1 };
        let degree = Expr::Degree { pos: 0, dir: EdgeDir::Out };
        assert_eq!(id_chain(attr(), long_sum)[2], None, "an attribute read in a value");
        assert_eq!(id_chain(degree, long_sum)[2], None, "a degree read in a value");
        let reads_attr = Expr::bin(BinOp::Lt, attr(), Expr::WalkVertex(1));
        let rooted = chain_rooted(Some(reads_attr), one(), long_sum, None);
        assert_eq!(rooted[2], None, "an attribute read in a constraint");
        let filter = Expr::bin(BinOp::Gt, Expr::WalkVertex(0), Expr::lit_long(3));
        let rooted = chain_rooted(None, one(), long_sum, Some(filter));
        assert_eq!(rooted[2], None, "a start filter");
    }

    #[test]
    fn recompute_plan_lists_each_query_once_per_accumulator() {
        let mut plan = pr_like_plan();
        let again = plan.queries[0].actions[0].clone();
        plan.queries[0].actions.push(again);
        let steps = build_recompute_plan(&plan, 2);
        assert_eq!(
            steps[0],
            vec![RecomputeStep {
                query: 0,
                paths: vec![vec![0]]
            }]
        );
        assert!(steps[1].is_empty());
    }
}
