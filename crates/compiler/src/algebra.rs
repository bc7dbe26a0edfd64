//! Building the formal GSA algebra plans from the lowered Traverse plan and
//! lowering the automatic incrementalization of §5.1 to what the engine
//! executes. Rule ⑦ is applied in exactly one place —
//! [`itg_gsa::incremental::incrementalize`], once per walk query — and both
//! the formal `P_ΔQ` and the executable sub-query list are assembled from
//! that one result.

use crate::plan::{
    ActionTarget, DeltaSubQuery, RecomputeStep, TraversePlan, WalkAction, WalkQuery,
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
/// MS-BFS neighbor-pruning optimization walks.
pub fn build_plans(plan: &TraversePlan) -> (AlgebraNode, AlgebraNode, Vec<DeltaSubQuery>) {
    let (mut one_shot, mut delta, mut subqueries) = (Vec::new(), Vec::new(), Vec::new());
    for (qi, q) in plan.queries.iter().enumerate() {
        let walk = walk_node(q);
        let delta_walks = incrementalize(&walk);
        for (bound, d) in delta_subqueries(&delta_walks) {
            let AlgebraNode::Walk { streams, delta_start_images, .. } = bound else {
                unreachable!("delta_subqueries yields Walk nodes");
            };
            subqueries.push(DeltaSubQuery {
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
            });
        }
        for a in &q.actions {
            one_shot.push(action_node(a, walk.clone()));
            delta.push(action_node(a, delta_walks.clone()));
        }
    }
    (union(one_shot), union(delta), subqueries)
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
    use crate::plan::HopSpec;
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
