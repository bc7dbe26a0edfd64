//! Plan-level optimizations (paper §2 and §5.3).
//!
//! - **Multi-way intersection**: nested for-loops that *close* the walk —
//!   the final hop pinned to equal an earlier position (`u4 == u1` in TC,
//!   `u4 == u3` in LCC) — are rewritten so the engine merges two sorted
//!   neighbour views for the last two hops: the penultimate hop's, and the
//!   closing hop's from its bound end ([`closes_by_intersection`] says
//!   which shapes fit). This is the paper's "for-loop exploiting a
//!   multi-way intersection over the adjacency lists".
//! - **Image independence**: a query whose hop constraints and action
//!   conditions read only walk ids enumerates the same walk set under the
//!   old and the new image of a changed start vertex, so its Δvs sub-query
//!   enumerates once and emits value differences (paper §6.2.1).
//! - **Start-invariant actions**: an action value that reads nothing past
//!   the start vertex is evaluated once per start, not once per walk.
//! - **Scatter**: a one-hop walk without a hop constraint whose actions are
//!   unconditional and start-invariant folds each start's whole neighbour
//!   run with one typed lane call per action (paper §5.4's per-destination
//!   pre-aggregation), not one DFS leaf per walk.
//!
//! All of these are decided here, once per program; the engine reads the
//! annotations and never inspects an expression tree to re-derive them.
//! Traversal reordering and neighbor pruning are *incremental-plan*
//! optimizations: the compiler fixes what they need (which stream carries
//! the delta, the backward pruning path — [`crate::algebra::build_plans`]),
//! and whether they run is the engine's `OptFlags`, the one part that is
//! configuration rather than program.

use crate::plan::{closes_by_intersection, ActionTarget, TraversePlan, WalkQuery};
use itg_gsa::expr::{BinOp, Expr};
use itg_gsa::plan::StreamVersion;

/// Fill in every derived annotation of every walk query.
pub fn annotate(plan: &mut TraversePlan) {
    for q in &mut plan.queries {
        q.closes_to = detect_close(q);
        q.image_independent = q
            .hops
            .iter()
            .filter_map(|h| h.constraint.as_ref())
            .chain(q.actions.iter().filter_map(|a| a.cond.as_ref()))
            .all(is_pure_order_constraint);
        q.full_scan = vec![StreamVersion::Primed; q.hops.len()];
        for a in &mut q.actions {
            a.start_invariant = a.value.max_walk_pos().unwrap_or(0) == 0;
        }
        q.scatter = is_scatter(q);
    }
}

/// Whether a walk's actions fold as one scatter per start
/// ([`WalkQuery::scatter`]). Two actions on one accumulator would fold
/// walk-major in the DFS but action-major in a scatter, so they keep the
/// walker.
fn is_scatter(q: &WalkQuery) -> bool {
    let [hop] = &q.hops[..] else { return false };
    let mut targets = std::collections::BTreeSet::new();
    hop.constraint.is_none()
        && q.actions.iter().all(|a| {
            let target = match a.target {
                ActionTarget::VertexAccm { pos: 1, accm } => (false, accm),
                ActionTarget::VertexAccm { .. } => return false,
                ActionTarget::Global(g) => (true, g),
            };
            a.cond.is_none() && a.start_invariant && targets.insert(target)
        })
}

/// If the last hop's constraint is exactly `u_last == u_i` (or `u_i ==
/// u_last`) for an earlier position `i` — possibly conjoined with other
/// terms — and the last two hops can close by intersection, return `i`.
fn detect_close(q: &WalkQuery) -> Option<usize> {
    let last = q.hops.last()?.constraint.as_ref()?;
    let close = find_close_term(last, q.hops.len())?;
    closes_by_intersection(&q.hops, close).then_some(close)
}

fn find_close_term(e: &Expr, last_pos: usize) -> Option<usize> {
    match e {
        Expr::Binary(BinOp::Eq, l, r) => match (l.as_ref(), r.as_ref()) {
            (Expr::WalkVertex(a), Expr::WalkVertex(b)) if *a == last_pos && *b < last_pos => {
                Some(*b)
            }
            (Expr::WalkVertex(a), Expr::WalkVertex(b)) if *b == last_pos && *a < last_pos => {
                Some(*a)
            }
            _ => None,
        },
        Expr::Binary(BinOp::And, l, r) => {
            find_close_term(l, last_pos).or_else(|| find_close_term(r, last_pos))
        }
        _ => None,
    }
}

/// Whether an expression references only walk positions (no attributes,
/// globals, or degrees) — such constraints are evaluable from ids alone.
fn is_pure_order_constraint(e: &Expr) -> bool {
    let mut pure = true;
    e.visit(&mut |n| {
        if matches!(
            n,
            Expr::Attr { .. }
                | Expr::AttrElem { .. }
                | Expr::Global(_)
                | Expr::Degree { .. }
                | Expr::NumVertices
        ) {
            pure = false;
        }
    });
    pure
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::HopSpec;
    use itg_gsa::expr::EdgeDir;

    fn hop(source: usize, constraint: Option<Expr>) -> HopSpec {
        HopSpec {
            source,
            dir: EdgeDir::Both,
            constraint,
        }
    }

    fn vertex_eq(a: usize, b: usize) -> Expr {
        Expr::bin(BinOp::Eq, Expr::WalkVertex(a), Expr::WalkVertex(b))
    }

    #[test]
    fn detects_tc_closing_constraint() {
        // 3 hops, last constrained u3 == u0 (TC's `u4 == u1`).
        let mut plan = TraversePlan {
            queries: vec![WalkQuery {
                hops: vec![hop(0, None), hop(1, None), hop(2, Some(vertex_eq(3, 0)))],
                ..WalkQuery::default()
            }],
        };
        annotate(&mut plan);
        assert_eq!(plan.queries[0].closes_to, Some(0));
        assert!(plan.queries[0].image_independent, "id-only constraints");
        assert_eq!(plan.queries[0].full_scan, vec![StreamVersion::Primed; 3]);
    }

    #[test]
    fn detects_close_inside_conjunction() {
        let c = Expr::bin(
            BinOp::And,
            Expr::bin(BinOp::Lt, Expr::WalkVertex(0), Expr::WalkVertex(1)),
            vertex_eq(2, 1),
        );
        let mut plan = TraversePlan {
            queries: vec![WalkQuery {
                hops: vec![hop(0, None), hop(0, Some(c))],
                ..WalkQuery::default()
            }],
        };
        annotate(&mut plan);
        assert_eq!(plan.queries[0].closes_to, Some(1));
    }

    #[test]
    fn no_close_when_constraint_is_inequality() {
        let c = Expr::bin(BinOp::Lt, Expr::WalkVertex(1), Expr::WalkVertex(2));
        let mut plan = TraversePlan {
            queries: vec![WalkQuery {
                hops: vec![hop(0, None), hop(0, Some(c))],
                ..WalkQuery::default()
            }],
        };
        annotate(&mut plan);
        assert_eq!(plan.queries[0].closes_to, None);
    }

    /// A close the intersection cannot run — one hop, or a last hop
    /// joining two positions bound before the penultimate hop — is left
    /// to scan under its constraint.
    #[test]
    fn no_close_when_the_last_two_hops_cannot_intersect() {
        let shapes = [
            vec![hop(0, Some(vertex_eq(1, 0)))],
            vec![hop(0, None), hop(0, None), hop(1, Some(vertex_eq(3, 0)))],
            vec![hop(0, None), hop(1, None), hop(2, Some(vertex_eq(3, 2)))],
        ];
        for hops in shapes {
            let mut plan = TraversePlan { queries: vec![WalkQuery { hops, ..WalkQuery::default() }] };
            annotate(&mut plan);
            assert_eq!(plan.queries[0].closes_to, None, "{:?}", plan.queries[0].hops);
        }
    }

    #[test]
    fn purity_classification() {
        assert!(is_pure_order_constraint(&vertex_eq(0, 1)));
        assert!(!is_pure_order_constraint(&Expr::Attr { pos: 0, attr: 1 }));
        assert!(!is_pure_order_constraint(&Expr::Degree {
            pos: 0,
            dir: EdgeDir::Out
        }));
    }
}
