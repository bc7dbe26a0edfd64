//! Automatic query incrementalization: the rules of Table 4.
//!
//! Given a one-shot plan `P_Q`, `incrementalize` derives `P_ΔQ` such that
//! `Q(s ∪ Δs) = Q(s) ∪ ΔQ(s, Δs)` under the ±multiplicity multiset model.
//! The scalar operators distribute over deltas (rules ①–⑥); the Walk
//! operator expands into a union of per-delta-stream sub-queries with
//! prefix-primed / suffix-base bindings (rule ⑦):
//!
//! Δ(ω(s1, …, sn)) = ω(Δs1, s2, …, sn) ∪ ω(s'1, Δs2, s3, …, sn) ∪ …
//!                   ∪ ω(s'1, …, s'_{n−1}, Δsn)   where s'i = si ∪ Δsi.
//!
//! GSA is closed under these rules, so the same engine executes both plans.

use crate::plan::{AlgebraNode, StreamRef, StreamVersion};

/// Derive the incremental plan `P_ΔQ` from the one-shot plan `P_Q`.
pub fn incrementalize(plan: &AlgebraNode) -> AlgebraNode {
    match plan {
        // Rule ①: Δ(σ(s)) = σ(Δs)
        AlgebraNode::Filter { pred, input } => AlgebraNode::Filter {
            pred: pred.clone(),
            input: Box::new(incrementalize(input)),
        },
        // Rule ②: Δ(Π(s)) = Π(Δs)
        AlgebraNode::Map { exprs, input } => AlgebraNode::Map {
            exprs: exprs.clone(),
            input: Box::new(incrementalize(input)),
        },
        // Rule ③: Δ(s1 ∪ s2) = Δs1 ∪ Δs2
        AlgebraNode::Union(inputs) => {
            AlgebraNode::Union(inputs.iter().map(incrementalize).collect())
        }
        // Rule ④: Δ(s1 ⊖ s2) = Δs1 ⊖ Δs2
        AlgebraNode::Difference(a, b) => AlgebraNode::Difference(
            Box::new(incrementalize(a)),
            Box::new(incrementalize(b)),
        ),
        // Rule ⑤: Δ(←(s)) = ←(Δs)
        AlgebraNode::Assign { target, value, input } => AlgebraNode::Assign {
            target: target.clone(),
            value: value.clone(),
            input: Box::new(incrementalize(input)),
        },
        // Rule ⑥: Δ(⊎(s)) = ⊎(Δs)
        AlgebraNode::Accumulate {
            target,
            op,
            ty,
            value,
            input,
        } => AlgebraNode::Accumulate {
            target: target.clone(),
            op: *op,
            ty: *ty,
            value: value.clone(),
            input: Box::new(incrementalize(input)),
        },
        // Rule ⑦: the Walk expansion.
        AlgebraNode::Walk {
            streams,
            start_filter,
            hop_constraints,
            final_constraint,
            delta_start_images,
        } => {
            assert!(
                !delta_start_images,
                "cannot incrementalize an already-incremental walk"
            );
            let n = streams.len();
            let mut subqueries = Vec::with_capacity(n);
            for d in 0..n {
                let bound: Vec<StreamRef> = streams
                    .iter()
                    .enumerate()
                    .map(|(i, r)| {
                        debug_assert_eq!(
                            r.version,
                            StreamVersion::Base,
                            "one-shot walks bind base streams"
                        );
                        let version = match i.cmp(&d) {
                            std::cmp::Ordering::Less => StreamVersion::Primed,
                            std::cmp::Ordering::Equal => StreamVersion::Delta,
                            std::cmp::Ordering::Greater => StreamVersion::Base,
                        };
                        StreamRef {
                            index: r.index,
                            version,
                        }
                    })
                    .collect();
                subqueries.push(AlgebraNode::Walk {
                    streams: bound,
                    start_filter: start_filter.clone(),
                    hop_constraints: hop_constraints.clone(),
                    final_constraint: final_constraint.clone(),
                    // The Δvs sub-query (d == 0) enumerates each changed
                    // start vertex under both its old (−1) and new (+1)
                    // attribute images.
                    delta_start_images: d == 0,
                });
            }
            AlgebraNode::Union(subqueries)
        }
    }
}

/// The sub-queries of an incremental plan, flattened: every Walk in `P_ΔQ`
/// together with the index of its delta stream. The compiler lowers each
/// one to an executable `DeltaSubQuery` (`itg_compiler::algebra`); the
/// engine executes those and never reads the algebra tree.
pub fn delta_subqueries(plan: &AlgebraNode) -> Vec<(&AlgebraNode, usize)> {
    let mut out = Vec::new();
    plan.visit(&mut |n| {
        if let AlgebraNode::Walk { streams, .. } = n {
            if let Some(d) = streams
                .iter()
                .position(|r| r.version == StreamVersion::Delta)
            {
                out.push((n, d));
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::StreamRef;

    fn walk(k: usize) -> AlgebraNode {
        AlgebraNode::Walk {
            streams: (0..=k).map(StreamRef::base).collect(),
            start_filter: None,
            hop_constraints: vec![None; k],
            final_constraint: None,
            delta_start_images: false,
        }
    }

    #[test]
    fn rule7_produces_k_plus_one_subqueries() {
        let p = walk(3); // TC: vs, es1, es2, es3
        let dp = incrementalize(&p);
        let subs = delta_subqueries(&dp);
        assert_eq!(subs.len(), 4);
        // Sub-query d: streams < d primed, stream d delta, streams > d base.
        for (sq, d) in &subs {
            if let AlgebraNode::Walk {
                streams,
                delta_start_images,
                ..
            } = sq
            {
                for (i, r) in streams.iter().enumerate() {
                    let expect = match i.cmp(d) {
                        std::cmp::Ordering::Less => StreamVersion::Primed,
                        std::cmp::Ordering::Equal => StreamVersion::Delta,
                        std::cmp::Ordering::Greater => StreamVersion::Base,
                    };
                    assert_eq!(r.version, expect, "sub-query {d}, stream {i}");
                }
                assert_eq!(*delta_start_images, *d == 0);
            } else {
                unreachable!()
            }
        }
    }

    #[test]
    fn scalar_rules_distribute() {
        use crate::accm::AccmOp;
        use crate::expr::Expr;
        use crate::plan::WriteTarget;
        use crate::value::PrimType;

        // ⊎(Π(ω(vs, es))) — the PR shape.
        let p = AlgebraNode::Accumulate {
            target: WriteTarget::VertexAttr {
                key: Expr::WalkVertex(1),
                attr: 0,
            },
            op: AccmOp::Sum,
            ty: PrimType::Double,
            value: Expr::lit_double(1.0),
            input: Box::new(AlgebraNode::Map {
                exprs: vec![Expr::WalkVertex(1)],
                input: Box::new(walk(1)),
            }),
        };
        let dp = incrementalize(&p);
        // Outer operators unchanged; the Walk became a Union of 2.
        match &dp {
            AlgebraNode::Accumulate { input, .. } => match input.as_ref() {
                AlgebraNode::Map { input, .. } => match input.as_ref() {
                    AlgebraNode::Union(subs) => assert_eq!(subs.len(), 2),
                    other => panic!("expected union, got {other:?}"),
                },
                other => panic!("expected map, got {other:?}"),
            },
            other => panic!("expected accumulate, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "already-incremental")]
    fn double_incrementalization_rejected() {
        let p = walk(1);
        let dp = incrementalize(&p);
        incrementalize(&dp);
    }
}
