//! # itg-compiler — the `L_NGA` → GSA query compiler (paper §4.4, §5.1)
//!
//! Takes a checked `L_NGA` program and produces:
//! - the executable one-shot plans (Initialize / Traverse / Update), with
//!   Let substitution, decorrelated nested-For walk queries, folded
//!   constraints, and the multi-way-intersection annotation;
//! - the automatically incrementalized Traverse: the Rule ⑦ sub-queries
//!   with their stream bindings, plus the backward pruning paths the
//!   engine's MS-BFS neighbor pruning uses and the monoid recompute plan;
//! - the formal algebra trees `P_Q` and `P_ΔQ` the sub-queries are lowered
//!   from (`itg explain` prints both, and the executable Δ-plan under them).
//!
//! Everything that is a function of the program alone is decided here; the
//! engine executes the plan and decides only what depends on its
//! configuration or on data.

pub mod algebra;
pub mod canon;
pub mod lower;
pub mod optimize;
pub mod plan;

pub use canon::{expr_fingerprint, program_hash, walk_shape_hash};
pub use plan::{
    AccmLane, ActionTarget, CompiledProgram, DeltaSubQuery, HopSpec, ProgramAnalysis,
    ProgramKernels, QueryKernels, RecomputeStep, TraversePlan, VStmt, VertexProgram, WalkAction,
    WalkQuery,
};

use itg_lnga::{CheckedProgram, LngaError};

/// Compile a checked program into one-shot and incremental plans.
pub fn compile(checked: &CheckedProgram) -> Result<CompiledProgram, LngaError> {
    let (init, mut traverse, update) = lower::lower(checked)?;
    optimize::annotate(&mut traverse);
    let (algebra, algebra_delta, delta_traverse) = algebra::build_plans(&traverse);
    let recompute_plan = algebra::build_recompute_plan(&traverse, checked.symbols.accms.len());
    let incremental_safe = algebra::incremental_safe(&traverse);
    let max_hops = traverse
        .queries
        .iter()
        .map(|q| q.hops.len())
        .max()
        .unwrap_or(0);
    let analysis = analyze(&init, &traverse, &update, checked);
    let schema = CompiledProgram::schema(&checked.symbols);
    // Update diffs whole rows by their bits, which an array cell has not.
    let scalar_rows = checked.symbols.attrs.iter().all(|a| a.ty.prim().is_some());
    let kernels = ProgramKernels {
        init: init.kernel(&schema),
        update: update.kernel(&schema).filter(|_| scalar_rows),
        queries: traverse.queries.iter().map(|q| QueryKernels::compile(q, &schema)).collect(),
    };
    let mut program = CompiledProgram {
        symbols: checked.symbols.clone(),
        init,
        update,
        traverse,
        delta_traverse,
        recompute_plan,
        algebra,
        algebra_delta,
        incremental_safe,
        max_hops,
        analysis,
        kernels,
        source: String::new(),
    };
    program.assign_operator_ids();
    Ok(program)
}

fn analyze(
    init: &VertexProgram,
    traverse: &TraversePlan,
    update: &VertexProgram,
    _checked: &CheckedProgram,
) -> plan::ProgramAnalysis {
    use itg_gsa::Expr;

    fn expr_reads_degree(e: &Expr) -> bool {
        let mut found = false;
        e.visit(&mut |n| {
            if matches!(n, Expr::Degree { .. }) {
                found = true;
            }
        });
        found
    }

    fn expr_reads_global(e: &Expr) -> bool {
        let mut found = false;
        e.visit(&mut |n| {
            if matches!(n, Expr::Global(_)) {
                found = true;
            }
        });
        found
    }

    fn vstmts_facts(stmts: &[VStmt]) -> (bool, bool) {
        // (reads_degree, reads_global)
        let mut out = (false, false);
        fn walk(stmts: &[VStmt], out: &mut (bool, bool)) {
            for s in stmts {
                match s {
                    VStmt::Assign { value, .. } => {
                        out.0 |= expr_reads_degree(value);
                        out.1 |= expr_reads_global(value);
                    }
                    VStmt::If {
                        cond,
                        then_body,
                        else_body,
                    } => {
                        out.0 |= expr_reads_degree(cond);
                        out.1 |= expr_reads_global(cond);
                        walk(then_body, out);
                        walk(else_body, out);
                    }
                }
            }
        }
        walk(stmts, &mut out);
        out
    }

    let traverse_reads_degree = traverse.queries.iter().any(|q| {
        q.hops
            .iter()
            .filter_map(|h| h.constraint.as_ref())
            .chain(q.actions.iter().filter_map(|a| a.cond.as_ref()))
            .chain(q.actions.iter().map(|a| &a.value))
            .chain(q.start_filter.as_ref())
            .any(expr_reads_degree)
    });
    let (init_reads_degree, _) = vstmts_facts(&init.stmts);
    let (update_reads_degree, update_reads_globals) = vstmts_facts(&update.stmts);
    plan::ProgramAnalysis {
        traverse_reads_degree,
        update_reads_degree,
        init_reads_degree,
        update_reads_globals,
    }
}

/// Front end + compiler in one call: `L_NGA` source text to compiled plans.
pub fn compile_source(src: &str) -> Result<CompiledProgram, LngaError> {
    let mut program = compile(&itg_lnga::frontend(src)?)?;
    program.source = src.to_string();
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ActionTarget, VStmt};
    use itg_gsa::expr::{BinOp, EdgeDir, Expr};
    use itg_gsa::AccmOp;

    const PR: &str = r#"
        Vertex (id, active, out_nbrs, out_degree,
                rank: double, sum: Accm<double, SUM>)
        Initialize (u): { u.rank = 1.0; u.active = true; }
        Traverse (u): {
            Let val = u.rank / u.out_degree;
            For v in u.out_nbrs { v.sum.Accumulate(val); }
        }
        Update (u): {
            Let val = 0.15 / V + 0.85 * u.sum;
            If (Abs(val - u.rank) > 0.001) { u.rank = val; u.active = true; }
        }
    "#;

    const TC: &str = r#"
        Vertex (id, active, nbrs)
        GlobalVariable (cnts: Accm<long, SUM>)
        Initialize (u1): { u1.active = true; }
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

    #[test]
    fn pagerank_compiles_to_one_hop_walk() {
        let p = compile_source(PR).unwrap();
        assert_eq!(p.traverse.queries.len(), 1);
        let q = &p.traverse.queries[0];
        assert_eq!(q.hops.len(), 1);
        assert_eq!(q.hops[0].dir, EdgeDir::Out);
        assert_eq!(q.actions.len(), 1);
        let a = &q.actions[0];
        assert_eq!(a.depth, 1);
        assert_eq!(a.op, AccmOp::Sum);
        assert!(matches!(
            a.target,
            ActionTarget::VertexAccm { pos: 1, accm: 0 }
        ));
        // Let substitution: the value expression contains rank / degree.
        let mut saw_degree = false;
        a.value.visit(&mut |e| {
            if matches!(e, Expr::Degree { pos: 0, .. }) {
                saw_degree = true;
            }
        });
        assert!(saw_degree, "Let val was not substituted: {:?}", a.value);
        assert!(p.incremental_safe);
        // Incremental plan: vs-delta + es1-delta sub-queries.
        assert_eq!(p.delta_traverse.len(), 2);
    }

    #[test]
    fn pagerank_update_lowered_with_accm_read() {
        let p = compile_source(PR).unwrap();
        // Update: If(...) { Assign rank; Assign active; }
        assert_eq!(p.update.stmts.len(), 1);
        let VStmt::If { cond, then_body, .. } = &p.update.stmts[0] else {
            panic!("expected If, got {:?}", p.update.stmts[0]);
        };
        // The condition references the accumulator via the offset index.
        let base = p.accm_attr_base();
        let mut saw_accm = false;
        cond.visit(&mut |e| {
            if let Expr::Attr { attr, .. } = e {
                if *attr >= base {
                    saw_accm = true;
                }
            }
        });
        assert!(saw_accm);
        assert_eq!(then_body.len(), 2);
        // Initialize assigns rank (attr 1) and active (attr 0).
        assert!(p.init.assigns(0));
        assert!(p.init.assigns(1));
    }

    #[test]
    fn tc_compiles_to_three_hop_walk_with_intersection() {
        let p = compile_source(TC).unwrap();
        assert_eq!(p.traverse.queries.len(), 1);
        let q = &p.traverse.queries[0];
        assert_eq!(q.hops.len(), 3);
        // The closing constraint u4 == u1 is detected.
        assert_eq!(q.closes_to, Some(0));
        // Ordering constraints on the first two hops.
        assert!(matches!(
            q.hops[0].constraint,
            Some(Expr::Binary(BinOp::Lt, _, _))
        ));
        // Global action at depth 3.
        assert!(matches!(q.actions[0].target, ActionTarget::Global(0)));
        assert_eq!(q.actions[0].depth, 3);
        // Rule 7: 4 sub-queries, pruning paths growing along the chain.
        assert_eq!(p.delta_traverse.len(), 4);
        assert_eq!(p.delta_traverse[1].pruning_path, Vec::<usize>::new());
        assert_eq!(p.delta_traverse[2].pruning_path, vec![0]);
        assert_eq!(p.delta_traverse[3].delta_stream, 3);
        assert_eq!(p.delta_traverse[3].pruning_path, vec![0, 1]);
    }

    #[test]
    fn branching_walk_lcc_style() {
        // LCC: u3 iterates u1's neighbors again (branching), closed by
        // u4 == u3 from u2.
        let src = r#"
            Vertex (id, active, nbrs, degree, tri: Accm<long, SUM>, lcc: double)
            Initialize (u1): { u1.active = true; }
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
                    u1.lcc = 2.0 * u1.tri / (u1.degree * (u1.degree - 1));
                }
            }
        "#;
        let p = compile_source(src).unwrap();
        let q = &p.traverse.queries[0];
        assert_eq!(q.hops.len(), 3);
        assert_eq!(q.hops[0].source, 0);
        assert_eq!(q.hops[1].source, 0, "branching hop re-sources u1");
        assert_eq!(q.hops[2].source, 1, "closing hop draws from u2");
        assert_eq!(q.closes_to, Some(2));
        // Pruning path for the delta at the closing hop follows the parent
        // chain of its source (u2 was reached by hop 0 from u1).
        let last = p.delta_traverse.last().unwrap();
        assert_eq!(last.delta_stream, 3);
        assert_eq!(last.pruning_path, vec![0]);
    }

    #[test]
    fn sibling_for_loops_over_same_chain_merge() {
        // Two sibling loops over the identical adjacency chain share one
        // walk enumeration (both actions attach to it) — but loops with
        // *different* constraints remain separate queries.
        let src = r#"
            Vertex (id, active, nbrs, a: Accm<long, SUM>, b: Accm<long, MIN>)
            Initialize (u): { u.active = true; }
            Traverse (u): {
                For v in u.nbrs { v.a.Accumulate(1); }
                For w in u.nbrs { w.b.Accumulate(2); }
                For x in u.nbrs Where (u < x) { x.a.Accumulate(3); }
            }
            Update (u): { }
        "#;
        let p = compile_source(src).unwrap();
        assert_eq!(p.traverse.queries.len(), 2);
        assert_eq!(p.traverse.queries[0].actions.len(), 2);
        assert_eq!(p.traverse.queries[1].actions.len(), 1);
        // 2 sub-queries per 1-hop query.
        assert_eq!(p.delta_traverse.len(), 4);
    }

    #[test]
    fn actions_in_same_body_share_one_query() {
        let src = r#"
            Vertex (id, active, nbrs, a: Accm<long, SUM>, b: Accm<long, SUM>)
            Initialize (u): { u.active = true; }
            Traverse (u): {
                For v in u.nbrs { v.a.Accumulate(1); v.b.Accumulate(2); }
            }
            Update (u): { }
        "#;
        let p = compile_source(src).unwrap();
        assert_eq!(p.traverse.queries.len(), 1);
        assert_eq!(p.traverse.queries[0].actions.len(), 2);
    }

    #[test]
    fn if_condition_folds_into_hop_constraint() {
        let src = r#"
            Vertex (id, active, nbrs, g: Accm<long, SUM>)
            Initialize (u): { u.active = true; }
            Traverse (u): {
                For v in u.nbrs {
                    If (u < v) { v.g.Accumulate(1); }
                }
            }
            Update (u): { }
        "#;
        let p = compile_source(src).unwrap();
        let q = &p.traverse.queries[0];
        // The If appears after the For, so it survives as the action's
        // residual condition (or was folded into the hop constraint).
        assert!(q.actions[0].cond.is_some() || q.hops[0].constraint.is_some());
    }

    #[test]
    fn operator_ids_are_stable_and_labeled() {
        let p = compile_source(PR).unwrap();
        assert_eq!(p.traverse.queries[0].op_id, 1);
        // ΔQ0 sub-queries: (0+1)*16 + stream.
        assert_eq!(p.delta_traverse[0].op_id, 16);
        assert_eq!(p.delta_traverse[1].op_id, 17);
        let labels = p.operator_labels();
        assert!(labels.contains(&(1, "Q0 ω (1 hops)".to_string())));
        assert!(labels.contains(&(16, "ΔQ0 ω(Δvs)".to_string())));
        assert!(labels.contains(&(17, "ΔQ0 ω(Δes1)".to_string())));
        // Recompiling the same source yields identical ids.
        let p2 = compile_source(PR).unwrap();
        assert_eq!(p.operator_labels(), p2.operator_labels());
    }

    #[test]
    fn lane_selection_is_a_pure_function_of_the_declaration() {
        use crate::plan::AccmLane;
        use itg_gsa::value::PrimType;
        let cases = [
            (AccmOp::Sum, PrimType::Long, AccmLane::SumI64),
            (AccmOp::Sum, PrimType::Double, AccmLane::SumF64),
            (AccmOp::Min, PrimType::Long, AccmLane::MinI64),
            (AccmOp::Min, PrimType::Double, AccmLane::MinF64),
            (AccmOp::Max, PrimType::Long, AccmLane::MaxI64),
            (AccmOp::Max, PrimType::Double, AccmLane::MaxF64),
            (AccmOp::Or, PrimType::Bool, AccmLane::OrBool),
            (AccmOp::And, PrimType::Bool, AccmLane::AndBool),
            (AccmOp::Prod, PrimType::Double, AccmLane::Generic),
            (AccmOp::Sum, PrimType::Int, AccmLane::Generic),
        ];
        for (op, prim, want) in cases {
            assert_eq!(AccmLane::select(op, prim), want, "{op:?}/{prim:?}");
        }
        // PR's double-SUM accumulator and TC's long-SUM global both land on
        // specialized lanes.
        let pr = compile_source(PR).unwrap();
        assert_eq!(pr.lanes(true), (vec![AccmLane::SumF64], vec![]));
        assert_eq!(pr.lanes(false), (vec![AccmLane::Generic], vec![]));
        let tc = compile_source(TC).unwrap();
        assert_eq!(tc.lanes(true), (vec![], vec![AccmLane::SumI64]));
    }

    #[test]
    fn algebra_explain_is_renderable() {
        let p = compile_source(TC).unwrap();
        let one_shot = p.algebra.explain();
        let delta = p.algebra_delta.explain();
        assert!(one_shot.contains("ω(vs, es1, es2, es3)"));
        assert!(delta.contains("Δ"));
    }
}
