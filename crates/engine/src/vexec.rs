//! Execution of per-vertex statement programs (Initialize and Update).
//!
//! Expressions read the vertex's non-accumulator attributes, its
//! accumulator values (addressed past the non-accm columns, see
//! `CompiledProgram::accm_attr_base`), degrees, globals, and `V`.
//! Assignments are read-your-writes within one invocation: later
//! statements observe earlier assignments, exactly like the imperative
//! semantics of the source program. A program normally runs as its typed
//! kernel (`CompiledProgram::kernels`) over its row's one-vertex
//! [`crate::walker::WalkCtx`]; the interpreter here, over a [`VertexCtx`],
//! is the fallback for one that has none.

use itg_compiler::{VStmt, VertexProgram};
use itg_gsa::expr::{eval, EdgeDir, EvalContext};
use itg_gsa::value::Value;
use itg_gsa::VertexId;
use std::cell::RefCell;

/// The interpreter's context for one vertex-program invocation: a row
/// with the invocation's staged assignments over it.
pub struct VertexCtx<'a> {
    row: &'a dyn EvalContext,
    /// Staged assignments (read-your-writes), by attribute.
    overrides: RefCell<Vec<Option<Value>>>,
}

impl<'a> VertexCtx<'a> {
    /// A context over `row`, whose first `n_attrs` attributes are assignable.
    pub fn new(row: &'a dyn EvalContext, n_attrs: usize) -> VertexCtx<'a> {
        VertexCtx {
            row,
            overrides: RefCell::new(vec![None; n_attrs]),
        }
    }

    /// The staged writes: `(attr index, value)` pairs in attr order.
    pub fn into_writes(self) -> Vec<(usize, Value)> {
        let staged = self.overrides.into_inner().into_iter().enumerate();
        staged.filter_map(|(i, v)| v.map(|v| (i, v))).collect()
    }
}

impl EvalContext for VertexCtx<'_> {
    fn walk_vertex(&self, pos: usize) -> VertexId {
        self.row.walk_vertex(pos)
    }

    fn vertex_attr(&self, pos: usize, attr: usize) -> Value {
        match self.overrides.borrow().get(attr) {
            Some(Some(v)) => v.clone(),
            _ => self.row.vertex_attr(pos, attr),
        }
    }

    fn global(&self, idx: usize) -> Value {
        self.row.global(idx)
    }

    fn num_vertices(&self) -> u64 {
        self.row.num_vertices()
    }

    fn vertex_degree(&self, pos: usize, dir: EdgeDir) -> i64 {
        self.row.vertex_degree(pos, dir)
    }
}

/// Run a vertex program; staged attribute writes stay in `ctx`.
pub fn execute(program: &VertexProgram, ctx: &VertexCtx<'_>) {
    execute_stmts(&program.stmts, ctx);
}

fn execute_stmts(stmts: &[VStmt], ctx: &VertexCtx<'_>) {
    for s in stmts {
        match s {
            VStmt::Assign { attr, value } => {
                let v = eval(value, ctx).unwrap_or_else(|e| {
                    panic!("evaluation error in vertex program at v{}: {e}", ctx.walk_vertex(0))
                });
                ctx.overrides.borrow_mut()[*attr] = Some(v);
            }
            VStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = eval(cond, ctx)
                    .unwrap_or_else(|e| {
                        panic!("evaluation error in vertex program at v{}: {e}", ctx.walk_vertex(0))
                    })
                    .as_bool()
                    .unwrap_or(false);
                if c {
                    execute_stmts(then_body, ctx);
                } else {
                    execute_stmts(else_body, ctx);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ClusterGraph, GraphInput};
    use crate::walker::WalkCtx;
    use itg_gsa::value::ColumnData;
    use itg_store::View;
    use itg_gsa::expr::{BinOp, Expr};

    fn tiny_graph() -> ClusterGraph {
        ClusterGraph::load(&GraphInput::undirected(vec![(0, 1)]), 1, 1 << 16, 4096)
    }

    #[test]
    fn read_your_writes() {
        let g = tiny_graph();
        // attrs: [active: bool, x: double]
        let attrs = vec![
            ColumnData::Bool(vec![false, false]),
            ColumnData::Double(vec![1.0, 2.0]),
        ];
        // u.x = u.x + 1; if (u.x > 1.5) { u.active = true; }
        let prog = VertexProgram {
            stmts: vec![
                VStmt::Assign {
                    attr: 1,
                    value: Expr::bin(
                        BinOp::Add,
                        Expr::Attr { pos: 0, attr: 1 },
                        Expr::lit_double(1.0),
                    ),
                },
                VStmt::If {
                    cond: Expr::bin(
                        BinOp::Gt,
                        Expr::Attr { pos: 0, attr: 1 },
                        Expr::lit_double(1.5),
                    ),
                    then_body: vec![VStmt::Assign {
                        attr: 0,
                        value: Expr::lit_bool(true),
                    }],
                    else_body: vec![],
                },
            ],
        };
        let (accm, globals, deg_view, graph) = (&[][..], &[][..], View::New, &g);
        let row = WalkCtx { walk: &[0], attrs: &attrs, accm, globals, local: 0, deg_view, graph };
        let ctx = VertexCtx::new(&row, attrs.len());
        execute(&prog, &ctx);
        let writes = ctx.into_writes();
        // The If saw the *assigned* x (2.0 > 1.5), so active was set.
        assert_eq!(
            writes,
            vec![(0, Value::Bool(true)), (1, Value::Double(2.0))]
        );
    }

    #[test]
    fn degree_and_num_vertices_available() {
        let g = tiny_graph();
        let attrs = vec![ColumnData::Long(vec![0, 0])];
        // u.x = u.degree + V
        let prog = VertexProgram {
            stmts: vec![VStmt::Assign {
                attr: 0,
                value: Expr::bin(
                    BinOp::Add,
                    Expr::Degree {
                        pos: 0,
                        dir: EdgeDir::Both,
                    },
                    Expr::NumVertices,
                ),
            }],
        };
        let (accm, globals, deg_view, graph) = (&[][..], &[][..], View::New, &g);
        let row = WalkCtx { walk: &[1], attrs: &attrs, accm, globals, local: 1, deg_view, graph };
        let ctx = VertexCtx::new(&row, attrs.len());
        execute(&prog, &ctx);
        assert_eq!(ctx.into_writes(), vec![(0, Value::Long(3))]);
    }
}
