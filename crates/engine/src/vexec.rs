//! Execution of per-vertex statement programs (Initialize and Update).
//!
//! Expressions read the vertex's non-accumulator attributes, its
//! accumulator values (addressed past the non-accm columns, see
//! `CompiledProgram::accm_attr_base`), degrees, globals, and `V`.
//! Assignments are read-your-writes within one invocation: later
//! statements observe earlier assignments, exactly like the imperative
//! semantics of the source program.

use crate::accum::AccmLayout;
use crate::graph::ClusterGraph;
use itg_compiler::{VStmt, VertexProgram};
use itg_gsa::expr::{eval, EdgeDir, EvalContext};
use itg_gsa::value::{ColumnData, Value};
use itg_gsa::VertexId;
use itg_store::View;
use std::cell::RefCell;

/// The evaluation context for one vertex-program invocation.
pub struct VertexCtx<'a> {
    pub v: VertexId,
    pub local: usize,
    /// Non-accumulator attribute columns (`A_{t,s}` image).
    pub attrs: &'a [ColumnData],
    /// Accumulator state columns, if accumulators are readable (Update).
    pub accm: Option<(&'a AccmLayout, &'a [ColumnData])>,
    pub globals: &'a [Value],
    pub graph: &'a ClusterGraph,
    /// Staged assignments (read-your-writes).
    overrides: RefCell<Vec<Option<Value>>>,
}

impl<'a> VertexCtx<'a> {
    pub fn new(
        v: VertexId,
        local: usize,
        attrs: &'a [ColumnData],
        accm: Option<(&'a AccmLayout, &'a [ColumnData])>,
        globals: &'a [Value],
        graph: &'a ClusterGraph,
    ) -> VertexCtx<'a> {
        VertexCtx {
            v,
            local,
            attrs,
            accm,
            globals,
            graph,
            overrides: RefCell::new(vec![None; attrs.len()]),
        }
    }

    /// The staged writes: `(attr index, value)` pairs in attr order.
    pub fn into_writes(self) -> impl Iterator<Item = (usize, Value)> {
        let staged = self.overrides.into_inner().into_iter().enumerate();
        staged.filter_map(|(i, v)| v.map(|v| (i, v)))
    }
}

impl EvalContext for VertexCtx<'_> {
    fn walk_vertex(&self, pos: usize) -> VertexId {
        debug_assert_eq!(pos, 0);
        self.v
    }

    fn vertex_attr(&self, pos: usize, attr: usize) -> Value {
        debug_assert_eq!(pos, 0);
        if attr < self.attrs.len() {
            if let Some(v) = &self.overrides.borrow()[attr] {
                return v.clone();
            }
            return self.attrs[attr].get(self.local);
        }
        let (layout, cols) = self
            .accm
            .expect("accumulator read outside Update context");
        let i = attr - self.attrs.len();
        cols[layout.value_col(i)].get(self.local)
    }

    fn global(&self, idx: usize) -> Value {
        self.globals[idx].clone()
    }

    fn num_vertices(&self) -> u64 {
        self.graph.num_vertices() as u64
    }

    fn vertex_degree(&self, pos: usize, dir: EdgeDir) -> i64 {
        debug_assert_eq!(pos, 0);
        self.graph.degree(self.v, dir, View::New) as i64
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
                    panic!("evaluation error in vertex program at v{}: {e}", ctx.v)
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
                        panic!("evaluation error in vertex program at v{}: {e}", ctx.v)
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
    use crate::graph::GraphInput;
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
        let ctx = VertexCtx::new(0, 0, &attrs, None, &[], &g);
        execute(&prog, &ctx);
        let writes: Vec<_> = ctx.into_writes().collect();
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
        let ctx = VertexCtx::new(1, 1, &attrs, None, &[], &g);
        execute(&prog, &ctx);
        assert_eq!(ctx.into_writes().collect::<Vec<_>>(), vec![(0, Value::Long(3))]);
    }
}
