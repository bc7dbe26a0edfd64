//! Lowering `L_NGA` ASTs to executable plans.
//!
//! The paper compiles each statement to an algebra sub-expression and
//! removes the Apply operators through query decorrelation (§4.4). The
//! lowered executable form reached here is the decorrelated result: each
//! chain of nested For loops becomes one Walk query; Let bindings are
//! substituted into their uses (the paper: "all followed references to
//! `val` are replaced with the expression"); If conditions are folded into
//! hop constraints when they only reference already-bound walk positions,
//! and kept as residual action conditions otherwise.

use crate::plan::*;
use itg_gsa::expr::Expr;
use itg_gsa::value::{PrimType, ValueType};
use itg_lnga::ast::{AstExpr, Place, Stmt, Udf};
use itg_lnga::token::Span;
use itg_lnga::{CheckedProgram, LngaError, Symbols};
use std::collections::HashMap;

/// Which UDF an expression is lowered inside (affects name resolution of
/// globals and accumulator reads; mirrors the checker's rules).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ctx {
    Initialize,
    Traverse,
    Update,
}

struct Lowerer<'a> {
    symbols: &'a Symbols,
    ctx: Ctx,
    /// Vertex variable name → walk position.
    vertex_vars: Vec<String>,
    /// Let name → substituted lowered expression.
    lets: HashMap<String, Expr>,
}

impl<'a> Lowerer<'a> {
    fn new(symbols: &'a Symbols, ctx: Ctx, param: &str) -> Lowerer<'a> {
        Lowerer {
            symbols,
            ctx,
            vertex_vars: vec![param.to_string()],
            lets: HashMap::new(),
        }
    }

    fn vertex_pos(&self, name: &str) -> Option<usize> {
        self.vertex_vars.iter().position(|v| v == name)
    }

    fn lower_expr(&self, e: &AstExpr) -> Result<Expr, LngaError> {
        Ok(match e {
            AstExpr::IntLit(v) => Expr::lit_long(*v),
            AstExpr::FloatLit(v) => Expr::lit_double(*v),
            AstExpr::BoolLit(v) => Expr::lit_bool(*v),
            AstExpr::Ident(name, span) => {
                if let Some(sub) = self.lets.get(name) {
                    sub.clone()
                } else if let Some(pos) = self.vertex_pos(name) {
                    Expr::WalkVertex(pos)
                } else if name == "V" {
                    Expr::NumVertices
                } else if let Some(idx) = self.symbols.global_index(name) {
                    debug_assert_eq!(self.ctx, Ctx::Update);
                    Expr::Global(idx)
                } else {
                    return Err(LngaError::check(*span, format!("unknown name `{name}`")));
                }
            }
            AstExpr::Attr { var, attr, span } => {
                let pos = self.vertex_pos(var).ok_or_else(|| {
                    LngaError::check(*span, format!("unknown vertex variable `{var}`"))
                })?;
                self.lower_attr(pos, attr, *span)?
            }
            AstExpr::Index {
                var,
                attr,
                idx,
                span,
            } => {
                let pos = self.vertex_pos(var).ok_or_else(|| {
                    LngaError::check(*span, format!("unknown vertex variable `{var}`"))
                })?;
                self.start_only(pos, attr, *span)?;
                let attr_idx = self.symbols.attr_index(attr).ok_or_else(|| {
                    LngaError::check(*span, format!("`{attr}` is not an array attribute"))
                })?;
                Expr::AttrElem {
                    pos,
                    attr: attr_idx,
                    idx: Box::new(self.lower_expr(idx)?),
                }
            }
            AstExpr::Unary(op, inner) => Expr::Unary(*op, Box::new(self.lower_expr(inner)?)),
            AstExpr::Binary(op, l, r) => {
                Expr::bin(*op, self.lower_expr(l)?, self.lower_expr(r)?)
            }
            AstExpr::Call { func, args, span } => {
                let f = match func.as_str() {
                    "Abs" => itg_gsa::Func::Abs,
                    "Min" => itg_gsa::Func::Min,
                    "Max" => itg_gsa::Func::Max,
                    other => {
                        return Err(LngaError::check(
                            *span,
                            format!("unknown function `{other}`"),
                        ))
                    }
                };
                let lowered = args
                    .iter()
                    .map(|a| self.lower_expr(a))
                    .collect::<Result<Vec<_>, _>>()?;
                Expr::Call(f, lowered)
            }
        })
    }

    fn lower_attr(
        &self,
        pos: usize,
        attr: &str,
        span: Span,
    ) -> Result<Expr, LngaError> {
        if attr == "id" {
            return Ok(Expr::WalkVertex(pos));
        }
        self.start_only(pos, attr, span)?;
        if let Some(dir) = self.symbols.degrees.get(attr) {
            return Ok(Expr::Degree { pos, dir: *dir });
        }
        if let Some(idx) = self.symbols.attr_index(attr) {
            return Ok(Expr::Attr { pos, attr: idx });
        }
        if let Some(idx) = self.symbols.accm_index(attr) {
            // Update context: accumulators are addressed past the non-accm
            // columns (see CompiledProgram::accm_attr_base).
            debug_assert_eq!(self.ctx, Ctx::Update);
            debug_assert_eq!(pos, 0);
            return Ok(Expr::Attr {
                pos,
                attr: self.symbols.attrs.len() + idx,
            });
        }
        Err(LngaError::check(
            span,
            format!("unknown vertex attribute `{attr}`"),
        ))
    }

    /// Traverse reads attributes (degrees included) of the walk's first
    /// vertex only (DESIGN.md §4.3): the condition under which vs₂, vs₃
    /// drop out of `P_ω` and Rule ⑦ applies as implemented.
    fn start_only(&self, pos: usize, attr: &str, span: Span) -> Result<(), LngaError> {
        if self.ctx != Ctx::Traverse || pos == 0 {
            return Ok(());
        }
        Err(LngaError::check(
            span,
            format!(
                "Traverse reads `{attr}` of a non-start walk vertex: attribute reads \
                 inside Traverse come from the walk's first vertex (u1) only; deeper \
                 vertices contribute ids (constraints, accumulate targets)"
            ),
        ))
    }

    /// Insert a numeric cast to the declared slot type when needed.
    fn cast_to(&self, value: Expr, ty: ValueType) -> Expr {
        match ty {
            ValueType::Prim(PrimType::Bool) | ValueType::Array(..) => value,
            ValueType::Prim(p) => match &value {
                // A literal of the right family is cast at compile time.
                Expr::Lit(v) => v
                    .cast(p)
                    .map(Expr::Lit)
                    .unwrap_or(Expr::Cast(p, Box::new(value))),
                _ => Expr::Cast(p, Box::new(value)),
            },
        }
    }
}

/// Lower a per-vertex UDF (Initialize / Update) to a statement program.
fn lower_vertex_program(
    symbols: &Symbols,
    udf: &Udf,
    ctx: Ctx,
) -> Result<VertexProgram, LngaError> {
    let mut lo = Lowerer::new(symbols, ctx, &udf.param);
    let stmts = lower_vstmts(&mut lo, &udf.body)?;
    Ok(VertexProgram { stmts })
}

fn lower_vstmts(lo: &mut Lowerer<'_>, body: &[Stmt]) -> Result<Vec<VStmt>, LngaError> {
    let mut out = Vec::new();
    for stmt in body {
        match stmt {
            Stmt::Let { name, expr, .. } => {
                let e = lo.lower_expr(expr)?;
                lo.lets.insert(name.clone(), e);
            }
            Stmt::Assign { target, expr } => {
                let Place::VertexAttr { attr, .. } = target else {
                    unreachable!("checker rejects global assignment")
                };
                let idx = lo.symbols.attr_index(attr).expect("checked attr");
                let ty = lo.symbols.attrs[idx].ty;
                let value = lo.cast_to(lo.lower_expr(expr)?, ty);
                out.push(VStmt::Assign { attr: idx, value });
            }
            Stmt::Accumulate { .. } => {
                unreachable!("checker rejects Accumulate outside Traverse")
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = lo.lower_expr(cond)?;
                let saved = lo.lets.clone();
                let t = lower_vstmts(lo, then_body)?;
                lo.lets = saved.clone();
                let e = lower_vstmts(lo, else_body)?;
                lo.lets = saved;
                out.push(VStmt::If {
                    cond: c,
                    then_body: t,
                    else_body: e,
                });
            }
            Stmt::For { span, .. } => {
                return Err(LngaError::check(*span, "For is only allowed in Traverse"))
            }
        }
    }
    Ok(out)
}

/// Lowering state for Traverse: the current chain of hops and pending If
/// conditions, with completed walk queries accumulated.
struct TraverseLowerer<'a> {
    lo: Lowerer<'a>,
    hops: Vec<HopSpec>,
    /// If conditions in scope, with the depth at which they were opened.
    conds: Vec<(usize, Expr)>,
    queries: Vec<WalkQuery>,
}

impl TraverseLowerer<'_> {
    fn depth(&self) -> usize {
        self.hops.len()
    }

    /// Residual condition for an action at the current depth: the
    /// conjunction of If conditions not already folded into hops. Hop
    /// folding happens at For entry; conditions opened after the last For
    /// stay residual.
    fn residual_cond(&self) -> Option<Expr> {
        let mut out: Option<Expr> = None;
        for (_, c) in &self.conds {
            out = Expr::and_opt(out, Some(c.clone()));
        }
        out
    }

    fn flush_action(&mut self, action: WalkAction) {
        // Attach to an existing query with an identical hop chain, if any.
        let start_filter = self.start_filter();
        for q in &mut self.queries {
            if q.hops == self.hops && q.start_filter == start_filter {
                q.actions.push(action);
                return;
            }
        }
        self.queries.push(WalkQuery {
            op_id: 0,
            start_filter,
            hops: self.hops.clone(),
            actions: vec![action],
            ..WalkQuery::default()
        });
    }

    /// Depth-0 conditions that only reference position 0 become the start
    /// filter.
    fn start_filter(&self) -> Option<Expr> {
        let mut out: Option<Expr> = None;
        for (d, c) in &self.conds {
            if *d == 0 && c.max_walk_pos().unwrap_or(0) == 0 {
                out = Expr::and_opt(out, Some(c.clone()));
            }
        }
        out
    }

    fn lower_body(&mut self, body: &[Stmt]) -> Result<(), LngaError> {
        for stmt in body {
            match stmt {
                Stmt::Let { name, expr, .. } => {
                    let e = self.lo.lower_expr(expr)?;
                    self.lo.lets.insert(name.clone(), e);
                }
                Stmt::For {
                    var,
                    source_var,
                    source_attr,
                    where_clause,
                    body,
                    span,
                } => {
                    let source = self.lo.vertex_pos(source_var).ok_or_else(|| {
                        LngaError::check(*span, format!("unknown variable `{source_var}`"))
                    })?;
                    let dir = *self
                        .lo
                        .symbols
                        .nbrs
                        .get(source_attr)
                        .expect("checker validated adjacency");
                    self.lo.vertex_vars.push(var.clone());
                    // The new vertex is position depth+1; fold the Where
                    // clause plus any pending conditions that reference only
                    // bound positions into this hop's constraint.
                    let mut constraint = where_clause
                        .as_ref()
                        .map(|w| self.lo.lower_expr(w))
                        .transpose()?;
                    let new_pos = self.depth() + 1;
                    // Conditions opened above this For (not yet folded into a
                    // hop because they arrived after the previous For) fold
                    // here when they fit; deeper-position conditions cannot
                    // exist (the checker scopes variables).
                    let mut remaining = Vec::new();
                    for (d, c) in std::mem::take(&mut self.conds) {
                        if c.max_walk_pos().unwrap_or(0) <= new_pos {
                            constraint = Expr::and_opt(constraint, Some(c));
                        } else {
                            remaining.push((d, c));
                        }
                    }
                    self.conds = remaining;
                    self.hops.push(HopSpec {
                        source,
                        dir,
                        constraint,
                    });
                    let saved_lets = self.lo.lets.clone();
                    self.lower_body(body)?;
                    self.lo.lets = saved_lets;
                    self.hops.pop();
                    self.lo.vertex_vars.pop();
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let c = self.lo.lower_expr(cond)?;
                    let saved_lets = self.lo.lets.clone();
                    self.conds.push((self.depth(), c.clone()));
                    self.lower_body(then_body)?;
                    self.conds.pop();
                    self.lo.lets = saved_lets.clone();
                    if !else_body.is_empty() {
                        self.conds.push((
                            self.depth(),
                            Expr::Unary(itg_gsa::UnOp::Not, Box::new(c)),
                        ));
                        self.lower_body(else_body)?;
                        self.conds.pop();
                        self.lo.lets = saved_lets;
                    }
                }
                Stmt::Accumulate { target, expr } => {
                    let value = self.lo.lower_expr(expr)?;
                    let action = match target {
                        Place::VertexAttr { var, attr, .. } => {
                            let pos = self.lo.vertex_pos(var).expect("checked var");
                            let accm = self.lo.symbols.accm_index(attr).expect("checked accm");
                            let info = &self.lo.symbols.accms[accm];
                            WalkAction {
                                depth: self.depth(),
                                cond: self.residual_cond(),
                                target: ActionTarget::VertexAccm { pos, accm },
                                op: info.op,
                                prim: info.prim,
                                value: self
                                    .lo
                                    .cast_to(value, ValueType::Prim(info.prim)),
                                start_invariant: false,
                            }
                        }
                        Place::Global { name, .. } => {
                            let idx = self.lo.symbols.global_index(name).expect("checked");
                            let info = &self.lo.symbols.globals[idx];
                            WalkAction {
                                depth: self.depth(),
                                cond: self.residual_cond(),
                                target: ActionTarget::Global(idx),
                                op: info.op,
                                prim: info.prim,
                                value: self
                                    .lo
                                    .cast_to(value, ValueType::Prim(info.prim)),
                                start_invariant: false,
                            }
                        }
                    };
                    self.flush_action(action);
                }
                Stmt::Assign { .. } => {
                    unreachable!("checker rejects assignment in Traverse")
                }
            }
        }
        Ok(())
    }
}

/// Lower the three UDFs of a checked program into executable plans
/// (Traverse into walk queries; Initialize/Update into vertex programs).
pub fn lower(
    checked: &CheckedProgram,
) -> Result<(VertexProgram, TraversePlan, VertexProgram), LngaError> {
    let init = lower_vertex_program(&checked.symbols, &checked.program.initialize, Ctx::Initialize)?;
    let update = lower_vertex_program(&checked.symbols, &checked.program.update, Ctx::Update)?;

    let mut tl = TraverseLowerer {
        lo: Lowerer::new(&checked.symbols, Ctx::Traverse, &checked.program.traverse.param),
        hops: Vec::new(),
        conds: Vec::new(),
        queries: Vec::new(),
    };
    tl.lower_body(&checked.program.traverse.body)?;
    Ok((init, TraversePlan { queries: tl.queries }, update))
}
