//! The `L_NGA` type checker.
//!
//! Resolves declarations into symbol tables (non-accumulator vertex
//! attributes, vertex accumulators, global accumulators, adjacency
//! directions), checks scoping and the per-UDF statement restrictions the
//! execution semantics of Figure 4 imply:
//!
//! - **Initialize** runs once per vertex before anything else: `Let`, `If`,
//!   and `Assign` to the parameter's attributes.
//! - **Traverse** performs traversals and accumulations: `Let`, `For`,
//!   `If`, and `Accumulate` into accumulator attributes of in-scope walk
//!   vertices or into global accumulators. No direct attribute assignment —
//!   state updates happen in Update, after the global barrier.
//! - **Update** runs for vertices with touched accumulators: `Let`, `If`,
//!   and `Assign` to the parameter's attributes (including `active`). It
//!   may read the parameter's accumulator values and the globals
//!   (consistent after the barrier) but accumulates into neither: vertex
//!   accumulators reset each superstep, and a global is the fold of the
//!   superstep's Traverse contributions, settled before Update runs.
//!
//! Global variables must be accumulator-typed: they are shared by all
//! vertices and only Abelian-monoid accumulation commutes enough to be
//! deterministic under parallel execution (paper §3).

use crate::ast::*;
use crate::diag::LngaError;
use crate::token::Span;
use itg_gsa::accm::AccmOp;
use itg_gsa::expr::EdgeDir;
use itg_gsa::value::{PrimType, ValueType};
use std::collections::HashMap;

/// A resolved non-accumulator vertex attribute. Index 0 is always the
/// pre-defined `active` flag.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrInfo {
    pub name: String,
    pub ty: ValueType,
}

/// A resolved accumulator (vertex or global).
#[derive(Debug, Clone, PartialEq)]
pub struct AccmInfo {
    pub name: String,
    pub prim: PrimType,
    pub op: AccmOp,
}

/// Symbol tables produced by checking.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Symbols {
    /// Non-accumulator vertex attributes; `attrs[0]` is `active: bool`.
    pub attrs: Vec<AttrInfo>,
    /// Vertex accumulator attributes.
    pub accms: Vec<AccmInfo>,
    /// Global accumulators.
    pub globals: Vec<AccmInfo>,
    /// Declared adjacency sets: name → direction.
    pub nbrs: HashMap<String, EdgeDir>,
    /// Declared degrees: name → direction.
    pub degrees: HashMap<String, EdgeDir>,
    /// Whether any `in_*` predefined is used (the store then needs reverse
    /// adjacency even for one-shot queries).
    pub uses_in_direction: bool,
}

impl Symbols {
    pub fn attr_index(&self, name: &str) -> Option<usize> {
        self.attrs.iter().position(|a| a.name == name)
    }

    pub fn accm_index(&self, name: &str) -> Option<usize> {
        self.accms.iter().position(|a| a.name == name)
    }

    pub fn global_index(&self, name: &str) -> Option<usize> {
        self.globals.iter().position(|a| a.name == name)
    }
}

/// A checked program: the AST plus its symbol tables.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckedProgram {
    pub program: Program,
    pub symbols: Symbols,
}

/// Types during checking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Ty {
    Prim(PrimType),
    Array(PrimType, usize),
    /// A vertex variable (usable in id comparisons and as a For source).
    Vertex,
}

impl Ty {
    fn is_numeric(self) -> bool {
        match self {
            Ty::Prim(p) => p.is_numeric(),
            Ty::Vertex => true, // vertex ids compare as longs
            Ty::Array(..) => false,
        }
    }

    fn is_bool(self) -> bool {
        matches!(self, Ty::Prim(PrimType::Bool))
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum UdfKind {
    Initialize,
    Traverse,
    Update,
}

/// Check a parsed program, producing its symbol tables.
pub fn check(program: Program) -> Result<CheckedProgram, LngaError> {
    let symbols = build_symbols(&program)?;
    let cx = Checker { symbols: &symbols };
    cx.check_udf(&program.initialize, UdfKind::Initialize)?;
    cx.check_udf(&program.traverse, UdfKind::Traverse)?;
    cx.check_udf(&program.update, UdfKind::Update)?;
    Ok(CheckedProgram { program, symbols })
}

fn build_symbols(program: &Program) -> Result<Symbols, LngaError> {
    let mut sym = Symbols {
        attrs: vec![AttrInfo {
            name: "active".to_string(),
            ty: ValueType::Prim(PrimType::Bool),
        }],
        ..Symbols::default()
    };
    let mut saw_active = false;
    let mut names: HashMap<&str, Span> = HashMap::new();
    for d in &program.vertex_decls {
        if let Some(prev) = names.insert(&d.name, d.span) {
            let _ = prev;
            return Err(LngaError::check(
                d.span,
                format!("duplicate vertex attribute `{}`", d.name),
            ));
        }
        match &d.ty {
            DeclType::Predefined(p) => {
                match p {
                    Predefined::Id => {}
                    Predefined::Active => saw_active = true,
                    p if p.is_nbrs() => {
                        let dir = p.dir().unwrap();
                        if dir == EdgeDir::In {
                            sym.uses_in_direction = true;
                        }
                        sym.nbrs.insert(d.name.clone(), dir);
                    }
                    p if p.is_degree() => {
                        let dir = p.dir().unwrap();
                        if dir == EdgeDir::In {
                            sym.uses_in_direction = true;
                        }
                        sym.degrees.insert(d.name.clone(), dir);
                    }
                    _ => unreachable!(),
                }
            }
            DeclType::Prim(p) => sym.attrs.push(AttrInfo {
                name: d.name.clone(),
                ty: ValueType::Prim(*p),
            }),
            DeclType::Array(p, n) => sym.attrs.push(AttrInfo {
                name: d.name.clone(),
                ty: ValueType::Array(*p, *n),
            }),
            DeclType::Accm(p, op) => sym.accms.push(accm_info(d, *p, *op)?),
        }
    }
    if !saw_active {
        return Err(LngaError::check(
            Span::default(),
            "the pre-defined `active` vertex datum must be declared",
        ));
    }
    for d in &program.global_decls {
        match &d.ty {
            DeclType::Accm(p, op) => sym.globals.push(accm_info(d, *p, *op)?),
            _ => {
                return Err(LngaError::check(
                    d.span,
                    format!(
                        "global variable `{}` must be an accumulator type \
                         (Accm<prim, OP>)",
                        d.name
                    ),
                ))
            }
        }
    }
    Ok(sym)
}

/// An accumulator declaration the engine can fold: SUM and PROD over the
/// numeric prims, OR and AND over `bool`, MIN and MAX over every prim.
fn accm_info(d: &AttrDecl, prim: PrimType, op: AccmOp) -> Result<AccmInfo, LngaError> {
    let (name, numeric) = (d.name.clone(), prim.is_numeric());
    let domain = match op {
        AccmOp::Sum | AccmOp::Prod if !numeric => "int, long, float or double",
        AccmOp::Or | AccmOp::And if numeric => "bool",
        _ => return Ok(AccmInfo { name, prim, op }),
    };
    let msg = format!("`{name}: Accm<{prim}, {op}>`: {op} folds {domain} values only");
    Err(LngaError::check(d.span, msg))
}

struct Checker<'a> {
    symbols: &'a Symbols,
}

/// Lexical scope: vertex variables (walk positions) and Let bindings.
#[derive(Debug, Clone, Default)]
struct Scope {
    vertex_vars: Vec<String>,
    lets: HashMap<String, Ty>,
}

impl Scope {
    fn vertex_pos(&self, name: &str) -> Option<usize> {
        self.vertex_vars.iter().position(|v| v == name)
    }
}

impl Checker<'_> {
    fn check_udf(&self, udf: &Udf, kind: UdfKind) -> Result<(), LngaError> {
        let mut scope = Scope::default();
        scope.vertex_vars.push(udf.param.clone());
        self.check_block(&udf.body, kind, &mut scope)
    }

    fn check_block(
        &self,
        body: &[Stmt],
        kind: UdfKind,
        scope: &mut Scope,
    ) -> Result<(), LngaError> {
        for stmt in body {
            self.check_stmt(stmt, kind, scope)?;
        }
        Ok(())
    }

    fn check_stmt(&self, stmt: &Stmt, kind: UdfKind, scope: &mut Scope) -> Result<(), LngaError> {
        match stmt {
            Stmt::Let { name, expr, span } => {
                if scope.vertex_pos(name).is_some() {
                    return Err(LngaError::check(
                        *span,
                        format!("`{name}` shadows a vertex variable"),
                    ));
                }
                let ty = self.type_of(expr, kind, scope)?;
                scope.lets.insert(name.clone(), ty);
                Ok(())
            }
            Stmt::Assign { target, expr } => {
                if kind == UdfKind::Traverse {
                    return Err(LngaError::check(
                        place_span(target),
                        "Traverse may not assign attributes; move state \
                         updates to Update (they apply after the barrier)",
                    ));
                }
                let ty = self.type_of(expr, kind, scope)?;
                match target {
                    Place::VertexAttr { var, attr, span } => {
                        if scope.vertex_pos(var) != Some(0) {
                            return Err(LngaError::check(
                                *span,
                                format!(
                                    "only the UDF parameter's attributes can \
                                     be assigned, not `{var}`"
                                ),
                            ));
                        }
                        let Some(idx) = self.symbols.attr_index(attr) else {
                            return Err(LngaError::check(
                                *span,
                                format!("`{attr}` is not an assignable vertex attribute"),
                            ));
                        };
                        let want = self.symbols.attrs[idx].ty;
                        self.require_castable(ty, want, *span)
                    }
                    Place::Global { name, span } => Err(LngaError::check(
                        *span,
                        format!(
                            "global `{name}` cannot be assigned; globals are \
                             accumulators (use .Accumulate)"
                        ),
                    )),
                }
            }
            Stmt::Accumulate { target, expr } => {
                if kind == UdfKind::Initialize {
                    return Err(LngaError::check(
                        place_span(target),
                        "Initialize may not accumulate",
                    ));
                }
                let ty = self.type_of(expr, kind, scope)?;
                match target {
                    Place::VertexAttr { var, attr, span } => {
                        if kind == UdfKind::Update {
                            return Err(LngaError::check(
                                *span,
                                "Update may not accumulate into vertex \
                                 accumulators (they reset each superstep)",
                            ));
                        }
                        if scope.vertex_pos(var).is_none() {
                            return Err(LngaError::check(
                                *span,
                                format!("unknown vertex variable `{var}`"),
                            ));
                        }
                        let Some(idx) = self.symbols.accm_index(attr) else {
                            return Err(LngaError::check(
                                *span,
                                format!("`{attr}` is not an accumulator attribute"),
                            ));
                        };
                        let want = ValueType::Prim(self.symbols.accms[idx].prim);
                        self.require_castable(ty, want, *span)
                    }
                    Place::Global { name, span } => {
                        if kind == UdfKind::Update {
                            return Err(LngaError::check(
                                *span,
                                format!(
                                    "Update may not accumulate into global \
                                     `{name}` (globals are folded from \
                                     Traverse contributions only)"
                                ),
                            ));
                        }
                        let Some(idx) = self.symbols.global_index(name) else {
                            return Err(LngaError::check(
                                *span,
                                format!("unknown global accumulator `{name}`"),
                            ));
                        };
                        let want = ValueType::Prim(self.symbols.globals[idx].prim);
                        self.require_castable(ty, want, *span)
                    }
                }
            }
            Stmt::For {
                var,
                source_var,
                source_attr,
                where_clause,
                body,
                span,
            } => {
                if kind != UdfKind::Traverse {
                    return Err(LngaError::check(
                        *span,
                        "For loops (graph traversal) are only allowed in Traverse",
                    ));
                }
                if scope.vertex_pos(source_var).is_none() {
                    return Err(LngaError::check(
                        *span,
                        format!("unknown vertex variable `{source_var}`"),
                    ));
                }
                if !self.symbols.nbrs.contains_key(source_attr) {
                    return Err(LngaError::check(
                        *span,
                        format!(
                            "`{source_attr}` is not a declared adjacency list \
                             (nbrs / out_nbrs / in_nbrs)"
                        ),
                    ));
                }
                if scope.vertex_pos(var).is_some() || scope.lets.contains_key(var) {
                    return Err(LngaError::check(
                        *span,
                        format!("`{var}` is already bound"),
                    ));
                }
                scope.vertex_vars.push(var.clone());
                if let Some(w) = where_clause {
                    let ty = self.type_of(w, kind, scope)?;
                    if !ty.is_bool() {
                        return Err(LngaError::check(
                            w.span(),
                            "Where condition must be boolean",
                        ));
                    }
                }
                // Lets bound inside the loop do not escape it.
                let saved_lets = scope.lets.clone();
                self.check_block(body, kind, scope)?;
                scope.lets = saved_lets;
                scope.vertex_vars.pop();
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let ty = self.type_of(cond, kind, scope)?;
                if !ty.is_bool() {
                    return Err(LngaError::check(
                        cond.span(),
                        "If condition must be boolean",
                    ));
                }
                let saved = scope.lets.clone();
                self.check_block(then_body, kind, scope)?;
                scope.lets = saved.clone();
                self.check_block(else_body, kind, scope)?;
                scope.lets = saved;
                Ok(())
            }
        }
    }

    fn require_castable(&self, got: Ty, want: ValueType, span: Span) -> Result<(), LngaError> {
        let ok = match (got, want) {
            (Ty::Prim(PrimType::Bool), ValueType::Prim(PrimType::Bool)) => true,
            (Ty::Prim(p), ValueType::Prim(w)) => p.is_numeric() && w.is_numeric(),
            (Ty::Array(p, n), ValueType::Array(w, m)) => p == w && n == m,
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(LngaError::check(
                span,
                format!("cannot store a {got:?} into a `{want}` slot"),
            ))
        }
    }

    fn type_of(&self, expr: &AstExpr, kind: UdfKind, scope: &Scope) -> Result<Ty, LngaError> {
        use itg_gsa::expr::BinOp;
        match expr {
            AstExpr::IntLit(_) => Ok(Ty::Prim(PrimType::Long)),
            AstExpr::FloatLit(_) => Ok(Ty::Prim(PrimType::Double)),
            AstExpr::BoolLit(_) => Ok(Ty::Prim(PrimType::Bool)),
            AstExpr::Ident(name, span) => {
                if let Some(ty) = scope.lets.get(name) {
                    return Ok(*ty);
                }
                if scope.vertex_pos(name).is_some() {
                    return Ok(Ty::Vertex);
                }
                if name == "V" {
                    return Ok(Ty::Prim(PrimType::Long));
                }
                if let Some(idx) = self.symbols.global_index(name) {
                    if kind != UdfKind::Update {
                        return Err(LngaError::check(
                            *span,
                            format!(
                                "global `{name}` can only be read in Update \
                                 (its value is consistent after the barrier)"
                            ),
                        ));
                    }
                    return Ok(Ty::Prim(self.symbols.globals[idx].prim));
                }
                Err(LngaError::check(*span, format!("unknown name `{name}`")))
            }
            AstExpr::Attr { var, attr, span } => {
                let Some(pos) = scope.vertex_pos(var) else {
                    return Err(LngaError::check(
                        *span,
                        format!("unknown vertex variable `{var}`"),
                    ));
                };
                if attr == "id" {
                    return Ok(Ty::Prim(PrimType::Long));
                }
                if let Some(_dir) = self.symbols.degrees.get(attr) {
                    return Ok(Ty::Prim(PrimType::Long));
                }
                if self.symbols.nbrs.contains_key(attr) {
                    return Err(LngaError::check(
                        *span,
                        format!("`{attr}` is an adjacency list; it can only be a For source"),
                    ));
                }
                if let Some(idx) = self.symbols.attr_index(attr) {
                    return match self.symbols.attrs[idx].ty {
                        ValueType::Prim(p) => Ok(Ty::Prim(p)),
                        ValueType::Array(p, n) => Ok(Ty::Array(p, n)),
                    };
                }
                if let Some(idx) = self.symbols.accm_index(attr) {
                    // Accumulator reads: only the parameter's accumulators,
                    // and only in Update (after the barrier).
                    if kind != UdfKind::Update || pos != 0 {
                        return Err(LngaError::check(
                            *span,
                            format!(
                                "accumulator `{attr}` can only be read in \
                                 Update on the UDF parameter"
                            ),
                        ));
                    }
                    return Ok(Ty::Prim(self.symbols.accms[idx].prim));
                }
                Err(LngaError::check(
                    *span,
                    format!("unknown vertex attribute `{attr}`"),
                ))
            }
            AstExpr::Index {
                var,
                attr,
                idx,
                span,
            } => {
                let base = self.type_of(
                    &AstExpr::Attr {
                        var: var.clone(),
                        attr: attr.clone(),
                        span: *span,
                    },
                    kind,
                    scope,
                )?;
                let it = self.type_of(idx, kind, scope)?;
                if !matches!(it, Ty::Prim(PrimType::Int | PrimType::Long) | Ty::Vertex) {
                    return Err(LngaError::check(
                        *span,
                        format!("array index must be an `int` or `long`, not {it:?}"),
                    ));
                }
                match base {
                    Ty::Array(p, _) => Ok(Ty::Prim(p)),
                    _ => Err(LngaError::check(
                        *span,
                        format!("`{attr}` is not an array attribute"),
                    )),
                }
            }
            AstExpr::Unary(op, e) => {
                let ty = self.type_of(e, kind, scope)?;
                match op {
                    itg_gsa::expr::UnOp::Not if ty.is_bool() => Ok(ty),
                    itg_gsa::expr::UnOp::Neg if ty.is_numeric() => Ok(ty),
                    _ => Err(LngaError::check(
                        e.span(),
                        format!("unary {op:?} applied to {ty:?}"),
                    )),
                }
            }
            AstExpr::Binary(op, l, r) => {
                let lt = self.type_of(l, kind, scope)?;
                let rt = self.type_of(r, kind, scope)?;
                if op.is_logical() {
                    if lt.is_bool() && rt.is_bool() {
                        return Ok(Ty::Prim(PrimType::Bool));
                    }
                    return Err(LngaError::check(l.span(), "logical op needs booleans"));
                }
                if op.is_comparison() {
                    let comparable = (lt.is_numeric() && rt.is_numeric())
                        || (lt.is_bool() && rt.is_bool() && matches!(op, BinOp::Eq | BinOp::Ne));
                    if comparable {
                        return Ok(Ty::Prim(PrimType::Bool));
                    }
                    return Err(LngaError::check(
                        l.span(),
                        format!("cannot compare {lt:?} with {rt:?}"),
                    ));
                }
                // Arithmetic.
                match (lt, rt) {
                    (Ty::Prim(a), Ty::Prim(b)) if a.is_numeric() && b.is_numeric() => a
                        .promote(b)
                        .map(Ty::Prim)
                        .ok_or_else(|| LngaError::check(l.span(), "invalid numeric promotion")),
                    (Ty::Vertex, Ty::Prim(b)) if b.is_numeric() => Ok(Ty::Prim(PrimType::Long)),
                    (Ty::Prim(a), Ty::Vertex) if a.is_numeric() => Ok(Ty::Prim(PrimType::Long)),
                    _ => Err(LngaError::check(
                        l.span(),
                        format!("arithmetic over {lt:?} and {rt:?}"),
                    )),
                }
            }
            AstExpr::Call { func, args, span } => {
                let arity = match func.as_str() {
                    "Abs" => 1,
                    "Min" | "Max" => 2,
                    other => {
                        return Err(LngaError::check(
                            *span,
                            format!("unknown function `{other}`"),
                        ))
                    }
                };
                if args.len() != arity {
                    return Err(LngaError::check(
                        *span,
                        format!("`{func}` takes {arity} argument(s), got {}", args.len()),
                    ));
                }
                // `Abs` keeps its argument's type; `Min`/`Max` promote the
                // pair as arithmetic does (a vertex id is a `long`).
                let mut result: Option<PrimType> = None;
                for a in args {
                    let p = match self.type_of(a, kind, scope)? {
                        Ty::Prim(p) if p.is_numeric() => p,
                        Ty::Vertex => PrimType::Long,
                        _ => return Err(LngaError::check(a.span(), "numeric argument required")),
                    };
                    result = Some(result.map_or(p, |r| r.promote(p).unwrap_or(p)));
                }
                Ok(Ty::Prim(result.unwrap_or(PrimType::Long)))
            }
        }
    }
}

fn place_span(p: &Place) -> Span {
    match p {
        Place::VertexAttr { span, .. } | Place::Global { span, .. } => *span,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check_src(src: &str) -> Result<CheckedProgram, LngaError> {
        check(parse(src).unwrap())
    }

    const PR: &str = r#"
        Vertex (id, active, out_nbrs, out_degree,
                rank: float, sum: Accm<float, SUM>)
        Initialize (u): { u.rank = 1; u.active = true; }
        Traverse (u): {
            Let val = u.rank / u.out_degree;
            For v in u.out_nbrs { v.sum.Accumulate(val); }
        }
        Update (u): {
            Let val = 0.15 / V + 0.85 * u.sum;
            If (Abs(val - u.rank) > 0.001) { u.rank = val; u.active = true; }
        }
    "#;

    #[test]
    fn pagerank_checks_and_resolves() {
        let c = check_src(PR).unwrap();
        assert_eq!(c.symbols.attrs.len(), 2); // active, rank
        assert_eq!(c.symbols.attr_index("active"), Some(0));
        assert_eq!(c.symbols.attr_index("rank"), Some(1));
        assert_eq!(c.symbols.accms.len(), 1);
        assert_eq!(c.symbols.accms[0].op, AccmOp::Sum);
        assert_eq!(c.symbols.nbrs["out_nbrs"], EdgeDir::Out);
        assert_eq!(c.symbols.degrees["out_degree"], EdgeDir::Out);
        assert!(!c.symbols.uses_in_direction);
    }

    #[test]
    fn traverse_may_not_assign() {
        let err = check_src(
            "Vertex (id, active, nbrs, x: long)
             Initialize (u): { }
             Traverse (u): { u.x = 1; }
             Update (u): { }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("Traverse may not assign"));
    }

    #[test]
    fn update_may_not_traverse() {
        let err = check_src(
            "Vertex (id, active, nbrs)
             Initialize (u): { }
             Traverse (u): { }
             Update (u): { For v in u.nbrs { } }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("only allowed in Traverse"));
    }

    #[test]
    fn globals_must_be_accumulators() {
        let err = check_src(
            "Vertex (id, active, nbrs)
             GlobalVariable (x: long)
             Initialize (u): { }
             Traverse (u): { }
             Update (u): { }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("must be an accumulator"));
    }

    #[test]
    fn accumulator_reads_restricted_to_update() {
        let err = check_src(
            "Vertex (id, active, nbrs, sum: Accm<double, SUM>)
             Initialize (u): { }
             Traverse (u): {
                For v in u.nbrs { v.sum.Accumulate(u.sum); }
             }
             Update (u): { }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("only be read in Update"));
    }

    #[test]
    fn for_source_must_be_adjacency() {
        let err = check_src(
            "Vertex (id, active, nbrs, x: long)
             Initialize (u): { }
             Traverse (u): { For v in u.x { } }
             Update (u): { }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("not a declared adjacency"));
    }

    #[test]
    fn vertex_id_comparisons_allowed() {
        let c = check_src(
            "Vertex (id, active, nbrs)
             GlobalVariable (cnts: Accm<long, SUM>)
             Initialize (u1): { u1.active = true; }
             Traverse (u1): {
                For u2 in u1.nbrs Where (u1 < u2) {
                    For u3 in u2.nbrs Where (u2 < u3) {
                        For u4 in u3.nbrs Where (u4 == u1) { cnts.Accumulate(1); }
                    }
                }
             }
             Update (u1): { }",
        )
        .unwrap();
        assert_eq!(c.symbols.globals.len(), 1);
    }

    #[test]
    fn missing_active_rejected() {
        let err = check_src(
            "Vertex (id, nbrs)
             Initialize (u): { }
             Traverse (u): { }
             Update (u): { }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("active"));
    }

    #[test]
    fn unknown_names_rejected() {
        let err = check_src(
            "Vertex (id, active, nbrs)
             Initialize (u): { }
             Traverse (u): { For v in u.nbrs { v.bogus.Accumulate(1); } }
             Update (u): { }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("bogus"));
    }

    #[test]
    fn bool_condition_enforced() {
        let err = check_src(
            "Vertex (id, active, nbrs, x: long)
             Initialize (u): { If (u.x + 1) { u.x = 2; } }
             Traverse (u): { }
             Update (u): { }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("must be boolean"));
    }

    #[test]
    fn in_direction_detected() {
        let c = check_src(
            "Vertex (id, active, in_nbrs, out_degree)
             Initialize (u): { }
             Traverse (u): { For v in u.in_nbrs { } }
             Update (u): { }",
        )
        .unwrap();
        assert!(c.symbols.uses_in_direction);
    }

    #[test]
    fn let_scoping_in_loops() {
        // A Let bound inside a For body must not leak out.
        let err = check_src(
            "Vertex (id, active, nbrs, s: Accm<long, SUM>)
             GlobalVariable (g: Accm<long, SUM>)
             Initialize (u): { }
             Traverse (u): {
                For v in u.nbrs { Let t = 1; v.s.Accumulate(t); }
                g.Accumulate(t);
             }
             Update (u): { }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown name `t`"));
    }

    #[test]
    fn array_attrs_type_check() {
        let c = check_src(
            "Vertex (id, active, nbrs, emb: Array<float, 4>, s: Accm<float, SUM>)
             Initialize (u): { }
             Traverse (u): {
                For v in u.nbrs { v.s.Accumulate(u.emb[0] * 0.5); }
             }
             Update (u): { }",
        )
        .unwrap();
        assert_eq!(c.symbols.attrs[1].ty, ValueType::Array(PrimType::Float, 4));
    }
}
