//! Compiled expressions evaluated against walk contexts.
//!
//! After compilation (Let-bindings substituted, names resolved to indexes),
//! an expression references only: walk positions (vertex ids `u1..u_{k+1}`),
//! attributes of those vertices, global variables, and literals. The
//! evaluator is a small tree-walking interpreter; the engine's hot paths
//! pre-extract the common special cases (pure-id order constraints) so the
//! interpreter is off the innermost loop where possible.

use crate::value::{ColumnData, PrimType, Value, VertexId};
use std::fmt;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    And,
    Or,
}

impl BinOp {
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }

    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Neg,
    Not,
}

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Func {
    Abs,
    Min,
    Max,
}

/// Which adjacency direction a degree or neighbor set refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeDir {
    Out,
    In,
    /// Undirected (`nbrs` / `degree`): the graph stores mirrored edges and
    /// the out direction serves both.
    Both,
}

/// A compiled expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Lit(Value),
    /// The vertex id at walk position `pos` (0-based: u1 is position 0).
    WalkVertex(usize),
    /// Attribute `attr` (by index) of the vertex at walk position `pos`.
    /// After incrementalization, attribute reads are restricted to `pos == 0`
    /// (paper §4.4: vs_2, vs_3 drop out of P_ω).
    Attr { pos: usize, attr: usize },
    /// Global variable by index.
    Global(usize),
    /// The degree of the vertex at walk position `pos`. Degrees are
    /// logically part of the vertex stream (they change under edge
    /// mutations), so the evaluation context serves them from the view
    /// matching the stream binding.
    Degree { pos: usize, dir: EdgeDir },
    /// Element of an array attribute: `Attr[pos, attr][idx]`.
    AttrElem { pos: usize, attr: usize, idx: Box<Expr> },
    /// The number of vertices `V` (used e.g. by PageRank's `0.15 / V`).
    NumVertices,
    Unary(UnOp, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    Call(Func, Vec<Expr>),
    /// Numeric cast inserted by the type checker.
    Cast(PrimType, Box<Expr>),
}

impl Expr {
    pub fn lit_long(v: i64) -> Expr {
        Expr::Lit(Value::Long(v))
    }

    pub fn lit_double(v: f64) -> Expr {
        Expr::Lit(Value::Double(v))
    }

    pub fn lit_bool(v: bool) -> Expr {
        Expr::Lit(Value::Bool(v))
    }

    pub fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary(op, Box::new(l), Box::new(r))
    }

    /// The conjunction of two optional predicates.
    pub fn and_opt(a: Option<Expr>, b: Option<Expr>) -> Option<Expr> {
        match (a, b) {
            (None, x) | (x, None) => x,
            (Some(a), Some(b)) => Some(Expr::bin(BinOp::And, a, b)),
        }
    }

    /// The highest walk position this expression references, if any.
    pub fn max_walk_pos(&self) -> Option<usize> {
        let mut max: Option<usize> = None;
        self.visit(&mut |e| {
            let p = match e {
                Expr::WalkVertex(p) => Some(*p),
                Expr::Attr { pos, .. }
                | Expr::AttrElem { pos, .. }
                | Expr::Degree { pos, .. } => Some(*pos),
                _ => None,
            };
            if let Some(p) = p {
                max = Some(max.map_or(p, |m| m.max(p)));
            }
        });
        max
    }

    /// Whether the expression reads vertex attributes (not just ids) at a
    /// walk position other than u1. Such reads are rejected for incremental
    /// compilation (see DESIGN.md §4.3).
    pub fn reads_deep_attrs(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if let Expr::Attr { pos, .. }
            | Expr::AttrElem { pos, .. }
            | Expr::Degree { pos, .. } = e
            {
                if *pos > 0 {
                    found = true;
                }
            }
        });
        found
    }

    /// Pre-order visit of the expression tree.
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Unary(_, e) | Expr::Cast(_, e) => e.visit(f),
            Expr::Binary(_, l, r) => {
                l.visit(f);
                r.visit(f);
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.visit(f);
                }
            }
            Expr::AttrElem { idx, .. } => idx.visit(f),
            _ => {}
        }
    }
}

/// Evaluation context: resolves walk positions, attributes, and globals.
pub trait EvalContext {
    /// Vertex id at walk position `pos`.
    fn walk_vertex(&self, pos: usize) -> VertexId;
    /// Attribute value of the vertex at walk position `pos`.
    fn vertex_attr(&self, pos: usize, attr: usize) -> Value;
    /// Global variable value.
    fn global(&self, idx: usize) -> Value;
    /// `V`, the number of vertices.
    fn num_vertices(&self) -> u64;
    /// Degree of the vertex at walk position `pos` (from the view matching
    /// the position's stream binding). Contexts without graph access keep
    /// the default.
    fn vertex_degree(&self, _pos: usize, _dir: EdgeDir) -> i64 {
        panic!("this evaluation context has no degree information")
    }
    /// The typed column attribute `attr` of walk position 0 is stored in,
    /// and its row: what a kernel ([`crate::kernel`]) reads.
    fn column(&self, _attr: usize) -> (&ColumnData, usize) {
        panic!("this evaluation context has no columns")
    }
}

/// Errors raised during evaluation (type errors are normally prevented by
/// the type checker; these defend the algebra layer when driven directly).
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    TypeMismatch(&'static str),
    DivisionByZero,
    IndexOutOfBounds { idx: i64, len: usize },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::TypeMismatch(what) => write!(f, "type mismatch: {what}"),
            EvalError::DivisionByZero => write!(f, "division by zero"),
            EvalError::IndexOutOfBounds { idx, len } => {
                write!(f, "array index {idx} out of bounds (len {len})")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// Evaluate `expr` against `ctx`.
pub fn eval(expr: &Expr, ctx: &dyn EvalContext) -> Result<Value, EvalError> {
    match expr {
        Expr::Lit(v) => Ok(v.clone()),
        Expr::WalkVertex(pos) => Ok(Value::Long(ctx.walk_vertex(*pos) as i64)),
        Expr::Attr { pos, attr } => Ok(ctx.vertex_attr(*pos, *attr)),
        Expr::Global(idx) => Ok(ctx.global(*idx)),
        Expr::Degree { pos, dir } => Ok(Value::Long(ctx.vertex_degree(*pos, *dir))),
        Expr::NumVertices => Ok(Value::Long(ctx.num_vertices() as i64)),
        Expr::AttrElem { pos, attr, idx } => {
            let arr = ctx.vertex_attr(*pos, *attr);
            let i = eval(idx, ctx)?
                .as_i64()
                .ok_or(EvalError::TypeMismatch("array index must be integer"))?;
            match arr {
                Value::Array(v) => v
                    .get(i as usize)
                    .cloned()
                    .ok_or(EvalError::IndexOutOfBounds { idx: i, len: v.len() }),
                _ => Err(EvalError::TypeMismatch("indexing a non-array attribute")),
            }
        }
        Expr::Unary(op, e) => {
            let v = eval(e, ctx)?;
            match op {
                UnOp::Not => v
                    .as_bool()
                    .map(|b| Value::Bool(!b))
                    .ok_or(EvalError::TypeMismatch("! on non-bool")),
                UnOp::Neg => match v {
                    Value::Int(x) => Ok(Value::Int(x.wrapping_neg())),
                    Value::Long(x) => Ok(Value::Long(x.wrapping_neg())),
                    Value::Float(x) => Ok(Value::Float(-x)),
                    Value::Double(x) => Ok(Value::Double(-x)),
                    _ => Err(EvalError::TypeMismatch("unary - on non-numeric")),
                },
            }
        }
        Expr::Binary(op, l, r) => {
            if op.is_logical() {
                // Short-circuit evaluation.
                let lv = eval(l, ctx)?
                    .as_bool()
                    .ok_or(EvalError::TypeMismatch("logical op on non-bool"))?;
                return match (op, lv) {
                    (BinOp::And, false) => Ok(Value::Bool(false)),
                    (BinOp::Or, true) => Ok(Value::Bool(true)),
                    _ => eval(r, ctx)?
                        .as_bool()
                        .map(Value::Bool)
                        .ok_or(EvalError::TypeMismatch("logical op on non-bool")),
                };
            }
            let lv = eval(l, ctx)?;
            let rv = eval(r, ctx)?;
            if op.is_comparison() {
                let c = lv.total_cmp(&rv);
                let b = match op {
                    BinOp::Lt => c.is_lt(),
                    BinOp::Le => c.is_le(),
                    BinOp::Gt => c.is_gt(),
                    BinOp::Ge => c.is_ge(),
                    BinOp::Eq => c.is_eq(),
                    BinOp::Ne => c.is_ne(),
                    _ => unreachable!(),
                };
                return Ok(Value::Bool(b));
            }
            arith(*op, &lv, &rv)
        }
        // Arguments evaluate in order, straight into locals: Update runs a
        // call per row, and a `Vec` of arguments is an allocation per row.
        Expr::Call(f, args) => {
            let a = eval(&args[0], ctx)?;
            match f {
                Func::Abs => match a {
                    Value::Int(x) => Ok(Value::Int(x.wrapping_abs())),
                    Value::Long(x) => Ok(Value::Long(x.wrapping_abs())),
                    Value::Float(x) => Ok(Value::Float(x.abs())),
                    Value::Double(x) => Ok(Value::Double(x.abs())),
                    _ => Err(EvalError::TypeMismatch("Abs on non-numeric")),
                },
                Func::Min => {
                    let b = eval(&args[1], ctx)?;
                    Ok(if a.total_cmp(&b).is_le() { a } else { b })
                }
                Func::Max => {
                    let b = eval(&args[1], ctx)?;
                    Ok(if a.total_cmp(&b).is_ge() { a } else { b })
                }
            }
        }
        Expr::Cast(ty, e) => {
            let v = eval(e, ctx)?;
            v.cast(*ty)
                .ok_or(EvalError::TypeMismatch("invalid cast"))
        }
    }
}

fn arith(op: BinOp, l: &Value, r: &Value) -> Result<Value, EvalError> {
    // Integer arithmetic when both sides are integers; float otherwise.
    //
    // Division and modulo are TOTAL: x/0 = 0 and x%0 = 0 (floats too).
    // This is a deliberate language semantic, not a convenience: the
    // incremental decomposition of Rule ⑦ evaluates each sub-query term
    // independently, and a term can pair a new attribute image (e.g. a
    // degree that dropped to zero after deletions) with old edges. The
    // offending terms cancel exactly in the union, but only if each is
    // well-defined on its own — totalizing division makes them so.
    // Integer arithmetic wraps, `i64::MIN / -1` included.
    if let (Some(a), Some(b)) = (l.as_i64(), r.as_i64()) {
        let v = match op {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            BinOp::Mod => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            _ => return Err(EvalError::TypeMismatch("non-arithmetic operator")),
        };
        // Preserve Int width when both inputs are Int.
        return Ok(match (l, r) {
            (Value::Int(_), Value::Int(_)) => Value::Int(v as i32),
            _ => Value::Long(v),
        });
    }
    let a = l.as_f64().ok_or(EvalError::TypeMismatch("arith on non-numeric"))?;
    let b = r.as_f64().ok_or(EvalError::TypeMismatch("arith on non-numeric"))?;
    let v = match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => {
            if b == 0.0 {
                0.0
            } else {
                a / b
            }
        }
        BinOp::Mod => {
            if b == 0.0 {
                0.0
            } else {
                a % b
            }
        }
        _ => return Err(EvalError::TypeMismatch("non-arithmetic operator")),
    };
    // Preserve Float width when neither side is Double.
    Ok(match (l, r) {
        (Value::Double(_), _) | (_, Value::Double(_)) => Value::Double(v),
        _ => Value::Float(v as f32),
    })
}

/// A context over plain id rows with no attributes or globals — used by the
/// algebra reference layer where walks are tuples of ids.
pub struct IdRowContext<'a> {
    pub ids: &'a [VertexId],
}

impl EvalContext for IdRowContext<'_> {
    fn walk_vertex(&self, pos: usize) -> VertexId {
        self.ids[pos]
    }

    fn vertex_attr(&self, _pos: usize, _attr: usize) -> Value {
        panic!("IdRowContext has no attributes")
    }

    fn global(&self, _idx: usize) -> Value {
        panic!("IdRowContext has no globals")
    }

    fn num_vertices(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TestCtx;
    impl EvalContext for TestCtx {
        fn walk_vertex(&self, pos: usize) -> VertexId {
            (pos as u64 + 1) * 10
        }
        fn vertex_attr(&self, pos: usize, attr: usize) -> Value {
            match attr {
                0 => Value::Double(0.5 * (pos + 1) as f64),
                1 => Value::Int(4),
                _ => Value::Array(vec![Value::Long(7), Value::Long(8)]),
            }
        }
        fn global(&self, _idx: usize) -> Value {
            Value::Long(100)
        }
        fn num_vertices(&self) -> u64 {
            8
        }
    }

    #[test]
    fn pagerank_value_expression() {
        // u.rank / u.out_degree where rank=0.5 and out_degree=4.
        let e = Expr::bin(
            BinOp::Div,
            Expr::Attr { pos: 0, attr: 0 },
            Expr::Attr { pos: 0, attr: 1 },
        );
        assert_eq!(eval(&e, &TestCtx).unwrap(), Value::Double(0.125));
    }

    #[test]
    fn order_constraint() {
        // u1 < u2 over walk (10, 20).
        let e = Expr::bin(BinOp::Lt, Expr::WalkVertex(0), Expr::WalkVertex(1));
        assert_eq!(eval(&e, &TestCtx).unwrap(), Value::Bool(true));
        let e = Expr::bin(BinOp::Eq, Expr::WalkVertex(2), Expr::WalkVertex(0));
        assert_eq!(eval(&e, &TestCtx).unwrap(), Value::Bool(false));
    }

    #[test]
    fn teleport_term_uses_num_vertices() {
        // 0.15 / V
        let e = Expr::bin(BinOp::Div, Expr::lit_double(0.15), Expr::NumVertices);
        assert_eq!(eval(&e, &TestCtx).unwrap(), Value::Double(0.15 / 8.0));
    }

    #[test]
    fn short_circuit_avoids_rhs_error() {
        // false AND (1/0 == 1) must not evaluate the division.
        let div = Expr::bin(BinOp::Div, Expr::lit_long(1), Expr::lit_long(0));
        let e = Expr::bin(
            BinOp::And,
            Expr::lit_bool(false),
            Expr::bin(BinOp::Eq, div, Expr::lit_long(1)),
        );
        assert_eq!(eval(&e, &TestCtx).unwrap(), Value::Bool(false));
    }

    #[test]
    fn division_is_total() {
        // x/0 = 0 by language definition (required for the Rule ⑦ terms
        // to be individually well-defined; see `arith`).
        let e = Expr::bin(BinOp::Div, Expr::lit_long(1), Expr::lit_long(0));
        assert_eq!(eval(&e, &TestCtx).unwrap(), Value::Long(0));
        let e = Expr::bin(BinOp::Div, Expr::lit_double(1.0), Expr::lit_double(0.0));
        assert_eq!(eval(&e, &TestCtx).unwrap(), Value::Double(0.0));
        let e = Expr::bin(BinOp::Mod, Expr::lit_long(7), Expr::lit_long(0));
        assert_eq!(eval(&e, &TestCtx).unwrap(), Value::Long(0));
    }

    #[test]
    fn array_indexing() {
        let e = Expr::AttrElem {
            pos: 0,
            attr: 2,
            idx: Box::new(Expr::lit_long(1)),
        };
        assert_eq!(eval(&e, &TestCtx).unwrap(), Value::Long(8));
        let oob = Expr::AttrElem {
            pos: 0,
            attr: 2,
            idx: Box::new(Expr::lit_long(5)),
        };
        assert!(matches!(
            eval(&oob, &TestCtx),
            Err(EvalError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn deep_attr_detection() {
        let shallow = Expr::Attr { pos: 0, attr: 0 };
        let deep = Expr::bin(
            BinOp::Add,
            Expr::Attr { pos: 0, attr: 0 },
            Expr::Attr { pos: 2, attr: 0 },
        );
        assert!(!shallow.reads_deep_attrs());
        assert!(deep.reads_deep_attrs());
        assert_eq!(deep.max_walk_pos(), Some(2));
    }

    #[test]
    fn abs_and_minmax() {
        let e = Expr::Call(Func::Abs, vec![Expr::lit_double(-2.0)]);
        assert_eq!(eval(&e, &TestCtx).unwrap(), Value::Double(2.0));
        let e = Expr::Call(Func::Min, vec![Expr::lit_long(3), Expr::lit_long(9)]);
        assert_eq!(eval(&e, &TestCtx).unwrap(), Value::Long(3));
    }

    #[test]
    fn integer_arithmetic_wraps() {
        let min = Expr::lit_long(i64::MIN);
        let cases = [
            (Expr::bin(BinOp::Div, min.clone(), Expr::lit_long(-1)), i64::MIN),
            (Expr::bin(BinOp::Mod, min.clone(), Expr::lit_long(-1)), 0),
            (Expr::Unary(UnOp::Neg, Box::new(min.clone())), i64::MIN),
            (Expr::Call(Func::Abs, vec![min]), i64::MIN),
        ];
        for (e, want) in cases {
            assert_eq!(eval(&e, &TestCtx).unwrap(), Value::Long(want), "{e:?}");
        }
        let int_min = Expr::Lit(Value::Int(i32::MIN));
        let e = Expr::bin(BinOp::Div, int_min.clone(), Expr::Lit(Value::Int(-1)));
        assert_eq!(eval(&e, &TestCtx).unwrap(), Value::Int(i32::MIN));
        let e = Expr::Unary(UnOp::Neg, Box::new(int_min.clone()));
        assert_eq!(eval(&e, &TestCtx).unwrap(), Value::Int(i32::MIN));
        let e = Expr::Call(Func::Abs, vec![int_min]);
        assert_eq!(eval(&e, &TestCtx).unwrap(), Value::Int(i32::MIN));
    }

    #[test]
    fn casts() {
        let e = Expr::Cast(PrimType::Int, Box::new(Expr::lit_double(7.9)));
        assert_eq!(eval(&e, &TestCtx).unwrap(), Value::Int(7));
    }
}
