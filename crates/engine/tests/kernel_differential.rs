//! Kernel ≡ interpreter: a seeded differential test of the typed kernels
//! (`itg_gsa::kernel`, DESIGN.md §10.4) against `itg_gsa::expr::eval`.
//!
//! It generates well-typed expressions over `long`, `double` and `bool` —
//! every operator, `Abs`/`Min`/`Max`, casts, column cells, accumulator
//! values, globals, walk ids, degrees and `V` — and vertex programs of
//! assignments and nested `If`/`Else` that read what they wrote. Operands
//! come from edge values (0, ±1, `i64::MIN`/`MAX`, ±0.0, ±∞, NaN, longs
//! past 2^53). Every expression must compile to a kernel whose value is the
//! interpreter's by `Value`'s bitwise equality; every program must compile
//! to a kernel whose writes are `vexec::execute`'s. CI runs it as the step
//! "Kernel ≡ interpreter differential".

use itg_compiler::{VStmt, VertexProgram};
use itg_engine::vexec::{execute, VertexCtx};
use itg_gsa::expr::{eval, BinOp, EdgeDir, EvalContext, Expr, Func, UnOp};
use itg_gsa::kernel::{Frame, Kernel, Schema};
use itg_gsa::value::{ColumnData, PrimType, Value, ValueType};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const LONGS: [i64; 12] = [
    0,
    1,
    -1,
    2,
    -3,
    97,
    1000,
    i64::MIN,
    i64::MAX,
    9_007_199_254_740_993,
    -9_007_199_254_740_993,
    1 << 62,
];

const DOUBLES: [f64; 13] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    0.5,
    -2.5,
    1e300,
    f64::MIN_POSITIVE,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    9_007_199_254_740_993.0,
    -1e-300,
];

/// The attributes: `active`, then a long, double, bool, long and double;
/// two accumulator values (long, double) follow them.
const ATTRS: [PrimType; 6] = [
    PrimType::Bool,
    PrimType::Long,
    PrimType::Double,
    PrimType::Bool,
    PrimType::Long,
    PrimType::Double,
];
const ACCMS: [PrimType; 2] = [PrimType::Long, PrimType::Double];
const GLOBALS: [PrimType; 3] = [PrimType::Long, PrimType::Double, PrimType::Bool];
const WALK: usize = 3;

fn schema() -> Schema {
    let columns = ATTRS
        .iter()
        .chain(&ACCMS)
        .map(|&p| ValueType::Prim(p))
        .collect();
    Schema {
        columns,
        globals: GLOBALS.to_vec(),
    }
}

fn value(rng: &mut SmallRng, ty: PrimType) -> Value {
    match ty {
        PrimType::Long if rng.gen_bool(0.7) => Value::Long(LONGS[rng.gen_range(0..LONGS.len())]),
        PrimType::Long => Value::Long(rng.gen_range(-50..50)),
        PrimType::Double if rng.gen_bool(0.7) => {
            Value::Double(DOUBLES[rng.gen_range(0..DOUBLES.len())])
        }
        PrimType::Double => Value::Double(rng.gen_range(-8..8) as f64 / 4.0),
        _ => Value::Bool(rng.gen()),
    }
}

/// One vertex (and its walk) as both evaluators read it.
struct Row {
    cols: Vec<ColumnData>,
    walk: Vec<u64>,
    globals: Vec<Value>,
    n: u64,
}

impl Row {
    fn random(rng: &mut SmallRng) -> Row {
        let col = |rng: &mut SmallRng, p: PrimType| {
            let mut c = ColumnData::zeros(ValueType::Prim(p), 1);
            c.set(0, &value(rng, p));
            c
        };
        Row {
            cols: ATTRS.iter().chain(&ACCMS).map(|&p| col(rng, p)).collect(),
            walk: (0..WALK).map(|_| rng.gen_range(0..40)).collect(),
            globals: GLOBALS.iter().map(|&p| value(rng, p)).collect(),
            n: rng.gen_range(1..100),
        }
    }
}

impl EvalContext for Row {
    fn walk_vertex(&self, pos: usize) -> u64 {
        self.walk[pos]
    }
    fn vertex_attr(&self, pos: usize, attr: usize) -> Value {
        assert_eq!(pos, 0);
        self.cols[attr].get(0)
    }
    fn global(&self, idx: usize) -> Value {
        self.globals[idx].clone()
    }
    fn num_vertices(&self) -> u64 {
        self.n
    }
    fn vertex_degree(&self, pos: usize, dir: EdgeDir) -> i64 {
        (self.walk[pos] % 7) as i64 + dir as i64
    }
    fn column(&self, attr: usize) -> (&ColumnData, usize) {
        (&self.cols[attr], 0)
    }
}

/// A random well-typed expression of type `ty` (`long`, `double` or
/// `bool`) with at most `depth` levels of operators.
fn expr(rng: &mut SmallRng, ty: PrimType, depth: u32) -> Expr {
    let cols = |p: PrimType| {
        let all = ATTRS.iter().chain(&ACCMS).enumerate();
        all.filter(move |(_, &q)| q == p)
            .map(|(i, _)| i)
            .collect::<Vec<_>>()
    };
    let pick = |rng: &mut SmallRng, xs: &[usize]| xs[rng.gen_range(0..xs.len())];
    if depth == 0 || rng.gen_bool(0.25) {
        let global = GLOBALS.iter().position(|&p| p == ty).unwrap();
        return match (ty, rng.gen_range(0..6)) {
            (_, 0) => Expr::Lit(value(rng, ty)),
            (_, 1) => Expr::Global(global),
            (PrimType::Long, 2) => Expr::WalkVertex(rng.gen_range(0..WALK)),
            (PrimType::Long, 3) => Expr::NumVertices,
            (PrimType::Long, 4) => {
                let dir = [EdgeDir::Out, EdgeDir::In, EdgeDir::Both][rng.gen_range(0..3)];
                Expr::Degree {
                    pos: rng.gen_range(0..WALK),
                    dir,
                }
            }
            _ => Expr::Attr {
                pos: 0,
                attr: pick(rng, &cols(ty)),
            },
        };
    }
    let sub = |rng: &mut SmallRng, t| Box::new(expr(rng, t, depth - 1));
    let arith = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod];
    let numeric = [PrimType::Long, PrimType::Double];
    match ty {
        PrimType::Bool => match rng.gen_range(0..6) {
            0 => {
                let op = [BinOp::And, BinOp::Or][rng.gen_range(0..2)];
                Expr::Binary(op, sub(rng, ty), sub(rng, ty))
            }
            1 => Expr::Unary(UnOp::Not, sub(rng, ty)),
            2 => {
                let f = [Func::Min, Func::Max][rng.gen_range(0..2)];
                Expr::Call(f, vec![*sub(rng, ty), *sub(rng, ty)])
            }
            3 => Expr::Cast(PrimType::Bool, sub(rng, ty)),
            _ => {
                let cmp = [
                    BinOp::Lt,
                    BinOp::Le,
                    BinOp::Gt,
                    BinOp::Ge,
                    BinOp::Eq,
                    BinOp::Ne,
                ];
                let op = cmp[rng.gen_range(0..cmp.len())];
                // Either side `long` or `double` (promoted), or both `bool`.
                let (l, r) = match rng.gen_range(0..5) {
                    0 => (PrimType::Bool, PrimType::Bool),
                    _ => (numeric[rng.gen_range(0..2)], numeric[rng.gen_range(0..2)]),
                };
                Expr::Binary(op, sub(rng, l), sub(rng, r))
            }
        },
        _ => match rng.gen_range(0..6) {
            0 => Expr::Unary(UnOp::Neg, sub(rng, ty)),
            1 => Expr::Call(Func::Abs, vec![*sub(rng, ty)]),
            2 => {
                let f = [Func::Min, Func::Max][rng.gen_range(0..2)];
                Expr::Call(f, vec![*sub(rng, ty), *sub(rng, ty)])
            }
            3 => {
                let from = numeric[rng.gen_range(0..2)];
                Expr::Cast(ty, sub(rng, from))
            }
            _ => {
                let op = arith[rng.gen_range(0..arith.len())];
                // A `double` result promotes from at least one `double`.
                let (l, r) = match (ty, rng.gen_range(0..3)) {
                    (PrimType::Long, _) => (ty, ty),
                    (_, 0) => (PrimType::Long, ty),
                    (_, 1) => (ty, PrimType::Long),
                    _ => (ty, ty),
                };
                Expr::Binary(op, sub(rng, l), sub(rng, r))
            }
        },
    }
}

/// A random vertex program over the assignable attributes.
fn stmts(rng: &mut SmallRng, depth: u32) -> Vec<VStmt> {
    (0..rng.gen_range(1..4))
        .map(|_| {
            if depth > 0 && rng.gen_bool(0.35) {
                VStmt::If {
                    cond: expr(rng, PrimType::Bool, 2),
                    then_body: stmts(rng, depth - 1),
                    else_body: if rng.gen() {
                        stmts(rng, depth - 1)
                    } else {
                        Vec::new()
                    },
                }
            } else {
                let attr = rng.gen_range(0..ATTRS.len());
                VStmt::Assign {
                    attr,
                    value: expr(rng, ATTRS[attr], 3),
                }
            }
        })
        .collect()
}

/// A kernel write as the `Value` its column stores.
fn cell(attr: usize, bits: u64) -> Value {
    let mut col = ColumnData::zeros(ValueType::Prim(ATTRS[attr]), 1);
    col.set_bits(0, bits);
    col.get(0)
}

#[test]
fn kernels_compute_what_the_interpreter_computes() {
    let (schema, mut rng) = (schema(), SmallRng::seed_from_u64(0x1735));
    let mut frame = Frame::default();
    let mut cases = 0;
    for i in 0..8_000 {
        let ty = [PrimType::Long, PrimType::Double, PrimType::Bool][i % 3];
        let e = expr(&mut rng, ty, 4);
        let k = Kernel::expr(&e, &schema).unwrap_or_else(|| panic!("no kernel for {e:?}"));
        for _ in 0..3 {
            let row = Row::random(&mut rng);
            let want = eval(&e, &row).unwrap_or_else(|err| panic!("{e:?}: {err}"));
            k.prime(&row.globals, &mut frame);
            k.run(&row, &mut frame);
            assert_eq!(k.out(&frame), want, "{e:?}\n{}", k.listing("  "));
            cases += 1;
        }
    }
    for _ in 0..4_000 {
        let program = VertexProgram {
            stmts: stmts(&mut rng, 2),
        };
        let k = program
            .kernel(&schema)
            .unwrap_or_else(|| panic!("no kernel: {program:?}"));
        for _ in 0..2 {
            let row = Row::random(&mut rng);
            let ctx = VertexCtx::new(&row, ATTRS.len());
            execute(&program, &ctx);
            k.prime(&row.globals, &mut frame);
            k.run(&row, &mut frame);
            let writes: Vec<_> = k
                .writes(&frame)
                .map(|(a, bits)| (a, cell(a, bits)))
                .collect();
            assert_eq!(
                writes,
                ctx.into_writes(),
                "{program:?}\n{}",
                k.listing("  ")
            );
            cases += 1;
        }
    }
    assert!(cases >= 10_000, "{cases} cases");
}

/// `int`, `float` and array nodes have no kernel: such an expression, and
/// a program holding one, stay on the interpreter.
#[test]
fn int_float_and_array_nodes_fall_back() {
    let schema = Schema {
        columns: vec![
            ValueType::Prim(PrimType::Bool),
            ValueType::Prim(PrimType::Int),
            ValueType::Array(PrimType::Long, 2),
        ],
        globals: vec![PrimType::Float],
    };
    let int_attr = Expr::Attr { pos: 0, attr: 1 };
    let elem = Expr::AttrElem {
        pos: 0,
        attr: 2,
        idx: Box::new(Expr::lit_long(0)),
    };
    for e in [
        int_attr.clone(),
        Expr::Global(0),
        elem,
        Expr::Cast(PrimType::Float, Box::new(Expr::lit_long(1))),
        Expr::Lit(Value::Int(3)),
        Expr::Attr { pos: 1, attr: 0 },
    ] {
        assert!(Kernel::expr(&e, &schema).is_none(), "{e:?} has a kernel");
    }
    let program = VertexProgram {
        stmts: vec![VStmt::Assign {
            attr: 1,
            value: int_attr,
        }],
    };
    assert!(program.kernel(&schema).is_none());
}

/// Through a whole session, on the Update kernel and on the interpreter (an
/// `int` slot sends Update back to it): a `long` literal past 2^53 is
/// assigned exactly — it used to round through `f64` to
/// 9007199254740992 — and `i64::MIN / -1` wraps instead of aborting.
#[test]
fn sessions_assign_exact_longs_and_wrap_division() {
    use itg_engine::{GraphInput, SessionBuilder};
    for (z, fallback) in [("", false), ("u.z = 1;", true)] {
        let src = format!(
            r#"
            Vertex (id, active, nbrs, x: long, y: long, z: int, m: Accm<long, MIN>)
            Initialize (u): {{ u.x = 9007199254740993; u.active = true; }}
            Traverse (u): {{ For v in u.nbrs {{ v.m.Accumulate(u.x); }} }}
            Update (u): {{ u.y = (0 - 9223372036854775807 - 1) / (u.id - u.id - 1); {z} }}
        "#
        );
        let ring = GraphInput::undirected((0..4).map(|v| (v, (v + 1) % 4)).collect());
        let mut s = SessionBuilder::new().from_source(&src, &ring).unwrap();
        assert_eq!(s.program.kernels.update.is_none(), fallback);
        s.run_oneshot();
        assert_eq!(s.attr_column("x").unwrap(), vec![Value::Long(9_007_199_254_740_993); 4]);
        assert_eq!(s.attr_column("y").unwrap(), vec![Value::Long(i64::MIN); 4]);
    }
}
