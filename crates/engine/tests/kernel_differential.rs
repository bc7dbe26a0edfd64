//! Kernel ≡ interpreter: a seeded differential test of the typed kernels
//! (`itg_gsa::kernel`, DESIGN.md §10.4) against `itg_gsa::expr::eval`.
//!
//! It generates well-typed expressions over all five primitives — `bool`,
//! `int`, `long`, `float`, `double` — with every operator, `Abs`, `Min`/
//! `Max` of mixed types, casts among the five, column cells, accumulator
//! values, `int`/`float` globals, elements of `Array<long, 3>` and
//! `Array<double, 2>` at any index, walk ids, degrees and `V`; and vertex
//! programs of assignments (array to array too) and nested `If`/`Else`
//! that read what they wrote. Operands come from edge values (0, ±1,
//! `i32::MIN`, `i64::MIN`/`MAX`, 3e9, ±0.0, ±∞, NaN payloads, `f32`
//! subnormals, longs past 2^53 and 2^24). Every expression must compile to
//! a kernel whose value is the interpreter's by `Value`'s bitwise equality;
//! every program must compile to a kernel whose writes are those of
//! `execute`, a statement executor over `eval`. CI runs it as the step
//! "Kernel ≡ interpreter differential".

use itg_compiler::{VStmt, VertexProgram};
use itg_engine::{GraphInput, SessionBuilder};
use itg_gsa::expr::{eval, BinOp, EdgeDir, EvalContext, Expr, Func, UnOp};
use itg_gsa::kernel::{Frame, Kernel, Schema};
use itg_gsa::value::{ColumnData, PrimType, Value, ValueType};
use itg_store::{EdgeMutation, MutationBatch};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;

const LONGS: [i64; 16] = [
    0,
    1,
    -1,
    2,
    -3,
    97,
    i32::MIN as i64,
    i32::MAX as i64 + 1,
    3_000_000_000,
    16_777_217,
    i64::MIN,
    i64::MAX,
    9_007_199_254_740_993,
    -9_007_199_254_740_993,
    1 << 62,
    1000,
];

const INTS: [i32; 9] = [0, 1, -1, 2, -3, 7, i32::MIN, i32::MAX, 16_777_217];

const DOUBLES: [f64; 16] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    0.5,
    -2.5,
    3e9,
    -3e9,
    1e300,
    f64::MIN_POSITIVE,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    9_007_199_254_740_993.0,
    0.1,
    -1e-300,
];

/// Floats by bits: ±0.0, 1, -1.5, 0.1, 3e9, the largest float, the
/// smallest normal and two subnormals, ±∞, and NaNs with payloads.
const FLOATS: [u32; 14] = [
    0x0000_0000,
    0x8000_0000,
    0x3f80_0000,
    0xbfc0_0000,
    0x3dcc_cccd,
    0x4f32_d05e,
    0x7f7f_ffff,
    0x0080_0000,
    0x0000_0001,
    0x8040_0000,
    0x7f80_0000,
    0xff80_0000,
    0x7fc0_1234,
    0xffc0_0001,
];

const NUMERIC: [PrimType; 4] = [PrimType::Int, PrimType::Long, PrimType::Float, PrimType::Double];
const LONG3: ValueType = ValueType::Array(PrimType::Long, 3);
const DOUBLE2: ValueType = ValueType::Array(PrimType::Double, 2);

/// The attributes: `active`, then each primitive twice and three arrays;
/// four accumulator values (long, double, int, float) follow them.
fn attrs() -> Vec<ValueType> {
    use PrimType::*;
    let prims = [Bool, Long, Double, Bool, Long, Double, Int, Float, Int, Float];
    let arrays = [LONG3, DOUBLE2, LONG3];
    prims.map(ValueType::Prim).into_iter().chain(arrays).collect()
}
const ACCMS: [PrimType; 4] = [PrimType::Long, PrimType::Double, PrimType::Int, PrimType::Float];
const GLOBALS: [PrimType; 5] =
    [PrimType::Long, PrimType::Double, PrimType::Bool, PrimType::Int, PrimType::Float];
const WALK: usize = 3;

fn schema() -> Schema {
    let accms = ACCMS.iter().map(|&p| ValueType::Prim(p));
    Schema {
        columns: attrs().into_iter().chain(accms).collect(),
        globals: GLOBALS.to_vec(),
    }
}

fn pick<T: Copy>(rng: &mut SmallRng, xs: &[T]) -> T {
    xs[rng.gen_range(0..xs.len())]
}

fn value(rng: &mut SmallRng, ty: ValueType) -> Value {
    let edge = rng.gen_bool(0.7);
    match ty {
        ValueType::Array(p, n) => Value::Array((0..n).map(|_| value(rng, ValueType::Prim(p))).collect()),
        ValueType::Prim(PrimType::Long) if edge => Value::Long(pick(rng, &LONGS)),
        ValueType::Prim(PrimType::Long) => Value::Long(rng.gen_range(-50..50)),
        ValueType::Prim(PrimType::Int) if edge => Value::Int(pick(rng, &INTS)),
        ValueType::Prim(PrimType::Int) => Value::Int(rng.gen_range(-50..50)),
        ValueType::Prim(PrimType::Double) if edge => Value::Double(pick(rng, &DOUBLES)),
        ValueType::Prim(PrimType::Double) => Value::Double(rng.gen_range(-8..8) as f64 / 4.0),
        ValueType::Prim(PrimType::Float) if edge => Value::Float(f32::from_bits(pick(rng, &FLOATS))),
        ValueType::Prim(PrimType::Float) => Value::Float(rng.gen_range(-8..8) as f32 / 3.0),
        ValueType::Prim(PrimType::Bool) => Value::Bool(rng.gen()),
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
        let col = |rng: &mut SmallRng, ty: ValueType| {
            let mut c = ColumnData::zeros(ty, 1);
            c.set(0, &value(rng, ty));
            c
        };
        Row {
            cols: schema().columns.into_iter().map(|ty| col(rng, ty)).collect(),
            walk: (0..WALK).map(|_| rng.gen_range(0..40)).collect(),
            globals: GLOBALS.iter().map(|&p| value(rng, ValueType::Prim(p))).collect(),
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

/// The columns of type `ty`.
fn cols_of(ty: ValueType) -> Vec<usize> {
    let all = schema().columns.into_iter().enumerate();
    all.filter(|&(_, t)| t == ty).map(|(i, _)| i).collect()
}

/// Two numeric operand types that `arith` promotes to `ty`.
fn promoting_to(rng: &mut SmallRng, ty: PrimType) -> (PrimType, PrimType) {
    loop {
        let (l, r) = (pick(rng, &NUMERIC), pick(rng, &NUMERIC));
        if l.promote(r) == Some(ty) {
            return (l, r);
        }
    }
}

/// An array index: mostly in range, often not (negative, one past, huge).
fn index(rng: &mut SmallRng, depth: u32) -> Expr {
    match rng.gen_range(0..4) {
        0 => Expr::lit_long(rng.gen_range(-2..5)),
        1 => Expr::Lit(Value::Int(rng.gen_range(-1..4))),
        2 => Expr::lit_long(pick(rng, &LONGS)),
        _ => {
            let ty = pick(rng, &[PrimType::Int, PrimType::Long]);
            expr(rng, ty, depth.saturating_sub(1))
        }
    }
}

/// A random well-typed expression of primitive type `ty` with at most
/// `depth` levels of operators.
fn expr(rng: &mut SmallRng, ty: PrimType, depth: u32) -> Expr {
    let prim = ValueType::Prim(ty);
    if depth == 0 || rng.gen_bool(0.25) {
        let global = GLOBALS.iter().position(|&p| p == ty).unwrap();
        let array = match ty {
            PrimType::Long => Some(LONG3),
            PrimType::Double => Some(DOUBLE2),
            _ => None,
        };
        return match (ty, rng.gen_range(0..7)) {
            (_, 0) => Expr::Lit(value(rng, prim)),
            (_, 1) => Expr::Global(global),
            (_, 2) if array.is_some() => Expr::AttrElem {
                pos: 0,
                attr: pick(rng, &cols_of(array.unwrap())),
                idx: Box::new(index(rng, depth)),
            },
            (PrimType::Long, 3) => Expr::WalkVertex(rng.gen_range(0..WALK)),
            (PrimType::Long, 4) => Expr::NumVertices,
            (PrimType::Long, 5) => {
                let dir = pick(rng, &[EdgeDir::Out, EdgeDir::In, EdgeDir::Both]);
                Expr::Degree { pos: rng.gen_range(0..WALK), dir }
            }
            _ => Expr::Attr { pos: 0, attr: pick(rng, &cols_of(prim)) },
        };
    }
    let sub = |rng: &mut SmallRng, t| Box::new(expr(rng, t, depth - 1));
    let minmax = |rng: &mut SmallRng| pick(rng, &[Func::Min, Func::Max]);
    match ty {
        PrimType::Bool => match rng.gen_range(0..6) {
            0 => {
                let op = pick(rng, &[BinOp::And, BinOp::Or]);
                Expr::Binary(op, sub(rng, ty), sub(rng, ty))
            }
            1 => Expr::Unary(UnOp::Not, sub(rng, ty)),
            2 => Expr::Call(minmax(rng), vec![*sub(rng, ty), *sub(rng, ty)]),
            3 => Expr::Cast(PrimType::Bool, sub(rng, ty)),
            _ => {
                let cmp = [BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge, BinOp::Eq, BinOp::Ne];
                // Any two numeric types (promoted), or both `bool`.
                let (l, r) = match rng.gen_range(0..5) {
                    0 => (PrimType::Bool, PrimType::Bool),
                    _ => (pick(rng, &NUMERIC), pick(rng, &NUMERIC)),
                };
                Expr::Binary(pick(rng, &cmp), sub(rng, l), sub(rng, r))
            }
        },
        _ => match rng.gen_range(0..6) {
            0 => Expr::Unary(UnOp::Neg, sub(rng, ty)),
            1 => Expr::Call(Func::Abs, vec![*sub(rng, ty)]),
            2 => {
                let (l, r) = promoting_to(rng, ty);
                Expr::Call(minmax(rng), vec![*sub(rng, l), *sub(rng, r)])
            }
            3 => {
                let from = pick(rng, &NUMERIC);
                Expr::Cast(ty, sub(rng, from))
            }
            _ => {
                let arith = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod];
                let (l, r) = promoting_to(rng, ty);
                Expr::Binary(pick(rng, &arith), sub(rng, l), sub(rng, r))
            }
        },
    }
}

/// A random vertex program over the assignable attributes.
fn stmts(rng: &mut SmallRng, depth: u32) -> Vec<VStmt> {
    let attrs = attrs();
    (0..rng.gen_range(1..4))
        .map(|_| {
            if depth > 0 && rng.gen_bool(0.35) {
                VStmt::If {
                    cond: expr(rng, PrimType::Bool, 2),
                    then_body: stmts(rng, depth - 1),
                    else_body: if rng.gen() { stmts(rng, depth - 1) } else { Vec::new() },
                }
            } else {
                let attr = rng.gen_range(0..attrs.len());
                let value = match attrs[attr] {
                    ValueType::Prim(p) => expr(rng, p, 3),
                    array => Expr::Attr { pos: 0, attr: pick(rng, &cols_of(array)) },
                };
                VStmt::Assign { attr, value }
            }
        })
        .collect()
}

/// The reference vertex program: `eval` over the row with the staged
/// writes laid over it, so a statement reads what an earlier one wrote.
struct Staged<'a> {
    row: &'a Row,
    writes: RefCell<Vec<Option<Value>>>,
}

impl EvalContext for Staged<'_> {
    fn walk_vertex(&self, pos: usize) -> u64 {
        self.row.walk_vertex(pos)
    }
    fn vertex_attr(&self, pos: usize, attr: usize) -> Value {
        let staged = self.writes.borrow().get(attr).cloned().flatten();
        staged.unwrap_or_else(|| self.row.vertex_attr(pos, attr))
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

fn execute(stmts: &[VStmt], ctx: &Staged<'_>) {
    for s in stmts {
        match s {
            VStmt::Assign { attr, value } => {
                let v = eval(value, ctx).unwrap_or_else(|e| panic!("{value:?}: {e}"));
                ctx.writes.borrow_mut()[*attr] = Some(v);
            }
            VStmt::If { cond, then_body, else_body } => {
                let holds = eval(cond, ctx).unwrap() == Value::Bool(true);
                execute(if holds { then_body } else { else_body }, ctx);
            }
        }
    }
}

/// A kernel write as the `Value` its column stores: a scalar's bits, or
/// the cell of the column an array write copies.
fn cell(row: &Row, attr: usize, bits: u64) -> Value {
    if let ColumnData::Array(_) = row.cols[attr] {
        return row.cols[bits as usize].get(0);
    }
    let mut col = row.cols[attr].clone();
    col.set_bits(0, bits);
    col.get(0)
}

/// The kernel of `e` over `row` — and `eval`'s value, which it must equal.
fn both(e: &Expr, row: &Row, frame: &mut Frame) -> Value {
    let k = Kernel::expr(e, &schema()).unwrap_or_else(|| panic!("no kernel for {e:?}"));
    let want = eval(e, row).unwrap_or_else(|err| panic!("{e:?}: {err}"));
    k.prime(&row.globals, frame);
    k.run(row, frame);
    assert_eq!(k.out(frame), want, "{e:?}\n{}", k.listing("  "));
    want
}

#[test]
fn kernels_compute_what_the_interpreter_computes() {
    let (schema, mut rng) = (schema(), SmallRng::seed_from_u64(0x1735));
    let mut frame = Frame::default();
    let mut cases = 0;
    for i in 0..10_000 {
        let ty = [PrimType::Long, PrimType::Double, PrimType::Bool, PrimType::Int, PrimType::Float]
            [i % 5];
        let e = expr(&mut rng, ty, 4);
        for _ in 0..3 {
            both(&e, &Row::random(&mut rng), &mut frame);
            cases += 1;
        }
    }
    for _ in 0..5_000 {
        let program = VertexProgram { stmts: stmts(&mut rng, 2) };
        let k = program.kernel(&schema).unwrap_or_else(|| panic!("no kernel: {program:?}"));
        for _ in 0..2 {
            let row = Row::random(&mut rng);
            let ctx = Staged { row: &row, writes: RefCell::new(vec![None; attrs().len()]) };
            execute(&program.stmts, &ctx);
            let staged = ctx.writes.into_inner().into_iter().enumerate();
            let want: Vec<_> = staged.filter_map(|(a, v)| Some((a, v?))).collect();
            k.prime(&row.globals, &mut frame);
            k.run(&row, &mut frame);
            let mut writes: Vec<_> = k.writes(&frame).map(|(a, bits)| (a, cell(&row, a, bits))).collect();
            writes.sort_by_key(|&(a, _)| a);
            assert_eq!(writes, want, "{program:?}\n{}", k.listing("  "));
            cases += 1;
        }
    }
    assert!(cases >= 10_000, "{cases} cases");
}

/// The edges the `int` wrap, the `float` rounding and the saturating
/// `int` cast decide, each pinned to its value and held against `eval`.
#[test]
fn int_wrap_float_rounding_and_saturating_casts() {
    let mut frame = Frame::default();
    let row = Row::random(&mut SmallRng::seed_from_u64(7));
    let int = |x: i32| Expr::Lit(Value::Int(x));
    let float = |x: f32| Expr::Lit(Value::Float(x));
    let cast = |ty, e: Expr| Expr::Cast(ty, Box::new(e));
    let bin = Expr::bin;
    let cases = [
        // `i32::MIN / -1` wraps to `i32::MIN`, and so does its negation.
        (bin(BinOp::Div, int(i32::MIN), int(-1)), Value::Int(i32::MIN)),
        (bin(BinOp::Mul, bin(BinOp::Div, int(i32::MIN), int(-1)), Expr::lit_long(1)), Value::Long(i32::MIN as i64)),
        (Expr::Unary(UnOp::Neg, Box::new(int(i32::MIN))), Value::Int(i32::MIN)),
        (bin(BinOp::Gt, bin(BinOp::Add, int(i32::MAX), int(1)), int(0)), Value::Bool(false)),
        (cast(PrimType::Int, Expr::lit_long(3_000_000_000)), Value::Int(-1_294_967_296)),
        // A float-to-int cast saturates as `as i32` does: not via `i64`.
        (cast(PrimType::Int, Expr::lit_double(3e9)), Value::Int(i32::MAX)),
        (cast(PrimType::Int, Expr::lit_double(-3e9)), Value::Int(i32::MIN)),
        (cast(PrimType::Int, Expr::lit_double(f64::NAN)), Value::Int(0)),
        (cast(PrimType::Int, float(3e9)), Value::Int(i32::MAX)),
        // Every `float` op rounds to `f32`, and a `long` goes through
        // `f64` first: 2^24 + 1 and 2^53 + 1 round twice.
        (bin(BinOp::Eq, bin(BinOp::Add, float(1.0), float(1e-8)), float(1.0)), Value::Bool(true)),
        (bin(BinOp::Sub, bin(BinOp::Add, float(16_777_216.0), float(1.0)), float(16_777_216.0)), Value::Float(0.0)),
        (cast(PrimType::Float, Expr::lit_long(16_777_217)), Value::Float(16_777_216.0)),
        (cast(PrimType::Float, Expr::lit_long(9_007_199_254_740_993)), Value::Float(9_007_199_254_740_992.0)),
        (bin(BinOp::Mul, float(f32::from_bits(1)), float(0.5)), Value::Float(0.0)),
        (bin(BinOp::Div, float(-0.0), float(1.0)), Value::Float(-0.0)),
        (cast(PrimType::Double, bin(BinOp::Mul, float(1e30), float(1e10))), Value::Double(f64::INFINITY)),
        // A mixed `Min`/`Max` promotes its winner as arithmetic does.
        (Expr::Call(Func::Min, vec![Expr::lit_long(7), Expr::lit_double(10.0)]), Value::Double(7.0)),
        (Expr::Call(Func::Max, vec![Expr::lit_long(16_777_217), float(1.0)]), Value::Float(16_777_216.0)),
        (Expr::Call(Func::Min, vec![int(-5), Expr::lit_long(3)]), Value::Long(-5)),
    ];
    for (e, want) in cases {
        assert_eq!(both(&e, &row, &mut frame), want, "{e:?}");
    }
    // A NaN payload survives a float's load, copy and write-back.
    let nan = f32::from_bits(0x7fc0_1234);
    assert_eq!(both(&float(nan), &row, &mut frame), Value::Float(nan));
}

/// `int`, `float` and array nodes compile — so does every expression of
/// walk position 0 — and an element read past either end is zero; only an
/// attribute read past walk position 0 has no kernel.
#[test]
fn int_float_and_array_nodes_compile() {
    let mut frame = Frame::default();
    let mut row = Row::random(&mut SmallRng::seed_from_u64(9));
    let emb = cols_of(LONG3)[0];
    row.cols[emb].set(0, &Value::Array(vec![Value::Long(4), Value::Long(5), Value::Long(6)]));
    let at = |idx: i64| Expr::AttrElem { pos: 0, attr: emb, idx: Box::new(Expr::lit_long(idx)) };
    for (idx, want) in [(0, 4), (2, 6), (3, 0), (-1, 0), (i64::MIN, 0)] {
        assert_eq!(both(&at(idx), &row, &mut frame), Value::Long(want), "[{idx}]");
    }
    let int = Expr::Attr { pos: 0, attr: cols_of(ValueType::Prim(PrimType::Int))[0] };
    for e in [int.clone(), Expr::Global(3), Expr::Global(4), Expr::Lit(Value::Int(3))] {
        both(&e, &row, &mut frame);
    }
    both(&Expr::Cast(PrimType::Float, Box::new(Expr::lit_long(1))), &row, &mut frame);
    let program = VertexProgram { stmts: vec![VStmt::Assign { attr: int_attr(), value: int }] };
    assert!(program.kernel(&schema()).is_some());
    assert!(Kernel::expr(&Expr::Attr { pos: 1, attr: 0 }, &schema()).is_none());
}

fn int_attr() -> usize {
    cols_of(ValueType::Prim(PrimType::Int))[1]
}

fn ring(n: u64) -> GraphInput {
    GraphInput::undirected((0..n).map(|v| (v, (v + 1) % n)).collect())
}

/// Through a whole session, both legs on the Update kernel (the second
/// assigns an `int` slot, which used to send Update to the interpreter): a
/// `long` literal past 2^53 is assigned exactly — it used to round through
/// `f64` to 9007199254740992 — and `i64::MIN / -1` wraps instead of
/// aborting.
#[test]
fn sessions_assign_exact_longs_and_wrap_division() {
    for z in ["", "u.z = 1;"] {
        let src = format!(
            r#"
            Vertex (id, active, nbrs, x: long, y: long, z: int, m: Accm<long, MIN>)
            Initialize (u): {{ u.x = 9007199254740993; u.active = true; }}
            Traverse (u): {{ For v in u.nbrs {{ v.m.Accumulate(u.x); }} }}
            Update (u): {{ u.y = (0 - 9223372036854775807 - 1) / (u.id - u.id - 1); {z} }}
        "#
        );
        let mut s = SessionBuilder::new().from_source(&src, &ring(4)).unwrap();
        s.run_oneshot();
        assert_eq!(s.attr_column("x").unwrap(), vec![Value::Long(9_007_199_254_740_993); 4]);
        assert_eq!(s.attr_column("y").unwrap(), vec![Value::Long(i64::MIN); 4]);
        let z = Value::Int(if z.is_empty() { 0 } else { 1 });
        assert_eq!(s.attr_column("z").unwrap(), vec![z; 4]);
    }
}

/// A mixed `Min` promotes its winner as arithmetic does: `Min(7, 10.0)` is
/// `7.0`, so the division after it is a `double` one. It used to keep the
/// `long` winner and store 3.
#[test]
fn sessions_promote_a_mixed_min() {
    let src = r#"
        Vertex (id, active, nbrs, x: long, d: double, r: double)
        Initialize (u): { u.x = 7; u.d = 10.0; u.r = Min(u.x, u.d) / 2; }
        Traverse (u): { }
        Update (u): { }
    "#;
    let mut s = SessionBuilder::new().from_source(src, &ring(4)).unwrap();
    s.run_oneshot();
    assert_eq!(s.attr_column("r").unwrap(), vec![Value::Double(3.5); 4]);
}

/// An out-of-range element read is total: vertex 3 of a 4-ring reads
/// `u.emb[3]` of an `Array<long, 3>` as 0 — in Traverse, in Initialize and
/// in a condition — where it used to abort the run.
#[test]
fn sessions_read_an_out_of_range_element_as_zero() {
    let src = r#"
        Vertex (id, active, nbrs, emb: Array<long, 3>, score: long, got: long,
                s: Accm<long, SUM>)
        Initialize (u): { u.score = u.emb[u.id] + 5; u.active = true; }
        Traverse (u): {
            If (u.emb[u.id - 4] == 0) { For v in u.nbrs { v.s.Accumulate(u.emb[u.id] + 1); } }
        }
        Update (u): { u.got = u.s; }
    "#;
    let mut s = SessionBuilder::new().from_source(src, &ring(4)).unwrap();
    s.run_oneshot();
    assert_eq!(s.attr_column("score").unwrap(), vec![Value::Long(5); 4]);
    assert_eq!(s.attr_column("got").unwrap(), vec![Value::Long(2); 4]);
}

/// `int`, `float` and array attributes, `int`/`float` accumulators and an
/// `int` global through three batches: after each, the incremental state
/// is byte-identical to a fresh one-shot's on the same graph.
#[test]
fn int_float_and_array_programs_refresh_like_a_fresh_oneshot() {
    let src = r#"
        Vertex (id, active, nbrs, k: int, f: float, emb: Array<long, 3>, keep: Array<long, 3>,
                pair: Array<double, 2>, lo: Accm<int, MIN>, tot: Accm<float, SUM>)
        GlobalVariable (n: Accm<int, SUM>)
        Initialize (u): { u.k = u.id * 7 % 11 - 3; u.f = 0.1; u.active = true; }
        Traverse (u): {
            For v in u.nbrs {
                v.lo.Accumulate(u.k);
                v.tot.Accumulate(u.f * 0.3 + u.pair[u.k]);
                n.Accumulate(1);
            }
        }
        Update (u): {
            If (u.lo < u.k) { u.k = u.lo; u.active = true; }
            u.f = u.tot / n + u.emb[u.k % 3];
            u.keep = u.emb;
        }
    "#;
    let mut edges: Vec<(u64, u64)> = (0..12).map(|v| (v, (v * 5 + 1) % 12)).collect();
    let session = |edges: &[(u64, u64)]| {
        let mut input = GraphInput::undirected(edges.to_vec());
        input.num_vertices = 14;
        let mut s = SessionBuilder::new().from_source(src, &input).unwrap();
        s.run_oneshot();
        s
    };
    let mut s = session(&edges);
    let batches = [
        vec![EdgeMutation::insert(3, 12), EdgeMutation::delete(0, 1)],
        vec![EdgeMutation::insert(12, 13), EdgeMutation::insert(2, 9)],
        vec![EdgeMutation::delete(3, 12), EdgeMutation::delete(5, 2)],
    ];
    for batch in batches {
        for m in &batch {
            let e = (m.src.min(m.dst), m.src.max(m.dst));
            match m.mult > 0 {
                true => edges.push(e),
                false => edges.retain(|&(a, b)| (a.min(b), a.max(b)) != e),
            }
        }
        s.apply_mutations(&MutationBatch::new(batch));
        s.run_incremental();
        let fresh = session(&edges);
        for attr in ["active", "k", "f", "emb", "keep", "pair"] {
            assert_eq!(s.attr_column(attr).unwrap(), fresh.attr_column(attr).unwrap(), "{attr}");
        }
        assert_eq!(s.global_value("n", None).unwrap(), fresh.global_value("n", None).unwrap());
    }
}
