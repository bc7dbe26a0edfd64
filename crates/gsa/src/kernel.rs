//! Typed kernels: expressions compiled to flat register programs.
//!
//! At plan time every expression the engine evaluates per row, per start
//! or per walk is lowered to a [`Kernel`]: a flat program over three
//! register banks — `i64`, `f64` and `bool` — whose leaves read a column
//! cell or an array element of walk position 0, a global, a degree, a walk
//! vertex id or `V` through [`EvalContext`]. A kernel computes bit for bit
//! what [`crate::expr::eval`] computes (DESIGN.md §10.4): total division
//! and array indexing, wrapping integer arithmetic, `arith`'s promotion,
//! short-circuit `And`/`Or`, `Value::total_cmp` ordering and `Value::cast`.
//! An `int` lives in the `i64` bank and is wrapped to `i32` after every
//! `int`-typed op; a `float` lives in the `f64` bank and is rounded to
//! `f32` after every `float`-typed op; an array is the column its cell is
//! read from. Every well-typed expression of walk position 0 has a kernel,
//! and a kernel has no error path.

use crate::expr::{BinOp, EdgeDir, EvalContext, Expr, Func, UnOp};
use crate::value::{ColumnData, PrimType, Value, ValueType};
use std::cell::Cell;
use std::cmp::Ordering;
use std::fmt;

/// A register bank: the kernel types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bank {
    I,
    F,
    B,
}

/// The bank a value of `ty` lives in: `int` and `long` in `i64`, `float`
/// and `double` in `f64`, and an array as the index of its column.
fn bank(ty: ValueType) -> Bank {
    match ty {
        ValueType::Prim(PrimType::Bool) => Bank::B,
        ValueType::Prim(PrimType::Float | PrimType::Double) => Bank::F,
        _ => Bank::I,
    }
}

/// A register: its bank and its index there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reg(Bank, u16);

/// A compiled subexpression: its register and its type.
type Typed = (Reg, ValueType);

/// One instruction, destination first; a bare `u16` operand is a register
/// of the bank the op implies (or, after a `Reg`, of that `Reg`'s bank).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// A literal's bits, or a global: loaded by [`Kernel::prime`].
    Const(Reg, u64),
    Global(Reg, u32),
    /// The cell of attribute `.1` at walk position 0.
    Col(Reg, u32),
    /// Element `i[.2]` of the array cell of column `i[.1]`: zero when the
    /// index is out of range.
    Elem(Reg, u16, u16),
    /// The id of walk position `.1`.
    Vertex(u16, u32),
    NumVertices(u16),
    Degree(u16, u32, EdgeDir),
    Mov(Reg, u16),
    /// Assign slot `.0` from `.1` and set its flag `b[.2]`.
    Assign(Reg, u16, u16),
    /// Arithmetic in the destination's bank.
    Arith(BinOp, Reg, u16, u16),
    /// `b[.1] = .2 op .3` for the comparison `.0`.
    Cmp(BinOp, u16, Reg, u16),
    /// `Min` (`false`) or `Max`.
    Pick(bool, Reg, u16, u16),
    Neg(Reg, u16),
    Abs(Reg, u16),
    Not(u16, u16),
    /// `f[.0] = i[.1] as f64`, and `i[.0] = f[.1] as i64`.
    Widen(u16, u16),
    Trunc(u16, u16),
    /// `i[.0] = i[.1] as i32`, `i[.0] = f[.1] as i32` (saturating) and
    /// `f[.0] = f[.1] as f32`, each held widened: an `int` or `float` result.
    Int(u16, u16),
    TruncInt(u16, u16),
    Float(u16, u16),
    Jump(u32),
    /// Jump to `.2` when `b[.0] == .1`.
    Branch(u16, bool, u32),
}

/// Per [`BinOp`] (by discriminant): the orderings a comparison accepts
/// (bit 0 less, bit 1 equal, bit 2 greater), and its symbol.
const ACCEPTS: [u8; 13] = [0, 0, 0, 0, 0, 0b001, 0b011, 0b100, 0b110, 0b010, 0b101, 0, 0];
const SYMBOLS: [&str; 13] = ["+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=", "&&", "||"];

/// The column and global types a kernel is compiled against: attribute
/// `a`'s type is `columns[a]` (accumulator values follow the attributes,
/// as in Update expressions).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schema {
    pub columns: Vec<ValueType>,
    pub globals: Vec<PrimType>,
}

/// A vertex program's assignable attribute: its register and type, and
/// the `bool` register that says whether the run assigned it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Slot {
    attr: usize,
    reg: Reg,
    ty: ValueType,
    written: u16,
}

/// A compiled register program: an expression's (`out`) or a vertex
/// program's (`slots`, read-your-writes). Every op writes a register no
/// other op writes but the `Mov` that completes an `And`/`Or` or an
/// assignment, so a value once computed stays put for the run: the builder
/// reuses it wherever the same subexpression recurs, and literals and
/// globals are loaded once, by [`Kernel::prime`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Kernel {
    prime: Vec<Op>,
    code: Vec<Op>,
    regs: [u16; 3],
    out: Option<(Reg, PrimType)>,
    /// Scalar slots, which load their cells as a run starts, then array
    /// slots, which start as their own column.
    slots: Vec<Slot>,
    scalars: usize,
}

/// Registers for running kernels; reused run to run, grown on demand.
#[derive(Debug, Default)]
pub struct Frame {
    i: Vec<i64>,
    f: Vec<f64>,
    b: Vec<bool>,
}

thread_local! {
    static FRAME: Cell<Frame> = const {
        Cell::new(Frame { i: Vec::new(), f: Vec::new(), b: Vec::new() })
    };
}

/// Run `f` on this thread's spare frame.
pub fn with_frame<R>(f: impl FnOnce(&mut Frame) -> R) -> R {
    let mut frame = FRAME.take();
    let out = f(&mut frame);
    FRAME.set(frame);
    out
}

impl Frame {
    #[inline]
    fn bits(&self, Reg(bank, r): Reg) -> u64 {
        match bank {
            Bank::I => self.i[r as usize] as u64,
            Bank::F => self.f[r as usize].to_bits(),
            Bank::B => self.b[r as usize] as u64,
        }
    }

    #[inline]
    fn put(&mut self, Reg(bank, r): Reg, bits: u64) {
        match bank {
            Bank::I => self.i[r as usize] = bits as i64,
            Bank::F => self.f[r as usize] = f64::from_bits(bits),
            Bank::B => self.b[r as usize] = bits != 0,
        }
    }

    /// `Value::total_cmp` of two registers of one bank.
    #[inline]
    fn order(&self, bank: Bank, a: u16, b: u16) -> Ordering {
        let (a, b) = (a as usize, b as usize);
        match bank {
            Bank::I => self.i[a].cmp(&self.i[b]),
            Bank::F => self.f[a].total_cmp(&self.f[b]),
            Bank::B => self.b[a].cmp(&self.b[b]),
        }
    }
}

/// A register's bits as the `Value` of type `ty` it holds.
fn value(ty: PrimType, bits: u64) -> Value {
    match ty {
        PrimType::Bool => Value::Bool(bits != 0),
        PrimType::Int => Value::Int(bits as i32),
        PrimType::Long => Value::Long(bits as i64),
        PrimType::Float => Value::Float(f64::from_bits(bits) as f32),
        PrimType::Double => Value::Double(f64::from_bits(bits)),
    }
}

/// A scalar `Value` as register bits: the inverse of [`value`].
fn bits(v: &Value) -> u64 {
    match *v {
        Value::Bool(x) => x as u64,
        Value::Int(x) => x as i64 as u64,
        Value::Long(x) => x as u64,
        Value::Float(x) => (x as f64).to_bits(),
        Value::Double(x) => x.to_bits(),
        Value::Array(_) => unreachable!("an array is no register value"),
    }
}

/// A slot's register bits as its column stores them
/// ([`ColumnData::set_bits`]): an `int` in 32 bits, a `float` as `f32`
/// bits; an array slot's bits name the column whose cell it copies.
fn cell(ty: ValueType, bits: u64) -> u64 {
    match ty {
        ValueType::Prim(PrimType::Int) => bits as u32 as u64,
        ValueType::Prim(PrimType::Float) => (f64::from_bits(bits) as f32).to_bits() as u64,
        _ => bits,
    }
}

/// Element `idx` of array cell `row` of `col` as register bits: zero out
/// of range. Out of line: inlined, it slowed the dispatch loop of every
/// kernel, array or not.
#[inline(never)]
fn elem(col: &ColumnData, row: usize, idx: i64) -> u64 {
    let ColumnData::Array(cells) = col else {
        unreachable!("an array read of a scalar column")
    };
    usize::try_from(idx).ok().and_then(|j| cells[row].get(j)).map_or(0, bits)
}

#[inline]
fn arith_i(op: BinOp, a: i64, b: i64) -> i64 {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div | BinOp::Mod if b == 0 => 0,
        BinOp::Div => a.wrapping_div(b),
        _ => a.wrapping_rem(b),
    }
}

#[inline]
fn arith_f(op: BinOp, a: f64, b: f64) -> f64 {
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div | BinOp::Mod if b == 0.0 => 0.0,
        BinOp::Div => a / b,
        _ => a % b,
    }
}

impl Kernel {
    /// The kernel of one scalar expression; `None` when it is ill-typed
    /// or reads an attribute past walk position 0.
    pub fn expr(e: &Expr, schema: &Schema) -> Option<Kernel> {
        let mut b = Builder::new(schema, &[])?;
        let (r, ty) = b.expr(e)?;
        Some(Kernel { out: Some((r, ty.prim()?)), ..b.k })
    }

    /// Size `frame` for this kernel and load its literals and `globals`:
    /// once per superstep for a vertex program, before its rows
    /// [`Kernel::run`].
    pub fn prime(&self, globals: &[Value], frame: &mut Frame) {
        fn fit<T: Clone + Default>(bank: &mut Vec<T>, n: u16) {
            if bank.len() < n as usize {
                bank.resize(n as usize, T::default());
            }
        }
        fit(&mut frame.i, self.regs[0]);
        fit(&mut frame.f, self.regs[1]);
        fit(&mut frame.b, self.regs[2]);
        for op in &self.prime {
            match *op {
                Op::Const(d, x) => frame.put(d, x),
                Op::Global(d, g) => frame.put(d, bits(&globals[g as usize])),
                op => unreachable!("{op:?} is not a load"),
            }
        }
    }

    /// Run over `ctx` on a primed frame.
    pub fn run<C: EvalContext + ?Sized>(&self, ctx: &C, fr: &mut Frame) {
        let (scalars, arrays) = self.slots.split_at(self.scalars);
        for s in scalars {
            let (col, row) = ctx.column(s.attr);
            fr.put(s.reg, col.load(row));
            fr.b[s.written as usize] = false;
        }
        for s in arrays {
            fr.put(s.reg, s.attr as u64);
            fr.b[s.written as usize] = false;
        }
        let mut pc = 0;
        while let Some(&op) = self.code.get(pc) {
            pc += 1;
            let u = |r: u16| r as usize;
            match op {
                Op::Const(..) | Op::Global(..) => unreachable!("loads run in `prime`"),
                Op::Col(d, attr) => {
                    let (col, row) = ctx.column(attr as usize);
                    fr.put(d, col.load(row));
                }
                Op::Elem(d, arr, idx) => {
                    let (col, row) = ctx.column(fr.i[u(arr)] as usize);
                    fr.put(d, elem(col, row, fr.i[u(idx)]));
                }
                Op::Vertex(d, pos) => fr.i[u(d)] = ctx.walk_vertex(pos as usize) as i64,
                Op::NumVertices(d) => fr.i[u(d)] = ctx.num_vertices() as i64,
                Op::Degree(d, pos, dir) => fr.i[u(d)] = ctx.vertex_degree(pos as usize, dir),
                Op::Mov(d, a) => fr.put(d, fr.bits(Reg(d.0, a))),
                Op::Assign(d, a, flag) => {
                    fr.put(d, fr.bits(Reg(d.0, a)));
                    fr.b[u(flag)] = true;
                }
                Op::Arith(op, Reg(Bank::I, d), a, b) => {
                    fr.i[u(d)] = arith_i(op, fr.i[u(a)], fr.i[u(b)]);
                }
                Op::Arith(op, Reg(_, d), a, b) => fr.f[u(d)] = arith_f(op, fr.f[u(a)], fr.f[u(b)]),
                Op::Cmp(op, d, Reg(bank, a), b) => {
                    let c = fr.order(bank, a, b);
                    fr.b[u(d)] = ACCEPTS[op as usize] >> (c as i8 + 1) & 1 != 0;
                }
                Op::Pick(max, d, a, b) => {
                    let c = fr.order(d.0, a, b);
                    let first = if max { c.is_ge() } else { c.is_le() };
                    fr.put(d, fr.bits(Reg(d.0, if first { a } else { b })));
                }
                Op::Neg(Reg(Bank::I, d), a) => fr.i[u(d)] = fr.i[u(a)].wrapping_neg(),
                Op::Neg(Reg(_, d), a) => fr.f[u(d)] = -fr.f[u(a)],
                Op::Abs(Reg(Bank::I, d), a) => fr.i[u(d)] = fr.i[u(a)].wrapping_abs(),
                Op::Abs(Reg(_, d), a) => fr.f[u(d)] = fr.f[u(a)].abs(),
                Op::Not(d, a) => fr.b[u(d)] = !fr.b[u(a)],
                Op::Widen(d, a) => fr.f[u(d)] = fr.i[u(a)] as f64,
                Op::Trunc(d, a) => fr.i[u(d)] = fr.f[u(a)] as i64,
                Op::Int(d, a) => fr.i[u(d)] = fr.i[u(a)] as i32 as i64,
                Op::TruncInt(d, a) => fr.i[u(d)] = fr.f[u(a)] as i32 as i64,
                Op::Float(d, a) => fr.f[u(d)] = fr.f[u(a)] as f32 as f64,
                Op::Jump(t) => pc = t as usize,
                Op::Branch(c, when, t) if fr.b[u(c)] == when => pc = t as usize,
                Op::Branch(..) => {}
            }
        }
    }

    /// An expression kernel's result after [`Kernel::run`].
    pub fn out(&self, frame: &Frame) -> Value {
        let (r, ty) = self.out.expect("an expression kernel");
        value(ty, frame.bits(r))
    }

    /// An expression kernel's result over `ctx` (Traverse: no globals) as
    /// the cell bits of its type ([`crate::ColumnData::set_bits`]), the
    /// form [`Kernel::writes`] hands out.
    pub fn cell_bits<C: EvalContext>(&self, ctx: &C, frame: &mut Frame) -> u64 {
        self.prime(&[], frame);
        self.run(ctx, frame);
        let (r, ty) = self.out.expect("an expression kernel");
        cell(ValueType::Prim(ty), frame.bits(r))
    }

    /// Whether a condition kernel holds over `ctx`: its value is `true`.
    pub fn test<C: EvalContext>(&self, ctx: &C, frame: &mut Frame) -> bool {
        self.prime(&[], frame);
        self.run(ctx, frame);
        self.out.is_some_and(|(Reg(bank, r), _)| bank == Bank::B && frame.b[r as usize])
    }

    /// A vertex program's assignments after [`Kernel::run`]: `(attribute,
    /// bits)`, scalars in attribute order and then arrays; a scalar's bits
    /// as [`crate::ColumnData::set_bits`] takes them, an array's the column
    /// whose cell (in the image the run read) it copies.
    pub fn writes<'f>(&'f self, frame: &'f Frame) -> impl Iterator<Item = (usize, u64)> + 'f {
        let written = self.slots.iter().filter(|s| frame.b[s.written as usize]);
        written.map(|s| (s.attr, cell(s.ty, frame.bits(s.reg))))
    }

    /// One line per load of [`Kernel::prime`] (`:`), per slot loaded as the
    /// run starts (`in`), per numbered instruction, then the result register
    /// or each slot's write-back (`out`); each prefixed with `indent`.
    pub fn listing(&self, indent: &str) -> String {
        let flag = |s: &Slot| Reg(Bank::B, s.written);
        let mut lines: Vec<String> = self.prime.iter().map(|op| format!("  : {op}")).collect();
        for s in &self.slots {
            lines.push(format!("in: {} = col {}; {} = false", s.reg, s.attr, flag(s)));
        }
        lines.extend(self.code.iter().enumerate().map(|(pc, op)| format!("{pc:>2}: {op}")));
        match self.out {
            Some((r, _)) => lines.push(format!("out: {r}")),
            None => lines.extend(self.slots.iter().map(|s| {
                format!("out: col {} = {} if {}", s.attr, s.reg, flag(s))
            })),
        }
        lines.iter().map(|l| format!("{indent}{l}\n")).collect()
    }
}

/// Emits a kernel, reusing a subexpression's register while its value is
/// known to hold: computed on every path here, and no assignment since.
pub struct Builder<'s> {
    schema: &'s Schema,
    k: Kernel,
    known: Vec<(Expr, Typed)>,
    /// Where each open conditional region's entries of `known` start.
    regions: Vec<usize>,
}

impl<'s> Builder<'s> {
    /// A vertex program's builder: `assigned` are the attributes it may
    /// assign, each loaded into its slot as the run starts. `None` when one
    /// is not a column of `schema`.
    pub fn new(schema: &'s Schema, assigned: &[usize]) -> Option<Builder<'s>> {
        let (k, known, regions) = Default::default();
        let mut b = Builder { schema, k, known, regions };
        let typed = assigned.iter().map(|&a| Some((a, *schema.columns.get(a)?)));
        let (scalars, arrays): (Vec<_>, Vec<_>) =
            typed.collect::<Option<Vec<_>>>()?.into_iter().partition(|(_, ty)| ty.prim().is_some());
        b.k.scalars = scalars.len();
        for (attr, ty) in scalars.into_iter().chain(arrays) {
            let reg = b.fresh(bank(ty));
            let written = b.fresh(Bank::B).1;
            b.k.slots.push(Slot { attr, reg, ty, written });
        }
        Some(b)
    }

    pub fn finish(self) -> Kernel {
        self.k
    }

    fn fresh(&mut self, bank: Bank) -> Reg {
        let r = &mut self.k.regs[bank as usize];
        *r += 1;
        Reg(bank, *r - 1)
    }

    /// `op` into a fresh register of `bank`, run per row or (`prime`) once.
    fn emit(&mut self, bank: Bank, prime: bool, op: impl FnOnce(Reg) -> Op) -> Reg {
        let d = self.fresh(bank);
        [&mut self.k.code, &mut self.k.prime][prime as usize].push(op(d));
        d
    }

    /// A numeric `r` in the `f64` bank, widening an integer.
    fn float(&mut self, r: Reg) -> u16 {
        match r.0 {
            Bank::I => self.emit(Bank::F, false, |d| Op::Widen(d.1, r.1)).1,
            _ => r.1,
        }
    }

    /// `r`, computed in its bank, as a value of `ty`: an `int` wrapped, a
    /// `float` rounded — as `arith` narrows a result.
    fn narrow(&mut self, r: Reg, ty: PrimType) -> Typed {
        let r = match ty {
            PrimType::Int => self.emit(Bank::I, false, |d| Op::Int(d.1, r.1)),
            PrimType::Float => self.emit(Bank::F, false, |d| Op::Float(d.1, r.1)),
            _ => r,
        };
        (r, ValueType::Prim(ty))
    }

    /// Compile `e`, or reuse its register; `None` when it has no kernel.
    fn expr(&mut self, e: &Expr) -> Option<Typed> {
        if let Some((_, t)) = self.known.iter().find(|(k, _)| k == e) {
            return Some(*t);
        }
        let t = self.node(e)?;
        self.known.push((e.clone(), t));
        Some(t)
    }

    /// Compile `e` as a primitive value.
    fn prim(&mut self, e: &Expr) -> Option<(Reg, PrimType)> {
        let (r, ty) = self.expr(e)?;
        Some((r, ty.prim()?))
    }

    fn node(&mut self, e: &Expr) -> Option<Typed> {
        let long = ValueType::Prim(PrimType::Long);
        Some(match e {
            Expr::Lit(v) => {
                let ty = ValueType::Prim(v.value_type().prim()?);
                (self.emit(bank(ty), true, |d| Op::Const(d, bits(v))), ty)
            }
            Expr::Attr { pos: 0, attr } => match self.k.slots.iter().find(|s| s.attr == *attr) {
                Some(slot) => (slot.reg, slot.ty),
                None => {
                    let (ty, a) = (*self.schema.columns.get(*attr)?, *attr as u32);
                    let r = match ty {
                        ValueType::Array(..) => self.emit(Bank::I, true, |d| Op::Const(d, a as u64)),
                        _ => self.emit(bank(ty), false, |d| Op::Col(d, a)),
                    };
                    (r, ty)
                }
            },
            Expr::AttrElem { pos: 0, attr, idx } => {
                let (arr, ty) = self.expr(&Expr::Attr { pos: 0, attr: *attr })?;
                let ValueType::Array(p, _) = ty else { return None };
                let (i, it) = self.prim(idx)?;
                matches!(it, PrimType::Int | PrimType::Long).then_some(())?;
                let ty = ValueType::Prim(p);
                (self.emit(bank(ty), false, |d| Op::Elem(d, arr.1, i.1)), ty)
            }
            Expr::Attr { .. } | Expr::AttrElem { .. } => return None,
            Expr::Global(g) => {
                let ty = ValueType::Prim(*self.schema.globals.get(*g)?);
                (self.emit(bank(ty), true, |d| Op::Global(d, *g as u32)), ty)
            }
            Expr::WalkVertex(p) => (self.emit(Bank::I, false, |d| Op::Vertex(d.1, *p as u32)), long),
            Expr::NumVertices => (self.emit(Bank::I, false, |d| Op::NumVertices(d.1)), long),
            Expr::Degree { pos, dir } => {
                (self.emit(Bank::I, false, |d| Op::Degree(d.1, *pos as u32, *dir)), long)
            }
            Expr::Unary(op, x) => {
                let (a, ty) = self.prim(x)?;
                match (op, ty) {
                    (UnOp::Not, PrimType::Bool) => {
                        (self.emit(a.0, false, |d| Op::Not(d.1, a.1)), ValueType::Prim(ty))
                    }
                    (UnOp::Neg, _) if ty.is_numeric() => {
                        let d = self.emit(a.0, false, |d| Op::Neg(d, a.1));
                        self.narrow(d, ty)
                    }
                    _ => return None,
                }
            }
            Expr::Call(Func::Abs, args) => {
                let (a, ty) = self.prim(args.first()?).filter(|(_, ty)| ty.is_numeric())?;
                let d = self.emit(a.0, false, |d| Op::Abs(d, a.1));
                self.narrow(d, ty)
            }
            Expr::Call(f, args) => {
                let [l, r] = args.as_slice() else { return None };
                let ((a, at), (b, bt)) = (self.prim(l)?, self.prim(r)?);
                let ty = at.promote(bt)?;
                let (bank, a, b) = self.pair(a, b)?;
                let d = self.emit(bank, false, |d| Op::Pick(*f == Func::Max, d, a, b));
                self.narrow(d, ty)
            }
            Expr::Cast(to, x) => {
                let ((a, from), to) = (self.prim(x)?, *to);
                let r = match (a.0, to) {
                    _ if from == to => return Some((a, ValueType::Prim(to))),
                    (Bank::B, _) | (_, PrimType::Bool) => return None,
                    (Bank::I, PrimType::Float | PrimType::Double) => Reg(Bank::F, self.float(a)),
                    (Bank::F, PrimType::Long) => self.emit(Bank::I, false, |d| Op::Trunc(d.1, a.1)),
                    // Saturating, as `as i32` is: not through `i64`.
                    (Bank::F, PrimType::Int) => {
                        let d = self.emit(Bank::I, false, |d| Op::TruncInt(d.1, a.1));
                        return Some((d, ValueType::Prim(to)));
                    }
                    _ => a,
                };
                self.narrow(r, to)
            }
            Expr::Binary(op @ (BinOp::And | BinOp::Or), l, r) => {
                let bool_ = |t: &(Reg, PrimType)| t.1 == PrimType::Bool;
                let (a, _) = self.prim(l).filter(bool_)?;
                let d = self.emit(Bank::B, false, |d| Op::Mov(d, a.1));
                let skip = self.k.code.len();
                self.k.code.push(Op::Branch(d.1, *op == BinOp::Or, 0));
                self.regions.push(self.known.len());
                let (b, _) = self.prim(r).filter(bool_)?;
                self.k.code.push(Op::Mov(d, b.1));
                self.end(skip);
                (d, ValueType::Prim(PrimType::Bool))
            }
            Expr::Binary(op, l, r) => {
                let ((a, at), (b, bt)) = (self.prim(l)?, self.prim(r)?);
                let ty = at.promote(bt);
                let (bank, a, b) = self.pair(a, b)?;
                if op.is_comparison() {
                    let d = self.emit(Bank::B, false, |d| Op::Cmp(*op, d.1, Reg(bank, a), b));
                    return Some((d, ValueType::Prim(PrimType::Bool)));
                }
                let ty = ty.filter(|ty| ty.is_numeric())?;
                let d = self.emit(bank, false, |d| Op::Arith(*op, d, a, b));
                self.narrow(d, ty)
            }
        })
    }

    /// Two operands in one bank, as `Value::total_cmp` and `arith` see
    /// them: both integers, both `bool`, or else both widened to `f64`.
    fn pair(&mut self, a: Reg, b: Reg) -> Option<(Bank, u16, u16)> {
        Some(match (a.0, b.0) {
            (Bank::I, Bank::I) | (Bank::B, Bank::B) => (a.0, a.1, b.1),
            (Bank::B, _) | (_, Bank::B) => return None,
            _ => (Bank::F, self.float(a), self.float(b)),
        })
    }

    /// `u.attr = value` (the attribute must be one of the slots, and the
    /// value of its type). Every known value may have read the slot, so
    /// none is known after it.
    pub fn assign(&mut self, attr: usize, value: &Expr) -> Option<()> {
        let slot = *self.k.slots.iter().find(|s| s.attr == attr)?;
        let (v, _) = self.expr(value).filter(|(_, ty)| *ty == slot.ty)?;
        self.k.code.push(Op::Assign(slot.reg, v.1, slot.written));
        self.known.clear();
        self.regions.iter_mut().for_each(|start| *start = 0);
        Some(())
    }

    /// Open a region run only when `cond` holds: returns the jump past it
    /// for [`Builder::otherwise`] or [`Builder::end`].
    pub fn branch(&mut self, cond: &Expr) -> Option<usize> {
        let (c, _) = self.prim(cond).filter(|(_, ty)| *ty == PrimType::Bool)?;
        self.k.code.push(Op::Branch(c.1, false, 0));
        self.regions.push(self.known.len());
        Some(self.k.code.len() - 1)
    }

    /// Close the region `skip` jumps past and open its alternative; returns
    /// the jump past that, for [`Builder::end`].
    pub fn otherwise(&mut self, skip: usize) -> usize {
        self.k.code.push(Op::Jump(0));
        self.end(skip);
        self.regions.push(self.known.len());
        self.k.code.len() - 1
    }

    /// Close the region the jump at `at` skips: land it here, and forget
    /// what only the region computed.
    pub fn end(&mut self, at: usize) {
        let here = self.k.code.len() as u32;
        match &mut self.k.code[at] {
            Op::Jump(t) | Op::Branch(_, _, t) => *t = here,
            op => unreachable!("{op:?} is not a jump"),
        }
        let start = self.regions.pop().expect("an open region");
        self.known.truncate(start);
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", ["i", "f", "b"][self.0 as usize], self.1)
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (i, fl, b) = (|r| Reg(Bank::I, r), |r| Reg(Bank::F, r), |r| Reg(Bank::B, r));
        match *self {
            Op::Const(d, bits) => {
                let ty = [PrimType::Long, PrimType::Double, PrimType::Bool][d.0 as usize];
                write!(f, "{d} = {}", value(ty, bits))
            }
            Op::Global(d, g) => write!(f, "{d} = global {g}"),
            Op::Col(d, a) => write!(f, "{d} = col {a}"),
            Op::Elem(d, a, x) => write!(f, "{d} = col {}[{}]", i(a), i(x)),
            Op::Vertex(d, p) => write!(f, "{} = u{p}", i(d)),
            Op::NumVertices(d) => write!(f, "{} = V", i(d)),
            Op::Degree(d, p, dir) => write!(f, "{} = degree {dir:?} u{p}", i(d)),
            Op::Mov(d, a) => write!(f, "{d} = {}", Reg(d.0, a)),
            Op::Assign(d, a, flag) => write!(f, "{d} = {}; {} = true", Reg(d.0, a), b(flag)),
            Op::Arith(op, d, x, y) => {
                write!(f, "{d} = {} {} {}", Reg(d.0, x), SYMBOLS[op as usize], Reg(d.0, y))
            }
            Op::Cmp(op, d, x, y) => {
                write!(f, "{} = {x} {} {}", b(d), SYMBOLS[op as usize], Reg(x.0, y))
            }
            Op::Pick(max, d, x, y) => {
                let name = if max { "max" } else { "min" };
                write!(f, "{d} = {name}({}, {})", Reg(d.0, x), Reg(d.0, y))
            }
            Op::Neg(d, x) => write!(f, "{d} = -{}", Reg(d.0, x)),
            Op::Abs(d, x) => write!(f, "{d} = abs {}", Reg(d.0, x)),
            Op::Not(d, x) => write!(f, "{} = !{}", b(d), b(x)),
            Op::Widen(d, x) => write!(f, "{} = {} as double", fl(d), i(x)),
            Op::Trunc(d, x) => write!(f, "{} = {} as long", i(d), fl(x)),
            Op::Int(d, x) => write!(f, "{} = {} as int", i(d), i(x)),
            Op::TruncInt(d, x) => write!(f, "{} = {} as int", i(d), fl(x)),
            Op::Float(d, x) => write!(f, "{} = {} as float", fl(d), fl(x)),
            Op::Jump(t) => write!(f, "goto {t}"),
            Op::Branch(c, true, t) => write!(f, "if {} goto {t}", b(c)),
            Op::Branch(c, false, t) => write!(f, "if !{} goto {t}", b(c)),
        }
    }
}
