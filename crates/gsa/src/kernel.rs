//! Typed kernels: expressions compiled to flat register programs.
//!
//! At plan time every expression the engine evaluates per row, per start
//! or per walk is lowered to a [`Kernel`]: a flat program over three
//! register banks — `i64`, `f64` and `bool` — whose leaves read a column
//! cell of walk position 0, a global, a degree, a walk vertex id or `V`
//! through the same [`EvalContext`] the interpreter uses. A kernel computes
//! bit for bit what [`crate::expr::eval`] computes (DESIGN.md §10.4):
//! total division, wrapping integer arithmetic, `long`/`double` promotion,
//! short-circuit `And`/`Or`, `Value::total_cmp` ordering and `Value::cast`.
//! A node typed `int`, `float` or `Array` has no kernel, so the kernel
//! fragment has no error path; such an expression stays on the interpreter
//! ([`Compiled`]).

use crate::expr::{eval, BinOp, EdgeDir, EvalContext, Expr, Func, UnOp};
use crate::value::{PrimType, Value, ValueType};
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

fn bank(ty: ValueType) -> Option<Bank> {
    match ty {
        ValueType::Prim(PrimType::Long) => Some(Bank::I),
        ValueType::Prim(PrimType::Double) => Some(Bank::F),
        ValueType::Prim(PrimType::Bool) => Some(Bank::B),
        _ => None,
    }
}

/// A register: its bank and its index there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reg(Bank, u16);

/// One instruction, destination first; a bare `u16` operand is a register
/// of the bank the op implies (or, after a `Reg`, of that `Reg`'s bank).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// A literal's bits, or a global: loaded by [`Kernel::prime`].
    Const(Reg, u64),
    Global(Reg, u32),
    /// The cell of attribute `.1` at walk position 0.
    Col(Reg, u32),
    /// The id of walk position `.1`.
    Vertex(u16, u32),
    NumVertices(u16),
    Degree(u16, u32, EdgeDir),
    Mov(Reg, u16),
    /// Assign slot `.0` from `.1` and set its flag `b[.2]`.
    Assign(Reg, u16, u16),
    /// `long` or `double` arithmetic, by the destination's bank.
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

/// A vertex program's assignable attribute: its register, and the `bool`
/// register that says whether the run assigned it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Slot {
    attr: usize,
    reg: Reg,
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
    out: Option<Reg>,
    slots: Vec<Slot>,
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

/// A register's bits as the `Value` of its bank.
fn value(bank: Bank, bits: u64) -> Value {
    match bank {
        Bank::I => Value::Long(bits as i64),
        Bank::F => Value::Double(f64::from_bits(bits)),
        Bank::B => Value::Bool(bits != 0),
    }
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
    /// The kernel of one expression; `None` when a node's type has none.
    pub fn expr(e: &Expr, schema: &Schema) -> Option<Kernel> {
        let mut b = Builder::new(schema, &[])?;
        let out = Some(b.expr(e)?);
        Some(Kernel { out, ..b.k })
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
            let (d, bits) = match *op {
                Op::Const(d, bits) => (d, bits),
                Op::Global(d, g) => match &globals[g as usize] {
                    Value::Bool(x) => (d, *x as u64),
                    Value::Long(x) => (d, *x as u64),
                    Value::Double(x) => (d, x.to_bits()),
                    v => unreachable!("no kernel reads the global {v:?}"),
                },
                op => unreachable!("{op:?} is not a load"),
            };
            frame.put(d, bits);
        }
    }

    /// Run over `ctx` on a primed frame.
    pub fn run<C: EvalContext + ?Sized>(&self, ctx: &C, fr: &mut Frame) {
        for s in &self.slots {
            let (col, row) = ctx.column(s.attr);
            fr.put(s.reg, col.bits(row));
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
                    fr.put(d, col.bits(row));
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
                Op::Jump(t) => pc = t as usize,
                Op::Branch(c, when, t) if fr.b[u(c)] == when => pc = t as usize,
                Op::Branch(..) => {}
            }
        }
    }

    /// An expression kernel's result after [`Kernel::run`].
    pub fn out(&self, frame: &Frame) -> Value {
        let out = self.out.expect("an expression kernel");
        value(out.0, frame.bits(out))
    }

    /// A vertex program's assignments after [`Kernel::run`]: `(attribute,
    /// bits)` in attribute order, as [`crate::ColumnData::set_bits`] takes.
    pub fn writes<'f>(&'f self, frame: &'f Frame) -> impl Iterator<Item = (usize, u64)> + 'f {
        let written = self.slots.iter().filter(|s| frame.b[s.written as usize]);
        written.map(|s| (s.attr, frame.bits(s.reg)))
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
            Some(r) => lines.push(format!("out: {r}")),
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
    known: Vec<(Expr, Reg)>,
    /// Where each open conditional region's entries of `known` start.
    regions: Vec<usize>,
}

impl<'s> Builder<'s> {
    /// A vertex program's builder: `assigned` are the attributes it may
    /// assign, each loaded into its slot as the run starts. `None` when one
    /// has no kernel type.
    pub fn new(schema: &'s Schema, assigned: &[usize]) -> Option<Builder<'s>> {
        let (k, known, regions) = Default::default();
        let mut b = Builder { schema, k, known, regions };
        for &attr in assigned {
            let reg = b.fresh(bank(*schema.columns.get(attr)?)?);
            let written = b.fresh(Bank::B).1;
            b.k.slots.push(Slot { attr, reg, written });
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

    /// `r` as a `double`, widening a `long`.
    fn float(&mut self, r: Reg) -> Option<u16> {
        match r.0 {
            Bank::F => Some(r.1),
            Bank::I => Some(self.emit(Bank::F, false, |d| Op::Widen(d.1, r.1)).1),
            Bank::B => None,
        }
    }

    /// Compile `e`, or reuse its register; `None` when a node has no kernel.
    fn expr(&mut self, e: &Expr) -> Option<Reg> {
        if let Some((_, r)) = self.known.iter().find(|(k, _)| k == e) {
            return Some(*r);
        }
        let r = self.node(e)?;
        self.known.push((e.clone(), r));
        Some(r)
    }

    fn node(&mut self, e: &Expr) -> Option<Reg> {
        let lit = |bits| move |d| Op::Const(d, bits);
        Some(match e {
            Expr::Lit(Value::Long(x)) => self.emit(Bank::I, true, lit(*x as u64)),
            Expr::Lit(Value::Double(x)) => self.emit(Bank::F, true, lit(x.to_bits())),
            Expr::Lit(Value::Bool(x)) => self.emit(Bank::B, true, lit(*x as u64)),
            Expr::Lit(_) | Expr::AttrElem { .. } | Expr::Attr { pos: 1.., .. } => return None,
            Expr::Attr { attr, .. } => match self.k.slots.iter().find(|s| s.attr == *attr) {
                Some(slot) => slot.reg,
                None => {
                    let bank = bank(*self.schema.columns.get(*attr)?)?;
                    self.emit(bank, false, |d| Op::Col(d, *attr as u32))
                }
            },
            Expr::Global(g) => {
                let bank = bank(ValueType::Prim(*self.schema.globals.get(*g)?))?;
                self.emit(bank, true, |d| Op::Global(d, *g as u32))
            }
            Expr::WalkVertex(p) => self.emit(Bank::I, false, |d| Op::Vertex(d.1, *p as u32)),
            Expr::NumVertices => self.emit(Bank::I, false, |d| Op::NumVertices(d.1)),
            Expr::Degree { pos, dir } => {
                self.emit(Bank::I, false, |d| Op::Degree(d.1, *pos as u32, *dir))
            }
            Expr::Unary(op, x) => {
                let a = self.expr(x)?;
                match (op, a.0) {
                    (UnOp::Not, Bank::B) => self.emit(a.0, false, |d| Op::Not(d.1, a.1)),
                    (UnOp::Neg, Bank::I | Bank::F) => self.emit(a.0, false, |d| Op::Neg(d, a.1)),
                    _ => return None,
                }
            }
            Expr::Call(Func::Abs, args) => {
                let a = self.expr(args.first()?).filter(|a| a.0 != Bank::B)?;
                self.emit(a.0, false, |d| Op::Abs(d, a.1))
            }
            Expr::Call(f, args) => {
                let [l, r] = args.as_slice() else { return None };
                let (a, b) = (self.expr(l)?, self.expr(r)?);
                // Mixed banks: the result's type would depend on the data.
                (a.0 == b.0).then_some(())?;
                self.emit(a.0, false, |d| Op::Pick(*f == Func::Max, d, a.1, b.1))
            }
            Expr::Cast(ty, x) => {
                let a = self.expr(x)?;
                match (ty, a.0) {
                    (PrimType::Bool, Bank::B) | (PrimType::Long, Bank::I) => a,
                    (PrimType::Double, Bank::F) => a,
                    (PrimType::Long, Bank::F) => self.emit(Bank::I, false, |d| Op::Trunc(d.1, a.1)),
                    (PrimType::Double, Bank::I) => Reg(Bank::F, self.float(a)?),
                    _ => return None,
                }
            }
            Expr::Binary(op @ (BinOp::And | BinOp::Or), l, r) => {
                let a = self.expr(l).filter(|a| a.0 == Bank::B)?;
                let d = self.emit(Bank::B, false, |d| Op::Mov(d, a.1));
                let skip = self.k.code.len();
                self.k.code.push(Op::Branch(d.1, *op == BinOp::Or, 0));
                self.regions.push(self.known.len());
                let b = self.expr(r).filter(|b| b.0 == Bank::B)?;
                self.k.code.push(Op::Mov(d, b.1));
                self.end(skip);
                d
            }
            Expr::Binary(op, l, r) => {
                let (a, b) = (self.expr(l)?, self.expr(r)?);
                let (bank, a, b) = match (a.0, b.0) {
                    (Bank::I, Bank::I) | (Bank::B, Bank::B) => (a.0, a.1, b.1),
                    (Bank::B, _) | (_, Bank::B) => return None,
                    _ => (Bank::F, self.float(a)?, self.float(b)?),
                };
                match (op.is_comparison(), bank) {
                    (true, _) => self.emit(Bank::B, false, |d| Op::Cmp(*op, d.1, Reg(bank, a), b)),
                    (false, Bank::B) => return None,
                    (false, _) => self.emit(bank, false, |d| Op::Arith(*op, d, a, b)),
                }
            }
        })
    }

    /// `u.attr = value` (the attribute must be one of the slots). Every
    /// known value may have read the slot, so none is known after it.
    pub fn assign(&mut self, attr: usize, value: &Expr) -> Option<()> {
        let slot = *self.k.slots.iter().find(|s| s.attr == attr)?;
        let v = self.expr(value).filter(|v| v.0 == slot.reg.0)?;
        self.k.code.push(Op::Assign(slot.reg, v.1, slot.written));
        self.known.clear();
        self.regions.iter_mut().for_each(|start| *start = 0);
        Some(())
    }

    /// Open a region run only when `cond` holds: returns the jump past it
    /// for [`Builder::otherwise`] or [`Builder::end`].
    pub fn branch(&mut self, cond: &Expr) -> Option<usize> {
        let c = self.expr(cond).filter(|c| c.0 == Bank::B)?;
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

/// An expression as the engine evaluates it: its kernel, or — when a node
/// has no kernel type — the interpreter.
#[derive(Debug, Clone, PartialEq)]
pub enum Compiled {
    Kernel(Kernel),
    Interp(Expr),
}

impl Compiled {
    pub fn new(e: &Expr, schema: &Schema) -> Compiled {
        Kernel::expr(e, schema).map_or_else(|| Compiled::Interp(e.clone()), Compiled::Kernel)
    }

    /// The expression's value; an interpreter error panics.
    pub fn value<C: EvalContext>(&self, ctx: &C, frame: &mut Frame) -> Value {
        match self {
            Compiled::Kernel(k) => {
                k.prime(&[], frame);
                k.run(ctx, frame);
                k.out(frame)
            }
            Compiled::Interp(e) => eval(e, ctx).expect("expression evaluation"),
        }
    }

    /// Whether a condition holds; an interpreter error or a value other
    /// than `true` is `false`.
    pub fn test<C: EvalContext>(&self, ctx: &C, frame: &mut Frame) -> bool {
        match self {
            Compiled::Kernel(k) => {
                k.prime(&[], frame);
                k.run(ctx, frame);
                k.out.is_some_and(|Reg(bank, r)| bank == Bank::B && frame.b[r as usize])
            }
            Compiled::Interp(e) => eval(e, ctx).is_ok_and(|v| v == Value::Bool(true)),
        }
    }

    /// [`Kernel::listing`], or the interpreted expression.
    pub fn listing(&self, indent: &str) -> String {
        match self {
            Compiled::Kernel(k) => k.listing(indent),
            Compiled::Interp(e) => format!("{indent}interpreted: {e:?}\n"),
        }
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
            Op::Const(d, bits) => write!(f, "{d} = {}", value(d.0, bits)),
            Op::Global(d, g) => write!(f, "{d} = global {g}"),
            Op::Col(d, a) => write!(f, "{d} = col {a}"),
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
            Op::Jump(t) => write!(f, "goto {t}"),
            Op::Branch(c, true, t) => write!(f, "if {} goto {t}", b(c)),
            Op::Branch(c, false, t) => write!(f, "if !{} goto {t}", b(c)),
        }
    }
}
