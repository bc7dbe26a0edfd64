//! Accumulator state and incremental Accumulate (paper §5.4).
//!
//! Every accumulator folds by one [`Maintain`] algebra, the lane
//! [`AccmLane::select`] picks for its declared `(op, prim)` pair (DESIGN.md
//! §10.1): a [`Group`] (SUM, PROD) or a [`Monoid`] (MIN, MAX; OR and AND
//! are MAX and MIN over `bool`). The algebra's typed cells pre-aggregate a
//! walk's contributions, merge the cells other machines send — a
//! [`Contribution`] is a cell's wire form — reduce the global partials,
//! and settle onto the stored row: value, contribution count (Update runs
//! where any is positive) and, for monoids, support columns, by the
//! algebra's retraction rule (DESIGN.md §4.4).

use itg_compiler::AccmLane;
use itg_gsa::value::{ColumnData, PrimType, Value, ValueType};
use itg_gsa::{FxHashSet, VertexId};
use itg_lnga::AccmInfo;
use std::any::Any;
use std::cmp::Ordering;
use std::fmt::Debug;
use std::iter::repeat_n;
use std::marker::PhantomData;
use std::sync::Mutex;

/// Column layout of the accumulator state: `[values..][counts..][supports..]`
/// where supports exist only for monoid accumulators.
#[derive(Debug, Clone)]
pub struct AccmLayout {
    pub accms: Vec<AccmInfo>,
    /// Support-column index per accumulator (monoids only).
    support_col: Vec<Option<usize>>,
    pub num_cols: usize,
    may_recompute: bool,
    /// Per column, the identity state's bits: each value its algebra's
    /// identity, every count and support 0.
    identity: Vec<u64>,
}

impl AccmLayout {
    pub fn new(accms: &[AccmInfo]) -> AccmLayout {
        // Every monoid (MIN/MAX, and the boolean OR/AND) carries a support
        // count for the CNT optimization; a group retracts by inverse.
        let mut next = 2 * accms.len();
        let mut support = |a: &AccmInfo| {
            let col = (!a.op.is_group()).then_some(next);
            next += col.is_some() as usize;
            col
        };
        let support_col = accms.iter().map(&mut support).collect();
        let values = accms.iter().map(|a| with_algebra(a, IdentityBits));
        AccmLayout {
            accms: accms.to_vec(),
            support_col,
            num_cols: next,
            may_recompute: accms.iter().any(|a| !AccmLane::of(a).always_inverts()),
            identity: values.chain(repeat_n(0, next - accms.len())).collect(),
        }
    }

    /// Whether some lane's settle can ask for a recompute: every lane but
    /// SUM's, whose retractions always have an inverse
    /// ([`AccmLane::always_inverts`]).
    pub fn may_recompute(&self) -> bool {
        self.may_recompute
    }

    pub fn num_accms(&self) -> usize {
        self.accms.len()
    }

    pub fn count_col(&self, i: usize) -> usize {
        self.accms.len() + i
    }

    /// Column types for the backing [`itg_store::AttrStore`].
    pub fn column_types(&self) -> Vec<ValueType> {
        let values = self.accms.iter().map(|a| ValueType::Prim(a.prim));
        let long = ValueType::Prim(PrimType::Long);
        values.chain(repeat_n(long, self.num_cols - self.accms.len())).collect()
    }

    /// Fresh identity-state columns for `n` vertices: each value its
    /// algebra's identity, every count and support 0.
    pub fn identity_columns(&self, n: usize) -> Vec<ColumnData> {
        let mut cols: Vec<ColumnData> =
            self.column_types().into_iter().map(|ty| ColumnData::zeros(ty, n)).collect();
        self.reset_rows(&mut cols, None);
        cols
    }

    /// Put the identity state back on the rows `rows` of `cols` — on every
    /// row for `None` — one bulk fill per column.
    pub fn reset_rows(&self, cols: &mut [ColumnData], rows: Option<&[u32]>) {
        for (col, &bits) in cols.iter_mut().zip(&self.identity) {
            col.fill_bits(rows, bits);
        }
    }

    /// Is the vertex touched (any positive contribution count)?
    pub fn touched(&self, cols: &[ColumnData], local: usize) -> bool {
        (0..self.num_accms()).any(|i| cols[self.count_col(i)].bits(local) as i64 > 0)
    }

    /// Reset accumulator `i`'s row at `local` to the identity (a
    /// recompute's start).
    pub fn reset(&self, cols: &mut [ColumnData], local: usize, i: usize) {
        for c in [i, self.count_col(i)].into_iter().chain(self.support_col[i]) {
            cols[c].set_bits(local, self.identity[c]);
        }
    }
}

/// What a retraction, or a whole contribution, did to a stored state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Unchanged,
    Changed,
    /// A monoid retraction took its extremum's last support (or CNT is off),
    /// or a group retraction has no inverse (a PROD factor 0, or not ±1 for
    /// `int`/`long`): recompute from the inputs.
    NeedsRecompute,
}

/// How one accumulator algebra (paper §5.4) folds the contributions to one
/// target into a cell — their net count, their folded state, and the
/// retractions it carries raw — and settles a cell onto a stored row.
pub trait Maintain: Send + Sync + Debug + 'static {
    type Cell: Clone + Send + Debug + 'static;
    type Prim: Prim;
    /// The value of no contributions.
    const IDENTITY: Self::Prim;

    /// The aggregate of nothing.
    fn identity(&self) -> Self::Cell;
    /// Add `m` copies of `v`, one at a time (IEEE folds do not associate).
    fn insert(&self, c: &mut Self::Cell, v: Self::Prim, m: u64);
    /// Record `m` retractions of `v`: counted, folded by the inverse where
    /// a group has one, else carried raw for the stored row to settle.
    fn defer(&self, c: &mut Self::Cell, v: Self::Prim, m: u64);
    /// Fold another aggregate of the same target into `c`.
    fn merge(&self, c: &mut Self::Cell, o: &Self::Cell);
    /// The cell as a frame to another process carries it.
    fn wire(&self, c: Self::Cell) -> Contribution;
    /// [`Contribution::wire_bytes`] of the cell's wire form, without
    /// building it.
    fn wire_bytes(&self, c: &Self::Cell) -> u64;
    /// The cell a received wire form carries (merged into the identity
    /// before use, as every received cell is).
    fn unwire(&self, c: &Contribution) -> Self::Cell;
    /// Settle `c` onto a stored row under CNT `cnt` by the retraction rule:
    /// its outcome, the row left as it was when that is a recompute.
    fn settle(&self, row: Row<'_>, c: &Self::Cell, cnt: bool) -> Outcome;
    /// A global's value from its reduced cell: folded onto the identity,
    /// or onto the previous snapshot's value `prev` as onto a stored row
    /// that keeps no count and no support — `None` to recompute.
    fn global(&self, prev: Option<Self::Prim>, c: &Self::Cell) -> Option<Self::Prim>;

    /// Fold one walk's contribution (`mult` = ±1 … ±k), its value as the
    /// lane's primitive.
    #[inline]
    fn add(&self, c: &mut Self::Cell, v: Self::Prim, mult: i64) {
        if mult > 0 {
            self.insert(c, v, mult as u64);
        } else {
            self.defer(c, v, mult.unsigned_abs());
        }
    }
}

/// A lane's primitive: its boxed form, its bits, and its extremum order
/// (`total_cmp` for floats: `Equal` is bitwise `Value` equality, which
/// tells `-0.0` from `0.0`) and bounds.
pub trait Prim: Copy + Default + Send + Sync + Debug + 'static {
    const LEAST: Self;
    const GREATEST: Self;
    fn cmp(a: &Self, b: &Self) -> Ordering;
    fn wrap(self) -> Value;
    fn lift(v: &Value) -> Self;
    /// [`ColumnData::bits`] as the primitive, and back.
    fn from_bits(bits: u64) -> Self;
    fn bits(self) -> u64;
}

macro_rules! prims {
    ($($t:ty: $least:expr, $greatest:expr, $cmp:ident, $variant:ident, $lift:expr,
       $from:expr, $to:expr;)*) => {$(
        impl Prim for $t {
            const LEAST: $t = $least;
            const GREATEST: $t = $greatest;
            #[inline]
            fn cmp(a: &$t, b: &$t) -> Ordering {
                a.$cmp(b)
            }
            fn wrap(self) -> Value {
                Value::$variant(self)
            }
            #[inline]
            fn lift(v: &Value) -> $t {
                $lift(v)
            }
            #[inline]
            fn from_bits(bits: u64) -> $t {
                $from(bits)
            }
            #[inline]
            fn bits(self) -> u64 {
                $to(self)
            }
        }
    )*};
}

// Lifts read a value as `AccmOp::combine` does: integers through `i64`,
// `float` through `f64` — but a `float` keeps its bits, as a boxed
// extremum does.
prims! {
    i32: i32::MIN, i32::MAX, cmp, Int, |v: &Value| v.as_i64().unwrap_or_default() as i32,
        |b| b as u32 as i32, |x| x as u32 as u64;
    i64: i64::MIN, i64::MAX, cmp, Long, |v: &Value| v.as_i64().unwrap_or_default(),
        |b| b as i64, |x| x as u64;
    f32: f32::NEG_INFINITY, f32::INFINITY, total_cmp, Float, |v: &Value| match v {
            Value::Float(x) => *x,
            v => v.as_f64().unwrap_or_default() as f32,
        },
        |b| f32::from_bits(b as u32), |x: f32| x.to_bits() as u64;
    f64: f64::NEG_INFINITY, f64::INFINITY, total_cmp, Double,
        |v: &Value| v.as_f64().unwrap_or_default(), f64::from_bits, f64::to_bits;
    bool: false, true, cmp, Bool, |v: &Value| v.as_bool().unwrap_or_default(),
        |b| b != 0, |x| x as u64;
}

/// A primitive whose SUM and PROD are groups, folding as
/// [`itg_gsa::accm::AccmOp::combine`] and its `inverse` do: the integers
/// wrap; a `float` step is an `f64` one, rounded.
pub trait Ring: Prim {
    const ZERO: Self;
    const ONE: Self;
    fn add(self, v: Self) -> Self;
    fn sub(self, v: Self) -> Self;
    fn mul(self, v: Self) -> Self;
    /// The PROD inverse `1 / v`: none for 0, and none but ±1 for integers.
    fn recip(self) -> Option<Self>;
}

macro_rules! rings {
    ($($t:ty: $zero:literal, $one:literal, $add:expr, $sub:expr, $mul:expr, $recip:expr;)*) => {$(
        impl Ring for $t {
            const ZERO: $t = $zero;
            const ONE: $t = $one;
            fn add(self, v: $t) -> $t {
                $add(self, v)
            }
            fn sub(self, v: $t) -> $t {
                $sub(self, v)
            }
            fn mul(self, v: $t) -> $t {
                $mul(self, v)
            }
            fn recip(self) -> Option<$t> {
                $recip(self)
            }
        }
    )*};
}

rings! {
    i32: 0, 1, i32::wrapping_add, i32::wrapping_sub, i32::wrapping_mul,
        |v: i32| (v == 1 || v == -1).then_some(v);
    i64: 0, 1, i64::wrapping_add, i64::wrapping_sub, i64::wrapping_mul,
        |v: i64| (v == 1 || v == -1).then_some(v);
    f32: 0.0, 1.0, |a, b| (a as f64 + b as f64) as f32, |a, b| (a as f64 - b as f64) as f32,
        |a, b| (a as f64 * b as f64) as f32, |v: f32| (v != 0.0).then(|| 1.0 / v);
    f64: 0.0, 1.0, |a, b| a + b, |a, b| a - b, |a, b| a * b, |v: f64| (v != 0.0).then(|| 1.0 / v);
}

/// SUM (`PROD = false`) or PROD over a [`Ring`]: a retraction folds its
/// inverse; a PROD factor without one is carried raw, and settling it
/// recomputes.
#[derive(Debug, Default)]
pub struct Group<T, const PROD: bool>(PhantomData<T>);

#[derive(Debug, Clone)]
pub struct GroupCell<T> {
    folded: T,
    count: i64,
    /// Retractions without an inverse, in contribution order (none for a
    /// SUM, which keeps its cells small).
    raw: Option<Box<[T]>>,
}

impl<T: Copy> GroupCell<T> {
    fn carry(&mut self, more: impl IntoIterator<Item = T>) {
        let raw = self.raw.take().unwrap_or_default();
        self.raw = Some(raw.iter().copied().chain(more).collect());
    }
}

impl<T: Ring, const PROD: bool> Group<T, PROD> {
    fn op(a: T, b: T) -> T {
        if PROD {
            a.mul(b)
        } else {
            a.add(b)
        }
    }

    /// The inverse: `0 - v` for SUM (`-v` would flip a float zero's sign).
    fn inverse(v: T) -> Option<T> {
        if PROD {
            v.recip()
        } else {
            Some(T::ZERO.sub(v))
        }
    }
}

impl<T: Ring, const PROD: bool> Maintain for Group<T, PROD> {
    type Cell = GroupCell<T>;
    type Prim = T;
    const IDENTITY: T = if PROD { T::ONE } else { T::ZERO };

    fn identity(&self) -> GroupCell<T> {
        GroupCell {
            folded: Self::IDENTITY,
            count: 0,
            raw: None,
        }
    }
    /// `m` copies fold one at a time: IEEE folds do not associate.
    fn insert(&self, c: &mut GroupCell<T>, v: T, m: u64) {
        c.count += m as i64;
        c.folded = (0..m).fold(c.folded, |a, _| Self::op(a, v));
    }
    fn defer(&self, c: &mut GroupCell<T>, v: T, m: u64) {
        c.count -= m as i64;
        match Self::inverse(v) {
            Some(inv) => c.folded = (0..m).fold(c.folded, |a, _| Self::op(a, inv)),
            None => c.carry(repeat_n(v, m as usize)),
        }
    }
    fn merge(&self, c: &mut GroupCell<T>, o: &GroupCell<T>) {
        c.count += o.count;
        c.folded = Self::op(c.folded, o.folded);
        if let Some(raw) = &o.raw {
            c.carry(raw.iter().copied());
        }
    }
    fn wire(&self, c: GroupCell<T>) -> Contribution {
        Contribution {
            folded: c.folded.wrap(),
            count: c.count,
            monoid: None,
            retractions: c.raw.map_or_else(Vec::new, |r| r.iter().map(|x| x.wrap()).collect()),
        }
    }
    fn wire_bytes(&self, c: &GroupCell<T>) -> u64 {
        wire_size(c.raw.as_ref().map_or(0, |r| r.len()), false)
    }
    fn unwire(&self, c: &Contribution) -> GroupCell<T> {
        GroupCell {
            folded: T::lift(&c.folded),
            count: c.count,
            raw: (!c.retractions.is_empty()).then(|| c.retractions.iter().map(T::lift).collect()),
        }
    }
    /// The stored value folds the cell's, then each raw retraction's
    /// inverse; one without an inverse recomputes. A count back at zero
    /// is the exact identity (an IEEE fold may leave residue).
    fn settle(&self, row: Row<'_>, c: &GroupCell<T>, _cnt: bool) -> Outcome {
        row.settle(|value: T, count, _| {
            let mut folded = Self::op(value, c.folded);
            for &r in c.raw.iter().flat_map(|r| r.iter()) {
                folded = Self::op(folded, Self::inverse(r)?);
            }
            let count = count + c.count;
            Some((if count == 0 { Self::IDENTITY } else { folded }, count, 0))
        })
    }
    /// (A full scan, the only fold without `prev`, retracts nothing.)
    fn global(&self, prev: Option<T>, c: &GroupCell<T>) -> Option<T> {
        let folds = c.raw.as_ref().is_none_or(|r| r.is_empty());
        folds.then(|| Self::op(prev.unwrap_or(Self::IDENTITY), c.folded))
    }
}

/// Fold `n` copies of `v` into an extremum and its support; `cmp(a, b)` is
/// `Less` when `a` is strictly better, `Equal` when bit-identical.
fn join<T: Clone>(top: &mut Option<(T, u64)>, v: &T, n: u64, cmp: impl Fn(&T, &T) -> Ordering) {
    match top {
        _ if n == 0 => {}
        None => *top = Some((v.clone(), n)),
        Some((t, s)) => match cmp(v, t) {
            Ordering::Less => (*t, *s) = (v.clone(), n),
            Ordering::Equal => *s += n,
            Ordering::Greater => {}
        },
    }
}

/// MIN (`MAX = false`) or MAX over a [`Prim`] — OR and AND are MAX and MIN
/// over `false < true`.
#[derive(Debug, Default)]
pub struct Monoid<T, const MAX: bool>(PhantomData<T>);

impl<T: Prim, const MAX: bool> Monoid<T, MAX> {
    /// `Less` when `a` is the strictly better extremum.
    fn better(a: &T, b: &T) -> Ordering {
        let (a, b) = if MAX { (b, a) } else { (a, b) };
        T::cmp(a, b)
    }
}

#[derive(Debug, Clone, Default)]
pub struct MonoidCell<T> {
    count: i64,
    top: Option<(T, u64)>,
    retractions: Vec<T>,
}

impl<T: Prim, const MAX: bool> Maintain for Monoid<T, MAX> {
    type Cell = MonoidCell<T>;
    type Prim = T;
    const IDENTITY: T = if MAX { T::LEAST } else { T::GREATEST };

    fn identity(&self) -> MonoidCell<T> {
        MonoidCell::default()
    }
    fn insert(&self, c: &mut MonoidCell<T>, v: T, m: u64) {
        c.count += m as i64;
        join(&mut c.top, &v, m, Self::better);
    }
    fn defer(&self, c: &mut MonoidCell<T>, v: T, m: u64) {
        c.count -= m as i64;
        c.retractions.extend(repeat_n(v, m as usize));
    }
    fn merge(&self, c: &mut MonoidCell<T>, o: &MonoidCell<T>) {
        c.count += o.count;
        if let Some((v, n)) = &o.top {
            join(&mut c.top, v, *n, Self::better);
        }
        c.retractions.extend_from_slice(&o.retractions);
    }
    fn wire(&self, c: MonoidCell<T>) -> Contribution {
        Contribution {
            folded: Self::IDENTITY.wrap(),
            count: c.count,
            monoid: c.top.map(|(v, n)| (v.wrap(), n)),
            retractions: c.retractions.into_iter().map(T::wrap).collect(),
        }
    }
    fn wire_bytes(&self, c: &MonoidCell<T>) -> u64 {
        wire_size(c.retractions.len(), c.top.is_some())
    }
    fn unwire(&self, c: &Contribution) -> MonoidCell<T> {
        MonoidCell {
            count: c.count,
            top: c.monoid.as_ref().map(|(v, n)| (T::lift(v), *n)),
            retractions: c.retractions.iter().map(T::lift).collect(),
        }
    }
    /// The stored extremum joins the cell's; then each raw retraction, one
    /// at a time: without CNT it recomputes; with CNT one of the extremum
    /// takes a support, recomputing when none would remain, and any other
    /// leaves it standing. A count back at zero is the identity.
    fn settle(&self, row: Row<'_>, c: &MonoidCell<T>, cnt: bool) -> Outcome {
        row.settle(|value: T, count, support| {
            let mut top = (support != 0).then_some((value, support));
            if let Some((v, n)) = &c.top {
                join(&mut top, v, *n, Self::better);
            }
            for r in &c.retractions {
                match &mut top {
                    _ if !cnt => return None,
                    Some((t, s)) if T::cmp(t, r).is_eq() && *s > 1 => *s -= 1,
                    Some((t, _)) if T::cmp(t, r).is_eq() => return None,
                    // No extremum reads as the identity.
                    None if T::cmp(r, &Self::IDENTITY).is_eq() => return None,
                    _ => {}
                }
            }
            let count = count + c.count;
            let (value, support) = top.filter(|_| count != 0).unwrap_or((Self::IDENTITY, 0));
            Some((value, count, support))
        })
    }
    fn global(&self, prev: Option<T>, c: &MonoidCell<T>) -> Option<T> {
        let Some(prev) = prev else {
            let better = |&(t, _): &(T, u64)| Self::better(&t, &Self::IDENTITY).is_lt();
            return Some(c.top.filter(better).map_or(Self::IDENTITY, |(t, _)| t));
        };
        let empty = c.count == 0 && c.top.is_none() && c.retractions.is_empty();
        empty.then_some(prev)
    }
}

/// A pre-aggregated set of contributions to one target: the wire form of
/// every lane's cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Contribution {
    /// Group part: inserts and invertible retractions folded through the
    /// op (the identity for a monoid).
    pub folded: Value,
    /// Net contribution count.
    pub count: i64,
    /// Monoid part: the extremum of the inserts and its support.
    pub monoid: Option<(Value, u64)>,
    /// Retractions carried raw, in contribution order.
    pub retractions: Vec<Value>,
}

impl Contribution {
    /// Approximate serialized size in bytes, for network accounting.
    pub fn wire_bytes(&self) -> u64 {
        wire_size(self.retractions.len(), self.monoid.is_some())
    }
}

/// The accounted size of a cell carrying `retractions` raw and, with
/// `monoid`, an extremum.
fn wire_size(retractions: usize, monoid: bool) -> u64 {
    24 + retractions as u64 * 8 + if monoid { 16 } else { 0 }
}

/// Where a lane reports each target's settle outcome.
type Report<'a> = &'a mut dyn FnMut(VertexId, Outcome);

/// The settled columns, one set per machine.
type Cols<'a, 'c> = &'a mut [&'c mut [ColumnData]];

/// A target's row in the settled columns: its machine and local index.
type At<'a> = &'a dyn Fn(VertexId) -> (usize, usize);

/// Whether a target's cell, of the given wire size, leaves its buffer
/// when it drains.
type Leaves<'a> = &'a mut dyn FnMut(VertexId, u64) -> bool;

/// What one walk contributes: a value, or the Δvs pair `(old, new)` of
/// the value-change-aware path — retract `old`, insert `new`. A value is
/// the cell bits of the lane's primitive ([`Prim::from_bits`]): the
/// lowering casts every accumulated expression to its accumulator's
/// primitive, so an action kernel's result is already the lane's.
#[derive(Debug, Clone, Copy)]
pub enum Emit {
    One(u64),
    Pair(u64, u64),
}

impl Emit {
    /// Fold one walk of multiplicity `mult` into `c`.
    #[inline]
    fn fold<A: Maintain>(self, alg: &A, c: &mut A::Cell, mult: i64) {
        let x = A::Prim::from_bits;
        match self {
            Emit::One(v) => alg.add(c, x(v), mult),
            Emit::Pair(old, new) => {
                alg.add(c, x(old), -mult);
                alg.add(c, x(new), mult);
            }
        }
    }
}

/// An action's accumulator: vertex accumulator `a`, a cell per target id,
/// or global `g`, its one cell at id 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accm {
    Vertex(usize),
    Global(usize),
}

/// One accumulator's cells: a dense column over vertex ids, `None` where
/// untouched, and the ids touched, in first-touch order. Resetting walks
/// the touched list, so a lane costs the cells it holds, not |V|. A
/// global's one cell sits at id 0.
trait Lane: Any + Send + Debug {
    /// Make room for ids below `n`.
    fn grow(&mut self, n: usize);
    /// Fold one walk's contribution into `target`'s cell.
    fn add(&mut self, target: VertexId, e: Emit, mult: i64);
    /// Fold one start's neighbour run: the walk to `(d, m)` contributes
    /// with multiplicity `mult · m` to `d`'s cell — to cell 0 when
    /// `global` — skipping a `d` that `keep` does not hold. Returns the
    /// walks folded.
    fn scatter(
        &mut self,
        run: &[(VertexId, i64)],
        global: bool,
        mult: i64,
        e: Emit,
        keep: Option<&FxHashSet<VertexId>>,
    ) -> u64;
    /// Hand the touched cells over as a chunk's run; the lane is left
    /// empty.
    fn take_run(&mut self) -> Box<dyn Any + Send>;
    /// Fold a chunk's run: the first run's cells are moved in, a later
    /// run's merged onto the running cell, or onto the identity where
    /// there is none.
    fn fold_run(&mut self, run: Box<dyn Any + Send>, first: bool);
    /// Merge a received wire cell into `target`'s cell (onto the identity
    /// where there is none).
    fn receive(&mut self, target: VertexId, c: &Contribution);
    /// Pass every cell, in id order, with its [`Maintain::wire_bytes`] to
    /// `leaves`, and drain in its wire form each that leaves; the others
    /// stay.
    fn drain(&mut self, leaves: Leaves<'_>, f: &mut dyn FnMut(VertexId, Contribution));
    /// Cell 0 in its wire form, the identity's if untouched; the lane is
    /// left empty.
    fn drain_global(&mut self) -> Contribution;
    /// Settle every cell, in id order, onto accumulator `i`'s row of its
    /// target: in `cols[w]` at `local`, for `(w, local) = at(target)`. The
    /// lane is left empty.
    fn settle(&mut self, l: &AccmLayout, i: usize, cols: Cols, at: At, cnt: bool, on: Report);
    /// Cell 0 as a global's value ([`Maintain::global`]).
    fn global(&self, prev: Option<&Value>) -> Option<Value>;
    fn is_empty(&self) -> bool;
    /// The targets holding a cell, in first-touch order.
    fn targets(&self) -> &[VertexId];
}

#[derive(Debug)]
struct Cells<A: Maintain> {
    alg: A,
    cells: Vec<Option<A::Cell>>,
    touched: Vec<VertexId>,
}

/// `v`'s cell in `cells`, the identity's if it was untouched.
#[inline]
fn cell<'c, A: Maintain>(
    alg: &A,
    cells: &'c mut [Option<A::Cell>],
    touched: &mut Vec<VertexId>,
    v: VertexId,
) -> &'c mut A::Cell {
    let slot = &mut cells[v as usize];
    if slot.is_none() {
        touched.push(v);
    }
    slot.get_or_insert_with(|| alg.identity())
}

/// Take the touched cells out of `cells`, in `touched` order, leaving the
/// lane empty.
fn taken<'c, C>(
    cells: &'c mut [Option<C>],
    touched: &'c mut Vec<VertexId>,
) -> impl Iterator<Item = (VertexId, C)> + 'c {
    touched.drain(..).map(|v| (v, cells[v as usize].take().expect("a touched cell")))
}

impl<A: Maintain> Lane for Cells<A> {
    fn grow(&mut self, n: usize) {
        if self.cells.len() < n {
            self.cells.resize_with(n, || None);
        }
    }

    #[inline]
    fn add(&mut self, target: VertexId, e: Emit, mult: i64) {
        let Cells { alg, cells, touched } = self;
        e.fold(alg, cell(alg, cells, touched, target), mult);
    }

    fn scatter(
        &mut self,
        run: &[(VertexId, i64)],
        global: bool,
        mult: i64,
        e: Emit,
        keep: Option<&FxHashSet<VertexId>>,
    ) -> u64 {
        let Cells { alg, cells, touched } = self;
        let mut folded = 0;
        for &(d, m) in run {
            if keep.is_some_and(|k| !k.contains(&d)) {
                continue;
            }
            e.fold(alg, cell(alg, cells, touched, if global { 0 } else { d }), mult * m);
            folded += 1;
        }
        folded
    }

    fn take_run(&mut self) -> Box<dyn Any + Send> {
        let Cells { cells, touched, .. } = self;
        Box::new(taken(cells, touched).collect::<Vec<_>>())
    }

    fn fold_run(&mut self, run: Box<dyn Any + Send>, first: bool) {
        let run = run
            .downcast::<Vec<(VertexId, A::Cell)>>()
            .expect("one session's buffers share lanes");
        let Cells { alg, cells, touched } = self;
        for (v, c) in *run {
            if first {
                touched.push(v);
                cells[v as usize] = Some(c);
            } else {
                alg.merge(cell(alg, cells, touched, v), &c);
            }
        }
    }

    fn receive(&mut self, target: VertexId, c: &Contribution) {
        let Cells { alg, cells, touched } = self;
        alg.merge(cell(alg, cells, touched, target), &alg.unwire(c));
    }

    fn drain(&mut self, leaves: Leaves<'_>, f: &mut dyn FnMut(VertexId, Contribution)) {
        let Cells { alg, cells, touched } = self;
        touched.sort_unstable();
        touched.retain(|&v| {
            let cell = &mut cells[v as usize];
            !leaves(v, alg.wire_bytes(cell.as_ref().expect("a touched cell"))) || {
                f(v, alg.wire(cell.take().expect("a touched cell")));
                false
            }
        });
    }

    fn drain_global(&mut self) -> Contribution {
        let cell = self.cells[0].take();
        self.touched.clear();
        self.alg.wire(cell.unwrap_or_else(|| self.alg.identity()))
    }

    fn settle(&mut self, layout: &AccmLayout, i: usize, cols: Cols, at: At, cnt: bool, on: Report) {
        let Cells { alg, cells, touched } = self;
        touched.sort_unstable();
        for (v, c) in taken(cells, touched) {
            let (w, local) = at(v);
            let row = Row { layout, cols: &mut *cols[w], local, i };
            on(v, alg.settle(row, &c, cnt));
        }
    }

    fn global(&self, prev: Option<&Value>) -> Option<Value> {
        let identity = self.alg.identity();
        let cell = self.cells[0].as_ref().unwrap_or(&identity);
        self.alg.global(prev.map(A::Prim::lift), cell).map(Prim::wrap)
    }

    fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    fn targets(&self) -> &[VertexId] {
        &self.touched
    }
}

/// A use of an accumulator's algebra, generic over it.
trait WithAlgebra {
    type Out;
    fn with<A: Maintain>(self, alg: A) -> Self::Out;
}

/// The one lane dispatch: hand `w` the algebra of `info`'s lane.
fn with_algebra<W: WithAlgebra>(info: &AccmInfo, w: W) -> W::Out {
    match AccmLane::of(info) {
        AccmLane::SumI32 => w.with(Group::<i32, false>::default()),
        AccmLane::SumI64 => w.with(Group::<i64, false>::default()),
        AccmLane::SumF32 => w.with(Group::<f32, false>::default()),
        AccmLane::SumF64 => w.with(Group::<f64, false>::default()),
        AccmLane::ProdI32 => w.with(Group::<i32, true>::default()),
        AccmLane::ProdI64 => w.with(Group::<i64, true>::default()),
        AccmLane::ProdF32 => w.with(Group::<f32, true>::default()),
        AccmLane::ProdF64 => w.with(Group::<f64, true>::default()),
        AccmLane::MinI32 => w.with(Monoid::<i32, false>::default()),
        AccmLane::MinI64 => w.with(Monoid::<i64, false>::default()),
        AccmLane::MinF32 => w.with(Monoid::<f32, false>::default()),
        AccmLane::MinF64 => w.with(Monoid::<f64, false>::default()),
        AccmLane::MaxI32 => w.with(Monoid::<i32, true>::default()),
        AccmLane::MaxI64 => w.with(Monoid::<i64, true>::default()),
        AccmLane::MaxF32 => w.with(Monoid::<f32, true>::default()),
        AccmLane::MaxF64 => w.with(Monoid::<f64, true>::default()),
        AccmLane::OrBool => w.with(Monoid::<bool, true>::default()),
        AccmLane::AndBool => w.with(Monoid::<bool, false>::default()),
    }
}

/// A fresh lane, with room for no id yet.
struct NewLane;

impl WithAlgebra for NewLane {
    type Out = Box<dyn Lane>;
    fn with<A: Maintain>(self, alg: A) -> Box<dyn Lane> {
        Box::new(Cells {
            alg,
            cells: Vec::new(),
            touched: Vec::new(),
        })
    }
}

/// The bits of the algebra's identity.
struct IdentityBits;

impl WithAlgebra for IdentityBits {
    type Out = u64;
    fn with<A: Maintain>(self, _: A) -> u64 {
        A::IDENTITY.bits()
    }
}

/// Accumulator `i`'s stored row at `local`: where a cell settles.
pub struct Row<'a> {
    layout: &'a AccmLayout,
    cols: &'a mut [ColumnData],
    local: usize,
    i: usize,
}

impl Row<'_> {
    /// A lane's typed settle: `next` takes the stored value, count and
    /// support (0 for a group) to the settled ones, `None` to recompute.
    /// A retraction + insertion can leave value and count equal yet lower
    /// a monoid's support: that is a change, or the next batch retracts
    /// against a stale support and skips its recompute.
    fn settle<T: Prim>(self, next: impl FnOnce(T, i64, u64) -> Option<(T, i64, u64)>) -> Outcome {
        let (cols, l, sc) = (self.cols, self.local, self.layout.support_col[self.i]);
        let (vc, cc) = (self.i, self.layout.count_col(self.i));
        let support = sc.map_or(0, |s| cols[s].bits(l));
        let (value, count) = (T::from_bits(cols[vc].bits(l)), cols[cc].bits(l) as i64);
        let Some((v, n, s)) = next(value, count, support) else {
            return Outcome::NeedsRecompute;
        };
        if T::cmp(&v, &value).is_eq() && (n, s) == (count, support) {
            return Outcome::Unchanged;
        }
        cols[vc].set_bits(l, v.bits());
        cols[cc].set_bits(l, n as u64);
        if let Some(sc) = sc {
            cols[sc].set_bits(l, s);
        }
        Outcome::Changed
    }
}

/// Per-accumulator cells — one lane per vertex accumulator and one per
/// global accumulator: a worker's chunk scratch, an enumeration phase's
/// merged cells, a machine's exchange inbox, or the reduced global
/// partials. A vertex lane holds ids below what [`AccBuffer::grow`] made
/// room for.
#[derive(Debug)]
pub struct AccBuffer {
    vertex: Vec<Box<dyn Lane>>,
    globals: Vec<Box<dyn Lane>>,
}

/// One chunk's partial cells, handed over by [`AccBuffer::take_run`]: per
/// lane the cells it touched, in first-touch order.
#[derive(Debug)]
pub struct Run(Vec<Box<dyn Any + Send>>);

impl AccBuffer {
    /// An empty buffer, each accumulator on its lane, with room for no
    /// vertex id yet.
    pub fn new(accms: &[AccmInfo], globals: &[AccmInfo]) -> AccBuffer {
        let new = |infos: &[AccmInfo]| infos.iter().map(|i| with_algebra(i, NewLane)).collect();
        let mut buf = AccBuffer {
            vertex: new(accms),
            globals: new(globals),
        };
        buf.globals.iter_mut().for_each(|g| g.grow(1));
        buf
    }

    /// Make room for vertex ids below `n`.
    pub fn grow(&mut self, n: usize) {
        self.vertex.iter_mut().for_each(|lane| lane.grow(n));
    }

    /// No lane holds a cell.
    pub fn is_empty(&self) -> bool {
        self.vertex.iter().chain(&self.globals).all(|lane| lane.is_empty())
    }

    /// Fold one walk's contribution into `accm`: a vertex accumulator's
    /// cell for `target`, or a global's cell 0.
    #[inline]
    pub fn add(&mut self, accm: Accm, target: VertexId, e: Emit, mult: i64) {
        match accm {
            Accm::Vertex(a) => self.vertex[a].add(target, e, mult),
            Accm::Global(g) => self.globals[g].add(0, e, mult),
        }
    }

    /// Fold a start's neighbour run into `accm`: the walk to `(d, m)`
    /// with multiplicity `mult · m` into `d`'s cell of a vertex
    /// accumulator, or a global's cell 0, skipping a `d` outside `keep` —
    /// the same folds, in the same order, as one [`Self::add`] per walk.
    /// Returns the walks folded.
    pub fn scatter(
        &mut self,
        accm: Accm,
        run: &[(VertexId, i64)],
        mult: i64,
        e: Emit,
        keep: Option<&FxHashSet<VertexId>>,
    ) -> u64 {
        match accm {
            Accm::Vertex(a) => self.vertex[a].scatter(run, false, mult, e, keep),
            Accm::Global(g) => self.globals[g].scatter(run, true, mult, e, keep),
        }
    }

    /// Hand this chunk's cells over as a run, leaving the buffer empty.
    pub fn take_run(&mut self) -> Run {
        Run(self.vertex.iter_mut().chain(&mut self.globals).map(|lane| lane.take_run()).collect())
    }

    /// Fold one enumeration's chunk runs in chunk order, however the
    /// workers finished: chunk 0's cells are moved in, every later chunk's
    /// merged onto the running cell, or onto the identity where there is
    /// none — the association of a serial run over the same chunks, so the
    /// result is a function of the chunks, not the threads. An exchange
    /// inbox folds its senders by the same rule. (With exact lanes an
    /// enumeration hands over one run per worker, keyed by worker.)
    pub fn fold_runs(&mut self, mut runs: Vec<(usize, Run)>) {
        runs.sort_unstable_by_key(|&(ci, _)| ci);
        for (k, (_, run)) in runs.into_iter().enumerate() {
            self.fold_run(run, k == 0);
        }
    }

    /// Fold one run: moved in when `first`, else merged.
    pub fn fold_run(&mut self, Run(run): Run, first: bool) {
        let lanes = self.vertex.iter_mut().chain(&mut self.globals);
        lanes.zip(run).for_each(|(lane, cells)| lane.fold_run(cells, first));
    }

    /// Drain to the wire, as `(accumulator, target, cell)` in target
    /// order, every vertex cell that `leaves(target, wire size)` — which
    /// sees every cell, in the same order; the staying cells are left.
    pub fn drain(
        &mut self,
        mut leaves: impl FnMut(VertexId, u64) -> bool,
        mut vertex: impl FnMut(usize, VertexId, Contribution),
    ) {
        for (a, lane) in self.vertex.iter_mut().enumerate() {
            lane.drain(&mut leaves, &mut |v, c| vertex(a, v, c));
        }
    }

    /// One cell per global in its wire form, its identity if untouched;
    /// the global lanes are left empty.
    pub fn drain_globals(&mut self) -> Vec<Contribution> {
        self.globals.iter_mut().map(|lane| lane.drain_global()).collect()
    }

    /// Merge a received cell of vertex accumulator `a` into `target`'s.
    pub fn receive_vertex(&mut self, a: usize, target: VertexId, c: &Contribution) {
        self.vertex[a].receive(target, c);
    }

    /// Merge one machine's global partials, one cell per global; `false`
    /// if their number is not the globals'.
    pub fn receive_globals(&mut self, cells: &[Contribution]) -> bool {
        let fits = cells.len() == self.globals.len();
        if fits {
            self.globals.iter_mut().zip(cells).for_each(|(g, c)| g.receive(0, c));
        }
        fits
    }

    /// Settle every vertex cell, in target order, onto its target's row —
    /// in `cols[w]` at `local`, for `(w, local) = at(target)` — under CNT
    /// `cnt`, reporting each `(accumulator, target, outcome)`; the vertex
    /// lanes are left empty. A row to recompute is left as it was, for the
    /// reset.
    pub fn settle(
        &mut self,
        layout: &AccmLayout,
        cols: &mut [&mut [ColumnData]],
        at: &dyn Fn(VertexId) -> (usize, usize),
        cnt: bool,
        mut on: impl FnMut(usize, VertexId, Outcome),
    ) {
        for (i, lane) in self.vertex.iter_mut().enumerate() {
            lane.settle(layout, i, cols, at, cnt, &mut |v, outcome| on(i, v, outcome));
        }
    }

    /// The rows [`Self::settle`] reads and writes: each vertex lane's
    /// targets, lane by lane, so a row some lanes share comes once per lane.
    pub fn targets(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.vertex.iter().flat_map(|lane| lane.targets().iter().copied())
    }

    /// How many [`Self::targets`] there are: one length per lane.
    pub fn num_targets(&self) -> usize {
        self.vertex.iter().map(|lane| lane.targets().len()).sum()
    }

    /// The globals' values from their reduced cells, each folded onto the
    /// identity or, as a delta, onto the previous snapshot's value in
    /// `prev`: `None` when one must be recomputed by a full scan.
    pub fn global_values(&self, prev: Option<&[Value]>) -> Option<Vec<Value>> {
        let prev = |g: usize| prev.map(|p| &p[g]);
        self.globals.iter().enumerate().map(|(g, lane)| lane.global(prev(g))).collect()
    }
}

/// A session's contribution buffers, reused from enumeration to
/// enumeration: a buffer comes back empty — every lane reset through its
/// touched list — so its columns are allocated once and grow only with
/// |V|, never per superstep.
#[derive(Debug)]
pub struct BufferPool {
    accms: Vec<AccmInfo>,
    globals: Vec<AccmInfo>,
    /// Every vertex and global lane folds exactly.
    exact: bool,
    free: Mutex<Vec<AccBuffer>>,
}

impl BufferPool {
    pub fn new(accms: &[AccmInfo], globals: &[AccmInfo]) -> BufferPool {
        BufferPool {
            accms: accms.to_vec(),
            globals: globals.to_vec(),
            exact: accms.iter().chain(globals).all(|a| AccmLane::of(a).is_exact()),
            free: Mutex::new(Vec::new()),
        }
    }

    /// Whether every lane folds exactly ([`AccmLane::is_exact`]): a cell
    /// then merges to the same bits in any order and grouping, so an
    /// enumeration may fold its chunks where they land instead of in
    /// chunk order.
    pub fn exact(&self) -> bool {
        self.exact
    }

    /// An empty buffer with room for vertex ids below `n`.
    pub fn take(&self, n: usize) -> AccBuffer {
        let free = self.free.lock().expect("no buffer-pool user panicked").pop();
        let mut buf = free.unwrap_or_else(|| AccBuffer::new(&self.accms, &self.globals));
        buf.grow(n);
        buf
    }

    /// Return a buffer once it has been drained or settled.
    pub fn put(&self, buf: AccBuffer) {
        assert!(buf.is_empty(), "a pooled buffer comes back empty");
        self.free.lock().expect("no buffer-pool user panicked").push(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itg_gsa::accm::AccmOp;

    fn info(op: AccmOp, prim: PrimType) -> AccmInfo {
        AccmInfo {
            name: "x".into(),
            prim,
            op,
        }
    }

    fn sum_layout() -> AccmLayout {
        AccmLayout::new(&[info(AccmOp::Sum, PrimType::Double)])
    }

    fn min_layout() -> AccmLayout {
        AccmLayout::new(&[info(AccmOp::Min, PrimType::Long)])
    }

    /// A buffer with room for vertex ids below 8.
    fn buffer(accms: &[AccmInfo], globals: &[AccmInfo]) -> AccBuffer {
        let mut buf = AccBuffer::new(accms, globals);
        buf.grow(8);
        buf
    }

    /// Fold chunk buffers into a fresh buffer as an enumeration phase does:
    /// each chunk handed over as a run, the runs folded in chunk order.
    fn merge_chunks(
        accms: &[AccmInfo],
        globals: &[AccmInfo],
        chunks: Vec<(usize, AccBuffer)>,
    ) -> AccBuffer {
        let runs = chunks.into_iter().map(|(ci, mut buf)| (ci, buf.take_run())).collect();
        let mut phase = buffer(accms, globals);
        phase.fold_runs(runs);
        phase
    }

    /// A scalar's cell bits, as an action kernel hands them out.
    fn bits(v: &Value) -> u64 {
        match *v {
            Value::Bool(x) => x.bits(),
            Value::Int(x) => x.bits(),
            Value::Long(x) => x.bits(),
            Value::Float(x) => x.bits(),
            Value::Double(x) => x.bits(),
            Value::Array(_) => unreachable!("no lane folds an array"),
        }
    }

    /// Fold one walk contributing `v` into `accm`'s cell for `target`.
    fn add(buf: &mut AccBuffer, accm: Accm, target: VertexId, v: &Value, mult: i64) {
        buf.add(accm, target, Emit::One(bits(v)), mult);
    }

    /// Accumulator 0's cell with `adds` folded in order, in its wire form.
    fn contribution(layout: &AccmLayout, adds: &[(Value, i64)]) -> Contribution {
        let mut buf = buffer(&layout.accms, &[]);
        adds.iter().for_each(|(v, m)| add(&mut buf, Accm::Vertex(0), 0, v, *m));
        let mut cell = None;
        buf.drain(|_, _| true, |_, _, c| cell = Some(c));
        cell.expect("a touched target")
    }

    /// Settle a received cell onto accumulator 0's row at `local`, as an
    /// exchange inbox does.
    fn apply(
        l: &AccmLayout,
        cols: &mut [ColumnData],
        at: usize,
        c: &Contribution,
        cnt: bool,
    ) -> Outcome {
        let mut inbox = buffer(&l.accms, &[]);
        inbox.receive_vertex(0, at as VertexId, c);
        let mut out = None;
        inbox.settle(l, &mut [cols], &|v| (0, v as usize), cnt, |_, _, o| out = Some(o));
        out.expect("one cell")
    }

    /// Accumulator 0's row at `local`: `(value, count, support)`.
    fn row_of(l: &AccmLayout, cols: &[ColumnData], local: usize) -> Stored {
        let long = |c: usize| cols[c].get(local).as_i64().expect("a long column");
        let support = l.support_col[0].map_or(0, |s| long(s) as u64);
        (cols[0].get(local), long(1), support)
    }

    #[test]
    fn layout_columns() {
        let l = min_layout();
        assert_eq!(l.num_cols, 3); // value, count, support
        assert_eq!(l.count_col(0), 1);
        assert_eq!(l.support_col, [Some(2)]);
        let s = sum_layout();
        assert_eq!(s.num_cols, 2);
        assert_eq!(s.support_col, [None]);
    }

    #[test]
    fn group_fold_and_apply() {
        let l = sum_layout();
        let mut cols = l.identity_columns(4);
        let d = |x| Value::Double(x);
        let c = contribution(&l, &[(d(2.0), 1), (d(3.0), 1), (d(2.0), -1)]);
        let out = apply(&l, &mut cols, 1, &c, true);
        assert_eq!(out, Outcome::Changed);
        assert_eq!(cols[0].get(1), Value::Double(3.0));
        assert_eq!(cols[1].get(1), Value::Long(1));
        assert!(l.touched(&cols, 1));
        assert!(!l.touched(&cols, 0));
    }

    #[test]
    fn group_full_cancellation_restores_identity() {
        let l = sum_layout();
        let mut cols = l.identity_columns(1);
        let c = contribution(&l, &[(Value::Double(0.1), 1)]);
        apply(&l, &mut cols, 0, &c, true);
        let d = contribution(&l, &[(Value::Double(0.1), -1)]);
        apply(&l, &mut cols, 0, &d, true);
        assert_eq!(cols[0].get(0), Value::Double(0.0));
        assert!(!l.touched(&cols, 0));
    }

    #[test]
    fn monoid_cnt_avoids_recompute() {
        let l = min_layout();
        let mut cols = l.identity_columns(1);
        let long = |v: i64, m: i64| (Value::Long(v), m);
        // Insert {1, 2, 5, 1}.
        let c = contribution(&l, &[long(1, 1), long(2, 1), long(5, 1), long(1, 1)]);
        assert_eq!(apply(&l, &mut cols, 0, &c, true), Outcome::Changed);
        assert_eq!(cols[0].get(0), Value::Long(1));
        assert_eq!(cols[2].get(0), Value::Long(2));

        // Retract a 5 and one 1: still fine under CNT.
        let d = contribution(&l, &[long(5, -1), long(1, -1)]);
        assert_eq!(apply(&l, &mut cols, 0, &d, true), Outcome::Changed);
        assert_eq!(cols[0].get(0), Value::Long(1));
        assert_eq!(cols[2].get(0), Value::Long(1));

        // Retract the last 1: recompute required.
        let e = contribution(&l, &[long(1, -1)]);
        assert_eq!(apply(&l, &mut cols, 0, &e, true), Outcome::NeedsRecompute);
    }

    #[test]
    fn monoid_without_cnt_always_recomputes_on_retraction() {
        let l = min_layout();
        let mut cols = l.identity_columns(1);
        let c = contribution(&l, &[(Value::Long(1), 1), (Value::Long(9), 1)]);
        apply(&l, &mut cols, 0, &c, false);
        let d = contribution(&l, &[(Value::Long(9), -1)]); // harmless value
        assert_eq!(apply(&l, &mut cols, 0, &d, false), Outcome::NeedsRecompute);
    }

    #[test]
    fn contribution_merge_is_preaggregation() {
        let l = min_layout();
        let chunk = |xs: &[i64]| {
            let mut buf = buffer(&l.accms, &[]);
            xs.iter().for_each(|&x| add(&mut buf, Accm::Vertex(0), 4, &Value::Long(x), 1));
            buf
        };
        let mut merged = merge_chunks(&l.accms, &[], vec![(1, chunk(&[3, 7])), (0, chunk(&[3]))]);
        let mut cells = Vec::new();
        merged.drain(|_, _| true, |_, _, c| cells.push(c));
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].count, 3);
        assert_eq!(cells[0].monoid, Some((Value::Long(3), 2)));
    }

    #[test]
    fn buffer_merge_matches_serial_accumulation() {
        let accms = [
            info(AccmOp::Sum, PrimType::Long),
            info(AccmOp::Min, PrimType::Long),
        ];
        let globals = [info(AccmOp::Sum, PrimType::Long)];
        // Contributions for vertices 1, 2 split across two chunk buffers,
        // including a monoid retraction carried raw.
        let contribs: &[(usize, VertexId, i64, i64)] = &[
            (0, 1, 7, 1),
            (1, 1, 4, 1),
            (0, 2, 3, 1),
            (1, 1, 9, -1),
            (0, 1, 2, 1),
            (1, 2, 5, 1),
        ];
        // Target-sorted `(accumulator, target, cell)` triples plus the
        // global cells.
        let drain = |mut buf: AccBuffer| {
            let mut vertex = Vec::new();
            buf.drain(|_, _| true, |a, v, c| vertex.push((a, v, c)));
            (vertex, buf.drain_globals())
        };
        let filled = |slice: &[(usize, VertexId, i64, i64)]| {
            let mut buf = buffer(&accms, &globals);
            for &(a, v, val, mult) in slice {
                add(&mut buf, Accm::Vertex(a), v, &Value::Long(val), mult);
                add(&mut buf, Accm::Global(0), v, &Value::Long(val), mult);
            }
            buf
        };
        let serial = filled(contribs);
        let chunks = vec![(1, filled(&contribs[3..])), (0, filled(&contribs[..3]))];
        let merged = merge_chunks(&accms, &globals, chunks);
        let (vertex, g) = drain(serial);
        assert_eq!((vertex.clone(), g.clone()), drain(merged));

        // A partial drain wires the leaving targets' cells alone; the
        // staying ones drain later as they were.
        let mut buf = filled(contribs);
        let mut left = Vec::new();
        buf.drain(|v, _| v != 2, |a, v, c| left.push((a, v, c)));
        let g_left = buf.drain_globals();
        assert_eq!(g_left, g);
        let (stayed, _) = drain(buf);
        let on = |t| vertex.iter().filter(|&&(_, v, _)| v == t).cloned().collect::<Vec<_>>();
        assert_eq!((left, stayed), (on(1), on(2)));
    }

    /// No lane leaves a SUM retraction raw, but a wire cell may carry any:
    /// the settle folds each one's inverse after the cell's folded value,
    /// and a PROD factor without one recomputes, leaving the row as it was.
    #[test]
    fn groups_settle_wire_retractions_by_the_inverse() {
        let cases = [
            (AccmOp::Sum, boxed::<i64>(&[5, i64::MIN, -2]), Outcome::Changed),
            (AccmOp::Sum, boxed::<f64>(&[0.1, -0.0, 1e300]), Outcome::Changed),
            (AccmOp::Prod, boxed::<f64>(&[3.0, 4.0, 0.1]), Outcome::Changed),
            (AccmOp::Prod, boxed::<f64>(&[3.0, 4.0, -0.0]), Outcome::NeedsRecompute),
            (AccmOp::Prod, boxed::<i32>(&[3, -1, 2]), Outcome::NeedsRecompute),
        ];
        for (op, xs, want) in cases {
            let prim = xs[0].value_type().prim().expect("a prim");
            let l = AccmLayout::new(&[info(op, prim)]);
            let c = Contribution {
                folded: xs[0].clone(),
                count: 2,
                monoid: None,
                retractions: xs[1..].to_vec(),
            };
            let mut cols = l.identity_columns(1);
            assert_eq!(apply(&l, &mut cols, 0, &c, true), want, "{op:?} {xs:?}");
            let f = |a: &Value, b: &Value| op.combine(a, b, prim);
            let id = op.identity(prim);
            let row = match want {
                Outcome::Changed => {
                    let inv = |r| op.inverse(r, prim).expect("an inverse");
                    let start = f(&id, &f(&id, &xs[0]));
                    (xs[1..].iter().fold(start, |acc, r| f(&acc, &inv(r))), 2, 0)
                }
                _ => (id, 0, 0),
            };
            assert_eq!(row_of(&l, &cols, 0), row, "{op:?} {xs:?}");
        }
    }

    #[test]
    fn reset_state_clears_everything() {
        let l = min_layout();
        let mut cols = l.identity_columns(1);
        let c = contribution(&l, &[(Value::Long(4), 1)]);
        apply(&l, &mut cols, 0, &c, true);
        l.reset(&mut cols, 0, 0);
        assert_eq!(cols[0].get(0), Value::Long(i64::MAX));
        assert!(!l.touched(&cols, 0));
    }

    /// A global's value folds its reduced cell onto the identity — so a
    /// SUM reduced to −0.0 reads +0.0, and a NaN extremum never wins a MIN
    /// — and a delta settles onto the previous value only where a group's
    /// has no raw retraction or a monoid's is empty.
    #[test]
    fn globals_fold_onto_the_identity_and_settle_deltas() {
        let globals = [
            info(AccmOp::Sum, PrimType::Double),
            info(AccmOp::Min, PrimType::Double),
            info(AccmOp::Prod, PrimType::Long),
        ];
        let cell = |folded, count, monoid, retractions| Contribution {
            folded,
            count,
            monoid,
            retractions,
        };
        let nan = f64::from_bits(0x7ff8_0000_0000_00ff);
        let reduce = |cells: &[Contribution]| {
            let mut buf = AccBuffer::new(&[], &globals);
            assert!(buf.receive_globals(cells));
            assert!(!buf.receive_globals(&cells[1..]), "arity");
            buf
        };
        let inf = Value::Double(f64::INFINITY);
        let touched = reduce(&[
            cell(Value::Double(-0.0), 1, None, vec![]),
            cell(inf.clone(), 1, Some((Value::Double(nan), 1)), vec![]),
            cell(Value::Long(6), 2, None, vec![]),
        ]);
        let values = [Value::Double(0.0), inf.clone(), Value::Long(6)];
        assert_eq!(touched.global_values(None), Some(values.to_vec()));
        let prev = [Value::Double(1.5), Value::Double(2.0), Value::Long(7)];
        assert_eq!(touched.global_values(Some(&prev)), None, "a MIN delta recomputes");
        let quiet = reduce(&[
            cell(Value::Double(0.25), 1, None, vec![]),
            cell(inf.clone(), 0, None, vec![]),
            cell(Value::Long(-1), -1, None, vec![]),
        ]);
        let settled = [Value::Double(1.75), Value::Double(2.0), Value::Long(-7)];
        assert_eq!(quiet.global_values(Some(&prev)), Some(settled.to_vec()));
        let raw = reduce(&[
            cell(Value::Double(0.0), 0, None, vec![]),
            cell(inf, 0, None, vec![]),
            cell(Value::Long(1), -1, None, vec![Value::Long(2)]),
        ]);
        assert_eq!(raw.global_values(Some(&prev)), None, "2 has no inverse");
    }

    // -----------------------------------------------------------------
    // The maintenance model check (DESIGN.md §4.4).
    // -----------------------------------------------------------------

    /// One history op: `mult` copies of `values[v]`; negative = retractions.
    type Op = (usize, i64);

    /// A stored row: `(value, count, support)`.
    type Stored = (Value, i64, u64);

    /// One algebra under the check, with its element values (at most three).
    struct ModelCase {
        op: AccmOp,
        prim: PrimType,
        values: Vec<Value>,
    }

    /// The longest history enumerated.
    const MAX_OPS: usize = 5;

    /// The stored states a delta lands on, as insert-only histories.
    const BASES: [&[usize]; 3] = [&[], &[0], &[0, 0, 1]];

    impl ModelCase {
        /// An IEEE group, whose value depends on the fold order.
        fn ieee_group(&self) -> bool {
            self.op.is_group() && matches!(self.prim, PrimType::Float | PrimType::Double)
        }

        /// The sorted-multiset model of `base` plus the delta `chunks`:
        /// `Some(None)` when the rule must recompute, else the settled row.
        /// `None` when the history retracts more copies of a value than a
        /// monoid's multiset holds.
        fn model(&self, base: &[usize], chunks: &[&[Op]], cnt: bool) -> Option<Option<Stored>> {
            let (mut ins, mut out) = ([0i64; 3], [0i64; 3]);
            for &b in base {
                ins[b] += 1;
            }
            for &(v, m) in chunks.iter().flat_map(|c| c.iter()) {
                if m > 0 {
                    ins[v] += m;
                } else {
                    out[v] -= m;
                }
            }
            let n = self.values.len();
            let x = |i: usize| &self.values[i];
            let count = ins.iter().sum::<i64>() - out.iter().sum::<i64>();
            let identity = self.op.identity(self.prim);
            if !self.op.is_group() {
                if (0..n).any(|i| out[i] > ins[i]) {
                    return None;
                }
                let better = |a: &usize, b: &usize| match self.op {
                    AccmOp::Min | AccmOp::And => x(*a).total_cmp(x(*b)),
                    _ => x(*b).total_cmp(x(*a)),
                };
                let top = (0..n).filter(|&i| ins[i] > 0).min_by(better);
                let retracted = out.iter().any(|&r| r > 0);
                if (retracted && !cnt) || top.is_some_and(|e| out[e] > 0 && out[e] >= ins[e]) {
                    return Some(None);
                }
                return Some(Some(match top {
                    Some(e) if count != 0 => (x(e).clone(), count, (ins[e] - out[e]) as u64),
                    _ => (identity, count, 0),
                }));
            }
            // A group's value is the fold tree the buffers build: each chunk
            // from the identity in contribution order (a retraction folds
            // the inverse), chunks in chunk order, the exchange inbox's
            // identity, then the stored row — for IEEE folds the tree is
            // the value.
            let (op, prim) = (self.op, self.prim);
            if (0..n).any(|i| out[i] > 0 && op.inverse(x(i), prim).is_none()) {
                return Some(None);
            }
            let f = |a: &Value, b: &Value| op.combine(a, b, prim);
            let chunk = |ops: &[Op]| {
                ops.iter().fold(identity.clone(), |acc, &(v, m)| {
                    let step = match m > 0 {
                        true => x(v).clone(),
                        false => op.inverse(x(v), prim).expect("invertible"),
                    };
                    (0..m.abs()).fold(acc, |a, _| f(&a, &step))
                })
            };
            let base: Vec<Op> = base.iter().map(|&b| (b, 1)).collect();
            let stored = f(&identity, &f(&identity, &chunk(&base)));
            let delta = chunks.iter().map(|c| chunk(c)).reduce(|a, b| f(&a, &b));
            let value = f(&stored, &f(&identity, &delta.unwrap_or(identity.clone())));
            Some(Some((if count == 0 { identity } else { value }, count, 0)))
        }
    }

    /// One model-check run: a case's lane algebra (`A`, selected by the
    /// production dispatch) under one CNT setting. Returns how many
    /// histories it evaluated.
    struct Check<'a> {
        case: &'a ModelCase,
        cnt: bool,
    }

    impl WithAlgebra for Check<'_> {
        type Out = usize;
        fn with<A: Maintain>(self, alg: A) -> usize {
            let case = self.case;
            let layout = AccmLayout::new(&[info(case.op, case.prim)]);
            // Each base inserted into the identity row.
            let stored = BASES.map(|base| {
                let mut cols = layout.identity_columns(1);
                let adds: Vec<_> = base.iter().map(|&b| (case.values[b].clone(), 1)).collect();
                if !adds.is_empty() {
                    apply(&layout, &mut cols, 0, &contribution(&layout, &adds), true);
                }
                (base, cols)
            });
            let mut walk = Walk {
                case,
                cnt: self.cnt,
                alg: &alg,
                layout: &layout,
                stored: &stored,
                hist: Vec::new(),
                cuts: Vec::new(),
                serial: Vec::new(),
                cells: Vec::new(),
                evaluated: 0,
            };
            walk.explore();
            walk.evaluated
        }
    }

    /// The depth-first enumeration of histories and their splits into
    /// chunks, sharing each prefix's folded cells. A history of `k` ops is
    /// evaluated whole, cut once at each of its `k − 1` points, and, up to
    /// four ops, cut everywhere (one op per chunk); with CNT off only
    /// whole, since CNT acts where a contribution meets the stored row.
    struct Walk<'a, A: Maintain> {
        case: &'a ModelCase,
        cnt: bool,
        alg: &'a A,
        layout: &'a AccmLayout,
        stored: &'a [(&'static [usize], Vec<ColumnData>); 3],
        hist: Vec<Op>,
        /// Where each chunk after the first starts in `hist`.
        cuts: Vec<usize>,
        /// The whole-history cell of each prefix of `hist`.
        serial: Vec<A::Cell>,
        /// The current split's chunk cells.
        cells: Vec<A::Cell>,
        evaluated: usize,
    }

    impl<A: Maintain> Walk<'_, A> {
        fn explore(&mut self) {
            if !self.hist.is_empty() {
                self.evaluate();
            }
            if self.hist.len() == MAX_OPS {
                return;
            }
            // Every op its own chunk up to four ops: three chunks are the
            // fewest whose merge order an IEEE fold can tell.
            let finest = self.cuts.len() + 1 == self.hist.len() && self.hist.len() < 4;
            let extend = self.cuts.len() <= 1;
            let cut = self.cnt && !self.hist.is_empty() && (self.cuts.is_empty() || finest);
            let (case, alg) = (self.case, self.alg);
            for (v, x) in case.values.iter().enumerate() {
                for m in [1, 2, -1, -2] {
                    let mut whole = self.serial.last().cloned().unwrap_or_else(|| alg.identity());
                    alg.add(&mut whole, A::Prim::lift(x), m);
                    self.serial.push(whole);
                    self.hist.push((v, m));
                    if extend || self.cells.is_empty() {
                        let had = self.cells.pop();
                        let mut cell = had.clone().unwrap_or_else(|| alg.identity());
                        alg.add(&mut cell, A::Prim::lift(x), m);
                        self.cells.push(cell);
                        self.explore();
                        self.cells.pop();
                        self.cells.extend(had);
                    }
                    if cut {
                        let mut cell = alg.identity();
                        alg.add(&mut cell, A::Prim::lift(x), m);
                        self.cells.push(cell);
                        self.cuts.push(self.hist.len() - 1);
                        self.explore();
                        self.cuts.pop();
                        self.cells.pop();
                    }
                    self.hist.pop();
                    self.serial.pop();
                }
            }
        }

        fn chunks(&self) -> Vec<&[Op]> {
            let mut starts = vec![0];
            starts.extend(&self.cuts);
            starts.push(self.hist.len());
            starts.windows(2).map(|w| &self.hist[w[0]..w[1]]).collect()
        }

        fn what(&self) -> String {
            let (c, chunks) = (&self.case, self.chunks());
            format!(
                "{:?}/{:?} {:?} cnt={} {chunks:?}",
                c.op, c.prim, c.values, self.cnt
            )
        }

        fn evaluate(&mut self) {
            self.evaluated += 1;
            let alg = self.alg;
            let whole = alg.wire(self.serial.last().expect("a history").clone());
            if self.cells.len() == 1 {
                return self.settle(&whole);
            }
            let mut t = self.cells[0].clone();
            self.cells[1..].iter().for_each(|c| alg.merge(&mut t, c));
            let g = alg.wire(t);
            if self.cuts.len() + 1 == self.hist.len() && self.hist.len() <= 3 {
                self.buffers(&g);
            }
            if self.case.ieee_group() {
                return self.settle(&g);
            }
            // Elsewhere a split merges back to the whole history exactly.
            assert_eq!(g, whole, "split ≢ whole: {}", self.what());
        }

        /// One op per chunk through the production buffers — lane
        /// dispatch, chunk merge (handed over last chunk first, an order
        /// workers may finish in), drain — as a vertex and as a global
        /// accumulator; then the global reduced and read as
        /// `identity ⊕ (identity ⊕ cell)` by the reference `combine`.
        fn buffers(&self, merged: &Contribution) {
            let (op, prim) = (self.case.op, self.case.prim);
            let infos = [info(op, prim)];
            let chunks = self.hist.iter().enumerate().rev().map(|(i, &(v, m))| {
                let mut buf = buffer(&infos, &infos);
                add(&mut buf, Accm::Vertex(0), 7, &self.case.values[v], m);
                add(&mut buf, Accm::Global(0), 7, &self.case.values[v], m);
                (i, buf)
            });
            let mut buf = merge_chunks(&infos, &infos, chunks.collect());
            let mut sizes = Vec::new();
            let mut vertex = Vec::new();
            let leaves = |v, bytes| {
                sizes.push((v, bytes));
                true
            };
            buf.drain(leaves, |_, v, c| vertex.push((v, c)));
            assert_eq!(sizes, [(7, merged.wire_bytes())], "typed size: {}", self.what());
            let globals = buf.drain_globals();
            let want = (vec![(7, merged.clone())], vec![merged.clone()]);
            assert_eq!((vertex, globals), want, "{}", self.what());
            let mut reduced = AccBuffer::new(&[], &infos);
            assert!(reduced.receive_globals(std::slice::from_ref(merged)));
            let id = op.identity(prim);
            let f = |a: &Value, b: &Value| op.combine(a, b, prim);
            let value = match &merged.monoid {
                Some((top, _)) => Some(f(&id, top)),
                None if !op.is_group() => Some(id),
                // No full scan retracts, so a raw factor is no global's.
                None if !merged.retractions.is_empty() => None,
                None => Some(f(&id, &f(&id, &merged.folded))),
            };
            let got = reduced.global_values(None);
            assert_eq!(got, value.map(|v| vec![v]), "global: {}", self.what());
        }

        /// Receive a merged delta into the exchange inbox's identity cell
        /// and settle it onto every stored state: the outcome and the row
        /// must be the model's, and a recompute leaves the row as it was.
        fn settle(&self, g: &Contribution) {
            let (alg, layout, chunks) = (self.alg, self.layout, self.chunks());
            let mut inbox = alg.identity();
            alg.merge(&mut inbox, &alg.unwire(g));
            for (base, stored) in self.stored {
                let mut cols = stored.clone();
                let row = Row { layout, cols: &mut cols, local: 0, i: 0 };
                let out = alg.settle(row, &inbox, self.cnt);
                let (row, before) = (row_of(layout, &cols, 0), row_of(layout, stored, 0));
                let what = || format!("{} onto {base:?}", self.what());
                let Some(want) = self.case.model(base, &chunks, self.cnt) else {
                    continue;
                };
                let Some(want) = want else {
                    assert_eq!((out, &row), (Outcome::NeedsRecompute, &before), "{}", what());
                    continue;
                };
                let want_out = [Outcome::Unchanged, Outcome::Changed][(want != before) as usize];
                assert_eq!((out, &row), (want_out, &want), "{}", what());
            }
        }
    }

    fn boxed<T: Prim>(xs: &[T]) -> Vec<Value> {
        xs.iter().map(|&x| x.wrap()).collect()
    }

    /// Every admitted `(op, prim)` pair, with at most three element values
    /// that tell the lanes apart: `int` wrapping at ±2^31, `float`
    /// rounding, ±0.0, NaN payloads, PROD through 0 and ±1.
    fn all_pairs() -> Vec<ModelCase> {
        use AccmOp::*;
        use PrimType::{Bool, Double, Float, Int, Long};
        let nan32 = |bits| f32::from_bits(bits);
        let nan64 = |bits| f64::from_bits(bits);
        let cases = [
            (Sum, Int, boxed::<i32>(&[i32::MAX, i32::MIN, 3])),
            (Sum, Long, boxed::<i64>(&[7, -3, i64::MAX])),
            (Sum, Float, boxed::<f32>(&[0.1, 16_777_216.0, -0.0])),
            (Sum, Double, boxed::<f64>(&[0.1, 1e300, -0.0])),
            (Prod, Int, boxed::<i32>(&[0, -1, 65_537])),
            (Prod, Long, boxed::<i64>(&[0, 1, 3_037_000_500])),
            (Prod, Float, boxed::<f32>(&[0.0, -1.0, nan32(0x7fc0_1234)])),
            (Prod, Double, boxed::<f64>(&[-0.0, 1.0, 0.1])),
            (Min, Int, boxed::<i32>(&[5, i32::MIN, i32::MAX])),
            (Min, Long, boxed::<i64>(&[1, 2, i64::MIN])),
            (Min, Float, boxed::<f32>(&[-0.0, 0.0, nan32(0x7fc0_0001)])),
            (Min, Double, boxed::<f64>(&[-0.0, 0.0, f64::NAN])),
            (Max, Int, boxed::<i32>(&[-5, 0, i32::MAX])),
            (Max, Long, boxed::<i64>(&[5, 9, i64::MAX])),
            (Max, Float, boxed::<f32>(&[1.5, nan32(0x7fc0_0001), nan32(0x7fc0_0002)])),
            (Max, Double, boxed::<f64>(&[1.5, f64::NAN, nan64(0xfff8_0000_0000_0001)])),
            (Min, Bool, boxed(&[false, true])),
            (Max, Bool, boxed(&[false, true])),
            (Or, Bool, boxed(&[false, true])),
            (And, Bool, boxed(&[false, true])),
        ];
        let case = |(op, prim, values)| ModelCase { op, prim, values };
        cases.into_iter().map(case).collect()
    }

    /// The rule, checked exhaustively against a sorted-multiset model: for
    /// every admitted pair, every history of up to five insert/retract ops,
    /// whole and split into chunks folded on their own and merged, applied
    /// onto each stored state with CNT on and off. The settled row and
    /// outcome must be the model's; folds, inverses and orders are
    /// `AccmOp`'s, the reference semantics.
    #[test]
    fn maintenance_model_check() {
        let evaluated = model_check(&all_pairs());
        assert!(evaluated > 20_000_000, "{evaluated} evaluations");
    }

    /// The dense sink against the map-based fold it replaced, bit for bit,
    /// on every admitted pair: random histories over a few targets and a
    /// global, split into random chunks that workers fold in reused pooled
    /// buffers (a value run at a time by scatter, or walk by walk) and hand
    /// over as runs, folded in chunk order — against one map per chunk,
    /// chunk 0's cells moved in and every later chunk's merged onto the
    /// running cell or the identity. Two such phases then meet in a dense
    /// inbox in sender order and settle, against a map inbox.
    #[test]
    fn maintenance_model_check_dense_chunks() {
        let histories: usize = all_pairs().iter().map(|case| {
            with_algebra(&info(case.op, case.prim), DenseCheck { case })
        }).sum();
        assert!(histories >= 20 * 300, "{histories} histories");
    }

    /// One pair's dense-sink check ([`maintenance_model_check_dense_chunks`]).
    struct DenseCheck<'a> {
        case: &'a ModelCase,
    }

    /// A contribution `(target, value index, multiplicity)`.
    type Put = (VertexId, usize, i64);

    const TARGETS: VertexId = 6;

    impl WithAlgebra for DenseCheck<'_> {
        type Out = usize;
        fn with<A: Maintain>(self, alg: A) -> usize {
            use rand::{Rng, SeedableRng};
            let case = self.case;
            let infos = [info(case.op, case.prim)];
            let pool = BufferPool::new(&infos, &infos);
            let x = |v: usize| A::Prim::lift(&case.values[v]);
            let what = |chunks: &[Vec<Put>]| format!("{:?}/{:?} {chunks:?}", case.op, case.prim);
            let seed = case.op as u64 * 31 + case.prim as u64;
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let n = TARGETS as usize;
            // The map-based reference: `(vertex cells in target order, the
            // global's cell)` of a chunked history.
            let reference = |chunks: &[Vec<Put>]| {
                let mut merged = std::collections::BTreeMap::new();
                let mut global: Option<A::Cell> = None;
                for (k, chunk) in chunks.iter().enumerate() {
                    let mut map = std::collections::BTreeMap::new();
                    let mut g: Option<A::Cell> = None;
                    for &(t, v, m) in chunk {
                        alg.add(map.entry(t).or_insert_with(|| alg.identity()), x(v), m);
                        alg.add(g.get_or_insert_with(|| alg.identity()), x(v), m);
                    }
                    if k == 0 {
                        (merged, global) = (map, g);
                        continue;
                    }
                    for (t, c) in map {
                        alg.merge(merged.entry(t).or_insert_with(|| alg.identity()), &c);
                    }
                    if let Some(c) = g {
                        alg.merge(global.get_or_insert_with(|| alg.identity()), &c);
                    }
                }
                let vertex: Vec<_> = merged.into_iter().map(|(t, c)| (0, t, alg.wire(c))).collect();
                (vertex, alg.wire(global.unwrap_or_else(|| alg.identity())))
            };
            // The dense sink: chunks dealt to up to three workers, each
            // reusing one pooled buffer, and the runs folded in chunk order.
            let dense = |chunks: &[Vec<Put>], rng: &mut rand::rngs::SmallRng| {
                let workers = rng.gen_range(1..4usize);
                let mut bufs: Vec<AccBuffer> = (0..workers).map(|_| pool.take(n)).collect();
                let mut runs = Vec::new();
                for (ci, chunk) in chunks.iter().enumerate().rev() {
                    let buf = &mut bufs[rng.gen_range(0..workers)];
                    let scatter = rng.gen_bool(0.5);
                    for same in chunk.chunk_by(|a, b| scatter && a.1 == b.1) {
                        let value = &case.values[same[0].1];
                        if same.len() > 1 {
                            let run: Vec<_> = same.iter().map(|&(t, _, m)| (t, m)).collect();
                            let e = Emit::One(bits(value));
                            buf.scatter(Accm::Vertex(0), &run, 1, e, None);
                            buf.scatter(Accm::Global(0), &run, 1, e, None);
                            continue;
                        }
                        add(buf, Accm::Vertex(0), same[0].0, value, same[0].2);
                        add(buf, Accm::Global(0), same[0].0, value, same[0].2);
                    }
                    runs.push((ci, buf.take_run()));
                }
                bufs.into_iter().for_each(|b| pool.put(b));
                let mut phase = pool.take(n);
                phase.fold_runs(runs);
                phase
            };
            let mut histories = 0;
            for trial in 0..300 {
                let len = rng.gen_range(1..25);
                let mut walks: Vec<Put> = (0..len)
                    .map(|_| {
                        let v = rng.gen_range(0..case.values.len());
                        let m = [1, 2, -1, -2][rng.gen_range(0..4)];
                        (rng.gen_range(0..TARGETS - 1), v, m)
                    })
                    .collect();
                // Each value first met in chunk 0 by target 0, and by the
                // last target in the last chunk only: −0.0 and the NaN
                // payloads among them.
                if trial % 3 == 0 {
                    walks.splice(0..0, (0..case.values.len()).map(|v| (0, v, 1)));
                    walks.extend((0..case.values.len()).map(|v| (TARGETS - 1, v, 1)));
                }
                let k = rng.gen_range(0..4);
                let last = walks.len();
                let mut cuts: Vec<usize> = (0..k).map(|_| rng.gen_range(1..last + 1)).collect();
                if trial % 3 == 0 {
                    cuts.push(walks.len() - case.values.len());
                }
                cuts.sort_unstable();
                let mut starts = vec![0];
                starts.extend(cuts);
                starts.push(walks.len());
                let chunks: Vec<Vec<Put>> =
                    starts.windows(2).map(|w| walks[w[0]..w[1]].to_vec()).collect();
                let mut phase = dense(&chunks, &mut rng);
                let mut vertex = Vec::new();
                phase.drain(|_, _| true, |a, t, c| vertex.push((a, t, c)));
                let global = phase.drain_globals();
                assert!(phase.is_empty(), "drained: {}", what(&chunks));
                pool.put(phase);
                let (want_vertex, want_global) = reference(&chunks);
                let want = (&want_vertex, &[want_global][..]);
                assert_eq!((&vertex, &global[..]), want, "{}", what(&chunks));
                histories += 1;

                // A second sender's phase, then both received in sender
                // order by a dense inbox and settled onto identity rows.
                let other: Vec<Vec<Put>> = vec![walks.iter().rev().copied().collect()];
                let (theirs, _) = reference(&other);
                let layout = AccmLayout::new(&infos);
                let mut inbox = pool.take(n);
                let mut map = std::collections::BTreeMap::new();
                for (_, t, c) in vertex.iter().chain(&theirs) {
                    inbox.receive_vertex(0, *t, c);
                    alg.merge(map.entry(*t).or_insert_with(|| alg.identity()), &alg.unwire(c));
                }
                let (mut got, mut want) = (layout.identity_columns(n), layout.identity_columns(n));
                let mut outcomes = Vec::new();
                let on = |_, t, o| outcomes.push((t, o));
                inbox.settle(&layout, &mut [&mut got[..]], &|t| (0, t as usize), true, on);
                assert!(inbox.is_empty(), "settled: {}", what(&chunks));
                pool.put(inbox);
                let want_outcomes: Vec<_> = map.iter().map(|(&t, c)| {
                    let row = Row { layout: &layout, cols: &mut want, local: t as usize, i: 0 };
                    (t, alg.settle(row, c, true))
                }).collect();
                let rows = |cols: &[ColumnData]| {
                    (0..n).map(|l| row_of(&layout, cols, l)).collect::<Vec<_>>()
                };
                let want = (want_outcomes, rows(&want));
                assert_eq!((outcomes, rows(&got)), want, "inbox: {}", what(&chunks));
            }
            histories
        }
    }

    /// Run the model check on `cases`, two threads taking cases in turn;
    /// returns how many histories it evaluated.
    fn model_check(cases: &[ModelCase]) -> usize {
        use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
        let next = AtomicUsize::new(0);
        let run = || {
            let mut evaluated = 0;
            while let Some(case) = cases.get(next.fetch_add(1, Relaxed)) {
                let accm = info(case.op, case.prim);
                for cnt in [true, false] {
                    if cnt || !case.op.is_group() {
                        evaluated += with_algebra(&accm, Check { case, cnt });
                    }
                }
            }
            evaluated
        };
        std::thread::scope(|s| {
            let other = s.spawn(run);
            run() + other.join().expect("model check thread")
        })
    }
}
