//! Accumulator state and incremental Accumulate (paper §5.4).
//!
//! Buffers hold partial aggregates, each folded by one [`Maintain`]
//! algebra: [`Group`] and [`Monoid`] over the primitives of the lanes
//! (DESIGN.md §10.1), [`Generic`] over [`Value`]s, whose cell
//! [`Contribution`] is the wire form. [`apply_contribution`] settles a
//! contribution onto the stored row — value, contribution count (Update
//! runs where any is positive) and, for monoids, support columns — by the
//! one retraction rule, [`Generic::retract`] (DESIGN.md §4.4).

use itg_compiler::AccmLane;
use itg_gsa::accm::AccmOp;
use itg_gsa::value::{ColumnData, PrimType, Value, ValueType};
use itg_gsa::{FxHashMap, VertexId};
use itg_lnga::AccmInfo;
use std::any::Any;
use std::cmp::Ordering;
use std::fmt::Debug;
use std::iter::repeat_n;
use std::marker::PhantomData;

/// Column layout of the accumulator state: `[values..][counts..][supports..]`
/// where supports exist only for monoid accumulators.
#[derive(Debug, Clone)]
pub struct AccmLayout {
    pub accms: Vec<AccmInfo>,
    /// Support-column index per accumulator (monoids only).
    support_col: Vec<Option<usize>>,
    pub num_cols: usize,
}

impl AccmLayout {
    pub fn new(accms: &[AccmInfo]) -> AccmLayout {
        let n = accms.len();
        let mut support_col = Vec::with_capacity(n);
        let mut next = 2 * n;
        for a in accms {
            // Every monoid-combined accumulator (Min/Max and the boolean
            // Or/And) carries a support count for the CNT optimization;
            // group ops (Sum/Prod) retract by inverse.
            if a.op.is_group() {
                support_col.push(None);
            } else {
                support_col.push(Some(next));
                next += 1;
            }
        }
        AccmLayout {
            accms: accms.to_vec(),
            support_col,
            num_cols: next,
        }
    }

    pub fn num_accms(&self) -> usize {
        self.accms.len()
    }

    pub fn value_col(&self, i: usize) -> usize {
        i
    }

    pub fn count_col(&self, i: usize) -> usize {
        self.accms.len() + i
    }

    /// Column types for the backing [`itg_store::AttrStore`].
    pub fn column_types(&self) -> Vec<ValueType> {
        let mut cols: Vec<ValueType> = self
            .accms
            .iter()
            .map(|a| ValueType::Prim(a.prim))
            .collect();
        cols.extend(repeat_n(ValueType::Prim(PrimType::Long), self.accms.len()));
        for a in &self.accms {
            if !a.op.is_group() {
                cols.push(ValueType::Prim(PrimType::Long));
            }
        }
        cols
    }

    /// The identity state of one vertex: one value per column.
    pub fn identity_row(&self) -> Vec<Value> {
        let values = self.accms.iter().map(|a| a.op.identity(a.prim));
        let counts_and_supports = repeat_n(Value::Long(0), self.num_cols - self.accms.len());
        values.chain(counts_and_supports).collect()
    }

    /// Fresh identity-state columns for `n` vertices.
    pub fn identity_columns(&self, n: usize) -> Vec<ColumnData> {
        let types = self.column_types();
        let row = self.identity_row();
        let filled = |(ty, x): (ValueType, &Value)| {
            let mut col = ColumnData::zeros(ty, 0);
            col.resize(n, x);
            col
        };
        types.into_iter().zip(&row).map(filled).collect()
    }

    /// Is the vertex touched (any positive contribution count)?
    pub fn touched(&self, cols: &[ColumnData], local: usize) -> bool {
        (0..self.num_accms()).any(|i| cols[self.count_col(i)].bits(local) as i64 > 0)
    }

    /// Accumulator `i`'s stored row at `local`, as the generic cell it is.
    fn load(&self, cols: &[ColumnData], local: usize, i: usize) -> Contribution {
        let a = &self.accms[i];
        let count = cols[self.count_col(i)].get(local).as_i64().unwrap_or(0);
        let value = cols[i].get(local);
        let support = self.support_col[i].map(|s| cols[s].get(local).as_i64().unwrap_or(0));
        let (folded, monoid) = match support {
            None => (value, None),
            Some(0) => (a.op.identity(a.prim), None),
            Some(s) => (a.op.identity(a.prim), Some((value, s as u64))),
        };
        let mut row = Contribution::group(folded, count);
        row.monoid = monoid;
        row
    }

    /// Write a settled cell back as accumulator `i`'s row at `local`.
    fn store(&self, cols: &mut [ColumnData], local: usize, i: usize, c: &Contribution) {
        cols[self.count_col(i)].set(local, &Value::Long(c.count));
        let (value, support) = c.monoid.as_ref().map_or((&c.folded, 0), |(v, n)| (v, *n));
        cols[i].set(local, value);
        if let Some(s) = self.support_col[i] {
            cols[s].set(local, &Value::Long(support as i64));
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
/// target into a cell: their net count, their folded state, and the
/// retractions it carries raw. Settling a cell onto a stored row is
/// [`Generic`]'s alone ([`Generic::retract`], [`Generic::value`]).
pub trait Maintain: Send + Sync + Debug + 'static {
    type Cell: Clone + Send + Debug + 'static;

    /// The aggregate of nothing.
    fn identity(&self) -> Self::Cell;
    /// Add `m` copies of `v` (O(1) in `m` but for IEEE sums, which replay).
    fn insert(&self, c: &mut Self::Cell, v: &Value, m: u64);
    /// Record `m` retractions of `v`: counted, folded by the inverse where
    /// a group has one, else carried raw for the stored row to settle.
    fn defer(&self, c: &mut Self::Cell, v: &Value, m: u64);
    /// Fold another aggregate of the same target into `c`.
    fn merge(&self, c: &mut Self::Cell, o: &Self::Cell);
    /// The cell as the exchange carries it.
    fn wire(&self, c: Self::Cell) -> Contribution;
    /// Settle `c` onto a stored row under CNT `cnt`: [`apply_contribution`]'s
    /// outcome and row, which a lane reads and writes in its own type.
    fn settle(&self, row: Row<'_>, c: &Contribution, cnt: bool) -> Outcome;

    /// Fold one walk's contribution (`mult` = ±1 … ±k).
    fn add(&self, c: &mut Self::Cell, v: &Value, mult: i64) {
        if mult > 0 {
            self.insert(c, v, mult as u64);
        } else {
            self.defer(c, v, mult.unsigned_abs());
        }
    }
}

/// A lane's primitive: its boxed form and its extremum order (`total_cmp`
/// for doubles: `Equal` is bitwise `Value` equality) and bounds.
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
    ($($t:ty: $least:expr, $greatest:expr, $cmp:ident, $wrap:path, $lift:ident,
       $from:expr, $to:expr;)*) => {$(
        impl Prim for $t {
            const LEAST: $t = $least;
            const GREATEST: $t = $greatest;
            #[inline]
            fn cmp(a: &$t, b: &$t) -> Ordering {
                a.$cmp(b)
            }
            fn wrap(self) -> Value {
                $wrap(self)
            }
            #[inline]
            fn lift(v: &Value) -> $t {
                v.$lift().unwrap_or_default()
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

prims! {
    i64: i64::MIN, i64::MAX, cmp, Value::Long, as_i64, |b| b as i64, |x| x as u64;
    f64: f64::NEG_INFINITY, f64::INFINITY, total_cmp, Value::Double, as_f64,
        f64::from_bits, f64::to_bits;
    bool: false, true, cmp, Value::Bool, as_bool, |b| b != 0, |x| x as u64;
}

/// Bitwise equality: `Value`'s, which tells `-0.0` from `0.0`.
fn same<T: Prim>(a: &T, b: &T) -> bool {
    T::cmp(a, b) == Ordering::Equal
}

/// A primitive whose addition is a group, folding as the generic path does:
/// `i64` wraps, so `v·m` is one step; IEEE addition is not associative, so
/// `f64` replays copy by copy, retracting by the generic inverse's `0.0 - v`
/// (`-v` would flip the sign of zero).
pub trait Ring: Prim {
    fn add_times(self, v: Self, m: i64) -> Self;
}

impl Ring for i64 {
    #[inline]
    fn add_times(self, v: i64, m: i64) -> i64 {
        self.wrapping_add(v.wrapping_mul(m))
    }
}

impl Ring for f64 {
    #[inline]
    fn add_times(self, v: f64, m: i64) -> f64 {
        let step = if m > 0 { v } else { 0.0 - v };
        (0..m.unsigned_abs()).fold(self, |acc, _| acc + step)
    }
}

/// SUM over a [`Ring`] (`Accm<long|double, SUM>`).
#[derive(Debug, Default)]
pub struct Group<T>(PhantomData<T>);

#[derive(Debug, Clone, Copy, Default)]
pub struct GroupCell<T> {
    folded: T,
    count: i64,
}

impl<T: Ring> Maintain for Group<T> {
    type Cell = GroupCell<T>;

    fn identity(&self) -> GroupCell<T> {
        GroupCell::default()
    }
    fn insert(&self, c: &mut GroupCell<T>, v: &Value, m: u64) {
        c.count += m as i64;
        c.folded = c.folded.add_times(T::lift(v), m as i64);
    }
    fn defer(&self, c: &mut GroupCell<T>, v: &Value, m: u64) {
        c.count -= m as i64;
        c.folded = c.folded.add_times(T::lift(v), -(m as i64));
    }
    fn merge(&self, c: &mut GroupCell<T>, o: &GroupCell<T>) {
        c.count += o.count;
        c.folded = c.folded.add_times(o.folded, 1);
    }
    fn wire(&self, c: GroupCell<T>) -> Contribution {
        Contribution::group(c.folded.wrap(), c.count)
    }
    fn settle(&self, row: Row<'_>, c: &Contribution, _cnt: bool) -> Outcome {
        row.settle(|value: T, count, _| {
            let mut folded = value.add_times(T::lift(&c.folded), 1);
            for r in &c.retractions {
                folded = folded.add_times(T::lift(r), -1);
            }
            let count = count + c.count;
            Some((if count == 0 { T::default() } else { folded }, count, 0))
        })
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
    const IDENTITY: T = if MAX { T::LEAST } else { T::GREATEST };

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

    fn identity(&self) -> MonoidCell<T> {
        MonoidCell::default()
    }
    fn insert(&self, c: &mut MonoidCell<T>, v: &Value, m: u64) {
        c.count += m as i64;
        join(&mut c.top, &T::lift(v), m, Self::better);
    }
    fn defer(&self, c: &mut MonoidCell<T>, v: &Value, m: u64) {
        c.count -= m as i64;
        c.retractions.extend(repeat_n(T::lift(v), m as usize));
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
    fn settle(&self, row: Row<'_>, c: &Contribution, cnt: bool) -> Outcome {
        row.settle(|value: T, count, support| {
            let mut top = (support != 0).then_some((value, support));
            if let Some((v, n)) = &c.monoid {
                join(&mut top, &T::lift(v), *n, Self::better);
            }
            // `Generic::retract`, one raw retraction at a time.
            for r in c.retractions.iter().map(T::lift) {
                match &mut top {
                    _ if !cnt => return None,
                    Some((t, s)) if same(t, &r) && *s > 1 => *s -= 1,
                    Some((t, _)) if same(t, &r) => return None,
                    None if same(&r, &Self::IDENTITY) => return None,
                    _ => {}
                }
            }
            let count = count + c.count;
            let (value, support) = top.filter(|_| count != 0).unwrap_or((Self::IDENTITY, 0));
            Some((value, count, support))
        })
    }
}

/// A pre-aggregated set of contributions to one target: the generic cell,
/// and the wire form of every cell.
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
    /// `folded` and `count` alone: a group's cell.
    fn group(folded: Value, count: i64) -> Contribution {
        Contribution {
            folded,
            count,
            monoid: None,
            retractions: Vec::new(),
        }
    }

    /// Approximate serialized size in bytes, for network accounting.
    pub fn wire_bytes(&self) -> u64 {
        24 + self.retractions.len() as u64 * 8 + if self.monoid.is_some() { 16 } else { 0 }
    }
}

/// Any op over any prim by [`AccmOp`]'s `combine`/`inverse`: the lanes'
/// differential partner, and the stored row's, inbox's and globals' rule.
#[derive(Debug, Clone, Copy)]
pub struct Generic {
    pub op: AccmOp,
    pub prim: PrimType,
    /// The CNT flag.
    pub cnt: bool,
}

impl Generic {
    /// `info`'s algebra under the CNT flag `cnt`.
    pub fn of(info: &AccmInfo, cnt: bool) -> Generic {
        let (op, prim) = (info.op, info.prim);
        Generic { op, prim, cnt }
    }

    /// The monoid order `combine` induces, incumbent `b` second.
    fn better(&self, a: &Value, b: &Value) -> Ordering {
        let c = self.op.combine(b, a, self.prim);
        match (c == *a, c == *b) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            _ => Ordering::Greater,
        }
    }

    /// Fold `m` copies of `v` into the group part.
    fn fold(&self, c: &mut Contribution, v: &Value, m: u64) {
        (0..m).for_each(|_| c.folded = self.op.combine(&c.folded, v, self.prim));
    }

    /// The retraction rule: take `m` copies of `v` out of `c`, which must
    /// be the whole aggregate unless a group's (the count stays: its
    /// carrier counted it). A group applies the inverse, recomputing where
    /// there is none. A monoid without CNT recomputes on every retraction;
    /// with CNT one of the extremum decrements its support, recomputing
    /// when none would remain, and any other leaves it standing.
    pub fn retract(&self, c: &mut Contribution, v: &Value, m: u64) -> Outcome {
        if self.op.is_group() {
            let Some(inv) = self.op.inverse(v, self.prim) else {
                return Outcome::NeedsRecompute;
            };
            self.fold(c, &inv, m);
            return Outcome::Changed;
        }
        match &mut c.monoid {
            _ if !self.cnt => Outcome::NeedsRecompute,
            Some((t, s)) if t == v && *s > m => {
                *s -= m;
                Outcome::Changed
            }
            Some((t, _)) if t == v => Outcome::NeedsRecompute,
            // No extremum reads as the identity.
            None if *v == self.op.identity(self.prim) => Outcome::NeedsRecompute,
            _ => Outcome::Unchanged,
        }
    }

    /// The accumulated value Update reads.
    pub fn value(&self, c: &Contribution) -> Value {
        let (op, prim) = (self.op, self.prim);
        let v = op.combine(&op.identity(prim), &c.folded, prim);
        match &c.monoid {
            Some((m, _)) => op.combine(&v, m, prim),
            None => v,
        }
    }
}

impl Maintain for Generic {
    type Cell = Contribution;

    fn identity(&self) -> Contribution {
        Contribution::group(self.op.identity(self.prim), 0)
    }
    fn insert(&self, c: &mut Contribution, v: &Value, m: u64) {
        c.count += m as i64;
        if self.op.is_group() {
            self.fold(c, v, m);
        } else {
            join(&mut c.monoid, v, m, |a, b| self.better(a, b));
        }
    }
    fn defer(&self, c: &mut Contribution, v: &Value, m: u64) {
        c.count -= m as i64;
        if !self.op.is_group() || self.retract(c, v, m) == Outcome::NeedsRecompute {
            c.retractions.extend(repeat_n(v.clone(), m as usize));
        }
    }
    fn merge(&self, c: &mut Contribution, o: &Contribution) {
        c.count += o.count;
        if self.op.is_group() {
            c.folded = self.op.combine(&c.folded, &o.folded, self.prim);
        } else if let Some((v, n)) = &o.monoid {
            join(&mut c.monoid, v, *n, |a, b| self.better(a, b));
        }
        c.retractions.extend_from_slice(&o.retractions);
    }
    fn wire(&self, c: Contribution) -> Contribution {
        c
    }
    fn settle(&self, row: Row<'_>, c: &Contribution, cnt: bool) -> Outcome {
        apply_contribution(row.layout, row.cols, row.local, row.i, c, cnt)
    }
}

/// One accumulator's contribution buffer: a cell per target vertex (a
/// global's one cell sits at target 0).
trait Lane: Any + Send + Debug {
    fn add(&mut self, target: VertexId, v: &Value, mult: i64);
    /// The dual emit of the value-change-aware Δvs path — retract `old`,
    /// insert `new` — as the same two `add`s with one map lookup.
    fn add_pair(&mut self, target: VertexId, old: &Value, new: &Value, mult: i64);
    fn merge(&mut self, other: Box<dyn Lane>);
    /// Drain in map iteration order, each cell in its wire form.
    fn drain(self: Box<Self>, f: &mut dyn FnMut(VertexId, Contribution));
}

#[derive(Debug)]
struct Cells<A: Maintain> {
    alg: A,
    map: FxHashMap<VertexId, A::Cell>,
}

impl<A: Maintain> Lane for Cells<A> {
    fn add(&mut self, target: VertexId, v: &Value, mult: i64) {
        let Cells { alg, map } = self;
        alg.add(map.entry(target).or_insert_with(|| alg.identity()), v, mult);
    }

    fn add_pair(&mut self, target: VertexId, old: &Value, new: &Value, mult: i64) {
        let Cells { alg, map } = self;
        let c = map.entry(target).or_insert_with(|| alg.identity());
        alg.add(c, old, -mult);
        alg.add(c, new, mult);
    }

    fn merge(&mut self, other: Box<dyn Lane>) {
        let other: Box<dyn Any> = other;
        let other = other
            .downcast::<Cells<A>>()
            .expect("one session's buffers share lanes");
        let Cells { alg, map } = self;
        for (v, c) in &other.map {
            alg.merge(map.entry(*v).or_insert_with(|| alg.identity()), c);
        }
    }

    fn drain(self: Box<Self>, f: &mut dyn FnMut(VertexId, Contribution)) {
        let Cells { alg, map } = *self;
        map.into_iter().for_each(|(v, c)| f(v, alg.wire(c)));
    }
}

/// A use of the algebra a lane selects, generic over it.
trait WithAlgebra {
    type Out;
    fn with<A: Maintain>(self, alg: A) -> Self::Out;
}

/// The one lane dispatch: hand `w` the algebra `kind` selects for `info`.
/// (A buffer never settles, so `Generic`'s CNT flag is moot here.)
fn with_algebra<W: WithAlgebra>(kind: AccmLane, info: &AccmInfo, w: W) -> W::Out {
    match kind {
        AccmLane::SumI64 => w.with(Group::<i64>::default()),
        AccmLane::SumF64 => w.with(Group::<f64>::default()),
        AccmLane::MinI64 => w.with(Monoid::<i64, false>::default()),
        AccmLane::MaxI64 => w.with(Monoid::<i64, true>::default()),
        AccmLane::MinF64 => w.with(Monoid::<f64, false>::default()),
        AccmLane::MaxF64 => w.with(Monoid::<f64, true>::default()),
        AccmLane::OrBool => w.with(Monoid::<bool, true>::default()),
        AccmLane::AndBool => w.with(Monoid::<bool, false>::default()),
        AccmLane::Generic => w.with(Generic::of(info, true)),
    }
}

/// Accumulator `i`'s stored row at `local`: where a contribution settles.
pub struct Row<'a> {
    pub layout: &'a AccmLayout,
    pub cols: &'a mut [ColumnData],
    pub local: usize,
    pub i: usize,
}

impl Row<'_> {
    /// A lane's typed settle: `next` takes the stored value, count and
    /// support (0 for a group) to the settled ones, `None` to recompute.
    fn settle<T: Prim>(self, next: impl FnOnce(T, i64, u64) -> Option<(T, i64, u64)>) -> Outcome {
        let (cols, l, sc) = (self.cols, self.local, self.layout.support_col[self.i]);
        let (vc, cc) = (self.layout.value_col(self.i), self.layout.count_col(self.i));
        let support = sc.map_or(0, |s| cols[s].bits(l));
        let (value, count) = (T::from_bits(cols[vc].bits(l)), cols[cc].bits(l) as i64);
        let Some((v, n, s)) = next(value, count, support) else {
            return Outcome::NeedsRecompute;
        };
        if same(&v, &value) && (n, s) == (count, support) {
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

/// One accumulator's settle rule: its lane's [`Maintain::settle`].
pub type SettleRule = Box<dyn Fn(Row<'_>, &Contribution, bool) -> Outcome>;

struct NewRule;

impl WithAlgebra for NewRule {
    type Out = SettleRule;
    fn with<A: Maintain>(self, alg: A) -> SettleRule {
        Box::new(move |row, c, cnt| alg.settle(row, c, cnt))
    }
}

/// The settle rule of each vertex accumulator, by its lane.
pub fn settle_rules(layout: &AccmLayout, lanes: &[AccmLane]) -> Vec<SettleRule> {
    let rule = |(info, &lane)| with_algebra(lane, info, NewRule);
    layout.accms.iter().zip(lanes).map(rule).collect()
}

/// A fresh buffer; its key order, which the exchange frames keep, is no lane's.
struct NewLane;

impl WithAlgebra for NewLane {
    type Out = Box<dyn Lane>;
    fn with<A: Maintain>(self, alg: A) -> Box<dyn Lane> {
        Box::new(Cells {
            alg,
            map: FxHashMap::default(),
        })
    }
}

/// Per-worker contribution buffers: one lane per vertex accumulator and
/// one per global accumulator.
#[derive(Debug)]
pub struct AccBuffer {
    vertex: Vec<Box<dyn Lane>>,
    globals: Vec<Box<dyn Lane>>,
}

impl AccBuffer {
    /// A buffer with per-accumulator lanes as selected at plan-compile time
    /// ([`itg_compiler::CompiledProgram::lanes`]).
    pub fn with_lanes(
        accms: &[AccmInfo],
        globals: &[AccmInfo],
        vertex_lanes: &[AccmLane],
        global_lanes: &[AccmLane],
    ) -> AccBuffer {
        let new = |infos: &[AccmInfo], kinds: &[AccmLane]| {
            let lane = |(i, &k)| with_algebra(k, i, NewLane);
            infos.iter().zip(kinds).map(lane).collect()
        };
        AccBuffer {
            vertex: new(accms, vertex_lanes),
            globals: new(globals, global_lanes),
        }
    }

    #[inline]
    pub fn add_vertex(&mut self, a: usize, target: VertexId, value: &Value, mult: i64) {
        self.vertex[a].add(target, value, mult);
    }

    /// Retract `old` and insert `new` with one map lookup.
    #[inline]
    pub fn add_vertex_pair(&mut self, a: usize, v: VertexId, old: &Value, new: &Value, m: i64) {
        self.vertex[a].add_pair(v, old, new, m);
    }

    #[inline]
    pub fn add_global(&mut self, g: usize, value: &Value, mult: i64) {
        self.globals[g].add(0, value, mult);
    }

    /// Merge one enumeration's chunk buffers in chunk order, however the
    /// workers finished: per key the cells then fold as a serial run over
    /// the same items would — a function of the chunks, not the threads.
    pub fn merge_chunks(mut chunks: Vec<(usize, AccBuffer)>) -> Option<AccBuffer> {
        chunks.sort_unstable_by_key(|&(ci, _)| ci);
        let mut chunks = chunks.into_iter().map(|(_, buf)| buf);
        let mut merged = chunks.next()?;
        for buf in chunks {
            let mine = merged.vertex.iter_mut().chain(&mut merged.globals);
            for (mine, theirs) in mine.zip(buf.vertex.into_iter().chain(buf.globals)) {
                mine.merge(theirs);
            }
        }
        Some(merged)
    }

    /// Drain to the wire: vertex cells as `(accumulator, target, cell)` in
    /// map order, and one cell per global (its identity if untouched).
    pub fn drain(
        self,
        globals: &[AccmInfo],
        mut vertex: impl FnMut(usize, VertexId, Contribution),
    ) -> Vec<Contribution> {
        for (a, lane) in self.vertex.into_iter().enumerate() {
            lane.drain(&mut |v, c| vertex(a, v, c));
        }
        let global = |(lane, info): (Box<dyn Lane>, &AccmInfo)| {
            let mut out = Generic::of(info, true).identity();
            lane.drain(&mut |_, c| out = c);
            out
        };
        self.globals.into_iter().zip(globals).map(global).collect()
    }
}

/// Merge a contribution into accumulator `i`'s stored row at `local` and
/// settle its raw retractions by [`Generic::retract`] under CNT `use_cnt`;
/// zero contributions make the exact identity (an IEEE fold may leave
/// residue). A row to recompute is left as it was, for the reset.
pub fn apply_contribution(
    layout: &AccmLayout,
    cols: &mut [ColumnData],
    local: usize,
    i: usize,
    c: &Contribution,
    use_cnt: bool,
) -> Outcome {
    let alg = Generic::of(&layout.accms[i], use_cnt);
    let mut row = layout.load(cols, local, i);
    let before = (row.folded.clone(), row.count, row.monoid.clone());
    alg.merge(&mut row, c);
    for r in std::mem::take(&mut row.retractions) {
        if alg.retract(&mut row, &r, 1) == Outcome::NeedsRecompute {
            return Outcome::NeedsRecompute;
        }
    }
    if row.count == 0 {
        row = alg.identity();
    }
    // A retraction + insertion can leave value and count equal yet lower a
    // monoid's support; unless that is recorded, the next batch retracts
    // against a stale support and skips its recompute.
    if (&row.folded, row.count, &row.monoid) == (&before.0, before.1, &before.2) {
        return Outcome::Unchanged;
    }
    layout.store(cols, local, i, &row);
    Outcome::Changed
}

/// Reset accumulator `i`'s row at `local` to the identity (a recompute's start).
pub fn reset_state(layout: &AccmLayout, cols: &mut [ColumnData], local: usize, i: usize) {
    let identity = Generic::of(&layout.accms[i], true).identity();
    layout.store(cols, local, i, &identity);
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Accumulator 0's generic cell with `adds` folded in order.
    fn contribution(layout: &AccmLayout, adds: &[(Value, i64)]) -> Contribution {
        let alg = Generic::of(&layout.accms[0], true);
        let mut c = alg.identity();
        for (v, m) in adds {
            alg.add(&mut c, v, *m);
        }
        c
    }

    #[test]
    fn layout_columns() {
        let l = min_layout();
        assert_eq!(l.num_cols, 3); // value, count, support
        assert_eq!(l.value_col(0), 0);
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
        let out = apply_contribution(&l, &mut cols, 1, 0, &c, true);
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
        apply_contribution(&l, &mut cols, 0, 0, &c, true);
        let d = contribution(&l, &[(Value::Double(0.1), -1)]);
        apply_contribution(&l, &mut cols, 0, 0, &d, true);
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
        assert_eq!(
            apply_contribution(&l, &mut cols, 0, 0, &c, true),
            Outcome::Changed
        );
        assert_eq!(cols[0].get(0), Value::Long(1));
        assert_eq!(cols[2].get(0), Value::Long(2));

        // Retract a 5 and one 1: still fine under CNT.
        let d = contribution(&l, &[long(5, -1), long(1, -1)]);
        assert_eq!(
            apply_contribution(&l, &mut cols, 0, 0, &d, true),
            Outcome::Changed
        );
        assert_eq!(cols[0].get(0), Value::Long(1));
        assert_eq!(cols[2].get(0), Value::Long(1));

        // Retract the last 1: recompute required.
        let e = contribution(&l, &[long(1, -1)]);
        let out = apply_contribution(&l, &mut cols, 0, 0, &e, true);
        assert_eq!(out, Outcome::NeedsRecompute);
    }

    #[test]
    fn monoid_without_cnt_always_recomputes_on_retraction() {
        let l = min_layout();
        let mut cols = l.identity_columns(1);
        let c = contribution(&l, &[(Value::Long(1), 1), (Value::Long(9), 1)]);
        apply_contribution(&l, &mut cols, 0, 0, &c, false);
        let d = contribution(&l, &[(Value::Long(9), -1)]); // harmless value
        let out = apply_contribution(&l, &mut cols, 0, 0, &d, false);
        assert_eq!(out, Outcome::NeedsRecompute);
    }

    #[test]
    fn contribution_merge_is_preaggregation() {
        let l = min_layout();
        let alg = Generic::of(&l.accms[0], true);
        let mut a = contribution(&l, &[(Value::Long(3), 1)]);
        let b = contribution(&l, &[(Value::Long(3), 1), (Value::Long(7), 1)]);
        alg.merge(&mut a, &b);
        assert_eq!(a.count, 3);
        assert_eq!(a.monoid, Some((Value::Long(3), 2)));
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
        let drain = |buf: AccBuffer| {
            let mut vertex = Vec::new();
            let g = buf.drain(&globals, |a, v, c| vertex.push((a, v, c)));
            vertex.sort_by_key(|&(a, v, _)| (a, v));
            (vertex, g)
        };
        let selected = [AccmLane::SumI64, AccmLane::MinI64];
        let generic = [AccmLane::Generic; 2];
        for vertex_lanes in [&selected[..], &generic[..]] {
            let global_lanes = &vertex_lanes[..1];
            let filled = |slice: &[(usize, VertexId, i64, i64)]| {
                let mut buf = AccBuffer::with_lanes(&accms, &globals, vertex_lanes, global_lanes);
                for &(a, v, val, mult) in slice {
                    buf.add_vertex(a, v, &Value::Long(val), mult);
                    buf.add_global(0, &Value::Long(val), mult);
                }
                buf
            };
            let serial = filled(contribs);
            let chunks = vec![(1, filled(&contribs[3..])), (0, filled(&contribs[..3]))];
            let merged = AccBuffer::merge_chunks(chunks).expect("two chunks");
            assert_eq!(drain(serial), drain(merged), "{vertex_lanes:?}");
        }
    }

    /// No lane leaves a SUM retraction raw, so the model check never
    /// hands the group twin one; a wire cell may carry them all the same.
    #[test]
    fn group_twin_settles_raw_retractions_as_generic_does() {
        let values = [boxed::<i64>(&[5, i64::MIN, -2]), boxed::<f64>(&[0.1, -0.0, 1e300])];
        for (prim, xs) in [PrimType::Long, PrimType::Double].into_iter().zip(values) {
            let layout = AccmLayout::new(&[info(AccmOp::Sum, prim)]);
            let mut c = Contribution::group(xs[0].clone(), 2);
            c.retractions = xs[1..].to_vec();
            let mut cols = layout.identity_columns(1);
            let mut typed = cols.clone();
            let out = apply_contribution(&layout, &mut cols, 0, 0, &c, true);
            let twin = with_algebra(AccmLane::select(AccmOp::Sum, prim), &layout.accms[0], NewRule);
            let (local, i, cols_t) = (0, 0, &mut typed[..]);
            assert_eq!(twin(Row { layout: &layout, cols: cols_t, local, i }, &c, true), out);
            let cells = |cols: &[ColumnData]| cols.iter().map(|c| c.get(0)).collect::<Vec<_>>();
            assert_eq!(cells(&typed), cells(&cols), "{prim:?}");
        }
    }

    #[test]
    fn reset_state_clears_everything() {
        let l = min_layout();
        let mut cols = l.identity_columns(1);
        let c = contribution(&l, &[(Value::Long(4), 1)]);
        apply_contribution(&l, &mut cols, 0, 0, &c, true);
        reset_state(&l, &mut cols, 0, 0);
        assert_eq!(cols[0].get(0), Value::Long(i64::MAX));
        assert!(!l.touched(&cols, 0));
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
        /// An IEEE sum, whose value depends on the fold order.
        fn ieee_sum(&self) -> bool {
            self.op == AccmOp::Sum && self.prim == PrimType::Double
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
            let value = match (self.op, self.prim) {
                (AccmOp::Prod, _) => {
                    if (0..n).any(|i| out[i] > 0 && !matches!(x(i), Value::Long(1 | -1))) {
                        return Some(None);
                    }
                    let product = (0..n).fold(1i64, |acc, i| {
                        let f = x(i).as_i64().unwrap();
                        (0..ins[i]).fold(acc, |a, _| a.wrapping_mul(f))
                    });
                    Value::Long(product)
                }
                (_, PrimType::Long) => Value::Long((0..n).fold(0i64, |acc, i| {
                    acc.wrapping_add(x(i).as_i64().unwrap().wrapping_mul(ins[i] - out[i]))
                })),
                // IEEE sums are the fold tree the buffers build: each chunk
                // from 0.0 in contribution order, chunks in chunk order, the
                // exchange inbox's identity, then the stored row.
                _ => {
                    let chunk = |ops: &[Op]| {
                        ops.iter().fold(0.0, |acc, &(v, m)| {
                            let x = x(v).as_f64().unwrap();
                            let step = if m > 0 { x } else { 0.0 - x };
                            (0..m.abs()).fold(acc, |a, _| a + step)
                        })
                    };
                    let base: Vec<Op> = base.iter().map(|&b| (b, 1)).collect();
                    let stored = 0.0 + (0.0 + chunk(&base));
                    let delta = chunks.iter().map(|c| chunk(c)).reduce(|a, b| a + b);
                    Value::Double(stored + (0.0 + delta.unwrap_or(0.0)))
                }
            };
            Some(Some((if count == 0 { identity } else { value }, count, 0)))
        }
    }

    /// A settled cell's stored row, from its wire form.
    fn row_of(c: &Contribution) -> Stored {
        match &c.monoid {
            Some((v, s)) => (v.clone(), c.count, *s),
            None => (c.folded.clone(), c.count, 0),
        }
    }

    /// One model-check run: a case's lane algebra (`A`, selected by the
    /// production dispatch) and `Generic`, under one CNT setting.
    /// Returns how many histories it evaluated.
    struct Check<'a> {
        case: &'a ModelCase,
        cnt: bool,
    }

    impl WithAlgebra for Check<'_> {
        type Out = usize;
        fn with<A: Maintain>(self, alg: A) -> usize {
            let case = self.case;
            let info = info(case.op, case.prim);
            let gen = Generic::of(&info, self.cnt);
            let layout = AccmLayout::new(&[info]);
            // Each base inserted into the identity row.
            let stored = BASES.map(|base| {
                let mut g = gen.identity();
                for &b in base {
                    gen.insert(&mut g, &case.values[b], 1);
                }
                let mut cols = layout.identity_columns(1);
                apply_contribution(&layout, &mut cols, 0, 0, &g, true);
                (base, layout.load(&cols, 0, 0))
            });
            let mut walk = Walk {
                case,
                cnt: self.cnt,
                alg: &alg,
                gen: &gen,
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
        gen: &'a Generic,
        layout: &'a AccmLayout,
        stored: &'a [(&'static [usize], Contribution); 3],
        hist: Vec<Op>,
        /// Where each chunk after the first starts in `hist`.
        cuts: Vec<usize>,
        /// The whole-history cells of each prefix of `hist`.
        serial: Vec<(A::Cell, Contribution)>,
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
            // fewest whose merge order an IEEE sum can tell.
            let finest = self.cuts.len() + 1 == self.hist.len() && self.hist.len() < 4;
            let extend = self.cuts.len() <= 1;
            let cut = self.cnt && !self.hist.is_empty() && (self.cuts.is_empty() || finest);
            let (case, alg, gen) = (self.case, self.alg, self.gen);
            for (v, x) in case.values.iter().enumerate() {
                for m in [1, 2, -1, -2] {
                    let (mut t, mut g) = match self.serial.last() {
                        Some(whole) => whole.clone(),
                        None => (alg.identity(), gen.identity()),
                    };
                    alg.add(&mut t, x, m);
                    gen.add(&mut g, x, m);
                    self.serial.push((t, g));
                    self.hist.push((v, m));
                    if extend || self.cells.is_empty() {
                        let had = self.cells.pop();
                        let mut cell = had.clone().unwrap_or_else(|| alg.identity());
                        alg.add(&mut cell, x, m);
                        self.cells.push(cell);
                        self.explore();
                        self.cells.pop();
                        self.cells.extend(had);
                    }
                    if cut {
                        let mut cell = alg.identity();
                        alg.add(&mut cell, x, m);
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
            let (whole_t, whole_g) = self.serial.last().expect("a history");
            if self.cells.len() == 1 {
                let typed = alg.wire(whole_t.clone());
                assert_eq!(typed, *whole_g, "typed ≢ generic: {}", self.what());
                return self.settle(whole_g.clone());
            }
            let mut t = self.cells[0].clone();
            self.cells[1..].iter().for_each(|c| alg.merge(&mut t, c));
            let g = alg.wire(t);
            if self.cuts.len() + 1 == self.hist.len() && self.hist.len() <= 3 {
                self.buffers(&g);
            }
            if self.case.ieee_sum() {
                return self.settle(g);
            }
            // Elsewhere a split merges back to the whole history exactly.
            assert_eq!(g, *whole_g, "split ≢ whole: {}", self.what());
        }

        /// One op per chunk through the production buffers — lane
        /// dispatch, chunk merge (handed over last chunk first, an order
        /// workers may finish in), drain — on the selected and the
        /// `Generic` lane, as a vertex and as a global accumulator.
        fn buffers(&self, merged: &Contribution) {
            let infos = [info(self.case.op, self.case.prim)];
            let selected = AccmLane::select(infos[0].op, infos[0].prim);
            for lane in [selected, AccmLane::Generic] {
                let chunks = self.hist.iter().enumerate().rev().map(|(i, &(v, m))| {
                    let mut buf = AccBuffer::with_lanes(&infos, &infos, &[lane], &[lane]);
                    buf.add_vertex(0, 7, &self.case.values[v], m);
                    buf.add_global(0, &self.case.values[v], m);
                    (i, buf)
                });
                let buf = AccBuffer::merge_chunks(chunks.collect()).expect("chunks");
                let mut vertex = Vec::new();
                let globals = buf.drain(&infos, |_, v, c| vertex.push((v, c)));
                let want = (vec![(7, merged.clone())], vec![merged.clone()]);
                assert_eq!((vertex, globals), want, "{lane:?}: {}", self.what());
            }
        }

        /// Apply a merged delta, through the exchange inbox's identity,
        /// onto every stored state by `apply_contribution`: the outcome and
        /// the row must be the model's, and the lane's typed settle must
        /// leave the same outcome and value, count and support cells.
        fn settle(&self, g: Contribution) {
            let mut inbox = self.gen.identity();
            self.gen.merge(&mut inbox, &g);
            let (chunks, mut cols) = (self.chunks(), self.layout.identity_columns(1));
            for (base, stored) in self.stored {
                self.layout.store(&mut cols, 0, 0, stored);
                let mut typed = cols.clone();
                let out = apply_contribution(self.layout, &mut cols, 0, 0, &inbox, self.cnt);
                let row = Row { layout: self.layout, cols: &mut typed, local: 0, i: 0 };
                let twin = self.alg.settle(row, &inbox, self.cnt);
                let what = || format!("{} onto {base:?}", self.what());
                let cells = |cols: &[ColumnData]| cols.iter().map(|c| c.get(0)).collect::<Vec<_>>();
                let same = ((twin, cells(&typed)), (out, cells(&cols)));
                assert_eq!(same.0, same.1, "typed settle: {}", what());
                let Some(want) = self.case.model(base, &chunks, self.cnt) else {
                    continue;
                };
                let row = row_of(&self.layout.load(&cols, 0, 0));
                let Some(want) = want else {
                    assert_eq!(out, Outcome::NeedsRecompute, "{}", what());
                    continue;
                };
                let changed = want != row_of(stored);
                let want_out = [Outcome::Unchanged, Outcome::Changed][changed as usize];
                assert_eq!((out, &row), (want_out, &want), "{}", what());
            }
        }
    }

    fn boxed<T: Prim>(xs: &[T]) -> Vec<Value> {
        xs.iter().map(|&x| x.wrap()).collect()
    }

    /// The rule, checked exhaustively against a sorted-multiset model: for
    /// every lane (and `Generic` PROD), every history of up to five
    /// insert/retract ops, whole and split into chunks folded on their own
    /// and merged, applied onto each stored state with CNT on and off. The
    /// typed lane must fold to `Generic`'s cell bit for bit, and the
    /// settled row and outcome must be the model's.
    #[test]
    fn maintenance_model_check() {
        use AccmOp::*;
        use PrimType::{Bool, Double, Long};
        let algebras = [
            (Sum, Long),
            (Sum, Double),
            (Prod, Long),
            (Min, Long),
            (Max, Long),
            (Min, Double),
            (Max, Double),
            (Or, Bool),
            (And, Bool),
        ];
        let cases = algebras.map(|(op, prim)| ModelCase {
            op,
            prim,
            values: match (op, prim) {
                (_, Bool) => boxed(&[false, true]),
                (Prod, _) => boxed::<i64>(&[0, 1, 2]),
                (_, Long) => boxed::<i64>(&[1, 2, 3]),
                _ => boxed::<f64>(&[1.0, 2.0, 3.0]),
            },
        });
        let evaluated = model_check(&cases);
        assert!(evaluated > 1_000_000, "{evaluated} evaluations");
    }

    /// Every specialized lane must fold to the exact `Contribution` the
    /// generic path would have produced — same folds, same monoid state,
    /// same retraction order, bit for bit: the model check over values
    /// that tell (wrapping, absorption and fold order, signed zeros, NaN).
    #[test]
    fn specialized_lanes_are_bit_exact_images_of_generic() {
        use AccmOp::*;
        use PrimType::{Double, Long};
        let special = [
            (Sum, Long, boxed::<i64>(&[7, -3, i64::MAX])),
            (Sum, Double, boxed::<f64>(&[0.1, 1e300, -0.0])),
            (Min, Long, boxed::<i64>(&[5, 2])),
            (Max, Long, boxed::<i64>(&[5, 9])),
            (Min, Double, boxed::<f64>(&[-0.0, 0.0, f64::NAN])),
            (Max, Double, boxed::<f64>(&[1.5, f64::NAN])),
        ];
        let cases = special.map(|(op, prim, values)| {
            let lane = AccmLane::select(op, prim);
            assert!(lane.is_specialized(), "{op:?}/{prim:?} should specialize");
            ModelCase { op, prim, values }
        });
        let evaluated = model_check(&cases);
        assert!(evaluated > 100_000, "{evaluated} evaluations");
    }

    /// Run the model check on `cases`, two threads taking cases in turn;
    /// returns how many histories it evaluated.
    fn model_check(cases: &[ModelCase]) -> usize {
        use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
        let next = AtomicUsize::new(0);
        let run = || {
            let mut evaluated = 0;
            while let Some(case) = cases.get(next.fetch_add(1, Relaxed)) {
                let lane = AccmLane::select(case.op, case.prim);
                let accm = info(case.op, case.prim);
                for cnt in [true, false] {
                    if cnt || !case.op.is_group() {
                        evaluated += with_algebra(lane, &accm, Check { case, cnt });
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
