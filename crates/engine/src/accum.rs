//! Accumulator state and incremental Accumulate (paper §5.4).
//!
//! Per-vertex accumulator state is stored columnarly: for each accumulator,
//! its value, its *contribution count* (net number of walks that targeted
//! the vertex — a vertex is "touched", and Update runs for it, when any
//! count is positive), and — for Min/Max — the support count of the current
//! extremum (the CNT optimization).
//!
//! Contributions emitted by walk enumeration are pre-aggregated per target
//! before any exchange: Abelian-group values fold through the operation
//! (retractions through the inverse); monoid insertions fold through a
//! [`CountedAccm`]; retractions that cannot be folded (monoid deletes, or a
//! `Prod` retraction of zero) are carried raw and resolved against the
//! stored state — possibly demanding recomputation.

use itg_compiler::AccmLane;
use itg_gsa::accm::{AccmOp, CountedAccm, RetractOutcome};
use itg_gsa::value::{ColumnData, PrimType, Value, ValueType};
use itg_gsa::{FxHashMap, VertexId};
use itg_lnga::AccmInfo;
use std::cmp::Ordering;

/// Column layout of the accumulator state: `[values..][counts..][supports..]`
/// where supports exist only for Min/Max accumulators.
#[derive(Debug, Clone)]
pub struct AccmLayout {
    pub accms: Vec<AccmInfo>,
    /// Support-column index per accumulator (Min/Max only).
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
            // Or/And frontiers) carries a support count for the CNT
            // optimization; group ops (Sum/Prod) retract by inverse.
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

    pub fn support_col(&self, i: usize) -> Option<usize> {
        self.support_col[i]
    }

    /// Column types for the backing [`itg_store::AttrStore`].
    pub fn column_types(&self) -> Vec<ValueType> {
        let mut cols: Vec<ValueType> = self
            .accms
            .iter()
            .map(|a| ValueType::Prim(a.prim))
            .collect();
        cols.extend(std::iter::repeat_n(
            ValueType::Prim(PrimType::Long),
            self.accms.len(),
        ));
        for a in &self.accms {
            if !a.op.is_group() {
                cols.push(ValueType::Prim(PrimType::Long));
            }
        }
        cols
    }

    /// Fresh identity-state columns for `n` vertices.
    pub fn identity_columns(&self, n: usize) -> Vec<ColumnData> {
        let mut cols: Vec<ColumnData> = Vec::with_capacity(self.num_cols);
        for a in &self.accms {
            let mut c = ColumnData::zeros(ValueType::Prim(a.prim), n);
            let ident = a.op.identity(a.prim);
            for i in 0..n {
                c.set(i, &ident);
            }
            cols.push(c);
        }
        for _ in 0..self.accms.len() {
            cols.push(ColumnData::zeros(ValueType::Prim(PrimType::Long), n));
        }
        for a in &self.accms {
            if !a.op.is_group() {
                cols.push(ColumnData::zeros(ValueType::Prim(PrimType::Long), n));
            }
        }
        cols
    }

    /// Read a vertex's full state row.
    pub fn row(&self, cols: &[ColumnData], local: usize) -> Vec<Value> {
        (0..self.num_cols).map(|c| cols[c].get(local)).collect()
    }

    /// Is the vertex touched (any positive contribution count)?
    pub fn touched(&self, cols: &[ColumnData], local: usize) -> bool {
        (0..self.num_accms())
            .any(|i| cols[self.count_col(i)].get(local).as_i64().unwrap_or(0) > 0)
    }
}

/// A pre-aggregated set of contributions to one target.
#[derive(Debug, Clone, PartialEq)]
pub struct Contribution {
    /// Group-foldable part (starts at the identity).
    pub folded: Value,
    /// Net contribution count.
    pub count: i64,
    /// Monoid insert part (Min/Max).
    pub monoid: Option<CountedAccm>,
    /// Retractions that could not be folded.
    pub retractions: Vec<Value>,
}

impl Contribution {
    pub fn identity(op: AccmOp, prim: PrimType) -> Contribution {
        Contribution {
            folded: op.identity(prim),
            count: 0,
            monoid: None,
            retractions: Vec::new(),
        }
    }

    /// Fold one walk's contribution (`mult` = ±1 … ±k).
    pub fn add(&mut self, op: AccmOp, prim: PrimType, value: &Value, mult: i64) {
        let times = mult.unsigned_abs();
        self.count += mult;
        for _ in 0..times {
            if mult > 0 {
                if op.is_group() {
                    self.folded = op.combine(&self.folded, value, prim);
                } else {
                    self.monoid
                        .get_or_insert_with(|| CountedAccm::identity(op, prim))
                        .insert(op, prim, value);
                }
            } else if op.is_group() {
                if let Some(inv) = op.inverse(value, prim) {
                    self.folded = op.combine(&self.folded, &inv, prim);
                } else {
                    self.retractions.push(value.clone());
                }
            } else {
                self.retractions.push(value.clone());
            }
        }
    }

    /// Merge another pre-aggregated contribution (exchange path).
    pub fn merge(&mut self, other: &Contribution, op: AccmOp, prim: PrimType) {
        self.count += other.count;
        self.folded = op.combine(&self.folded, &other.folded, prim);
        if let Some(m) = &other.monoid {
            self.monoid
                .get_or_insert_with(|| CountedAccm::identity(op, prim))
                .merge(m, op, prim);
        }
        self.retractions.extend(other.retractions.iter().cloned());
    }

    /// Approximate serialized size in bytes, for network accounting.
    pub fn wire_bytes(&self) -> u64 {
        24 + self.retractions.len() as u64 * 8 + if self.monoid.is_some() { 16 } else { 0 }
    }
}

// ---------------------------------------------------------------------
// Specialized accumulate lanes (DESIGN.md §10).
//
// Each cell is the unboxed image of a `Contribution` for one concrete
// `(op, prim)` pair: the same fold/inverse/compare operations the generic
// `Value` path performs, in the same order, on machine primitives. The
// conversion back to `Contribution` happens once per target at the
// exchange boundary, never per tuple, and is *bit-exact* — the
// equivalence suite asserts byte-identical state images.
// ---------------------------------------------------------------------

/// `Accm<long, SUM>` cell. Wrapping addition is modular, so folding
/// `v · mult` in one step is exactly the generic |mult|-iteration fold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SumI64Cell {
    folded: i64,
    count: i64,
}

impl SumI64Cell {
    #[inline]
    fn add(&mut self, v: i64, mult: i64) {
        self.count += mult;
        self.folded = self.folded.wrapping_add(v.wrapping_mul(mult));
    }

    #[inline]
    fn merge(&mut self, o: &SumI64Cell) {
        self.count += o.count;
        self.folded = self.folded.wrapping_add(o.folded);
    }

    fn into_contrib(self) -> Contribution {
        Contribution {
            folded: Value::Long(self.folded),
            count: self.count,
            monoid: None,
            retractions: Vec::new(),
        }
    }
}

/// `Accm<double, SUM>` cell. IEEE addition is not associative, so
/// contributions replay one at a time in enumeration order exactly as the
/// generic fold does, and a retraction adds the literal `0.0 - v` the
/// generic inverse produces (`-v` would flip the sign of zero — a bitwise
/// difference the oracles would catch).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SumF64Cell {
    folded: f64,
    count: i64,
}

impl Default for SumF64Cell {
    fn default() -> SumF64Cell {
        SumF64Cell { folded: 0.0, count: 0 }
    }
}

impl SumF64Cell {
    #[inline]
    fn add(&mut self, v: f64, mult: i64) {
        self.count += mult;
        let step = if mult > 0 { v } else { 0.0 - v };
        for _ in 0..mult.unsigned_abs() {
            self.folded += step;
        }
    }

    #[inline]
    fn merge(&mut self, o: &SumF64Cell) {
        self.count += o.count;
        self.folded += o.folded;
    }

    fn into_contrib(self) -> Contribution {
        Contribution {
            folded: Value::Double(self.folded),
            count: self.count,
            monoid: None,
            retractions: Vec::new(),
        }
    }
}

/// Monoid cell (Min/Max and the boolean Or/And existence lanes): the
/// extremum with its support count ([`CountedAccm`] unboxed) plus
/// retractions carried raw for apply-time resolution. The per-lane
/// comparator `cmp(a, b)` returns `Less` when `a` is the strictly better
/// extremum and `Equal` exactly when the two are bit-identical, which
/// makes every [`CountedAccm`] insert/merge case a single three-way match.
#[derive(Debug, Clone, PartialEq)]
pub struct MonoidCell<T> {
    count: i64,
    monoid: Option<(T, u64)>,
    retractions: Vec<T>,
}

impl<T: Copy> Default for MonoidCell<T> {
    fn default() -> MonoidCell<T> {
        MonoidCell {
            count: 0,
            monoid: None,
            retractions: Vec::new(),
        }
    }
}

impl<T: Copy> MonoidCell<T> {
    #[inline]
    fn add(&mut self, v: T, mult: i64, cmp: impl Fn(&T, &T) -> Ordering) {
        self.count += mult;
        if mult > 0 {
            for _ in 0..mult {
                match &mut self.monoid {
                    None => self.monoid = Some((v, 1)),
                    Some((cur, n)) => match cmp(&v, cur) {
                        Ordering::Less => {
                            *cur = v;
                            *n = 1;
                        }
                        Ordering::Equal => *n += 1,
                        Ordering::Greater => {}
                    },
                }
            }
        } else {
            for _ in 0..mult.unsigned_abs() {
                self.retractions.push(v);
            }
        }
    }

    #[inline]
    fn merge(&mut self, o: &MonoidCell<T>, cmp: impl Fn(&T, &T) -> Ordering) {
        self.count += o.count;
        if let Some((ov, on)) = &o.monoid {
            match &mut self.monoid {
                None => self.monoid = Some((*ov, *on)),
                Some((sv, sn)) => match cmp(ov, sv) {
                    Ordering::Less => {
                        *sv = *ov;
                        *sn = *on;
                    }
                    Ordering::Equal => *sn += *on,
                    Ordering::Greater => {}
                },
            }
        }
        self.retractions.extend_from_slice(&o.retractions);
    }

    fn into_contrib(self, info: &AccmInfo, to: impl Fn(T) -> Value) -> Contribution {
        Contribution {
            folded: info.op.identity(info.prim),
            count: self.count,
            monoid: self.monoid.map(|(v, n)| CountedAccm {
                value: to(v),
                count: n,
            }),
            retractions: self.retractions.into_iter().map(to).collect(),
        }
    }
}

// Per-lane comparators: `Less` ⇔ first argument strictly better. Min is the
// natural order; Max reverses it; Or/And are Max/Min over `false < true`.
// For doubles, `total_cmp` returns `Equal` exactly on identical bits — the
// same tie rule `CountedAccm` gets from the bitwise `Value` equality.
#[inline]
fn cmp_min_i64(a: &i64, b: &i64) -> Ordering {
    a.cmp(b)
}
#[inline]
fn cmp_max_i64(a: &i64, b: &i64) -> Ordering {
    b.cmp(a)
}
#[inline]
fn cmp_min_f64(a: &f64, b: &f64) -> Ordering {
    a.total_cmp(b)
}
#[inline]
fn cmp_max_f64(a: &f64, b: &f64) -> Ordering {
    b.total_cmp(a)
}
#[inline]
fn cmp_or(a: &bool, b: &bool) -> Ordering {
    b.cmp(a)
}
#[inline]
fn cmp_and(a: &bool, b: &bool) -> Ordering {
    a.cmp(b)
}

#[inline]
fn v_i64(v: &Value) -> i64 {
    v.as_i64().unwrap_or(0)
}
#[inline]
fn v_f64(v: &Value) -> f64 {
    v.as_f64().unwrap_or(0.0)
}

/// One vertex accumulator's contribution map, monomorphized per lane. The
/// map's key-insertion sequence is identical across lanes (the value type
/// does not influence hash-table layout), so draining through
/// [`LaneMap::into_each`] yields targets in the same order the generic
/// path would — the exchange wire format is unchanged byte for byte.
#[derive(Debug)]
pub enum LaneMap {
    Generic(FxHashMap<VertexId, Contribution>),
    SumI64(FxHashMap<VertexId, SumI64Cell>),
    SumF64(FxHashMap<VertexId, SumF64Cell>),
    MinI64(FxHashMap<VertexId, MonoidCell<i64>>),
    MaxI64(FxHashMap<VertexId, MonoidCell<i64>>),
    MinF64(FxHashMap<VertexId, MonoidCell<f64>>),
    MaxF64(FxHashMap<VertexId, MonoidCell<f64>>),
    OrBool(FxHashMap<VertexId, MonoidCell<bool>>),
    AndBool(FxHashMap<VertexId, MonoidCell<bool>>),
}

impl LaneMap {
    pub fn new(lane: AccmLane) -> LaneMap {
        match lane {
            AccmLane::Generic => LaneMap::Generic(FxHashMap::default()),
            AccmLane::SumI64 => LaneMap::SumI64(FxHashMap::default()),
            AccmLane::SumF64 => LaneMap::SumF64(FxHashMap::default()),
            AccmLane::MinI64 => LaneMap::MinI64(FxHashMap::default()),
            AccmLane::MaxI64 => LaneMap::MaxI64(FxHashMap::default()),
            AccmLane::MinF64 => LaneMap::MinF64(FxHashMap::default()),
            AccmLane::MaxF64 => LaneMap::MaxF64(FxHashMap::default()),
            AccmLane::OrBool => LaneMap::OrBool(FxHashMap::default()),
            AccmLane::AndBool => LaneMap::AndBool(FxHashMap::default()),
        }
    }

    pub fn lane(&self) -> AccmLane {
        match self {
            LaneMap::Generic(_) => AccmLane::Generic,
            LaneMap::SumI64(_) => AccmLane::SumI64,
            LaneMap::SumF64(_) => AccmLane::SumF64,
            LaneMap::MinI64(_) => AccmLane::MinI64,
            LaneMap::MaxI64(_) => AccmLane::MaxI64,
            LaneMap::MinF64(_) => AccmLane::MinF64,
            LaneMap::MaxF64(_) => AccmLane::MaxF64,
            LaneMap::OrBool(_) => AccmLane::OrBool,
            LaneMap::AndBool(_) => AccmLane::AndBool,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            LaneMap::Generic(m) => m.len(),
            LaneMap::SumI64(m) => m.len(),
            LaneMap::SumF64(m) => m.len(),
            LaneMap::MinI64(m) => m.len(),
            LaneMap::MaxI64(m) => m.len(),
            LaneMap::MinF64(m) => m.len(),
            LaneMap::MaxF64(m) => m.len(),
            LaneMap::OrBool(m) => m.len(),
            LaneMap::AndBool(m) => m.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    pub fn add(&mut self, info: &AccmInfo, target: VertexId, value: &Value, mult: i64) {
        match self {
            LaneMap::Generic(m) => m
                .entry(target)
                .or_insert_with(|| Contribution::identity(info.op, info.prim))
                .add(info.op, info.prim, value, mult),
            LaneMap::SumI64(m) => m.entry(target).or_default().add(v_i64(value), mult),
            LaneMap::SumF64(m) => m.entry(target).or_default().add(v_f64(value), mult),
            LaneMap::MinI64(m) => m
                .entry(target)
                .or_default()
                .add(v_i64(value), mult, cmp_min_i64),
            LaneMap::MaxI64(m) => m
                .entry(target)
                .or_default()
                .add(v_i64(value), mult, cmp_max_i64),
            LaneMap::MinF64(m) => m
                .entry(target)
                .or_default()
                .add(v_f64(value), mult, cmp_min_f64),
            LaneMap::MaxF64(m) => m
                .entry(target)
                .or_default()
                .add(v_f64(value), mult, cmp_max_f64),
            LaneMap::OrBool(m) => m.entry(target).or_default().add(
                value.as_bool().unwrap_or(false),
                mult,
                cmp_or,
            ),
            LaneMap::AndBool(m) => m.entry(target).or_default().add(
                value.as_bool().unwrap_or(true),
                mult,
                cmp_and,
            ),
        }
    }

    /// The dual emit of the value-change-aware Δvs path — retract `old`,
    /// insert `new` — fused into a single map lookup. The cell receives
    /// exactly the two `add`s the generic path would issue, in the same
    /// order, so the resulting bytes (and the key-insertion order the
    /// exchange drains in) are unchanged.
    #[inline]
    pub fn add_pair(
        &mut self,
        info: &AccmInfo,
        target: VertexId,
        old: &Value,
        new: &Value,
        mult: i64,
    ) {
        match self {
            LaneMap::Generic(m) => {
                let c = m
                    .entry(target)
                    .or_insert_with(|| Contribution::identity(info.op, info.prim));
                c.add(info.op, info.prim, old, -mult);
                c.add(info.op, info.prim, new, mult);
            }
            LaneMap::SumI64(m) => {
                let c = m.entry(target).or_default();
                c.add(v_i64(old), -mult);
                c.add(v_i64(new), mult);
            }
            LaneMap::SumF64(m) => {
                let c = m.entry(target).or_default();
                c.add(v_f64(old), -mult);
                c.add(v_f64(new), mult);
            }
            LaneMap::MinI64(m) => {
                let c = m.entry(target).or_default();
                c.add(v_i64(old), -mult, cmp_min_i64);
                c.add(v_i64(new), mult, cmp_min_i64);
            }
            LaneMap::MaxI64(m) => {
                let c = m.entry(target).or_default();
                c.add(v_i64(old), -mult, cmp_max_i64);
                c.add(v_i64(new), mult, cmp_max_i64);
            }
            LaneMap::MinF64(m) => {
                let c = m.entry(target).or_default();
                c.add(v_f64(old), -mult, cmp_min_f64);
                c.add(v_f64(new), mult, cmp_min_f64);
            }
            LaneMap::MaxF64(m) => {
                let c = m.entry(target).or_default();
                c.add(v_f64(old), -mult, cmp_max_f64);
                c.add(v_f64(new), mult, cmp_max_f64);
            }
            LaneMap::OrBool(m) => {
                let c = m.entry(target).or_default();
                c.add(old.as_bool().unwrap_or(false), -mult, cmp_or);
                c.add(new.as_bool().unwrap_or(false), mult, cmp_or);
            }
            LaneMap::AndBool(m) => {
                let c = m.entry(target).or_default();
                c.add(old.as_bool().unwrap_or(true), -mult, cmp_and);
                c.add(new.as_bool().unwrap_or(true), mult, cmp_and);
            }
        }
    }

    pub fn merge(&mut self, other: LaneMap, info: &AccmInfo) {
        match (self, other) {
            (LaneMap::Generic(a), LaneMap::Generic(b)) => {
                for (v, c) in b {
                    a.entry(v)
                        .or_insert_with(|| Contribution::identity(info.op, info.prim))
                        .merge(&c, info.op, info.prim);
                }
            }
            (LaneMap::SumI64(a), LaneMap::SumI64(b)) => {
                for (v, c) in b {
                    a.entry(v).or_default().merge(&c);
                }
            }
            (LaneMap::SumF64(a), LaneMap::SumF64(b)) => {
                for (v, c) in b {
                    a.entry(v).or_default().merge(&c);
                }
            }
            (LaneMap::MinI64(a), LaneMap::MinI64(b)) => {
                for (v, c) in b {
                    a.entry(v).or_default().merge(&c, cmp_min_i64);
                }
            }
            (LaneMap::MaxI64(a), LaneMap::MaxI64(b)) => {
                for (v, c) in b {
                    a.entry(v).or_default().merge(&c, cmp_max_i64);
                }
            }
            (LaneMap::MinF64(a), LaneMap::MinF64(b)) => {
                for (v, c) in b {
                    a.entry(v).or_default().merge(&c, cmp_min_f64);
                }
            }
            (LaneMap::MaxF64(a), LaneMap::MaxF64(b)) => {
                for (v, c) in b {
                    a.entry(v).or_default().merge(&c, cmp_max_f64);
                }
            }
            (LaneMap::OrBool(a), LaneMap::OrBool(b)) => {
                for (v, c) in b {
                    a.entry(v).or_default().merge(&c, cmp_or);
                }
            }
            (LaneMap::AndBool(a), LaneMap::AndBool(b)) => {
                for (v, c) in b {
                    a.entry(v).or_default().merge(&c, cmp_and);
                }
            }
            _ => unreachable!("chunk buffers of one session share lane selection"),
        }
    }

    /// Drain the map in its iteration order, converting each cell to the
    /// generic [`Contribution`] the exchange wire carries.
    pub fn into_each(self, info: &AccmInfo, mut f: impl FnMut(VertexId, Contribution)) {
        match self {
            LaneMap::Generic(m) => {
                for (v, c) in m {
                    f(v, c);
                }
            }
            LaneMap::SumI64(m) => {
                for (v, c) in m {
                    f(v, c.into_contrib());
                }
            }
            LaneMap::SumF64(m) => {
                for (v, c) in m {
                    f(v, c.into_contrib());
                }
            }
            LaneMap::MinI64(m) | LaneMap::MaxI64(m) => {
                for (v, c) in m {
                    f(v, c.into_contrib(info, Value::Long));
                }
            }
            LaneMap::MinF64(m) | LaneMap::MaxF64(m) => {
                for (v, c) in m {
                    f(v, c.into_contrib(info, Value::Double));
                }
            }
            LaneMap::OrBool(m) | LaneMap::AndBool(m) => {
                for (v, c) in m {
                    f(v, c.into_contrib(info, Value::Bool));
                }
            }
        }
    }
}

/// One global accumulator's contribution slot, monomorphized per lane.
#[derive(Debug)]
pub enum LaneSlot {
    Generic(Contribution),
    SumI64(SumI64Cell),
    SumF64(SumF64Cell),
    MinI64(MonoidCell<i64>),
    MaxI64(MonoidCell<i64>),
    MinF64(MonoidCell<f64>),
    MaxF64(MonoidCell<f64>),
    OrBool(MonoidCell<bool>),
    AndBool(MonoidCell<bool>),
}

impl LaneSlot {
    pub fn new(lane: AccmLane, info: &AccmInfo) -> LaneSlot {
        match lane {
            AccmLane::Generic => LaneSlot::Generic(Contribution::identity(info.op, info.prim)),
            AccmLane::SumI64 => LaneSlot::SumI64(SumI64Cell::default()),
            AccmLane::SumF64 => LaneSlot::SumF64(SumF64Cell::default()),
            AccmLane::MinI64 => LaneSlot::MinI64(MonoidCell::default()),
            AccmLane::MaxI64 => LaneSlot::MaxI64(MonoidCell::default()),
            AccmLane::MinF64 => LaneSlot::MinF64(MonoidCell::default()),
            AccmLane::MaxF64 => LaneSlot::MaxF64(MonoidCell::default()),
            AccmLane::OrBool => LaneSlot::OrBool(MonoidCell::default()),
            AccmLane::AndBool => LaneSlot::AndBool(MonoidCell::default()),
        }
    }

    #[inline]
    pub fn add(&mut self, info: &AccmInfo, value: &Value, mult: i64) {
        match self {
            LaneSlot::Generic(c) => c.add(info.op, info.prim, value, mult),
            LaneSlot::SumI64(c) => c.add(v_i64(value), mult),
            LaneSlot::SumF64(c) => c.add(v_f64(value), mult),
            LaneSlot::MinI64(c) => c.add(v_i64(value), mult, cmp_min_i64),
            LaneSlot::MaxI64(c) => c.add(v_i64(value), mult, cmp_max_i64),
            LaneSlot::MinF64(c) => c.add(v_f64(value), mult, cmp_min_f64),
            LaneSlot::MaxF64(c) => c.add(v_f64(value), mult, cmp_max_f64),
            LaneSlot::OrBool(c) => c.add(value.as_bool().unwrap_or(false), mult, cmp_or),
            LaneSlot::AndBool(c) => c.add(value.as_bool().unwrap_or(true), mult, cmp_and),
        }
    }

    pub fn merge(&mut self, other: LaneSlot, info: &AccmInfo) {
        match (self, other) {
            (LaneSlot::Generic(a), LaneSlot::Generic(b)) => a.merge(&b, info.op, info.prim),
            (LaneSlot::SumI64(a), LaneSlot::SumI64(b)) => a.merge(&b),
            (LaneSlot::SumF64(a), LaneSlot::SumF64(b)) => a.merge(&b),
            (LaneSlot::MinI64(a), LaneSlot::MinI64(b)) => a.merge(&b, cmp_min_i64),
            (LaneSlot::MaxI64(a), LaneSlot::MaxI64(b)) => a.merge(&b, cmp_max_i64),
            (LaneSlot::MinF64(a), LaneSlot::MinF64(b)) => a.merge(&b, cmp_min_f64),
            (LaneSlot::MaxF64(a), LaneSlot::MaxF64(b)) => a.merge(&b, cmp_max_f64),
            (LaneSlot::OrBool(a), LaneSlot::OrBool(b)) => a.merge(&b, cmp_or),
            (LaneSlot::AndBool(a), LaneSlot::AndBool(b)) => a.merge(&b, cmp_and),
            _ => unreachable!("chunk buffers of one session share lane selection"),
        }
    }

    /// Convert to the generic [`Contribution`] the globals wire carries.
    pub fn into_contrib(self, info: &AccmInfo) -> Contribution {
        match self {
            LaneSlot::Generic(c) => c,
            LaneSlot::SumI64(c) => c.into_contrib(),
            LaneSlot::SumF64(c) => c.into_contrib(),
            LaneSlot::MinI64(c) | LaneSlot::MaxI64(c) => c.into_contrib(info, Value::Long),
            LaneSlot::MinF64(c) | LaneSlot::MaxF64(c) => c.into_contrib(info, Value::Double),
            LaneSlot::OrBool(c) | LaneSlot::AndBool(c) => c.into_contrib(info, Value::Bool),
        }
    }
}

/// Per-worker contribution buffers: one lane map per vertex accumulator
/// plus one lane slot per global accumulator.
#[derive(Debug)]
pub struct AccBuffer {
    pub vertex: Vec<LaneMap>,
    pub globals: Vec<LaneSlot>,
}

impl AccBuffer {
    /// An all-generic buffer (the unspecialized PR 5 path; also what
    /// `OptFlags::specialize = false` selects for every accumulator).
    pub fn new(accms: &[AccmInfo], globals: &[AccmInfo]) -> AccBuffer {
        AccBuffer {
            vertex: accms.iter().map(|_| LaneMap::new(AccmLane::Generic)).collect(),
            globals: globals
                .iter()
                .map(|g| LaneSlot::new(AccmLane::Generic, g))
                .collect(),
        }
    }

    /// A buffer with per-accumulator lanes as selected at plan-compile time
    /// ([`itg_compiler::CompiledProgram::lanes`]).
    pub fn with_lanes(
        globals: &[AccmInfo],
        vertex_lanes: &[AccmLane],
        global_lanes: &[AccmLane],
    ) -> AccBuffer {
        AccBuffer {
            vertex: vertex_lanes.iter().map(|&l| LaneMap::new(l)).collect(),
            globals: globals
                .iter()
                .zip(global_lanes)
                .map(|(g, &l)| LaneSlot::new(l, g))
                .collect(),
        }
    }

    #[inline]
    pub fn add_vertex(
        &mut self,
        accm_idx: usize,
        info: &AccmInfo,
        target: VertexId,
        value: &Value,
        mult: i64,
    ) {
        self.vertex[accm_idx].add(info, target, value, mult);
    }

    /// Retract `old` and insert `new` into one vertex target with a single
    /// map lookup (see [`LaneMap::add_pair`]).
    #[inline]
    pub fn add_vertex_pair(
        &mut self,
        accm_idx: usize,
        info: &AccmInfo,
        target: VertexId,
        old: &Value,
        new: &Value,
        mult: i64,
    ) {
        self.vertex[accm_idx].add_pair(info, target, old, new, mult);
    }

    #[inline]
    pub fn add_global(&mut self, idx: usize, info: &AccmInfo, value: &Value, mult: i64) {
        self.globals[idx].add(info, value, mult);
    }

    /// Merge another buffer into this one (the intra-partition parallel
    /// path). Per key, `other` carries one pre-aggregated cell whose
    /// internal fold/retraction order is the enumeration order of the
    /// chunk that produced it; merging chunk buffers in chunk order
    /// therefore concatenates per-key contribution sequences exactly as a
    /// serial enumeration over the same item list would, so the merged
    /// buffer is a pure function of the chunk decomposition — independent
    /// of how many threads executed the chunks.
    pub fn merge(&mut self, other: AccBuffer, accms: &[AccmInfo], globals: &[AccmInfo]) {
        for ((mine, theirs), info) in self.vertex.iter_mut().zip(other.vertex).zip(accms) {
            mine.merge(theirs, info);
        }
        for ((mine, theirs), info) in self.globals.iter_mut().zip(other.globals).zip(globals) {
            mine.merge(theirs, info);
        }
    }
}

/// Result of applying one contribution set to a vertex's stored state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyOutcome {
    Unchanged,
    Changed,
    /// Monoid (or non-invertible group) retraction hit the stored extremum:
    /// the accumulator must be recomputed from its inputs.
    NeedsRecompute,
}

/// Apply a contribution to the state columns at `local` for accumulator
/// `i`. `use_cnt` is the CNT optimization flag: when false, *any*
/// unfoldable retraction forces recomputation.
pub fn apply_contribution(
    layout: &AccmLayout,
    cols: &mut [ColumnData],
    local: usize,
    i: usize,
    c: &Contribution,
    use_cnt: bool,
) -> ApplyOutcome {
    let info = &layout.accms[i];
    let (op, prim) = (info.op, info.prim);
    let vcol = layout.value_col(i);
    let ccol = layout.count_col(i);

    let before_value = cols[vcol].get(local);
    let before_count = cols[ccol].get(local).as_i64().unwrap_or(0);
    let before_support = layout.support_col(i).map(|s| cols[s].get(local));

    let new_count = before_count + c.count;
    cols[ccol].set(local, &Value::Long(new_count));

    let mut needs_recompute = false;
    if op.is_group() {
        let mut v = op.combine(&before_value, &c.folded, prim);
        if !c.retractions.is_empty() {
            needs_recompute = true;
        }
        if new_count == 0 && !needs_recompute {
            // All contributions cancelled: restore the exact identity (the
            // floating-point fold may leave −0.0 or tiny residue).
            v = op.identity(prim);
        }
        cols[vcol].set(local, &v);
    } else {
        // Monoid: fold inserts through the counted state, then retract.
        let scol = layout.support_col(i).expect("monoid has support column");
        let mut state = CountedAccm {
            value: before_value.clone(),
            count: cols[scol].get(local).as_i64().unwrap_or(0) as u64,
        };
        if let Some(m) = &c.monoid {
            state.merge(m, op, prim);
        }
        for r in &c.retractions {
            if !use_cnt {
                needs_recompute = true;
                break;
            }
            match state.retract(r) {
                RetractOutcome::NeedsRecompute => {
                    needs_recompute = true;
                    break;
                }
                RetractOutcome::Unaffected | RetractOutcome::SupportDecremented => {}
            }
        }
        if !needs_recompute {
            cols[vcol].set(local, &state.value);
            cols[scol].set(local, &Value::Long(state.count as i64));
        }
        if new_count == 0 && !needs_recompute {
            cols[vcol].set(local, &op.identity(prim));
            cols[scol].set(local, &Value::Long(0));
        }
    }

    if needs_recompute {
        ApplyOutcome::NeedsRecompute
    } else if cols[vcol].get(local) != before_value
        || new_count != before_count
        // A retraction + insertion can leave value and count equal yet
        // lower the MIN/MAX support; unless that is recorded, the next
        // batch retracts against a stale support and skips its recompute.
        || layout.support_col(i).map(|s| cols[s].get(local)) != before_support
    {
        ApplyOutcome::Changed
    } else {
        ApplyOutcome::Unchanged
    }
}

/// Reset accumulator `i`'s state at `local` to identity/untouched (the
/// starting point of a recomputation).
pub fn reset_state(layout: &AccmLayout, cols: &mut [ColumnData], local: usize, i: usize) {
    let info = &layout.accms[i];
    cols[layout.value_col(i)].set(local, &info.op.identity(info.prim));
    cols[layout.count_col(i)].set(local, &Value::Long(0));
    if let Some(s) = layout.support_col(i) {
        cols[s].set(local, &Value::Long(0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_layout() -> AccmLayout {
        AccmLayout::new(&[AccmInfo {
            name: "sum".into(),
            prim: PrimType::Double,
            op: AccmOp::Sum,
        }])
    }

    fn min_layout() -> AccmLayout {
        AccmLayout::new(&[AccmInfo {
            name: "m".into(),
            prim: PrimType::Long,
            op: AccmOp::Min,
        }])
    }

    #[test]
    fn layout_columns() {
        let l = min_layout();
        assert_eq!(l.num_cols, 3); // value, count, support
        assert_eq!(l.value_col(0), 0);
        assert_eq!(l.count_col(0), 1);
        assert_eq!(l.support_col(0), Some(2));
        let s = sum_layout();
        assert_eq!(s.num_cols, 2);
        assert_eq!(s.support_col(0), None);
    }

    #[test]
    fn group_fold_and_apply() {
        let l = sum_layout();
        let mut cols = l.identity_columns(4);
        let info = &l.accms[0].clone();
        let mut c = Contribution::identity(AccmOp::Sum, PrimType::Double);
        c.add(info.op, info.prim, &Value::Double(2.0), 1);
        c.add(info.op, info.prim, &Value::Double(3.0), 1);
        c.add(info.op, info.prim, &Value::Double(2.0), -1);
        let out = apply_contribution(&l, &mut cols, 1, 0, &c, true);
        assert_eq!(out, ApplyOutcome::Changed);
        assert_eq!(cols[0].get(1), Value::Double(3.0));
        assert_eq!(cols[1].get(1), Value::Long(1));
        assert!(l.touched(&cols, 1));
        assert!(!l.touched(&cols, 0));
    }

    #[test]
    fn group_full_cancellation_restores_identity() {
        let l = sum_layout();
        let mut cols = l.identity_columns(1);
        let info = l.accms[0].clone();
        let mut c = Contribution::identity(info.op, info.prim);
        c.add(info.op, info.prim, &Value::Double(0.1), 1);
        apply_contribution(&l, &mut cols, 0, 0, &c, true);
        let mut d = Contribution::identity(info.op, info.prim);
        d.add(info.op, info.prim, &Value::Double(0.1), -1);
        apply_contribution(&l, &mut cols, 0, 0, &d, true);
        assert_eq!(cols[0].get(0), Value::Double(0.0));
        assert!(!l.touched(&cols, 0));
    }

    #[test]
    fn monoid_cnt_avoids_recompute() {
        let l = min_layout();
        let mut cols = l.identity_columns(1);
        let info = l.accms[0].clone();
        // Insert {1, 2, 5, 1}.
        let mut c = Contribution::identity(info.op, info.prim);
        for v in [1i64, 2, 5, 1] {
            c.add(info.op, info.prim, &Value::Long(v), 1);
        }
        assert_eq!(apply_contribution(&l, &mut cols, 0, 0, &c, true), ApplyOutcome::Changed);
        assert_eq!(cols[0].get(0), Value::Long(1));
        assert_eq!(cols[2].get(0), Value::Long(2));

        // Retract a 5 and one 1: still fine under CNT.
        let mut d = Contribution::identity(info.op, info.prim);
        d.add(info.op, info.prim, &Value::Long(5), -1);
        d.add(info.op, info.prim, &Value::Long(1), -1);
        assert_eq!(apply_contribution(&l, &mut cols, 0, 0, &d, true), ApplyOutcome::Changed);
        assert_eq!(cols[0].get(0), Value::Long(1));
        assert_eq!(cols[2].get(0), Value::Long(1));

        // Retract the last 1: recompute required.
        let mut e = Contribution::identity(info.op, info.prim);
        e.add(info.op, info.prim, &Value::Long(1), -1);
        assert_eq!(
            apply_contribution(&l, &mut cols, 0, 0, &e, true),
            ApplyOutcome::NeedsRecompute
        );
    }

    #[test]
    fn monoid_without_cnt_always_recomputes_on_retraction() {
        let l = min_layout();
        let mut cols = l.identity_columns(1);
        let info = l.accms[0].clone();
        let mut c = Contribution::identity(info.op, info.prim);
        c.add(info.op, info.prim, &Value::Long(1), 1);
        c.add(info.op, info.prim, &Value::Long(9), 1);
        apply_contribution(&l, &mut cols, 0, 0, &c, false);
        let mut d = Contribution::identity(info.op, info.prim);
        d.add(info.op, info.prim, &Value::Long(9), -1); // harmless value
        assert_eq!(
            apply_contribution(&l, &mut cols, 0, 0, &d, false),
            ApplyOutcome::NeedsRecompute
        );
    }

    #[test]
    fn contribution_merge_is_preaggregation() {
        let info = AccmInfo {
            name: "m".into(),
            prim: PrimType::Long,
            op: AccmOp::Min,
        };
        let mut a = Contribution::identity(info.op, info.prim);
        a.add(info.op, info.prim, &Value::Long(3), 1);
        let mut b = Contribution::identity(info.op, info.prim);
        b.add(info.op, info.prim, &Value::Long(3), 1);
        b.add(info.op, info.prim, &Value::Long(7), 1);
        a.merge(&b, info.op, info.prim);
        assert_eq!(a.count, 3);
        let m = a.monoid.unwrap();
        assert_eq!(m.value, Value::Long(3));
        assert_eq!(m.count, 2);
    }

    #[test]
    fn buffer_merge_matches_serial_accumulation() {
        let accms = vec![
            AccmInfo {
                name: "s".into(),
                prim: PrimType::Long,
                op: AccmOp::Sum,
            },
            AccmInfo {
                name: "m".into(),
                prim: PrimType::Long,
                op: AccmOp::Min,
            },
        ];
        let globals = vec![AccmInfo {
            name: "g".into(),
            prim: PrimType::Long,
            op: AccmOp::Sum,
        }];
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
        let apply = |buf: &mut AccBuffer, slice: &[(usize, VertexId, i64, i64)]| {
            for &(a, v, val, mult) in slice {
                buf.add_vertex(a, &accms[a], v, &Value::Long(val), mult);
                buf.add_global(0, &globals[0], &Value::Long(val), mult);
            }
        };
        let mut serial = AccBuffer::new(&accms, &globals);
        apply(&mut serial, contribs);
        let mut chunk0 = AccBuffer::new(&accms, &globals);
        apply(&mut chunk0, &contribs[..3]);
        let mut chunk1 = AccBuffer::new(&accms, &globals);
        apply(&mut chunk1, &contribs[3..]);
        chunk0.merge(chunk1, &accms, &globals);

        let (s_vertex, s_globals) = drain(serial, &accms, &globals);
        let (p_vertex, p_globals) = drain(chunk0, &accms, &globals);
        for a in 0..accms.len() {
            let mut s = s_vertex[a].clone();
            let mut p = p_vertex[a].clone();
            s.sort_by_key(|(v, _)| *v);
            p.sort_by_key(|(v, _)| *v);
            assert_eq!(s, p);
        }
        assert_eq!(s_globals[0].folded, p_globals[0].folded);
        assert_eq!(s_globals[0].count, p_globals[0].count);
    }

    /// Drain a buffer into sortable `(target, Contribution)` lists plus the
    /// converted global contributions.
    fn drain(
        buf: AccBuffer,
        accms: &[AccmInfo],
        globals: &[AccmInfo],
    ) -> (Vec<Vec<(VertexId, Contribution)>>, Vec<Contribution>) {
        let AccBuffer { vertex, globals: g } = buf;
        let vertex = vertex
            .into_iter()
            .zip(accms)
            .map(|(m, info)| {
                let mut out = Vec::new();
                m.into_each(info, |v, c| out.push((v, c)));
                out
            })
            .collect();
        let g = g
            .into_iter()
            .zip(globals)
            .map(|(s, info)| s.into_contrib(info))
            .collect();
        (vertex, g)
    }

    /// Every specialized lane must convert back to the exact
    /// `Contribution` the generic path would have produced — same folds,
    /// same monoid state, same retraction order, bit for bit.
    #[test]
    fn specialized_lanes_are_bit_exact_images_of_generic() {
        use itg_compiler::AccmLane;

        let cases: Vec<(AccmOp, PrimType, Vec<Value>)> = vec![
            (
                AccmOp::Sum,
                PrimType::Long,
                vec![Value::Long(7), Value::Long(-3), Value::Long(i64::MAX)],
            ),
            (
                AccmOp::Sum,
                PrimType::Double,
                vec![Value::Double(0.1), Value::Double(1e300), Value::Double(-0.0)],
            ),
            (
                AccmOp::Min,
                PrimType::Long,
                vec![Value::Long(5), Value::Long(2), Value::Long(2)],
            ),
            (
                AccmOp::Max,
                PrimType::Long,
                vec![Value::Long(5), Value::Long(9), Value::Long(9)],
            ),
            (
                AccmOp::Min,
                PrimType::Double,
                vec![Value::Double(-0.0), Value::Double(0.0), Value::Double(f64::NAN)],
            ),
            (
                AccmOp::Max,
                PrimType::Double,
                vec![Value::Double(1.5), Value::Double(f64::NAN), Value::Double(1.5)],
            ),
            (
                AccmOp::Or,
                PrimType::Bool,
                vec![Value::Bool(false), Value::Bool(true), Value::Bool(false)],
            ),
            (
                AccmOp::And,
                PrimType::Bool,
                vec![Value::Bool(true), Value::Bool(false), Value::Bool(true)],
            ),
        ];
        for (op, prim, values) in cases {
            let info = AccmInfo {
                name: "x".into(),
                prim,
                op,
            };
            let lane = AccmLane::select(op, prim);
            assert!(lane.is_specialized(), "{op:?}/{prim:?} should specialize");
            let accms = vec![info.clone()];
            let globals = vec![info.clone()];
            let lanes = vec![lane];
            let mut gen_buf = AccBuffer::new(&accms, &globals);
            let mut spec = AccBuffer::with_lanes(&globals, &lanes, &lanes);
            // A mix of inserts, multi-multiplicity, and retractions.
            let mults = [1i64, 2, -1, 1, -2, 3];
            for (i, m) in mults.iter().enumerate() {
                let v = &values[i % values.len()];
                gen_buf.add_vertex(0, &info, 4, v, *m);
                gen_buf.add_global(0, &info, v, *m);
                spec.add_vertex(0, &info, 4, v, *m);
                spec.add_global(0, &info, v, *m);
            }
            let (gv, gg) = drain(gen_buf, &accms, &globals);
            let (sv, sg) = drain(spec, &accms, &globals);
            assert_eq!(gv, sv, "{op:?}/{prim:?} vertex lane diverged");
            assert_eq!(gg, sg, "{op:?}/{prim:?} global lane diverged");
        }
    }

    #[test]
    fn reset_state_clears_everything() {
        let l = min_layout();
        let mut cols = l.identity_columns(1);
        let info = l.accms[0].clone();
        let mut c = Contribution::identity(info.op, info.prim);
        c.add(info.op, info.prim, &Value::Long(4), 1);
        apply_contribution(&l, &mut cols, 0, 0, &c, true);
        reset_state(&l, &mut cols, 0, 0);
        assert_eq!(cols[0].get(0), Value::Long(i64::MAX));
        assert!(!l.touched(&cols, 0));
    }
}
