//! Runtime values and typed columnar storage.
//!
//! `L_NGA` provides five primitive data types (`bool`, `int`, `long`,
//! `float`, `double`) plus composite `Array` types (paper §3). All runtime
//! data — vertex attributes, global variables, stream tuple columns — is
//! represented by [`Value`]. Bulk per-vertex storage uses the typed columnar
//! [`ColumnData`] so the hot path never boxes.
//!
//! Equality and hashing of floating-point values are *bitwise*: two values
//! compare equal iff their bit patterns match. This makes `Value` usable as a
//! key and makes "did this attribute change?" (the trigger for delta
//! generation, paper §5.2) a well-defined question.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Vertex identifier. Graphs are addressed by dense ids `0..n`.
pub type VertexId = u64;

/// The five primitive types of `L_NGA` (paper §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrimType {
    Bool,
    Int,
    Long,
    Float,
    Double,
}

impl PrimType {
    /// The zero/default value of this type.
    pub fn zero(self) -> Value {
        match self {
            PrimType::Bool => Value::Bool(false),
            PrimType::Int => Value::Int(0),
            PrimType::Long => Value::Long(0),
            PrimType::Float => Value::Float(0.0),
            PrimType::Double => Value::Double(0.0),
        }
    }

    /// Whether this is a numeric (non-bool) type.
    pub fn is_numeric(self) -> bool {
        !matches!(self, PrimType::Bool)
    }

    /// Whether this is a floating-point type.
    pub fn is_float(self) -> bool {
        matches!(self, PrimType::Float | PrimType::Double)
    }

    /// Numeric promotion of two primitive types (the wider wins; any float
    /// beats any integer).
    pub fn promote(self, other: PrimType) -> Option<PrimType> {
        use PrimType::*;
        match (self, other) {
            (Bool, Bool) => Some(Bool),
            (Bool, _) | (_, Bool) => None,
            (Double, _) | (_, Double) => Some(Double),
            (Float, _) | (_, Float) => Some(Float),
            (Long, _) | (_, Long) => Some(Long),
            (Int, Int) => Some(Int),
        }
    }
}

impl fmt::Display for PrimType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PrimType::Bool => "bool",
            PrimType::Int => "int",
            PrimType::Long => "long",
            PrimType::Float => "float",
            PrimType::Double => "double",
        };
        f.write_str(s)
    }
}

/// A full value type: a primitive or a fixed-size array of a primitive
/// (`Array<type, size>`, paper §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    Prim(PrimType),
    Array(PrimType, usize),
}

impl ValueType {
    /// Zero value of this type (arrays are zero-filled).
    pub fn zero(self) -> Value {
        match self {
            ValueType::Prim(p) => p.zero(),
            ValueType::Array(p, n) => Value::Array(vec![p.zero(); n]),
        }
    }

    pub fn prim(self) -> Option<PrimType> {
        match self {
            ValueType::Prim(p) => Some(p),
            ValueType::Array(..) => None,
        }
    }
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueType::Prim(p) => write!(f, "{p}"),
            ValueType::Array(p, n) => write!(f, "Array<{p}, {n}>"),
        }
    }
}

/// A dynamically-typed runtime value.
#[derive(Debug, Clone)]
pub enum Value {
    Bool(bool),
    Int(i32),
    Long(i64),
    Float(f32),
    Double(f64),
    Array(Vec<Value>),
}

impl Value {
    /// The type of this value (array element type taken from the first
    /// element; empty arrays report `double` elements).
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Bool(_) => ValueType::Prim(PrimType::Bool),
            Value::Int(_) => ValueType::Prim(PrimType::Int),
            Value::Long(_) => ValueType::Prim(PrimType::Long),
            Value::Float(_) => ValueType::Prim(PrimType::Float),
            Value::Double(_) => ValueType::Prim(PrimType::Double),
            Value::Array(v) => {
                let elem = v
                    .first()
                    .and_then(|e| e.value_type().prim())
                    .unwrap_or(PrimType::Double);
                ValueType::Array(elem, v.len())
            }
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Widen to `f64` for arithmetic; `None` for bools/arrays.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Long(v) => Some(*v as f64),
            Value::Float(v) => Some(*v as f64),
            Value::Double(v) => Some(*v),
            _ => None,
        }
    }

    /// Widen to `i64`; `None` for non-integers.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v as i64),
            Value::Long(v) => Some(*v),
            _ => None,
        }
    }

    /// Interpret as a vertex id. Ids are stored as `Long`.
    pub fn as_vertex_id(&self) -> Option<VertexId> {
        self.as_i64().map(|v| v as VertexId)
    }

    /// Cast (numeric conversion) to the given primitive type. An integer
    /// to integer cast is exact (`long → int` truncates as `as` does);
    /// only a cast to or from a float type goes through `f64`.
    pub fn cast(&self, ty: PrimType) -> Option<Value> {
        match (ty, self.as_i64()) {
            (PrimType::Bool, _) => return self.as_bool().map(Value::Bool),
            (PrimType::Int, Some(i)) => return Some(Value::Int(i as i32)),
            (PrimType::Long, Some(i)) => return Some(Value::Long(i)),
            _ => {}
        }
        let f = self.as_f64()?;
        Some(match ty {
            PrimType::Bool => unreachable!(),
            PrimType::Int => Value::Int(f as i32),
            PrimType::Long => Value::Long(f as i64),
            PrimType::Float => Value::Float(f as f32),
            PrimType::Double => Value::Double(f),
        })
    }

    /// Total ordering used by comparison operators and Min/Max accumulators.
    /// Numeric values compare by widened magnitude; NaN sorts above all
    /// numbers (so it never wins a Min).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Array(a), Value::Array(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let c = x.total_cmp(y);
                    if c != Ordering::Equal {
                        return c;
                    }
                }
                a.len().cmp(&b.len())
            }
            _ => match (self.as_i64(), other.as_i64()) {
                (Some(a), Some(b)) => a.cmp(&b),
                _ => {
                    let a = self.as_f64().unwrap_or(f64::NAN);
                    let b = other.as_f64().unwrap_or(f64::NAN);
                    a.total_cmp(&b)
                }
            },
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Long(a), Value::Long(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Double(a), Value::Double(b)) => a.to_bits() == b.to_bits(),
            (Value::Array(a), Value::Array(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        core::mem::discriminant(self).hash(state);
        match self {
            Value::Bool(v) => v.hash(state),
            Value::Int(v) => v.hash(state),
            Value::Long(v) => v.hash(state),
            Value::Float(v) => v.to_bits().hash(state),
            Value::Double(v) => v.to_bits().hash(state),
            Value::Array(v) => v.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(v) => write!(f, "{v}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Long(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Array(v) => {
                write!(f, "[")?;
                for (i, e) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "]")
            }
        }
    }
}

/// Typed columnar storage for one attribute across all vertices of a
/// partition. Avoids per-value boxing on the engine's hot paths.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    Bool(Vec<bool>),
    Int(Vec<i32>),
    Long(Vec<i64>),
    Float(Vec<f32>),
    Double(Vec<f64>),
    Array(Vec<Vec<Value>>),
}

impl ColumnData {
    /// A zero-filled column of `len` values of type `ty`.
    pub fn zeros(ty: ValueType, len: usize) -> ColumnData {
        match ty {
            ValueType::Prim(PrimType::Bool) => ColumnData::Bool(vec![false; len]),
            ValueType::Prim(PrimType::Int) => ColumnData::Int(vec![0; len]),
            ValueType::Prim(PrimType::Long) => ColumnData::Long(vec![0; len]),
            ValueType::Prim(PrimType::Float) => ColumnData::Float(vec![0.0; len]),
            ValueType::Prim(PrimType::Double) => ColumnData::Double(vec![0.0; len]),
            ValueType::Array(p, n) => ColumnData::Array(vec![vec![p.zero(); n]; len]),
        }
    }

    pub fn len(&self) -> usize {
        match self {
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int(v) => v.len(),
            ColumnData::Long(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Double(v) => v.len(),
            ColumnData::Array(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn get(&self, i: usize) -> Value {
        match self {
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Long(v) => Value::Long(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Double(v) => Value::Double(v[i]),
            ColumnData::Array(v) => Value::Array(v[i].clone()),
        }
    }

    /// Set slot `i`. Panics on a type mismatch: columns are typed at
    /// creation and the compiler's type checker guarantees writes conform.
    pub fn set(&mut self, i: usize, value: &Value) {
        match (self, value) {
            (ColumnData::Bool(v), Value::Bool(x)) => v[i] = *x,
            (ColumnData::Int(v), Value::Int(x)) => v[i] = *x,
            (ColumnData::Long(v), Value::Long(x)) => v[i] = *x,
            (ColumnData::Float(v), Value::Float(x)) => v[i] = *x,
            (ColumnData::Double(v), Value::Double(x)) => v[i] = *x,
            (ColumnData::Array(v), Value::Array(x)) => v[i] = x.clone(),
            (col, val) => panic!(
                "column type mismatch: cannot store {val:?} in {} column",
                col.type_name()
            ),
        }
    }

    /// `self[idx[j]] = src[j]` for every `j`: one type match for the whole
    /// column. Panics on a type mismatch or unequal lengths.
    pub fn scatter(&mut self, idx: &[u32], src: &ColumnData) {
        fn put<T: Clone>(dst: &mut [T], idx: &[u32], src: &[T]) {
            let (n, m) = (idx.len(), src.len());
            assert_eq!(n, m, "scatter: {n} indices, {m} values");
            for (&i, x) in idx.iter().zip(src) {
                dst[i as usize] = x.clone();
            }
        }
        match (self, src) {
            (ColumnData::Bool(d), ColumnData::Bool(s)) => put(d, idx, s),
            (ColumnData::Int(d), ColumnData::Int(s)) => put(d, idx, s),
            (ColumnData::Long(d), ColumnData::Long(s)) => put(d, idx, s),
            (ColumnData::Float(d), ColumnData::Float(s)) => put(d, idx, s),
            (ColumnData::Double(d), ColumnData::Double(s)) => put(d, idx, s),
            (ColumnData::Array(d), ColumnData::Array(s)) => put(d, idx, s),
            (d, s) => panic!(
                "column type mismatch: cannot scatter a {} column into a {} column",
                s.type_name(),
                d.type_name()
            ),
        }
    }

    /// The rows `idx` of this column, in that order.
    pub fn gather(&self, idx: &[u32]) -> ColumnData {
        ColumnData::gather_from(&[self], idx.iter().map(|&i| (0, i)))
    }

    /// Row `j` is `srcs[s][r]` for the `j`-th pick `(s, r)`: a gather over
    /// several columns of one type, matched once per source. Panics when
    /// `srcs` is empty or mixes types.
    pub fn gather_from(
        srcs: &[&ColumnData],
        picks: impl Iterator<Item = (u32, u32)>,
    ) -> ColumnData {
        macro_rules! gather {
            ($variant:ident) => {{
                let slices: Vec<&[_]> = srcs
                    .iter()
                    .map(|c| match c {
                        ColumnData::$variant(v) => v.as_slice(),
                        other => panic!(
                            "column type mismatch: cannot gather a {} column into a {} column",
                            other.type_name(),
                            srcs[0].type_name()
                        ),
                    })
                    .collect();
                let pick = |(s, r): (u32, u32)| slices[s as usize][r as usize].clone();
                ColumnData::$variant(picks.map(pick).collect())
            }};
        }
        match srcs[0] {
            ColumnData::Bool(_) => gather!(Bool),
            ColumnData::Int(_) => gather!(Int),
            ColumnData::Long(_) => gather!(Long),
            ColumnData::Float(_) => gather!(Float),
            ColumnData::Double(_) => gather!(Double),
            ColumnData::Array(_) => gather!(Array),
        }
    }

    /// Truncate or extend to `n` rows, new rows taking `value`. Panics on a
    /// type mismatch.
    pub fn resize(&mut self, n: usize, value: &Value) {
        match (self, value) {
            (ColumnData::Bool(v), Value::Bool(x)) => v.resize(n, *x),
            (ColumnData::Int(v), Value::Int(x)) => v.resize(n, *x),
            (ColumnData::Long(v), Value::Long(x)) => v.resize(n, *x),
            (ColumnData::Float(v), Value::Float(x)) => v.resize(n, *x),
            (ColumnData::Double(v), Value::Double(x)) => v.resize(n, *x),
            (ColumnData::Array(v), Value::Array(x)) => v.resize(n, x.clone()),
            (col, val) => panic!(
                "column type mismatch: cannot store {val:?} in {} column",
                col.type_name()
            ),
        }
    }

    /// Whether every row holds a value of type `ty` (arrays: of its element
    /// type and length) — the check a decoder runs before trusting a column.
    pub fn conforms_to(&self, ty: ValueType) -> bool {
        match (self, ty) {
            (ColumnData::Bool(_), ValueType::Prim(PrimType::Bool))
            | (ColumnData::Int(_), ValueType::Prim(PrimType::Int))
            | (ColumnData::Long(_), ValueType::Prim(PrimType::Long))
            | (ColumnData::Float(_), ValueType::Prim(PrimType::Float))
            | (ColumnData::Double(_), ValueType::Prim(PrimType::Double)) => true,
            (ColumnData::Array(rows), ValueType::Array(p, len)) => rows.iter().all(|row| {
                row.len() == len && row.iter().all(|x| x.value_type() == ValueType::Prim(p))
            }),
            _ => false,
        }
    }

    /// Cell `i`'s bit pattern (floats by `to_bits`, bools as 0/1): equal
    /// bits are equal `Value`s. Panics on an array column.
    #[inline]
    pub fn bits(&self, i: usize) -> u64 {
        match self {
            ColumnData::Bool(v) => v[i] as u64,
            ColumnData::Int(v) => v[i] as u32 as u64,
            ColumnData::Long(v) => v[i] as u64,
            ColumnData::Float(v) => v[i].to_bits() as u64,
            ColumnData::Double(v) => v[i].to_bits(),
            ColumnData::Array(_) => panic!("an array cell has no bit pattern"),
        }
    }

    /// Cell `i` as a kernel register holds it ([`crate::kernel`]): an `int`
    /// sign-extended to `i64` bits, a `float` widened to `f64` bits, any
    /// other scalar as [`ColumnData::bits`]. Panics on an array column.
    #[inline]
    pub fn load(&self, i: usize) -> u64 {
        match self {
            ColumnData::Bool(v) => v[i] as u64,
            ColumnData::Int(v) => v[i] as i64 as u64,
            ColumnData::Long(v) => v[i] as u64,
            ColumnData::Float(v) => (v[i] as f64).to_bits(),
            ColumnData::Double(v) => v[i].to_bits(),
            ColumnData::Array(_) => panic!("an array cell has no register"),
        }
    }

    /// Set cell `i` from the bit pattern [`ColumnData::bits`] reads.
    #[inline]
    pub fn set_bits(&mut self, i: usize, bits: u64) {
        match self {
            ColumnData::Bool(v) => v[i] = bits != 0,
            ColumnData::Int(v) => v[i] = bits as u32 as i32,
            ColumnData::Long(v) => v[i] = bits as i64,
            ColumnData::Float(v) => v[i] = f32::from_bits(bits as u32),
            ColumnData::Double(v) => v[i] = f64::from_bits(bits),
            ColumnData::Array(_) => panic!("an array cell has no bit pattern"),
        }
    }

    /// Approximate byte size of one element, used for IO accounting.
    pub fn elem_bytes(&self) -> usize {
        match self {
            ColumnData::Bool(_) => 1,
            ColumnData::Int(_) | ColumnData::Float(_) => 4,
            ColumnData::Long(_) | ColumnData::Double(_) => 8,
            ColumnData::Array(v) => v.first().map_or(8, |a| a.len() * 8),
        }
    }

    fn type_name(&self) -> &'static str {
        match self {
            ColumnData::Bool(_) => "bool",
            ColumnData::Int(_) => "int",
            ColumnData::Long(_) => "long",
            ColumnData::Float(_) => "float",
            ColumnData::Double(_) => "double",
            ColumnData::Array(_) => "array",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promote_widens() {
        assert_eq!(
            PrimType::Int.promote(PrimType::Double),
            Some(PrimType::Double)
        );
        assert_eq!(PrimType::Int.promote(PrimType::Long), Some(PrimType::Long));
        assert_eq!(
            PrimType::Float.promote(PrimType::Long),
            Some(PrimType::Float)
        );
        assert_eq!(PrimType::Bool.promote(PrimType::Int), None);
    }

    #[test]
    fn float_equality_is_bitwise() {
        assert_eq!(Value::Double(0.5), Value::Double(0.5));
        let next_up = f64::from_bits(0.5f64.to_bits() + 1);
        assert_ne!(Value::Double(0.5), Value::Double(next_up));
        assert_eq!(Value::Double(f64::NAN), Value::Double(f64::NAN));
        // +0.0 and -0.0 differ bitwise, so they count as a change.
        assert_ne!(Value::Double(0.0), Value::Double(-0.0));
    }

    #[test]
    fn mixed_numeric_ordering() {
        assert_eq!(
            Value::Int(3).total_cmp(&Value::Double(3.5)),
            Ordering::Less
        );
        assert_eq!(Value::Long(7).total_cmp(&Value::Int(7)), Ordering::Equal);
        // NaN never beats a number in a Min.
        assert_eq!(
            Value::Double(f64::NAN).total_cmp(&Value::Double(1e300)),
            Ordering::Greater
        );
    }

    #[test]
    fn cast_roundtrips() {
        assert_eq!(Value::Double(3.9).cast(PrimType::Int), Some(Value::Int(3)));
        assert_eq!(Value::Int(5).cast(PrimType::Double), Some(Value::Double(5.0)));
        assert_eq!(Value::Bool(true).cast(PrimType::Int), None);
    }

    #[test]
    fn integer_casts_are_exact() {
        // 2^53 + 1 has no f64; the old cast rounded it through one.
        let big = 9_007_199_254_740_993i64;
        assert_eq!(Value::Long(big).cast(PrimType::Long), Some(Value::Long(big)));
        assert_eq!(Value::Int(-7).cast(PrimType::Long), Some(Value::Long(-7)));
        assert_eq!(Value::Long(i64::MAX).cast(PrimType::Int), Some(Value::Int(-1)));
        assert_eq!(Value::Long(big).cast(PrimType::Double), Some(Value::Double(big as f64)));
        assert_eq!(Value::Double(-2.5).cast(PrimType::Long), Some(Value::Long(-2)));
    }

    #[test]
    fn cell_bits_round_trip() {
        let mut cols = [
            ColumnData::Bool(vec![true]),
            ColumnData::Int(vec![-3]),
            ColumnData::Long(vec![i64::MIN]),
            ColumnData::Float(vec![-0.0]),
            ColumnData::Double(vec![f64::NAN]),
        ];
        for col in &mut cols {
            let (before, bits) = (col.get(0), col.bits(0));
            col.set_bits(0, 0);
            col.set_bits(0, bits);
            assert_eq!(col.get(0), before);
        }
    }

    #[test]
    fn column_get_set() {
        let mut c = ColumnData::zeros(ValueType::Prim(PrimType::Double), 4);
        c.set(2, &Value::Double(1.5));
        assert_eq!(c.get(2), Value::Double(1.5));
        assert_eq!(c.get(0), Value::Double(0.0));
        assert_eq!(c.len(), 4);
        assert_eq!(c.elem_bytes(), 8);
    }

    #[test]
    fn array_columns() {
        let mut c = ColumnData::zeros(ValueType::Array(PrimType::Float, 3), 2);
        let v = Value::Array(vec![
            Value::Float(1.0),
            Value::Float(2.0),
            Value::Float(3.0),
        ]);
        c.set(1, &v);
        assert_eq!(c.get(1), v);
        assert_eq!(c.elem_bytes(), 24);
    }

    #[test]
    fn bulk_column_ops_match_per_cell_get_set() {
        let src = ColumnData::Long(vec![10, 11, 12, 13]);
        assert_eq!(src.gather(&[3, 0, 3]), ColumnData::Long(vec![13, 10, 13]));
        let mut dst = ColumnData::zeros(ValueType::Prim(PrimType::Long), 5);
        dst.scatter(&[4, 1], &ColumnData::Long(vec![7, 8]));
        assert_eq!(dst, ColumnData::Long(vec![0, 8, 0, 0, 7]));
        // Rows drawn from two sources, in pick order.
        let other = ColumnData::Long(vec![-1, -2]);
        let picked = ColumnData::gather_from(&[&src, &other], [(1, 1), (0, 2)].into_iter());
        assert_eq!(picked, ColumnData::Long(vec![-2, 12]));
        let mut arr = ColumnData::zeros(ValueType::Array(PrimType::Int, 2), 1);
        let row = Value::Array(vec![Value::Int(1), Value::Int(2)]);
        arr.resize(3, &row);
        assert_eq!(arr.get(0), ValueType::Array(PrimType::Int, 2).zero());
        assert_eq!(arr.get(2), row);
        arr.resize(1, &row);
        assert_eq!(arr.len(), 1);
    }

    #[test]
    fn conforms_to_checks_type_and_array_shape() {
        let arr = ColumnData::zeros(ValueType::Array(PrimType::Float, 3), 2);
        assert!(arr.conforms_to(ValueType::Array(PrimType::Float, 3)));
        assert!(!arr.conforms_to(ValueType::Array(PrimType::Float, 2)));
        assert!(!arr.conforms_to(ValueType::Array(PrimType::Double, 3)));
        assert!(ColumnData::Bool(vec![true]).conforms_to(ValueType::Prim(PrimType::Bool)));
        assert!(!ColumnData::Int(vec![1]).conforms_to(ValueType::Prim(PrimType::Long)));
    }

    #[test]
    #[should_panic(expected = "column type mismatch")]
    fn scatter_type_mismatch_panics() {
        let mut c = ColumnData::zeros(ValueType::Prim(PrimType::Int), 2);
        c.scatter(&[0], &ColumnData::Double(vec![1.0]));
    }

    #[test]
    #[should_panic(expected = "column type mismatch")]
    fn column_type_mismatch_panics() {
        let mut c = ColumnData::zeros(ValueType::Prim(PrimType::Int), 1);
        c.set(0, &Value::Double(1.0));
    }
}
