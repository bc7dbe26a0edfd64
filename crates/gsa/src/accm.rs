//! Accumulator operations: Abelian groups and monoids.
//!
//! `L_NGA` accumulator types are `Accm<prim, OP>` where `OP` is an operator
//! of an Abelian monoid (paper §3). Operators that additionally have an
//! inverse form an Abelian *group* and can be maintained incrementally under
//! deletions without recomputation (paper §5.4): the accumulation of `x` is
//! offset by accumulating `g(x)`. Monoids without an inverse (`Min`, `Max`)
//! fall back to recomputation — unless the *counting* optimization (CNT,
//! paper §5.4 and §6.4.2) shows the retraction does not affect the result.
//! The maintenance rule itself is the engine's (`itg_engine::accum`).

use crate::value::{PrimType, Value};
use std::fmt;

/// The accumulate operator of an `Accm<prim, OP>` type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccmOp {
    Sum,
    Prod,
    Min,
    Max,
    Or,
    And,
}

impl AccmOp {
    pub fn parse(name: &str) -> Option<AccmOp> {
        match name.to_ascii_uppercase().as_str() {
            "SUM" => Some(AccmOp::Sum),
            "PROD" | "PRODUCT" => Some(AccmOp::Prod),
            "MIN" => Some(AccmOp::Min),
            "MAX" => Some(AccmOp::Max),
            "OR" => Some(AccmOp::Or),
            "AND" => Some(AccmOp::And),
            _ => None,
        }
    }

    /// The identity element of the monoid for element type `ty`.
    /// Accumulators are reset to this at the start of each superstep
    /// (paper §3).
    pub fn identity(self, ty: PrimType) -> Value {
        match self {
            AccmOp::Sum => ty.zero(),
            AccmOp::Prod => match ty {
                PrimType::Bool => Value::Bool(true),
                PrimType::Int => Value::Int(1),
                PrimType::Long => Value::Long(1),
                PrimType::Float => Value::Float(1.0),
                PrimType::Double => Value::Double(1.0),
            },
            AccmOp::Min => match ty {
                PrimType::Bool => Value::Bool(true),
                PrimType::Int => Value::Int(i32::MAX),
                PrimType::Long => Value::Long(i64::MAX),
                PrimType::Float => Value::Float(f32::INFINITY),
                PrimType::Double => Value::Double(f64::INFINITY),
            },
            AccmOp::Max => match ty {
                PrimType::Bool => Value::Bool(false),
                PrimType::Int => Value::Int(i32::MIN),
                PrimType::Long => Value::Long(i64::MIN),
                PrimType::Float => Value::Float(f32::NEG_INFINITY),
                PrimType::Double => Value::Double(f64::NEG_INFINITY),
            },
            AccmOp::Or => Value::Bool(false),
            AccmOp::And => Value::Bool(true),
        }
    }

    /// `f(a, b)` — the commutative, associative addition of the monoid.
    pub fn combine(self, a: &Value, b: &Value, ty: PrimType) -> Value {
        match self {
            AccmOp::Sum => numeric(ty, a, b, |x, y| x + y, |x, y| x.wrapping_add(y)),
            AccmOp::Prod => numeric(ty, a, b, |x, y| x * y, |x, y| x.wrapping_mul(y)),
            AccmOp::Min => {
                if a.total_cmp(b).is_le() {
                    a.clone()
                } else {
                    b.clone()
                }
            }
            AccmOp::Max => {
                if a.total_cmp(b).is_ge() {
                    a.clone()
                } else {
                    b.clone()
                }
            }
            AccmOp::Or => Value::Bool(a.as_bool().unwrap_or(false) | b.as_bool().unwrap_or(false)),
            AccmOp::And => Value::Bool(a.as_bool().unwrap_or(true) & b.as_bool().unwrap_or(true)),
        }
    }

    /// Whether the operator forms an Abelian *group* (has an inverse).
    /// `Sum` always; `Prod` over the reals except at 0 — the engine treats
    /// `Prod` as group-invertible and falls back to recomputation when a
    /// retracted factor has no [`AccmOp::inverse`]: 0 for every prim, and
    /// anything but ±1 for `int`/`long`.
    pub fn is_group(self) -> bool {
        matches!(self, AccmOp::Sum | AccmOp::Prod)
    }

    /// The inverse `g(x)` such that `f(x, g(x)) = identity`, for group
    /// operators. Returns `None` for monoid-only operators, and for a
    /// `Prod` retraction of zero (0 has no multiplicative inverse).
    pub fn inverse(self, x: &Value, ty: PrimType) -> Option<Value> {
        match self {
            AccmOp::Sum => Some(numeric(
                ty,
                &ty.zero(),
                x,
                |z, v| z - v,
                |z, v| z.wrapping_sub(v),
            )),
            AccmOp::Prod => {
                let f = x.as_f64()?;
                if f == 0.0 {
                    return None;
                }
                // Integer products are only invertible through recomputation
                // unless the factor is ±1; use the float reciprocal for
                // float types and fall back otherwise.
                match ty {
                    PrimType::Float => Some(Value::Float(1.0 / f as f32)),
                    PrimType::Double => Some(Value::Double(1.0 / f)),
                    PrimType::Int if f.abs() == 1.0 => Some(Value::Int(f as i32)),
                    PrimType::Long if f.abs() == 1.0 => Some(Value::Long(f as i64)),
                    _ => None,
                }
            }
            _ => None,
        }
    }
}

impl fmt::Display for AccmOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccmOp::Sum => "SUM",
            AccmOp::Prod => "PROD",
            AccmOp::Min => "MIN",
            AccmOp::Max => "MAX",
            AccmOp::Or => "OR",
            AccmOp::And => "AND",
        };
        f.write_str(s)
    }
}

fn numeric(
    ty: PrimType,
    a: &Value,
    b: &Value,
    ff: impl Fn(f64, f64) -> f64,
    fi: impl Fn(i64, i64) -> i64,
) -> Value {
    match ty {
        PrimType::Bool => panic!("numeric accumulator over bool"),
        PrimType::Int => Value::Int(fi(a.as_i64().unwrap_or(0), b.as_i64().unwrap_or(0)) as i32),
        PrimType::Long => Value::Long(fi(a.as_i64().unwrap_or(0), b.as_i64().unwrap_or(0))),
        PrimType::Float => {
            Value::Float(ff(a.as_f64().unwrap_or(0.0), b.as_f64().unwrap_or(0.0)) as f32)
        }
        PrimType::Double => Value::Double(ff(a.as_f64().unwrap_or(0.0), b.as_f64().unwrap_or(0.0))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identities() {
        assert_eq!(AccmOp::Sum.identity(PrimType::Double), Value::Double(0.0));
        assert_eq!(AccmOp::Min.identity(PrimType::Long), Value::Long(i64::MAX));
        assert_eq!(AccmOp::Max.identity(PrimType::Int), Value::Int(i32::MIN));
        assert_eq!(AccmOp::And.identity(PrimType::Bool), Value::Bool(true));
    }

    #[test]
    fn sum_group_inverse() {
        let x = Value::Double(2.5);
        let inv = AccmOp::Sum.inverse(&x, PrimType::Double).unwrap();
        let back = AccmOp::Sum.combine(&x, &inv, PrimType::Double);
        assert_eq!(back, Value::Double(0.0));
    }

    #[test]
    fn prod_inverse_except_zero() {
        let inv = AccmOp::Prod.inverse(&Value::Double(4.0), PrimType::Double);
        assert_eq!(inv, Some(Value::Double(0.25)));
        assert_eq!(AccmOp::Prod.inverse(&Value::Double(0.0), PrimType::Double), None);
        assert!(!AccmOp::Min.is_group());
        assert!(AccmOp::Sum.is_group());
    }

    #[test]
    fn min_combine() {
        let m = AccmOp::Min.combine(&Value::Long(5), &Value::Long(2), PrimType::Long);
        assert_eq!(m, Value::Long(2));
    }

    #[test]
    fn parse_names() {
        assert_eq!(AccmOp::parse("Sum"), Some(AccmOp::Sum));
        assert_eq!(AccmOp::parse("MIN"), Some(AccmOp::Min));
        assert_eq!(AccmOp::parse("bogus"), None);
    }
}
