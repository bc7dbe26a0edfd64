//! # itg-gsa — Graph Streaming Algebra
//!
//! The theoretical foundation of iTurboGraph (paper §4): graphs on disk are
//! modeled as streams of tuples with ±1 multiplicities, graph traversals as
//! the enumeration of walks over *Nested Graph Windows*, and queries as
//! trees of streaming operators. The algebra is closed under the
//! incrementalization rules of Table 4, so one-shot and incremental plans
//! run on the same execution engine.
//!
//! Layout:
//! - [`value`]: the `L_NGA` type system's runtime values and typed columns.
//! - [`mod@tuple`]: tuples with signed multiplicity; materialized streams and
//!   their multiset operations.
//! - [`accm`]: accumulate operators — Abelian groups and monoids, with
//!   support-counted Min/Max state (the CNT optimization).
//! - [`expr`]: compiled expressions and their evaluator.
//! - [`ops`]: reference implementations of the scalar stream operators.
//! - [`window`]: Nested Graph Windows, Window-Seek/Window-Join, and the
//!   reference Walk enumerator.
//! - [`plan`]: the algebra plan IR with stream version bindings.
//! - [`incremental`]: the Table 4 rules deriving `P_ΔQ` from `P_Q`.
//! - [`fxhash`]: a fast local hasher for the hash-heavy internals.

pub mod accm;
pub mod expr;
pub mod fxhash;
pub mod incremental;
mod obs;
pub mod ops;
pub mod plan;
pub mod tuple;
pub mod value;
pub mod window;

pub use accm::AccmOp;
pub use expr::{eval, BinOp, EdgeDir, EvalContext, EvalError, Expr, Func, UnOp};
pub use fxhash::{FxHashMap, FxHashSet};
pub use incremental::{delta_subqueries, incrementalize};
pub use plan::{AlgebraNode, StreamRef, StreamVersion, WriteTarget};
pub use tuple::{consolidate, difference, streams_equal, union, Stream, Tuple};
pub use value::{ColumnData, PrimType, Value, ValueType, VertexId};
pub use window::{enumerate_walks, GraphStream, GraphWindow, Walk, WalkSpec};
