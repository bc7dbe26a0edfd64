//! # itg-lnga — the `L_NGA` domain-specific language (paper §3)
//!
//! An imperative programming interface for neighbor-centric graph analytics
//! (NGA): programs declare a vertex type and global variables, then define
//! the `Initialize` / `Traverse` / `Update` UDFs of the BSP execution
//! semantics (Figure 4). Multi-hop traversals are written as nested
//! `For ... in ... Where (...)` loops; accumulations use `Accm<prim, OP>`
//! attributes with Abelian-monoid operators.
//!
//! Front-end pipeline: [`lexer::lex`] → [`parser::parse`] → [`check::check`]
//! produces a [`CheckedProgram`] whose symbol tables the compiler crate
//! lowers into Graph Streaming Algebra plans.

pub mod ast;
pub mod check;
pub mod diag;
pub mod lexer;
pub mod parser;
pub mod token;

pub use ast::{AstExpr, AttrDecl, DeclType, Place, Predefined, Program, Stmt, Udf};
pub use check::{check, AccmInfo, AttrInfo, CheckedProgram, Symbols};
pub use diag::LngaError;
pub use parser::parse;

/// Parse and type-check a program in one call.
pub fn frontend(src: &str) -> Result<CheckedProgram, LngaError> {
    check(parse(src)?)
}
