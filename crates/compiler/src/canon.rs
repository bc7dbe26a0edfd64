//! Canonical forms and structural hashes of compiled plans (DESIGN.md §11).
//!
//! The standing-query server shares work across registered queries by
//! recognizing *structurally identical* sub-plans: two queries whose
//! compiled forms differ only in declared names (attributes, accumulators,
//! globals, adjacency sets) must hash equal, because the lowered plans
//! reference everything by index and the engine's execution is a pure
//! function of those indexes. Conversely any difference that can change an
//! enumerated walk or an accumulated value — hop shape, constraint
//! structure, action targets, literals — must change the hash.
//!
//! Three levels of fingerprint, coarsest last:
//!
//! - [`expr_fingerprint`] — a stable byte-encoding hash of one [`Expr`]
//!   tree (names are already gone at this level: attrs/globals are
//!   indexes).
//! - [`walk_shape_hash`] — one [`WalkQuery`]'s *enumeration shape*: hops,
//!   constraints, start filter, and the multi-way-intersection close, with
//!   the attached actions deliberately excluded. Two queries with the same
//!   shape hash enumerate the same walks; only what they do per walk
//!   differs. `share/unique_subplans` counts distinct values of this hash
//!   across the registry.
//! - [`program_hash`] — the whole compiled program: symbol layout (types
//!   only, never names), Initialize/Update statement programs, every walk
//!   query *including* actions, and the Rule ⑦ sub-query list. Queries
//!   with equal program hashes are execution-equivalent and the registry
//!   backs them with one shared session (DESIGN.md §11.2).
//!
//! All hashes are 64-bit FNV-1a over a tagged pre-order byte encoding —
//! deterministic across processes and platforms (no `std` hasher
//! randomization), so worker processes and coordinators agree on share
//! keys without communicating.

use crate::plan::{
    ActionTarget, CompiledProgram, DeltaSubQuery, HopSpec, VStmt, VertexProgram, WalkAction,
    WalkQuery,
};
use itg_gsa::accm::AccmOp;
use itg_gsa::expr::{BinOp, EdgeDir, Expr, Func, UnOp};
use itg_gsa::value::{PrimType, Value, ValueType};

/// Streaming 64-bit FNV-1a over a tagged byte encoding.
#[derive(Debug, Clone)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Fingerprint {
        Fingerprint::new()
    }
}

impl Fingerprint {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub fn new() -> Fingerprint {
        Fingerprint(Self::OFFSET)
    }

    pub fn finish(&self) -> u64 {
        self.0
    }

    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u64).wrapping_mul(Self::PRIME);
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn bool(&mut self, v: bool) {
        self.byte(v as u8);
    }

    /// Tag then length — keeps adjacent variable-length lists from
    /// aliasing each other's encodings.
    fn seq(&mut self, tag: u8, len: usize) {
        self.byte(tag);
        self.usize(len);
    }
}

fn prim_tag(p: PrimType) -> u8 {
    match p {
        PrimType::Bool => 0,
        PrimType::Int => 1,
        PrimType::Long => 2,
        PrimType::Float => 3,
        PrimType::Double => 4,
    }
}

fn op_tag(op: AccmOp) -> u8 {
    match op {
        AccmOp::Sum => 0,
        AccmOp::Prod => 1,
        AccmOp::Min => 2,
        AccmOp::Max => 3,
        AccmOp::Or => 4,
        AccmOp::And => 5,
    }
}

fn dir_tag(d: EdgeDir) -> u8 {
    match d {
        EdgeDir::Out => 0,
        EdgeDir::In => 1,
        EdgeDir::Both => 2,
    }
}

fn put_value(fp: &mut Fingerprint, v: &Value) {
    match v {
        Value::Bool(b) => {
            fp.byte(0x10);
            fp.bool(*b);
        }
        Value::Int(x) => {
            fp.byte(0x11);
            fp.u64(*x as u64);
        }
        Value::Long(x) => {
            fp.byte(0x12);
            fp.u64(*x as u64);
        }
        Value::Float(x) => {
            fp.byte(0x13);
            fp.u64(x.to_bits() as u64);
        }
        Value::Double(x) => {
            fp.byte(0x14);
            fp.u64(x.to_bits());
        }
        Value::Array(items) => {
            fp.seq(0x15, items.len());
            for item in items {
                put_value(fp, item);
            }
        }
    }
}

fn put_expr(fp: &mut Fingerprint, e: &Expr) {
    match e {
        Expr::Lit(v) => {
            fp.byte(0x20);
            put_value(fp, v);
        }
        Expr::WalkVertex(pos) => {
            fp.byte(0x21);
            fp.usize(*pos);
        }
        Expr::Attr { pos, attr } => {
            fp.byte(0x22);
            fp.usize(*pos);
            fp.usize(*attr);
        }
        Expr::Global(idx) => {
            fp.byte(0x23);
            fp.usize(*idx);
        }
        Expr::Degree { pos, dir } => {
            fp.byte(0x24);
            fp.usize(*pos);
            fp.byte(dir_tag(*dir));
        }
        Expr::AttrElem { pos, attr, idx } => {
            fp.byte(0x25);
            fp.usize(*pos);
            fp.usize(*attr);
            put_expr(fp, idx);
        }
        Expr::NumVertices => fp.byte(0x26),
        Expr::Unary(op, inner) => {
            fp.byte(0x27);
            fp.byte(match op {
                UnOp::Neg => 0,
                UnOp::Not => 1,
            });
            put_expr(fp, inner);
        }
        Expr::Binary(op, l, r) => {
            fp.byte(0x28);
            fp.byte(match op {
                BinOp::Add => 0,
                BinOp::Sub => 1,
                BinOp::Mul => 2,
                BinOp::Div => 3,
                BinOp::Mod => 4,
                BinOp::Lt => 5,
                BinOp::Le => 6,
                BinOp::Gt => 7,
                BinOp::Ge => 8,
                BinOp::Eq => 9,
                BinOp::Ne => 10,
                BinOp::And => 11,
                BinOp::Or => 12,
            });
            put_expr(fp, l);
            put_expr(fp, r);
        }
        Expr::Call(f, args) => {
            fp.seq(0x29, args.len());
            fp.byte(match f {
                Func::Abs => 0,
                Func::Min => 1,
                Func::Max => 2,
            });
            for a in args {
                put_expr(fp, a);
            }
        }
        Expr::Cast(ty, inner) => {
            fp.byte(0x2a);
            fp.byte(prim_tag(*ty));
            put_expr(fp, inner);
        }
    }
}

fn put_opt_expr(fp: &mut Fingerprint, e: &Option<Expr>) {
    match e {
        None => fp.byte(0x00),
        Some(e) => {
            fp.byte(0x01);
            put_expr(fp, e);
        }
    }
}

fn put_hop(fp: &mut Fingerprint, h: &HopSpec) {
    fp.usize(h.source);
    fp.byte(dir_tag(h.dir));
    put_opt_expr(fp, &h.constraint);
}

fn put_action(fp: &mut Fingerprint, a: &WalkAction) {
    fp.usize(a.depth);
    put_opt_expr(fp, &a.cond);
    match &a.target {
        ActionTarget::VertexAccm { pos, accm } => {
            fp.byte(0x30);
            fp.usize(*pos);
            fp.usize(*accm);
        }
        ActionTarget::Global(g) => {
            fp.byte(0x31);
            fp.usize(*g);
        }
    }
    fp.byte(op_tag(a.op));
    fp.byte(prim_tag(a.prim));
    put_expr(fp, &a.value);
}

/// The enumeration shape of one walk query — hops, constraints, start
/// filter, and the intersection close. Actions are *excluded*: the shape
/// determines which walks are enumerated, not what they contribute.
fn put_walk_shape(fp: &mut Fingerprint, q: &WalkQuery) {
    put_opt_expr(fp, &q.start_filter);
    fp.seq(0x40, q.hops.len());
    for h in &q.hops {
        put_hop(fp, h);
    }
    match q.closes_to {
        None => fp.byte(0x00),
        Some(i) => {
            fp.byte(0x01);
            fp.usize(i);
        }
    }
}

fn put_walk(fp: &mut Fingerprint, q: &WalkQuery) {
    put_walk_shape(fp, q);
    fp.seq(0x41, q.actions.len());
    for a in &q.actions {
        put_action(fp, a);
    }
}

fn put_vstmts(fp: &mut Fingerprint, stmts: &[VStmt]) {
    fp.seq(0x50, stmts.len());
    for s in stmts {
        match s {
            VStmt::Assign { attr, value } => {
                fp.byte(0x51);
                fp.usize(*attr);
                put_expr(fp, value);
            }
            VStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                fp.byte(0x53);
                put_expr(fp, cond);
                put_vstmts(fp, then_body);
                put_vstmts(fp, else_body);
            }
        }
    }
}

fn put_vprogram(fp: &mut Fingerprint, p: &VertexProgram) {
    put_vstmts(fp, &p.stmts);
}

fn put_subquery(fp: &mut Fingerprint, sq: &DeltaSubQuery) {
    fp.usize(sq.query);
    fp.usize(sq.delta_stream);
    fp.seq(0x60, sq.pruning_path.len());
    for &h in &sq.pruning_path {
        fp.usize(h);
    }
}

/// Fingerprint of one compiled expression tree. Stable across processes
/// and compilations; insensitive to anything but structure (names are
/// already resolved to indexes at this level).
pub fn expr_fingerprint(e: &Expr) -> u64 {
    let mut fp = Fingerprint::new();
    put_expr(&mut fp, e);
    fp.finish()
}

/// Hash of one walk query's *enumeration shape* — hops, constraints,
/// start filter, `closes_to` — with actions excluded. Queries sharing
/// this hash enumerate identical walk sets over the same graph, which is
/// the unit the registry's `share/unique_subplans` counter measures.
pub fn walk_shape_hash(q: &WalkQuery) -> u64 {
    let mut fp = Fingerprint::new();
    put_walk_shape(&mut fp, q);
    fp.finish()
}

/// Name-insensitive structural hash of a whole compiled program.
///
/// Covers everything execution depends on: the symbol *layout* (attribute
/// types, accumulator `(op, prim)` pairs — never names), the Initialize
/// and Update statement programs, every walk query including its actions,
/// the Rule ⑦ delta sub-queries, and the static analysis flags. Excludes
/// declared names, the source text, and operator ids (which are a pure
/// function of plan positions anyway).
///
/// Equal hashes ⇒ execution-equivalent programs: the engine interprets
/// plans by index only, so two programs with identical structure produce
/// byte-identical dynamic state from identical inputs (the sharing
/// correctness argument of DESIGN.md §11.3). Per-name accessors
/// (`Session::global_value` etc.) still go through each query's own
/// symbol table.
pub fn program_hash(p: &CompiledProgram) -> u64 {
    let mut fp = Fingerprint::new();
    // Symbol layout: types only. attrs[0] is always `active: bool`.
    fp.seq(0x70, p.symbols.attrs.len());
    for a in &p.symbols.attrs {
        match a.ty {
            ValueType::Prim(prim) => {
                fp.byte(0x71);
                fp.byte(prim_tag(prim));
            }
            ValueType::Array(prim, n) => {
                fp.byte(0x72);
                fp.byte(prim_tag(prim));
                fp.usize(n);
            }
        }
    }
    fp.seq(0x73, p.symbols.accms.len());
    for a in &p.symbols.accms {
        fp.byte(op_tag(a.op));
        fp.byte(prim_tag(a.prim));
    }
    fp.seq(0x74, p.symbols.globals.len());
    for g in &p.symbols.globals {
        fp.byte(op_tag(g.op));
        fp.byte(prim_tag(g.prim));
    }
    fp.bool(p.symbols.uses_in_direction);
    put_vprogram(&mut fp, &p.init);
    put_vprogram(&mut fp, &p.update);
    fp.seq(0x75, p.traverse.queries.len());
    for q in &p.traverse.queries {
        put_walk(&mut fp, q);
    }
    fp.seq(0x76, p.delta_traverse.len());
    for sq in &p.delta_traverse {
        put_subquery(&mut fp, sq);
    }
    fp.usize(p.max_hops);
    fp.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_source;

    const TC: &str = r#"
        Vertex (id, active, nbrs)
        GlobalVariable (cnts: Accm<long, SUM>)
        Initialize (u1): { u1.active = true; }
        Traverse (u1): {
            For u2 in u1.nbrs Where (u1 < u2) {
                For u3 in u2.nbrs Where (u2 < u3) {
                    For u4 in u3.nbrs Where (u4 == u1) { cnts.Accumulate(1); }
                }
            }
        }
        Update (u1): { }
    "#;

    /// TC with every user-declared name alpha-renamed (the global and all
    /// vertex variables; `nbrs`/`active` are predefined and fixed).
    const TC_RENAMED: &str = r#"
        Vertex (id, active, nbrs)
        GlobalVariable (triangles: Accm<long, SUM>)
        Initialize (w): { w.active = true; }
        Traverse (w): {
            For x in w.nbrs Where (w < x) {
                For y in x.nbrs Where (x < y) {
                    For z in y.nbrs Where (z == w) { triangles.Accumulate(1); }
                }
            }
        }
        Update (w): { }
    "#;

    /// Same walk shape as TC, but accumulating 2 instead of 1.
    const TC_DOUBLED: &str = r#"
        Vertex (id, active, nbrs)
        GlobalVariable (cnts: Accm<long, SUM>)
        Initialize (u1): { u1.active = true; }
        Traverse (u1): {
            For u2 in u1.nbrs Where (u1 < u2) {
                For u3 in u2.nbrs Where (u2 < u3) {
                    For u4 in u3.nbrs Where (u4 == u1) { cnts.Accumulate(2); }
                }
            }
        }
        Update (u1): { }
    "#;

    #[test]
    fn identical_programs_hash_equal() {
        let a = compile_source(TC).unwrap();
        let b = compile_source(TC).unwrap();
        assert_eq!(program_hash(&a), program_hash(&b));
    }

    #[test]
    fn alpha_renamed_programs_hash_equal() {
        let a = compile_source(TC).unwrap();
        let b = compile_source(TC_RENAMED).unwrap();
        assert_eq!(
            program_hash(&a),
            program_hash(&b),
            "the hash must be name-insensitive"
        );
    }

    #[test]
    fn different_action_values_hash_differently() {
        let a = compile_source(TC).unwrap();
        let b = compile_source(TC_DOUBLED).unwrap();
        assert_ne!(program_hash(&a), program_hash(&b));
        // … but their enumeration shapes are identical.
        assert_eq!(
            walk_shape_hash(&a.traverse.queries[0]),
            walk_shape_hash(&b.traverse.queries[0]),
        );
    }

    #[test]
    fn different_walk_shapes_hash_differently() {
        let two_hop = compile_source(
            "Vertex (id, active, nbrs)
             GlobalVariable (c: Accm<long, SUM>)
             Initialize (u): { u.active = true; }
             Traverse (u): { For v in u.nbrs { For w in v.nbrs { c.Accumulate(1); } } }
             Update (u): { }",
        )
        .unwrap();
        let tc = compile_source(TC).unwrap();
        assert_ne!(program_hash(&two_hop), program_hash(&tc));
        assert_ne!(
            walk_shape_hash(&two_hop.traverse.queries[0]),
            walk_shape_hash(&tc.traverse.queries[0]),
        );
    }

    #[test]
    fn expr_fingerprint_distinguishes_structure() {
        use itg_gsa::expr::BinOp;
        let lt = Expr::bin(BinOp::Lt, Expr::WalkVertex(0), Expr::WalkVertex(1));
        let gt = Expr::bin(BinOp::Gt, Expr::WalkVertex(0), Expr::WalkVertex(1));
        let lt2 = Expr::bin(BinOp::Lt, Expr::WalkVertex(0), Expr::WalkVertex(1));
        assert_ne!(expr_fingerprint(&lt), expr_fingerprint(&gt));
        assert_eq!(expr_fingerprint(&lt), expr_fingerprint(&lt2));
        // Literal payloads matter, including float bit patterns.
        let a = Expr::lit_double(0.15);
        let b = Expr::lit_double(0.25);
        assert_ne!(expr_fingerprint(&a), expr_fingerprint(&b));
    }

    #[test]
    fn builtin_suite_hashes_are_pairwise_distinct() {
        // The six evaluation programs are structurally distinct; their
        // hashes must be too (no accidental collisions in the suite the
        // registry will serve).
        let sources = [TC, TC_RENAMED, TC_DOUBLED];
        let hashes: Vec<u64> = sources
            .iter()
            .map(|s| program_hash(&compile_source(s).unwrap()))
            .collect();
        assert_eq!(hashes[0], hashes[1]);
        assert_ne!(hashes[0], hashes[2]);
    }
}
