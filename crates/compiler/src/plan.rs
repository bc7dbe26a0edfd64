//! Executable plan types produced by the compiler and interpreted by the
//! runtime engine.
//!
//! The formal representation of a query is the GSA algebra tree
//! ([`itg_gsa::plan::AlgebraNode`]); these types are the *lowered* form the
//! engine executes: walk specifications with per-hop constraints and
//! attached actions, plus per-vertex statement programs for Initialize and
//! Update.

use itg_gsa::accm::AccmOp;
use itg_gsa::expr::{EdgeDir, Expr};
use itg_gsa::kernel::{Builder, Compiled, Kernel, Schema};
use itg_gsa::plan::{StreamRef, StreamVersion};
use itg_gsa::value::PrimType;

/// The specialized accumulate lane an accumulator compiles to.
///
/// Selected once at plan-compile time (a pure function of the declared
/// `(op, prim)` pair), so the engine's Δ-walk accumulate path runs
/// monomorphic per-type cells instead of dispatching every contribution
/// through the generic [`itg_gsa::Value`] machinery. Every lane is
/// *bit-exact* with the generic path: the same combine/inverse/compare
/// operations in the same order, just without the enum boxing.
///
/// Anything outside the table below (Prod, `int`/`float` prims) falls back
/// to [`AccmLane::Generic`], which is the PR 5 code path unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccmLane {
    /// `Accm<long, SUM>` — wrapping i64 addition, exact inverse.
    SumI64,
    /// `Accm<double, SUM>` — IEEE f64 addition replayed in contribution
    /// order (non-associativity preserved; retraction adds `0.0 - v`).
    SumF64,
    /// `Accm<long, MIN>` — monoid lane with support counting.
    MinI64,
    /// `Accm<double, MIN>` — monoid lane via `total_cmp` (bitwise ties).
    MinF64,
    /// `Accm<long, MAX>`.
    MaxI64,
    /// `Accm<double, MAX>`.
    MaxF64,
    /// `Accm<bool, OR>` — the 1-byte existence lane.
    OrBool,
    /// `Accm<bool, AND>`.
    AndBool,
    /// The unspecialized `Value`-dispatch path.
    Generic,
}

impl AccmLane {
    /// Lane selection: the plan-compile-time mapping from a declared
    /// accumulator to its specialized lane (DESIGN.md §10.1).
    pub fn select(op: AccmOp, prim: PrimType) -> AccmLane {
        match (op, prim) {
            (AccmOp::Sum, PrimType::Long) => AccmLane::SumI64,
            (AccmOp::Sum, PrimType::Double) => AccmLane::SumF64,
            (AccmOp::Min, PrimType::Long) => AccmLane::MinI64,
            (AccmOp::Min, PrimType::Double) => AccmLane::MinF64,
            (AccmOp::Max, PrimType::Long) => AccmLane::MaxI64,
            (AccmOp::Max, PrimType::Double) => AccmLane::MaxF64,
            (AccmOp::Or, PrimType::Bool) => AccmLane::OrBool,
            (AccmOp::And, PrimType::Bool) => AccmLane::AndBool,
            _ => AccmLane::Generic,
        }
    }

    /// Whether this is a specialized (non-`Generic`) lane.
    pub fn is_specialized(&self) -> bool {
        !matches!(self, AccmLane::Generic)
    }
}

/// One hop of a walk: extend from walk position `source` along `dir`
/// adjacency; keep extensions satisfying `constraint` (which may reference
/// positions `0..=target`, where the new vertex is position `target`).
#[derive(Debug, Clone, PartialEq)]
pub struct HopSpec {
    pub source: usize,
    pub dir: EdgeDir,
    pub constraint: Option<Expr>,
}

/// Where a walk action writes.
#[derive(Debug, Clone, PartialEq)]
pub enum ActionTarget {
    /// A vertex accumulator: the target vertex is the walk position `pos`;
    /// `accm` indexes the symbol table's vertex accumulators.
    VertexAccm { pos: usize, accm: usize },
    /// A global accumulator by index.
    Global(usize),
}

/// An accumulate action attached to a walk: fires once per enumerated walk
/// of length `depth` whose condition holds, contributing `value` (with the
/// walk's multiplicity as sign) to the target.
#[derive(Debug, Clone, PartialEq)]
pub struct WalkAction {
    /// Walk length at which this action fires (= position count − 1).
    pub depth: usize,
    /// Residual condition (If conditions not foldable into hop
    /// constraints).
    pub cond: Option<Expr>,
    pub target: ActionTarget,
    pub op: AccmOp,
    pub prim: PrimType,
    pub value: Expr,
    /// Derived by [`crate::optimize::annotate`]: `value` reads nothing past
    /// the walk's start vertex, so it is the same for every walk of one
    /// start image and the engine evaluates it at most once per start.
    pub start_invariant: bool,
}

/// One walk query of Traverse: a chain/tree path of hops with actions.
/// `closes_to`, `image_independent` and `full_scan` (like
/// [`WalkAction::start_invariant`]) are derived from the fields above by
/// [`crate::optimize::annotate`], so the structural hashes of
/// [`crate::canon`] do not cover them.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WalkQuery {
    /// Stable operator id for observability (see
    /// [`CompiledProgram::operator_labels`]); `0` means unassigned (plans
    /// built outside [`crate::compile`], e.g. in unit tests).
    pub op_id: u32,
    /// Start-vertex filter beyond `active = true` (If conditions at depth 0
    /// referencing only u1).
    pub start_filter: Option<Expr>,
    pub hops: Vec<HopSpec>,
    pub actions: Vec<WalkAction>,
    /// Multi-way-intersection optimization: if the final hop's constraint
    /// pins the new vertex to equal an earlier position (`u_{k+1} == u_i`),
    /// this records `i` and the engine closes the walk by membership check
    /// instead of scanning the final adjacency list.
    pub closes_to: Option<usize>,
    /// Hop constraints and action conditions read only walk ids (no
    /// attributes, degrees or globals): the old and the new image of a
    /// changed start vertex enumerate the identical walk set, so a
    /// dual-image sub-query enumerates it once and emits value differences.
    pub image_independent: bool,
    /// The binding pattern of a full scan (snapshot 0 and the recompute
    /// passes): every hop reads the current graph — all
    /// [`StreamVersion::Primed`], one entry per hop.
    pub full_scan: Vec<StreamVersion>,
}

impl WalkQuery {
    pub fn num_hops(&self) -> usize {
        self.hops.len()
    }

    /// Walk position `p`'s parent position (the hop source it was reached
    /// from); position 0 has no parent.
    pub fn parent(&self, p: usize) -> Option<usize> {
        if p == 0 {
            None
        } else {
            Some(self.hops[p - 1].source)
        }
    }

    /// The hop indexes on the path from position 0 to position `p`,
    /// in forward order — the path backward MS-BFS reverses for neighbor
    /// pruning.
    pub fn path_to(&self, p: usize) -> Vec<usize> {
        let mut path = Vec::new();
        let mut cur = p;
        while let Some(par) = self.parent(cur) {
            path.push(cur - 1);
            cur = par;
        }
        path.reverse();
        path
    }
}

/// One sub-query of the incremental Traverse: one bound Walk of
/// `incrementalize(ω)` (Rule ⑦), lowered by
/// [`crate::algebra::build_plans`]. The engine executes exactly these
/// fields; [`CompiledProgram::explain_delta_plan`] prints them.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaSubQuery {
    /// Stable operator id for observability (see
    /// [`CompiledProgram::operator_labels`]); `0` means unassigned.
    pub op_id: u32,
    /// Index into `TraversePlan::queries`.
    pub query: usize,
    /// Which stream carries the delta: 0 = the vertex stream (attribute /
    /// activation changes), `j ≥ 1` = hop `j−1`'s edge stream.
    pub delta_stream: usize,
    /// The algebra's binding of every stream: `streams[0]` is the vertex
    /// stream, `streams[h + 1]` hop `h`'s edge stream. The engine reads
    /// `Base` as the `Old` edge view, `Primed` as the `New` view and
    /// `Delta` as the latest delta segment.
    pub streams: Vec<StreamVersion>,
    /// The algebra's `delta_start_images`: the start vertices are the
    /// changed attribute images, each enumerated under its old image
    /// (multiplicity −1) and its new one (+1). Otherwise the starts are
    /// found from the delta edges and run under the new image only.
    pub dual_images: bool,
    /// The hop indexes from the start to the delta hop's source, forward
    /// order; the pruning MS-BFS walks them in reverse from the delta
    /// edges' sources. Empty for the Δvs sub-query.
    pub pruning_path: Vec<usize>,
}

impl DeltaSubQuery {
    /// Per-hop edge-stream bindings, one per hop of the query.
    pub fn hop_bindings(&self) -> &[StreamVersion] {
        &self.streams[1..]
    }

    /// The hop whose edge stream is the delta; `None` for Δvs.
    pub fn delta_hop(&self) -> Option<usize> {
        self.delta_stream.checked_sub(1)
    }
}

/// One step of re-deriving a vertex accumulator from scratch (the monoid
/// recompute pass): a walk query with at least one action on it and, per
/// distinct target position of those actions, the hop path a backward
/// MS-BFS reverses from the affected vertices to their candidate starts.
/// The engine enumerates each `(accumulator, query, start)` once, so every
/// action on the accumulator fires once per walk.
#[derive(Debug, Clone, PartialEq)]
pub struct RecomputeStep {
    /// Index into `TraversePlan::queries`.
    pub query: usize,
    pub paths: Vec<Vec<usize>>,
}

/// Per-vertex statements (Initialize / Update bodies after Let
/// substitution). Expressions reference the vertex as walk position 0;
/// accumulator reads use attr indexes offset by the non-accm attr count
/// (see [`CompiledProgram::accm_attr_base`]).
#[derive(Debug, Clone, PartialEq)]
pub enum VStmt {
    /// Assign to the vertex's non-accm attribute `attr`.
    Assign { attr: usize, value: Expr },
    If {
        cond: Expr,
        then_body: Vec<VStmt>,
        else_body: Vec<VStmt>,
    },
}

/// A per-vertex statement program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VertexProgram {
    pub stmts: Vec<VStmt>,
}

impl VertexProgram {
    /// Whether any statement (transitively) assigns `attr`.
    pub fn assigns(&self, attr: usize) -> bool {
        fn walk(stmts: &[VStmt], attr: usize) -> bool {
            stmts.iter().any(|s| match s {
                VStmt::Assign { attr: a, .. } => *a == attr,
                VStmt::If {
                    then_body,
                    else_body,
                    ..
                } => walk(then_body, attr) || walk(else_body, attr),
            })
        }
        walk(&self.stmts, attr)
    }
}

impl VertexProgram {
    /// The whole program as one kernel over `schema`: its assignable
    /// attributes are slots, `If` is a branch. `None` — the interpreter
    /// runs the program — when any expression or slot has no kernel type.
    pub fn kernel(&self, schema: &Schema) -> Option<Kernel> {
        fn stmts(b: &mut Builder<'_>, body: &[VStmt]) -> Option<()> {
            for s in body {
                match s {
                    VStmt::Assign { attr, value } => b.assign(*attr, value)?,
                    VStmt::If {
                        cond,
                        then_body,
                        else_body,
                    } => {
                        let skip = b.branch(cond)?;
                        stmts(b, then_body)?;
                        if else_body.is_empty() {
                            b.end(skip);
                        } else {
                            let end = b.otherwise(skip);
                            stmts(b, else_body)?;
                            b.end(end);
                        }
                    }
                }
            }
            Some(())
        }
        let assigned: Vec<usize> = (0..schema.columns.len()).filter(|&a| self.assigns(a)).collect();
        let mut b = Builder::new(schema, &assigned)?;
        stmts(&mut b, &self.stmts)?;
        Some(b.finish())
    }
}

/// The typed kernels of a walk query (DESIGN.md §10.4), index for index
/// with its start filter, hop constraints, action conditions and values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryKernels {
    pub start_filter: Option<Compiled>,
    pub hops: Vec<Option<Compiled>>,
    pub conds: Vec<Option<Compiled>>,
    pub values: Vec<Compiled>,
}

impl QueryKernels {
    pub fn compile(q: &WalkQuery, schema: &Schema) -> QueryKernels {
        let cond = |e: &Option<Expr>| e.as_ref().map(|e| Compiled::new(e, schema));
        QueryKernels {
            start_filter: cond(&q.start_filter),
            hops: q.hops.iter().map(|h| cond(&h.constraint)).collect(),
            conds: q.actions.iter().map(|a| cond(&a.cond)).collect(),
            values: q.actions.iter().map(|a| Compiled::new(&a.value, schema)).collect(),
        }
    }
}

/// Every expression the engine evaluates per row, start or walk, compiled
/// once at plan time: Initialize and Update as whole-program kernels
/// (`None` runs the interpreter), and each walk query's expressions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProgramKernels {
    pub init: Option<Kernel>,
    pub update: Option<Kernel>,
    pub queries: Vec<QueryKernels>,
}

/// The Traverse plan: a union of walk queries.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraversePlan {
    pub queries: Vec<WalkQuery>,
}

/// Static facts about a program the engine's incremental scheduling needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProgramAnalysis {
    /// Traverse reads a degree: edge mutations then imply Δvs entries for
    /// the mutation endpoints even when no stored attribute changed.
    pub traverse_reads_degree: bool,
    /// Update reads a degree: degree-changed touched vertices must re-run
    /// Update.
    pub update_reads_degree: bool,
    /// Initialize reads a degree (unsupported for incremental runs).
    pub init_reads_degree: bool,
    /// Update reads global accumulators: a changed global invalidates every
    /// touched vertex.
    pub update_reads_globals: bool,
}

/// The full compiled program.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    pub symbols: itg_lnga::Symbols,
    pub init: VertexProgram,
    pub update: VertexProgram,
    pub traverse: TraversePlan,
    /// The incremental Traverse: Rule ⑦ sub-queries across all walk
    /// queries, in (query, delta_stream) order.
    pub delta_traverse: Vec<DeltaSubQuery>,
    /// The monoid recompute plan, indexed by vertex accumulator.
    pub recompute_plan: Vec<Vec<RecomputeStep>>,
    /// The formal one-shot algebra plan `P_Q` (Traverse portion).
    pub algebra: itg_gsa::AlgebraNode,
    /// The formal incremental algebra plan `P_ΔQ`.
    pub algebra_delta: itg_gsa::AlgebraNode,
    /// Whether the program is safe for incremental execution (no deep
    /// attribute reads; see DESIGN.md §4.3). Always true for programs the
    /// compiler accepts with incrementalization enabled.
    pub incremental_safe: bool,
    /// The largest hop count over the walk queries (0 with no Traverse
    /// loops). Bootstrap ships a partition slice instead of the whole
    /// graph when this is ≤ 1.
    pub max_hops: usize,
    /// Static usage facts for the engine's incremental scheduling.
    pub analysis: ProgramAnalysis,
    /// The typed kernels of Initialize, Update and every walk query.
    pub kernels: ProgramKernels,
    /// The `L_NGA` source text this program was compiled from, when known
    /// ([`crate::compile_source`] sets it; direct [`crate::compile`] calls
    /// leave it empty). The engine's process transport ships this text to
    /// partition worker processes, which recompile it locally — compilation
    /// is deterministic, so the workers' plans (operator ids included)
    /// match the coordinator's.
    pub source: String,
}

impl CompiledProgram {
    /// Deterministic operator-id assignment for observability: one-shot
    /// walk query `i` gets id `i + 1`; Rule ⑦ sub-query `(q, j)` gets
    /// `(q + 1) · 16 + j` (a walk has well under 16 streams). Ids are
    /// stable across compilations of the same program, so profiles can be
    /// compared run to run and joined back to the algebra plan.
    pub fn assign_operator_ids(&mut self) {
        for (i, q) in self.traverse.queries.iter_mut().enumerate() {
            q.op_id = i as u32 + 1;
        }
        for sq in &mut self.delta_traverse {
            sq.op_id = (sq.query as u32 + 1) * 16 + sq.delta_stream as u32;
        }
    }

    /// Human-readable labels for every assigned operator id, used by
    /// `expt profile` to join span/counter measurements back to the plan:
    /// `Q0 ω (2 hops)` for one-shot walk queries, `ΔQ0 ω(Δvs)` /
    /// `ΔQ0 ω(Δes1)` for Rule ⑦ delta sub-queries.
    pub fn operator_labels(&self) -> Vec<(u32, String)> {
        let mut labels = Vec::new();
        for (i, q) in self.traverse.queries.iter().enumerate() {
            labels.push((q.op_id, format!("Q{i} ω ({} hops)", q.num_hops())));
        }
        for sq in &self.delta_traverse {
            let stream = if sq.delta_stream == 0 {
                "Δvs".to_string()
            } else {
                format!("Δes{}", sq.delta_stream)
            };
            labels.push((sq.op_id, format!("ΔQ{} ω({stream})", sq.query)));
        }
        labels
    }

    /// The executable Δ-plan as text: per walk query its derived
    /// annotations and Rule ⑦ sub-queries (stream bindings, dual image,
    /// pruning path), then the accumulate lanes and the monoid recompute
    /// plan — every field the engine executes and nothing it does not.
    /// `itg explain` prints this under the formal trees; the committed
    /// goldens pin it, so a change of plan is a reviewable diff.
    pub fn explain_delta_plan(&self) -> String {
        fn walk(versions: impl Iterator<Item = StreamVersion>) -> String {
            let refs = versions.enumerate().map(|(index, version)| StreamRef { index, version });
            format!("ω({})", refs.map(|r| r.to_string()).collect::<Vec<_>>().join(", "))
        }
        let mut lines = Vec::new();
        for (qi, q) in self.traverse.queries.iter().enumerate() {
            let scan = std::iter::once(StreamVersion::Primed).chain(q.full_scan.iter().copied());
            let closes = q.closes_to.map_or("-".to_string(), |p| format!("u{p}"));
            lines.push(format!(
                "Q{qi}: full scan {}  closes_to={closes}  image_independent={}",
                walk(scan),
                q.image_independent
            ));
            let hops = q.hops.iter().enumerate().map(|(h, spec)| {
                format!("u{} -{:?}-> u{}", spec.source, spec.dir, h + 1)
            });
            lines.push(format!("  hops: {}", hops.collect::<Vec<_>>().join(", ")));
            let k = &self.kernels.queries[qi];
            let mut listing = |what: String, c: &Compiled| {
                lines.push(what);
                lines.push(c.listing("      ").trim_end().to_string());
            };
            if let Some(f) = &k.start_filter {
                listing("  start filter:".into(), f);
            }
            for (h, c) in k.hops.iter().enumerate() {
                c.iter().for_each(|c| listing(format!("  hop {h} constraint:"), c));
            }
            for (ai, a) in q.actions.iter().enumerate() {
                let target = match &a.target {
                    ActionTarget::VertexAccm { pos, accm } => {
                        format!("u{pos}.{}", self.symbols.accms[*accm].name)
                    }
                    ActionTarget::Global(g) => self.symbols.globals[*g].name.clone(),
                };
                let head = format!(
                    "  action {ai}: {} -> {target}  start_invariant={}",
                    a.op, a.start_invariant
                );
                listing(head, &k.values[ai]);
                if let Some(c) = &k.conds[ai] {
                    listing(format!("  action {ai} condition:"), c);
                }
            }
            for sq in self.delta_traverse.iter().filter(|sq| sq.query == qi) {
                lines.push(format!(
                    "  ΔQ{qi}.{} [op {}]: {}  dual_images={}  pruning_path={:?}",
                    sq.delta_stream,
                    sq.op_id,
                    walk(sq.streams.iter().copied()),
                    sq.dual_images,
                    sq.pruning_path
                ));
            }
        }
        let (vertex, global) = self.lanes(true);
        let named = |infos: &[itg_lnga::AccmInfo], lanes: &[AccmLane]| {
            let pairs = infos.iter().zip(lanes).map(|(i, l)| format!("{}: {l:?}", i.name));
            pairs.collect::<Vec<_>>().join(", ")
        };
        lines.push(format!(
            "lanes (Generic with specialize off): vertex [{}]  global [{}]",
            named(&self.symbols.accms, &vertex),
            named(&self.symbols.globals, &global)
        ));
        for (info, steps) in self.symbols.accms.iter().zip(&self.recompute_plan) {
            for step in steps {
                lines.push(format!(
                    "recompute {}: Q{}, starts found backward along {:?}",
                    info.name, step.query, step.paths
                ));
            }
        }
        for (name, k) in [("Initialize", &self.kernels.init), ("Update", &self.kernels.update)] {
            match k {
                Some(k) => lines.push(format!("{name} kernel:\n{}", k.listing("    ").trim_end())),
                None => lines.push(format!("{name}: interpreted")),
            }
        }
        lines.join("\n") + "\n"
    }

    /// The column and global types the kernels are compiled against:
    /// attributes, then accumulator values (as Update addresses them).
    pub fn schema(symbols: &itg_lnga::Symbols) -> Schema {
        let accms = symbols.accms.iter().map(|a| itg_gsa::ValueType::Prim(a.prim));
        Schema {
            columns: symbols.attrs.iter().map(|a| a.ty).chain(accms).collect(),
            globals: symbols.globals.iter().map(|g| g.prim).collect(),
        }
    }

    /// The accumulate lanes of the `(vertex, global)` accumulators, in
    /// declaration order: [`AccmLane::select`] per accumulator, or all
    /// [`AccmLane::Generic`] with `specialize` off. The engine caches the
    /// result once per session, so lane dispatch never happens per tuple.
    pub fn lanes(&self, specialize: bool) -> (Vec<AccmLane>, Vec<AccmLane>) {
        let select = |infos: &[itg_lnga::AccmInfo]| match specialize {
            true => infos.iter().map(|a| AccmLane::select(a.op, a.prim)).collect(),
            false => vec![AccmLane::Generic; infos.len()],
        };
        (select(&self.symbols.accms), select(&self.symbols.globals))
    }

    /// In Update-context expressions, accumulator `i` is addressed as
    /// attribute index `symbols.attrs.len() + i`. The engine's Update
    /// evaluation context resolves indexes past the non-accm columns into
    /// the accumulator columns.
    pub fn accm_attr_base(&self) -> usize {
        self.symbols.attrs.len()
    }
}
