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
use itg_gsa::kernel::{Builder, Kernel, Schema};
use itg_gsa::plan::{StreamRef, StreamVersion};
use itg_gsa::value::PrimType;

/// The typed accumulate lane an accumulator compiles to: its algebra
/// (paper §5.4) over its primitive, named `<op><prim>` — `SumF64` is
/// `Accm<double, SUM>`, `MinI32` is `Accm<int, MIN>`.
///
/// Selected once at plan-compile time, a pure function of the declared
/// `(op, prim)` pair (DESIGN.md §10.1). The lane folds a walk's
/// contributions, merges the cells other machines send, reduces the
/// global partials and settles onto the stored row, all in its own type:
/// integers wrap, `float` rounds each step, IEEE folds replay in
/// contribution order, and a PROD factor without an inverse (0, or not ±1
/// for an integer) recomputes. MIN and MAX over `bool` are the AND and OR
/// lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccmLane {
    SumI32,
    SumI64,
    SumF32,
    SumF64,
    ProdI32,
    ProdI64,
    ProdF32,
    ProdF64,
    MinI32,
    MinI64,
    MinF32,
    MinF64,
    MaxI32,
    MaxI64,
    MaxF32,
    MaxF64,
    OrBool,
    AndBool,
}

impl AccmLane {
    /// The lane of a declared accumulator; `None` for SUM or PROD over
    /// `bool` and for OR or AND over a number, which the checker rejects.
    pub fn select(op: AccmOp, prim: PrimType) -> Option<AccmLane> {
        use AccmLane::*;
        use PrimType::{Bool, Double, Float, Int, Long};
        Some(match (op, prim) {
            (AccmOp::Sum, Int) => SumI32,
            (AccmOp::Sum, Long) => SumI64,
            (AccmOp::Sum, Float) => SumF32,
            (AccmOp::Sum, Double) => SumF64,
            (AccmOp::Prod, Int) => ProdI32,
            (AccmOp::Prod, Long) => ProdI64,
            (AccmOp::Prod, Float) => ProdF32,
            (AccmOp::Prod, Double) => ProdF64,
            (AccmOp::Min, Int) => MinI32,
            (AccmOp::Min, Long) => MinI64,
            (AccmOp::Min, Float) => MinF32,
            (AccmOp::Min, Double) => MinF64,
            (AccmOp::Max, Int) => MaxI32,
            (AccmOp::Max, Long) => MaxI64,
            (AccmOp::Max, Float) => MaxF32,
            (AccmOp::Max, Double) => MaxF64,
            (AccmOp::Or | AccmOp::Max, Bool) => OrBool,
            (AccmOp::And | AccmOp::Min, Bool) => AndBool,
            (AccmOp::Sum | AccmOp::Prod, Bool) | (AccmOp::Or | AccmOp::And, _) => return None,
        })
    }

    /// Whether the lane folds exactly — integers, extrema, booleans —
    /// so its result does not depend on the order contributions arrive
    /// in. The IEEE SUM and PROD lanes round at every step and replay
    /// their contributions in order.
    pub fn is_exact(self) -> bool {
        use AccmLane::*;
        !matches!(self, SumF32 | SumF64 | ProdF32 | ProdF64)
    }

    /// Whether every retraction has an inverse — the SUM lanes — so a
    /// settle never asks for a recompute.
    pub fn always_inverts(self) -> bool {
        use AccmLane::*;
        matches!(self, SumI32 | SumI64 | SumF32 | SumF64)
    }

    /// The lane of a checked accumulator.
    pub fn of(info: &itg_lnga::AccmInfo) -> AccmLane {
        let lane = AccmLane::select(info.op, info.prim);
        lane.expect("the checker admits only accumulators with a lane")
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

/// Whether a walk whose last hop closes to position `close` runs its last
/// two hops as one intersection: the last hop leaves the penultimate hop's
/// target for an earlier position (TC, every rooted walk — intersect with
/// the closing position's reverse view), or leaves an earlier position for
/// that target (LCC — intersect with the last hop source's view). A
/// one-hop close, or a last hop joining two positions bound before the
/// penultimate hop, fits neither and scans.
pub fn closes_by_intersection(hops: &[HopSpec], close: usize) -> bool {
    let (k, source) = (hops.len(), hops.last().map_or(0, |h| h.source));
    k >= 2 && ((source == k - 1 && close < k - 1) || (close == k - 1 && source < k - 1))
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
/// `closes_to`, `image_independent`, `full_scan` and `scatter` (like
/// [`WalkAction::start_invariant`]) are derived from the fields above by
/// [`crate::optimize::annotate`].
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
    /// pins the new vertex to equal an earlier position (`u_{k+1} == u_i`)
    /// and the last two hops fit [`closes_by_intersection`], this records
    /// `i` and the engine runs those two hops as one intersection of two
    /// sorted neighbour views instead of scanning them.
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
    /// One hop without a constraint, and every action unconditional,
    /// start-invariant and on the hop's far end or a global, no two on one
    /// accumulator: the engine lifts each action's value once per start
    /// and folds the whole neighbour run with it — per cell the folds of
    /// one DFS leaf per walk, in the same order.
    pub scatter: bool,
}

impl WalkQuery {
    /// Whether the two queries enumerate the same walks: equal start
    /// filter, hops and intersection close. Their actions, which decide
    /// only what each walk contributes, may differ.
    pub fn same_shape(&self, other: &WalkQuery) -> bool {
        (&self.start_filter, &self.hops, self.closes_to)
            == (&other.start_filter, &other.hops, other.closes_to)
    }

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
    /// The sub-query re-rooted at its Δ hop, when its query is id-only and
    /// the Δ hop's source is not the start: with traversal reordering on,
    /// the engine enumerates this walk from the Δ edges' sources instead
    /// of finding starts by backward MS-BFS.
    pub rooted: Option<RootedWalk>,
}

/// A Δes sub-query re-rooted at its Δ hop ([`crate::algebra::root_at_delta`]):
/// the walk starts at the Δ hop's source (at its target, the hop reversed,
/// when that is the original start), takes the Δ hop first and every
/// other hop outward from it — a hop upstream of the Δ hop reversed — so a
/// refresh enumerates from the batch, not from the neighbourhood that
/// reaches it. The closing equality is folded into the walk, so of a
/// cyclic walk one hop is left over: the walker closes it by intersection.
/// The rooted walk enumerates exactly the original sub-query's walks,
/// position for position through [`RootedWalk::positions`].
#[derive(Debug, Clone, PartialEq)]
pub struct RootedWalk {
    /// The walk over rooted positions: hops in rooted order, each original
    /// constraint at the first rooted hop that binds all its positions,
    /// conditions, values and targets renumbered. `closes_to` is the
    /// left-over hop's far end.
    pub query: WalkQuery,
    /// Per rooted hop, the original hop it takes.
    pub order: Vec<usize>,
    /// Per rooted hop, the stream binding of its original hop.
    pub bindings: Vec<StreamVersion>,
    /// Per original walk position, its rooted position; the closing
    /// position shares the rooted position of the one it closes to.
    pub positions: Vec<usize>,
    /// The rooted position of the original start. A walk counts on the
    /// machine that owns this vertex, if it is active: the check the start
    /// of the original sub-query made. 0 when the Δ hop closes at the
    /// start, else at least 2.
    pub origin: usize,
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
    /// attributes are slots, `If` is a branch. `None` when an expression
    /// has no kernel (it is ill-typed, or reads past walk position 0).
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
    pub start_filter: Option<Kernel>,
    pub hops: Vec<Option<Kernel>>,
    pub conds: Vec<Option<Kernel>>,
    pub values: Vec<Kernel>,
}

impl QueryKernels {
    /// `None` when an expression has no kernel ([`Kernel::expr`]).
    pub fn compile(q: &WalkQuery, schema: &Schema) -> Option<QueryKernels> {
        let kernel = |e: &Expr| Kernel::expr(e, schema);
        let cond = |e: &Option<Expr>| match e {
            Some(e) => kernel(e).map(Some),
            None => Some(None),
        };
        Some(QueryKernels {
            start_filter: cond(&q.start_filter)?,
            hops: q.hops.iter().map(|h| cond(&h.constraint)).collect::<Option<_>>()?,
            conds: q.actions.iter().map(|a| cond(&a.cond)).collect::<Option<_>>()?,
            values: q.actions.iter().map(|a| kernel(&a.value)).collect::<Option<_>>()?,
        })
    }
}

/// Every expression the engine evaluates per row, start or walk, compiled
/// once at plan time: Initialize and Update as whole-program kernels, and
/// each walk query's expressions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProgramKernels {
    pub init: Kernel,
    pub update: Kernel,
    pub queries: Vec<QueryKernels>,
    /// Per Rule ⑦ sub-query, the kernels of its rooted walk, if it has one.
    pub rooted: Vec<Option<QueryKernels>>,
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
    /// Whether the two programs execute identically: equal in every field
    /// the engine reads, declared names and source text aside. The plan
    /// refers to attributes, accumulators and globals by index, so programs
    /// that differ only in names are the same plan, and the standing-query
    /// registry backs them with one session (DESIGN.md §11.2). Literals
    /// compare bit for bit (`-0.0` is not `0.0`); operator ids are a
    /// function of plan position, so they are equal whenever the plans are.
    pub fn same_plan(&self, other: &CompiledProgram) -> bool {
        // Destructured, so that a new field cannot be left out unnoticed.
        let CompiledProgram {
            symbols,
            init,
            update,
            traverse,
            delta_traverse,
            recompute_plan,
            algebra,
            algebra_delta,
            max_hops,
            analysis,
            kernels,
            source: _,
        } = self;
        let itg_lnga::Symbols { attrs, accms, globals, nbrs: _, degrees: _, uses_in_direction } =
            symbols;
        let theirs = &other.symbols;
        let algebras = |a: &[itg_lnga::AccmInfo], b: &[itg_lnga::AccmInfo]| {
            a.iter().map(|x| (x.op, x.prim)).eq(b.iter().map(|x| (x.op, x.prim)))
        };
        attrs.iter().map(|a| a.ty).eq(theirs.attrs.iter().map(|a| a.ty))
            && algebras(accms, &theirs.accms)
            && algebras(globals, &theirs.globals)
            && *uses_in_direction == theirs.uses_in_direction
            && (init, update, traverse, delta_traverse)
                == (&other.init, &other.update, &other.traverse, &other.delta_traverse)
            && (recompute_plan, algebra, algebra_delta)
                == (&other.recompute_plan, &other.algebra, &other.algebra_delta)
            && (max_hops, analysis, kernels) == (&other.max_hops, &other.analysis, &other.kernels)
    }

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
            if let Some(r) = &mut sq.rooted {
                r.query.op_id = sq.op_id;
            }
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
                "Q{qi}: full scan {}  closes_to={closes}  image_independent={}  scatter={}",
                walk(scan),
                q.image_independent,
                q.scatter
            ));
            let hops = q.hops.iter().enumerate().map(|(h, spec)| {
                format!("u{} -{:?}-> u{}", spec.source, spec.dir, h + 1)
            });
            lines.push(format!("  hops: {}", hops.collect::<Vec<_>>().join(", ")));
            let k = &self.kernels.queries[qi];
            let mut listing = |what: String, c: &Kernel| {
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
                let target = self.target_name(&a.target, 'u');
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
                if let Some(r) = &sq.rooted {
                    lines.extend(self.explain_rooted(r));
                }
            }
        }
        let named = |infos: &[itg_lnga::AccmInfo]| {
            let pairs = infos.iter().map(|a| format!("{}: {:?}", a.name, AccmLane::of(a)));
            pairs.collect::<Vec<_>>().join(", ")
        };
        lines.push(format!(
            "lanes: vertex [{}]  global [{}]",
            named(&self.symbols.accms),
            named(&self.symbols.globals)
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
            lines.push(format!("{name} kernel:\n{}", k.listing("    ").trim_end()));
        }
        lines.join("\n") + "\n"
    }

    /// The rooted walk, in rooted positions `r0, r1, …`: its bindings in
    /// rooted hop order, where each original position lands, the origin,
    /// and per rooted hop its edge.
    fn explain_rooted(&self, r: &RootedWalk) -> Vec<String> {
        let q = &r.query;
        let refs = r.order.iter().zip(&r.bindings);
        let refs = refs.map(|(&h, &version)| StreamRef { index: h + 1, version }.to_string());
        let at = r.positions.iter().map(|p| format!("r{p}"));
        let start = r.positions.iter().position(|&p| p == 0).expect("a rooted start");
        let mut lines = vec![format!(
            "    rooted at u{start}: ω({})  positions [{}]  origin=r{}",
            refs.collect::<Vec<_>>().join(", "),
            at.collect::<Vec<_>>().join(", "),
            r.origin
        )];
        for (h, spec) in q.hops.iter().enumerate() {
            let close = q.closes_to.filter(|_| h + 1 == q.hops.len());
            let target = close.unwrap_or(h + 1);
            let mut line = format!("      r{} -{:?}-> r{target}", spec.source, spec.dir);
            if close.is_some() {
                line += "  intersect";
            }
            lines.push(line);
        }
        for (ai, a) in q.actions.iter().enumerate() {
            let target = self.target_name(&a.target, 'r');
            lines.push(format!("      action {ai}: {} -> {target}", a.op));
        }
        lines
    }

    /// An action target as `itg explain` names it: a global by name, a
    /// vertex accumulator as `<position>.<name>`, positions spelled
    /// `{letter}{index}`.
    fn target_name(&self, target: &ActionTarget, letter: char) -> String {
        match target {
            ActionTarget::VertexAccm { pos, accm } => {
                format!("{letter}{pos}.{}", self.symbols.accms[*accm].name)
            }
            ActionTarget::Global(g) => self.symbols.globals[*g].name.clone(),
        }
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

    /// In Update-context expressions, accumulator `i` is addressed as
    /// attribute index `symbols.attrs.len() + i`. The engine's Update
    /// evaluation context resolves indexes past the non-accm columns into
    /// the accumulator columns.
    pub fn accm_attr_base(&self) -> usize {
        self.symbols.attrs.len()
    }
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

    /// A one-hop program accumulating the literal `value` into a double
    /// global.
    fn one_hop(value: &str) -> CompiledProgram {
        compile_source(&format!(
            "Vertex (id, active, nbrs)
             GlobalVariable (s: Accm<double, SUM>)
             Initialize (u): {{ u.active = true; }}
             Traverse (u): {{ For v in u.nbrs {{ s.Accumulate({value}); }} }}
             Update (u): {{ }}"
        ))
        .unwrap()
    }

    #[test]
    fn identical_programs_are_the_same_plan() {
        let a = compile_source(TC).unwrap();
        let b = compile_source(TC).unwrap();
        assert!(a.same_plan(&b));
    }

    #[test]
    fn alpha_renamed_programs_are_the_same_plan() {
        let a = compile_source(TC).unwrap();
        let b = compile_source(TC_RENAMED).unwrap();
        assert_ne!(a, b, "the names differ");
        assert!(a.same_plan(&b), "names must not decide sharing");
        assert!(b.same_plan(&a));
    }

    #[test]
    fn another_action_value_is_another_plan_of_the_same_shape() {
        let a = compile_source(TC).unwrap();
        let b = compile_source(&TC.replace("Accumulate(1)", "Accumulate(2)")).unwrap();
        assert!(!a.same_plan(&b));
        assert!(a.traverse.queries[0].same_shape(&b.traverse.queries[0]));
    }

    #[test]
    fn another_walk_is_another_plan_and_shape() {
        let two_hop = compile_source(
            "Vertex (id, active, nbrs)
             GlobalVariable (c: Accm<long, SUM>)
             Initialize (u): { u.active = true; }
             Traverse (u): { For v in u.nbrs { For w in v.nbrs { c.Accumulate(1); } } }
             Update (u): { }",
        )
        .unwrap();
        let tc = compile_source(TC).unwrap();
        assert!(!two_hop.same_plan(&tc));
        assert!(!two_hop.traverse.queries[0].same_shape(&tc.traverse.queries[0]));
    }

    #[test]
    fn literals_are_the_same_plan_only_bit_for_bit() {
        assert!(one_hop("0.15").same_plan(&one_hop("0.15")));
        assert!(!one_hop("0.15").same_plan(&one_hop("0.25")));
        // `-0.0` in source is a negation of `0.0`; as a literal of the
        // plan it equals `0.0` as a number, but not in bits.
        let zero = one_hop("0.0");
        let mut negative = zero.clone();
        negative.traverse.queries[0].actions[0].value = Expr::lit_double(-0.0);
        let schema = CompiledProgram::schema(&negative.symbols);
        let kernels = QueryKernels::compile(&negative.traverse.queries[0], &schema);
        negative.kernels.queries[0] = kernels.unwrap();
        assert_ne!(zero.traverse, negative.traverse, "`Value` compares bits");
        assert_ne!(zero.kernels, negative.kernels, "`Op::Const` compares bits");
        assert!(!zero.same_plan(&negative));
    }

    #[test]
    fn only_the_renamed_twin_is_the_same_plan() {
        let sources = [TC, TC_RENAMED, &TC.replace("Accumulate(1)", "Accumulate(2)")];
        let programs: Vec<_> = sources.iter().map(|s| compile_source(s).unwrap()).collect();
        for (i, a) in programs.iter().enumerate() {
            for (j, b) in programs.iter().enumerate() {
                let twins = i == j || i + j == 1;
                assert_eq!(a.same_plan(b), twins, "programs {i} and {j}");
            }
        }
    }
}
