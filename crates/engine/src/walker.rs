//! The walk enumerator: the executable composition of Window-Seek and
//! Window-Join over the dynamic graph store.
//!
//! One enumerator run performs a DFS from a single start vertex through a
//! walk query's hops, drawing each hop's edges from the stream version the
//! compiled plan binds it to (Old / New view, or the latest delta), applying hop
//! constraints, honoring the neighbor-pruning allowed sets, and firing the
//! query's actions for every complete walk with the walk's multiplicity
//! (the product of its tuples' multiplicities, §5.3).
//!
//! The multi-way-intersection optimization (`closes_to`): when the final
//! hop pins the closing vertex to an earlier walk position, the enumerator
//! tests edge membership instead of scanning the final adjacency list.

use crate::graph::ClusterGraph;
use itg_compiler::{QueryKernels, WalkQuery};
use itg_gsa::expr::{EdgeDir, EvalContext};
use itg_gsa::kernel::{Compiled, Frame};
use itg_gsa::plan::StreamVersion;
use itg_gsa::value::{ColumnData, Value};
use itg_gsa::{FxHashSet, VertexId};
use itg_store::View;

/// Sink fired once per (action, complete walk):
/// `(action_idx, walk, multiplicity, ctx, frame)`, `frame` the registers
/// the sink's own kernels may run on.
///
/// The enumerator is generic over the sink so the per-accumulator
/// specialized accumulate lanes (DESIGN.md §10.1) inline into the DFS
/// instead of dispatching through a `dyn FnMut` at every complete walk.
pub trait WalkSink: FnMut(usize, &[VertexId], i64, &WalkCtx<'_>, &mut Frame) {}
impl<F: FnMut(usize, &[VertexId], i64, &WalkCtx<'_>, &mut Frame)> WalkSink for F {}

/// The store view an edge-stream binding of the plan reads: `es` is the
/// previous snapshot's edges, `es'` the current ones; `None` for `Δes`,
/// the latest delta segment (edges carry ±1).
fn view_of(version: StreamVersion) -> Option<View> {
    match version {
        StreamVersion::Base => Some(View::Old),
        StreamVersion::Primed => Some(View::New),
        StreamVersion::Delta => None,
    }
}

/// Resolved span timers for the phases of walk enumeration, keyed by the
/// plan operator executing them: Window-Seek (adjacency streaming through
/// the buffer pool), Window-Join (constraint checks / membership probes
/// extending partial walks), and action firing on complete walks.
///
/// Handles resolved from a disabled recorder are free; enabled handles add
/// two relaxed atomic adds per recorded interval, with the clock read
/// amortized per seek batch / join batch rather than per edge.
#[derive(Clone, Debug, Default)]
pub struct WalkSpans {
    pub seek: itg_obs::SpanHandle,
    pub join: itg_obs::SpanHandle,
    pub action: itg_obs::SpanHandle,
}

impl WalkSpans {
    /// Resolve the three phase spans for plan operator `op`.
    pub fn resolve(rec: &itg_obs::Recorder, op: itg_obs::OpId) -> WalkSpans {
        WalkSpans {
            seek: rec.span_op("run/traverse/seek", op),
            join: rec.span_op("run/traverse/join", op),
            action: rec.span_op("run/traverse/action", op),
        }
    }

    #[inline]
    fn enabled(&self) -> bool {
        self.seek.is_enabled()
    }
}

/// Evaluation context over a (partial) walk — for Initialize and Update,
/// the one-vertex walk of their row. Vertex attributes are readable at
/// position 0 only — the compiler enforces this for incremental plans and
/// the six evaluation algorithms satisfy it throughout; deeper reads panic
/// with a clear message.
pub struct WalkCtx<'a> {
    pub walk: &'a [VertexId],
    /// Position-0 attribute columns (old or new image per the sub-query).
    pub attrs: &'a [ColumnData],
    /// Update's accumulator value columns, addressed past `attrs`, and its
    /// globals; empty in Traverse.
    pub accm: &'a [ColumnData],
    pub globals: &'a [Value],
    /// Position 0's local index within its partition.
    pub local: usize,
    /// View degrees are served from for position 0.
    pub deg_view: View,
    pub graph: &'a ClusterGraph,
}

impl EvalContext for WalkCtx<'_> {
    fn walk_vertex(&self, pos: usize) -> VertexId {
        self.walk[pos]
    }

    fn vertex_attr(&self, pos: usize, attr: usize) -> Value {
        assert_eq!(
            pos, 0,
            "attribute reads are only supported at the walk's start vertex"
        );
        let (col, row) = self.column(attr);
        col.get(row)
    }

    fn global(&self, idx: usize) -> Value {
        let global = self.globals.get(idx).cloned();
        global.expect("global variables are not readable during Traverse")
    }

    fn num_vertices(&self) -> u64 {
        self.graph.num_vertices() as u64
    }

    fn vertex_degree(&self, pos: usize, dir: EdgeDir) -> i64 {
        let view = if pos == 0 { self.deg_view } else { View::New };
        self.graph.degree(self.walk[pos], dir, view) as i64
    }

    fn column(&self, attr: usize) -> (&ColumnData, usize) {
        match self.attrs.get(attr) {
            Some(col) => (col, self.local),
            None => (&self.accm[attr - self.attrs.len()], self.local),
        }
    }
}

/// Reusable per-thread enumeration buffers: the walk stack, one
/// destination list per hop depth and the kernels' registers. Pulled out of
/// the DFS so enumerating from a start vertex costs zero allocations once
/// the thread's pool is warm — the per-start `Vec` churn otherwise
/// dominates short Δ-walks.
#[derive(Default)]
struct WalkScratch {
    walk: Vec<VertexId>,
    levels: Vec<Vec<(VertexId, i64)>>,
    frame: Frame,
}

thread_local! {
    static SCRATCH: std::cell::Cell<WalkScratch> = std::cell::Cell::new(WalkScratch::default());
}

/// One enumeration task: a start vertex with its image context.
pub struct Walker<'a> {
    pub graph: &'a ClusterGraph,
    pub worker: usize,
    pub query: &'a WalkQuery,
    /// The query's compiled constraints, conditions and values.
    pub kernels: &'a QueryKernels,
    /// Per-hop edge-stream bindings of the plan (length = hops).
    pub bindings: &'a [StreamVersion],
    /// Per-hop allowed sets from neighbor pruning (`None` = unrestricted).
    pub allowed: &'a [Option<&'a FxHashSet<VertexId>>],
    /// Position-0 attribute image and its partition-local index.
    pub attrs: &'a [ColumnData],
    pub local: usize,
    pub deg_view: View,
    /// Whether to use the membership-check closing optimization.
    pub use_intersection: bool,
    /// Span timers for the seek/join/action phases, keyed by the plan
    /// operator driving this enumeration; `None` (and handles from a
    /// disabled recorder) cost one branch per batch.
    pub obs: Option<&'a WalkSpans>,
}

impl Walker<'_> {
    /// Enumerate all walks from `start` (multiplicity `start_mult`),
    /// calling `sink(action_idx, walk, mult, ctx)` once per action per
    /// complete walk.
    pub fn enumerate<F: WalkSink>(&self, start: VertexId, start_mult: i64, sink: &mut F) {
        debug_assert_eq!(self.bindings.len(), self.query.hops.len());
        // Taking (rather than borrowing) the thread's scratch keeps a
        // re-entrant enumeration safe: an inner call just starts cold.
        let mut scratch = SCRATCH.with(|c| c.take());
        let hops = self.query.hops.len();
        if scratch.levels.len() < hops {
            scratch.levels.resize_with(hops, Vec::new);
        }
        scratch.walk.clear();
        scratch.walk.push(start);
        {
            let WalkScratch { walk, levels, frame } = &mut scratch;
            self.recurse(walk, start_mult, 0, levels, frame, sink);
        }
        SCRATCH.with(|c| c.set(scratch));
    }

    fn ctx<'w>(&self, walk: &'w [VertexId]) -> WalkCtx<'w>
    where
        Self: 'w,
    {
        WalkCtx {
            walk,
            attrs: self.attrs,
            accm: &[],
            globals: &[],
            local: self.local,
            deg_view: self.deg_view,
            graph: self.graph,
        }
    }

    fn check(&self, cond: &Option<Compiled>, walk: &[VertexId], frame: &mut Frame) -> bool {
        cond.as_ref().is_none_or(|c| c.test(&self.ctx(walk), frame))
    }

    fn recurse<F: WalkSink>(
        &self,
        walk: &mut Vec<VertexId>,
        mult: i64,
        hop: usize,
        levels: &mut [Vec<(VertexId, i64)>],
        frame: &mut Frame,
        sink: &mut F,
    ) {
        let hops = &self.query.hops;
        if hop == hops.len() {
            let _action_guard = self.obs.map(|o| o.action.start());
            let ctx = self.ctx(walk);
            for (ai, cond) in self.kernels.conds.iter().enumerate() {
                if cond.as_ref().is_none_or(|c| c.test(&ctx, frame)) {
                    sink(ai, walk, mult, &ctx, frame);
                }
            }
            return;
        }
        let spec = &hops[hop];
        let src = walk[spec.source];
        let is_last = hop + 1 == hops.len();

        // Multi-way intersection: close the walk by membership test — a
        // W-Join probe without any seek.
        if is_last && self.use_intersection {
            if let Some(close_pos) = self.query.closes_to {
                let candidate = walk[close_pos];
                walk.push(candidate);
                let join_guard = self.obs.map(|o| o.join.start());
                let em = if self.check(&self.kernels.hops[hop], walk, frame) {
                    // One membership probe of work.
                    self.graph.partitions[self.worker].stats.add_walks(1);
                    match view_of(self.bindings[hop]) {
                        Some(view) => {
                            self.graph
                                .edge_mult(self.worker, src, candidate, spec.dir, view)
                        }
                        None => {
                            self.graph
                                .delta_edge_mult(self.worker, src, candidate, spec.dir)
                        }
                    }
                } else {
                    0
                };
                drop(join_guard);
                if em != 0 {
                    self.recurse(walk, mult * em, hop + 1, levels, frame, sink);
                }
                walk.pop();
                return;
            }
        }

        let (dsts, rest) = levels.split_first_mut().expect("scratch sized to hop count");
        dsts.clear();
        let allowed = self.allowed.get(hop).copied().flatten();
        let seek_guard = self.obs.map(|o| o.seek.start());
        match view_of(self.bindings[hop]) {
            Some(view) => {
                // W-Seek through the buffer pool; the window capacity is
                // enforced by the caller's start-vertex chunking, and each
                // adjacency list is streamed without materialization.
                self.graph
                    .for_each_neighbor(self.worker, src, spec.dir, view, |d| {
                        if allowed.is_none_or(|a| a.contains(&d)) {
                            dsts.push((d, 1));
                        }
                    });
            }
            None => {
                self.graph
                    .for_each_delta_neighbor(self.worker, src, spec.dir, |d, m| {
                        if allowed.is_none_or(|a| a.contains(&d)) {
                            dsts.push((d, m));
                        }
                    });
            }
        }
        drop(seek_guard);
        self.extend_all(walk, mult, hop, dsts, rest, frame, sink);
    }

    #[allow(clippy::too_many_arguments)]
    fn extend_all<F: WalkSink>(
        &self,
        walk: &mut Vec<VertexId>,
        mult: i64,
        hop: usize,
        dsts: &[(VertexId, i64)],
        levels: &mut [Vec<(VertexId, i64)>],
        frame: &mut Frame,
        sink: &mut F,
    ) {
        let constraint = &self.kernels.hops[hop];
        // Work accounting: every attempted extension is one enumeration
        // step (this is what the Δ-walk optimizations reduce — completed
        // walks are invariant by correctness).
        self.graph.partitions[self.worker]
            .stats
            .add_walks(dsts.len() as u64);
        // W-Join: time the constraint checks alone, aggregated per batch so
        // the recursion below is not double-counted into this span.
        let timed = self.obs.filter(|o| o.enabled());
        let mut join_ns = 0u64;
        for &(d, em) in dsts {
            walk.push(d);
            let t0 = timed.map(|_| std::time::Instant::now());
            let ok = self.check(constraint, walk, frame);
            if let Some(t0) = t0 {
                join_ns += t0.elapsed().as_nanos() as u64;
            }
            if ok {
                self.recurse(walk, mult * em, hop + 1, levels, frame, sink);
            }
            walk.pop();
        }
        if let Some(o) = timed {
            if !dsts.is_empty() {
                o.join.record(dsts.len() as u64, join_ns);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphInput;
    use itg_compiler::{ActionTarget, HopSpec, WalkAction};
    use itg_gsa::expr::Expr;
    use itg_gsa::kernel::Schema;
    use itg_gsa::expr::BinOp;
    use itg_gsa::plan::StreamVersion::{Base, Delta, Primed};
    use itg_gsa::value::PrimType;
    use itg_gsa::AccmOp;
    use itg_store::{EdgeMutation, MutationBatch};

    /// The paper's G_0 (Figure 6): one triangle <0,1,5>.
    fn paper_graph(machines: usize) -> ClusterGraph {
        ClusterGraph::load(
            &GraphInput::undirected(vec![
                (0, 1),
                (0, 5),
                (1, 5),
                (2, 3),
                (2, 5),
                (3, 4),
                (4, 5),
                (6, 7),
            ]),
            machines,
            1 << 20,
            4096,
        )
    }

    fn tc_query() -> WalkQuery {
        let lt = |a, b| Expr::bin(BinOp::Lt, Expr::WalkVertex(a), Expr::WalkVertex(b));
        WalkQuery {
            hops: vec![
                HopSpec {
                    source: 0,
                    dir: EdgeDir::Both,
                    constraint: Some(lt(0, 1)),
                },
                HopSpec {
                    source: 1,
                    dir: EdgeDir::Both,
                    constraint: Some(lt(1, 2)),
                },
                HopSpec {
                    source: 2,
                    dir: EdgeDir::Both,
                    constraint: Some(Expr::bin(
                        BinOp::Eq,
                        Expr::WalkVertex(3),
                        Expr::WalkVertex(0),
                    )),
                },
            ],
            actions: vec![WalkAction {
                depth: 3,
                cond: None,
                target: ActionTarget::Global(0),
                op: AccmOp::Sum,
                prim: PrimType::Long,
                value: Expr::lit_long(1),
                start_invariant: true,
            }],
            closes_to: Some(0),
            ..WalkQuery::default()
        }
    }

    fn run_tc(g: &ClusterGraph, bindings: &[StreamVersion], use_intersection: bool) -> i64 {
        let q = tc_query();
        let kernels = QueryKernels::compile(&q, &Schema::default());
        let empty_attrs: Vec<ColumnData> = Vec::new();
        let mut total = 0i64;
        for start in 0..g.num_vertices() as u64 {
            let w = Walker {
                graph: g,
                worker: g.owner(start),
                query: &q,
                kernels: &kernels,
                bindings,
                allowed: &[None, None, None],
                attrs: &empty_attrs,
                local: g.local_index(start),
                deg_view: View::New,
                use_intersection,
                obs: None,
            };
            w.enumerate(start, 1, &mut |_ai, _walk, mult, _ctx, _frame| {
                total += mult;
            });
        }
        total
    }

    #[test]
    fn one_shot_triangles_with_and_without_intersection() {
        let g = paper_graph(3);
        let bindings = [Primed; 3];
        assert_eq!(run_tc(&g, &bindings, false), 1);
        assert_eq!(run_tc(&g, &bindings, true), 1);
    }

    #[test]
    fn delta_walks_find_new_triangles_with_signs() {
        let mut g = paper_graph(2);
        // ΔG_1: insert (3,5) — the paper's Figure 10: two new triangles
        // <2,3,5> (wait: 2-3, 3-5, 2-5 — yes) and <3,4,5>.
        g.apply_batch(&MutationBatch::new(vec![EdgeMutation::insert(3, 5)]));
        // Sub-query with delta at hop 0: ω(Δes, es, es) — old views after.
        let (d1, d2, d3) = ([Delta, Base, Base], [Primed, Delta, Base], [Primed, Primed, Delta]);
        let total: i64 = run_tc(&g, &d1, true) + run_tc(&g, &d2, true) + run_tc(&g, &d3, true);
        assert_eq!(total, 2, "two new triangles");
        // And the full re-count agrees: 1 + 2 = 3.
        let all_new = [Primed; 3];
        assert_eq!(run_tc(&g, &all_new, true), 3);
    }

    #[test]
    fn deletion_produces_negative_delta_walks() {
        let mut g = paper_graph(2);
        g.apply_batch(&MutationBatch::new(vec![EdgeMutation::delete(0, 5)]));
        let (d1, d2, d3) = ([Delta, Base, Base], [Primed, Delta, Base], [Primed, Primed, Delta]);
        let total: i64 = run_tc(&g, &d1, false) + run_tc(&g, &d2, false) + run_tc(&g, &d3, false);
        assert_eq!(total, -1, "the triangle <0,1,5> is retracted");
        let all_new = [Primed; 3];
        assert_eq!(run_tc(&g, &all_new, false), 0);
    }

    #[test]
    fn allowed_sets_prune_enumeration() {
        let g = paper_graph(1);
        let q = tc_query();
        let kernels = QueryKernels::compile(&q, &Schema::default());
        let empty_attrs: Vec<ColumnData> = Vec::new();
        // Restrict hop 0 to {1}: only walks through vertex 1 at position 1.
        let mut only1 = FxHashSet::default();
        only1.insert(1u64);
        let allowed = [Some(&only1), None, None];
        let mut walks = 0;
        for start in 0..8u64 {
            let w = Walker {
                graph: &g,
                worker: 0,
                query: &q,
                kernels: &kernels,
                bindings: &[Primed; 3],
                allowed: &allowed,
                attrs: &empty_attrs,
                local: g.local_index(start),
                deg_view: View::New,
                use_intersection: true,
                obs: None,
            };
            w.enumerate(start, 1, &mut |_, walk, _, _, _| {
                assert_eq!(walk[1], 1);
                walks += 1;
            });
        }
        assert_eq!(walks, 1);
    }

    #[test]
    fn walk_counter_increments() {
        let g = paper_graph(1);
        let before = g.partitions[0].stats.snapshot().walks_enumerated;
        run_tc(&g, &[Primed; 3], true);
        let after = g.partitions[0].stats.snapshot().walks_enumerated;
        assert!(after > before);
    }
}
