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
//! runs the last two hops as one merge of two sorted neighbour views
//! ([`ClusterGraph::sorted_neighbors`]); only their common neighbours
//! reach the hop constraints and the sink.

use crate::graph::ClusterGraph;
use itg_compiler::{plan::closes_by_intersection, QueryKernels, WalkQuery};
use itg_gsa::expr::{EdgeDir, EvalContext};
use itg_gsa::kernel::{Frame, Kernel};
use itg_gsa::plan::StreamVersion;
use itg_gsa::value::{ColumnData, Value};
use itg_gsa::{FxHashSet, VertexId};
use itg_store::{SortedRun, View};

/// Sink fired once per (action, complete walk):
/// `(action_idx, walk, multiplicity, ctx, frame)`, `frame` the registers
/// the sink's own kernels may run on.
///
/// The enumerator is generic over the sink so the per-accumulator
/// typed accumulate lanes (DESIGN.md §10.1) inline into the DFS
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

/// The direction that reads a `dir` hop's edges from their far end: `Both`
/// reads the out store, so the in store (the out store if undirected).
fn reverse_dir(dir: EdgeDir) -> EdgeDir {
    if dir == EdgeDir::In { EdgeDir::Out } else { EdgeDir::In }
}

/// The common targets of two ascending `(target, count)` runs, ascending,
/// as `f(target, count in a, count in b)`: a linear merge, or — when one
/// run is over 8× the other — a walk of the shorter that gallops the
/// longer to each of its targets. Returns the comparisons made.
fn intersect(a: SortedRun<'_>, b: SortedRun<'_>, mut f: impl FnMut(VertexId, i64, i64)) -> u64 {
    let swap = a.entries() > b.entries();
    let gallop = a.entries().max(b.entries()) > 8 * a.entries().min(b.entries());
    if let (false, Some(a), Some(b)) = (gallop, a.plain(), b.plain()) {
        return merge(a, b, f);
    }
    let (mut short, mut long) = if swap { (b, a) } else { (a, b) };
    let (mut x, mut y, mut steps) = (short.next(), long.next(), 0);
    while let (Some((ds, ms)), Some((dl, ml))) = (x, y) {
        steps += 1;
        match ds.cmp(&dl) {
            std::cmp::Ordering::Less => x = short.next(),
            std::cmp::Ordering::Greater => {
                if gallop {
                    steps += long.seek(ds);
                }
                y = long.next();
            }
            std::cmp::Ordering::Equal => {
                if swap { f(ds, ml, ms) } else { f(ds, ms, ml) }
                (x, y) = (short.next(), long.next());
            }
        }
    }
    steps
}

/// [`intersect`]'s branch-free linear merge of two base runs (a target once
/// per copy): a TC one-shot takes 0.74× the cursor's time (DESIGN §4.5).
fn merge(a: &[VertexId], b: &[VertexId], mut f: impl FnMut(VertexId, i64, i64)) -> u64 {
    let run = |s: &[VertexId], at: usize| s[at..].iter().take_while(|&&x| x == s[at]).count();
    let (mut i, mut j, mut steps) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if x == y {
            let (ra, rb) = (run(a, i), run(b, j));
            f(x, ra as i64, rb as i64);
            (i, j) = (i + ra, j + rb);
        } else {
            i += (x < y) as usize;
            j += (y < x) as usize;
        }
        steps += 1;
    }
    steps
}

/// Resolved span timers for the phases of walk enumeration, keyed by the
/// plan operator executing them: Window-Seek (adjacency streaming through
/// the buffer pool), Window-Join (constraint checks and intersections
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
/// position 0 only: the compiler rejects a deeper read (DESIGN.md §4.3).
pub struct WalkCtx<'a> {
    pub walk: &'a [VertexId],
    /// Position-0 attribute columns (old or new image per the sub-query).
    pub attrs: &'a [ColumnData],
    /// Update's accumulator value columns, addressed past `attrs`; empty
    /// in Traverse.
    pub accm: &'a [ColumnData],
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

    fn global(&self, _idx: usize) -> Value {
        unreachable!("a kernel's globals are loaded by `Kernel::prime`")
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
            local: self.local,
            deg_view: self.deg_view,
            graph: self.graph,
        }
    }

    fn check(&self, cond: &Option<Kernel>, walk: &[VertexId], frame: &mut Frame) -> bool {
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
        let close = self.query.closes_to.filter(|&c| closes_by_intersection(hops, c));
        if let Some(c) = close.filter(|_| hop + 2 == hops.len()) {
            self.close(walk, mult, hop, c, frame, sink);
            return;
        }
        let (dsts, rest) = levels.split_first_mut().expect("scratch sized to hop count");
        self.seek(walk[hops[hop].source], hop, dsts);
        self.extend_all(walk, mult, hop, dsts, rest, frame, sink);
    }

    /// W-Join of the last two hops, `hop` and `hop + 1`: the penultimate
    /// hop's view of its source ∩ the closing position's reverse view when
    /// the last hop leaves the penultimate's target (TC), else ∩ the last
    /// hop source's view (LCC). A common target passing both constraints
    /// fires once per penultimate copy at `mult` × the closing count, as a
    /// scan + probe did, but ascending (DESIGN §4.5). One join interval
    /// (counting comparisons) per intersection, one walk step per target.
    fn close<F: WalkSink>(
        &self,
        walk: &mut Vec<VertexId>,
        mult: i64,
        hop: usize,
        c: usize,
        frame: &mut Frame,
        sink: &mut F,
    ) {
        let (pen, last) = (&self.query.hops[hop], &self.query.hops[hop + 1]);
        let view = |h: usize, v: VertexId, dir: EdgeDir| {
            self.graph.sorted_neighbors(self.worker, v, dir, view_of(self.bindings[h]))
        };
        let reverse = last.source == hop + 1;
        let (at, dir) = if reverse { (c, reverse_dir(last.dir)) } else { (last.source, last.dir) };
        let closing = view(hop + 1, walk[at], dir);
        let allowed = self.allowed.get(hop).copied().flatten();
        let (pen_check, last_check) = (&self.kernels.hops[hop], &self.kernels.hops[hop + 1]);
        let timed = self.obs.filter(|o| o.enabled());
        let t0 = timed.map(|_| std::time::Instant::now());
        let (mut common, mut fire_ns) = (0u64, 0u64);
        let steps = intersect(view(hop, walk[pen.source], pen.dir), closing, |d, copies, em| {
            if allowed.is_some_and(|a| !a.contains(&d)) {
                return;
            }
            common += 1;
            walk.push(d);
            walk.push(if reverse { walk[c] } else { d });
            if self.check(pen_check, walk, frame) && self.check(last_check, walk, frame) {
                let t = timed.map(|_| std::time::Instant::now());
                // A Δ-bound penultimate hop's count is signed.
                for _ in 0..copies.unsigned_abs() {
                    self.recurse(walk, mult * copies.signum() * em, hop + 2, &mut [], frame, sink);
                }
                fire_ns += t.map_or(0, |t| t.elapsed().as_nanos() as u64);
            }
            walk.truncate(hop + 1);
        });
        self.graph.partitions[self.worker].stats.add_walks(common);
        if let (Some(o), Some(t0)) = (timed, t0) {
            o.join.record(steps, (t0.elapsed().as_nanos() as u64).saturating_sub(fire_ns));
        }
    }

    /// W-Seek: hop `hop`'s destinations from `src` with their edge
    /// multiplicities, in adjacency order, through the allowed set.
    fn seek(&self, src: VertexId, hop: usize, dsts: &mut Vec<(VertexId, i64)>) {
        dsts.clear();
        let dir = self.query.hops[hop].dir;
        let allowed = self.allowed.get(hop).copied().flatten();
        let _seek_guard = self.obs.map(|o| o.seek.start());
        match view_of(self.bindings[hop]) {
            Some(view) => {
                // Through the buffer pool; the window capacity is enforced
                // by the caller's start-vertex chunking, and each adjacency
                // list is streamed without materialization.
                self.graph.for_each_neighbor(self.worker, src, dir, view, |d| {
                    if allowed.is_none_or(|a| a.contains(&d)) {
                        dsts.push((d, 1));
                    }
                });
            }
            None => {
                self.graph.for_each_delta_neighbor(self.worker, src, dir, |d, m| {
                    if allowed.is_none_or(|a| a.contains(&d)) {
                        dsts.push((d, m));
                    }
                });
            }
        }
    }

    /// A scatter query's walks from `start` ([`WalkQuery::scatter`]): its
    /// one hop's neighbour run `(d, m)` — counted as the walks the DFS
    /// would extend to — handed to `fold` under one action span, where the
    /// DFS fires one leaf per walk. An empty run folds nothing.
    pub fn scatter(&self, start: VertexId, fold: impl FnOnce(&[(VertexId, i64)])) {
        debug_assert!(self.query.scatter, "a scatter query");
        let mut scratch = SCRATCH.with(|c| c.take());
        if scratch.levels.is_empty() {
            scratch.levels.push(Vec::new());
        }
        let run = &mut scratch.levels[0];
        self.seek(start, 0, run);
        self.graph.partitions[self.worker].stats.add_walks(run.len() as u64);
        if !run.is_empty() {
            let _action_guard = self.obs.map(|o| o.action.start());
            fold(run);
        }
        SCRATCH.with(|c| c.set(scratch));
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
    use itg_compiler::{ActionTarget, HopSpec, VStmt, VertexProgram, WalkAction};
    use itg_gsa::expr::Expr;
    use itg_gsa::kernel::Schema;
    use itg_gsa::expr::BinOp;
    use itg_gsa::plan::StreamVersion::{Base, Delta, Primed};
    use itg_gsa::value::PrimType;
    use itg_gsa::AccmOp;
    use itg_obs::Recorder;
    use itg_store::{EdgeMutation, MutationBatch};

    /// The paper's G_0 (Figure 6): one triangle <0,1,5>.
    fn paper_graph_edges() -> Vec<(VertexId, VertexId)> {
        vec![(0, 1), (0, 5), (1, 5), (2, 3), (2, 5), (3, 4), (4, 5), (6, 7)]
    }

    fn paper_graph(machines: usize) -> ClusterGraph {
        let input = GraphInput::undirected(paper_graph_edges());
        ClusterGraph::load_with_obs(&input, machines, 1 << 20, 4096, &Recorder::disabled())
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

    /// Every walk of `q` from every start under `bindings`, as
    /// `(walk, multiplicity)` per action firing, each start enumerated by
    /// its owner.
    fn walks(
        g: &ClusterGraph,
        q: &WalkQuery,
        k: &QueryKernels,
        bindings: &[StreamVersion],
    ) -> Vec<(Vec<VertexId>, i64)> {
        let (empty_attrs, none) = (Vec::new(), vec![None; q.hops.len()]);
        let mut out = Vec::new();
        for start in 0..g.num_vertices() as u64 {
            let w = Walker {
                graph: g,
                worker: g.owner(start),
                query: q,
                kernels: k,
                bindings,
                allowed: &none,
                attrs: &empty_attrs,
                local: g.local_index(start),
                deg_view: View::New,
                obs: None,
            };
            w.enumerate(start, 1, &mut |_ai, walk, mult, _ctx, _frame| out.push((walk.to_vec(), mult)));
        }
        out
    }

    /// Count triangles, closing the last two hops by an intersection or
    /// scanning the last hop under its `u3 == u0` constraint.
    fn run_tc(g: &ClusterGraph, bindings: &[StreamVersion], intersect: bool) -> i64 {
        let q = if intersect {
            tc_query()
        } else {
            WalkQuery { closes_to: None, ..tc_query() }
        };
        let kernels = QueryKernels::compile(&q, &Schema::default()).unwrap();
        walks(g, &q, &kernels, bindings).iter().map(|w| w.1).sum()
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
        for intersect in [false, true] {
            let total: i64 = [d1, d2, d3].iter().map(|b| run_tc(&g, b, intersect)).sum();
            assert_eq!(total, -1, "the triangle <0,1,5> is retracted");
            assert_eq!(run_tc(&g, &[Primed; 3], intersect), 0);
        }
    }

    /// A compiled program's Traverse query and its kernels.
    fn compiled(src: &str) -> (itg_compiler::CompiledProgram, WalkQuery, QueryKernels) {
        let p = itg_compiler::compile_source(src).unwrap();
        let (q, k) = (p.traverse.queries[0].clone(), p.kernels.queries[0].clone());
        (p, q, k)
    }

    /// TC (the last hop leaves the penultimate hop's target: a reverse
    /// view) and LCC (the last hop closes onto it: a forward view) on
    /// the paper graph and a denser one, against `native.rs` and against
    /// scanning the last hop under its constraint.
    #[test]
    fn both_close_shapes_match_the_native_counts() {
        use itg_algorithms::{native, programs};
        let dense = (0..24).flat_map(|v| [(v, (v * 7 + 3) % 24), (v, (v * 5 + 1) % 24)]);
        let mut edges: Vec<(VertexId, VertexId)> = dense.collect();
        edges.retain(|e| e.0 != e.1);
        for (n, edges) in [(8, paper_graph_edges()), (24, edges)] {
            let input = GraphInput::undirected(edges.clone());
            let g = ClusterGraph::load_with_obs(&input, 3, 1 << 20, 4096, &Recorder::disabled());
            let reference = native::SimpleGraph::undirected(n, &edges);
            for (src, reverse) in [(programs::TRIANGLE_COUNT, true), (programs::LCC, false)] {
                let (_, q, k) = compiled(src);
                assert_eq!(q.hops[2].source == 2, reverse, "the close shape");
                let scan = WalkQuery { closes_to: None, ..q.clone() };
                let got = walks(&g, &q, &k, &[Primed; 3]);
                let scanned = walks(&g, &scan, &k, &[Primed; 3]);
                assert_eq!(got, scanned, "{n} vertices: the same firings in the same order");
                if reverse {
                    let total: i64 = got.iter().map(|w| w.1).sum();
                    assert_eq!(total, native::triangle_count(&reference));
                } else {
                    let mut per = vec![0; n];
                    got.iter().for_each(|(w, m)| per[w[0] as usize] += m);
                    assert_eq!(per, native::triangles_per_vertex(&reference));
                }
            }
        }
    }

    /// After a batch, a touched vertex's scan lists its base run and then
    /// each insert file, and a Δ run all inserts and then all deletes, while
    /// the close fires in ascending target order. So the close yields the
    /// scan's walks at the scan's net multiplicities, but not in its order
    /// (and a repeated closing edge is one firing at its count): TC and LCC
    /// under the full scans of both views, every Δ sub-query as compiled
    /// and every rooted walk, each walk's multiplicities summed.
    #[test]
    fn after_a_batch_the_close_fires_the_scans_walks_in_target_order() {
        use itg_algorithms::programs;
        let edges = vec![(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 4), (3, 4), (2, 5), (4, 5)];
        let input = GraphInput::undirected(edges);
        let mut g = ClusterGraph::load_with_obs(&input, 3, 1 << 20, 4096, &Recorder::disabled());
        // 1's scan reads 0, 3, 4 and then the inserted 2 (twice); the close
        // reads 2 before 3.
        let inserts = [(1, 2), (1, 2), (2, 3), (1, 3), (3, 5)].map(|(u, v)| EdgeMutation::insert(u, v));
        let deletes = [EdgeMutation::delete(0, 4), EdgeMutation::delete(2, 5)];
        g.apply_batch(&MutationBatch::new(inserts.into_iter().chain(deletes).collect()));
        let net = |w: Vec<(Vec<VertexId>, i64)>| {
            let mut net = std::collections::BTreeMap::new();
            w.into_iter().for_each(|(w, m)| *net.entry(w).or_insert(0) += m);
            net.retain(|_, m| *m != 0);
            net
        };
        for src in [programs::TRIANGLE_COUNT, programs::LCC] {
            let (p, q, k) = compiled(src);
            let scan = WalkQuery { closes_to: None, ..q.clone() };
            let delta = p.delta_traverse.iter().map(|sq| sq.hop_bindings());
            let (mut fired, mut reordered) = (0, false);
            for bindings in [&[Primed; 3][..], &[Base; 3]].into_iter().chain(delta) {
                let (got, scanned) = (walks(&g, &q, &k, bindings), walks(&g, &scan, &k, bindings));
                reordered |= got != scanned;
                fired += got.len();
                assert_eq!(net(got), net(scanned), "{bindings:?}");
            }
            assert!(fired > 0 && reordered, "the batch reorders a close");
            // A rooted walk's closing equality is folded into its
            // positions: map each walk back and compare with the original.
            for (sq, rk) in p.delta_traverse.iter().zip(&p.kernels.rooted) {
                let (Some(r), Some(rk)) = (&sq.rooted, rk) else { continue };
                assert!(r.query.closes_to.is_some(), "a rooted walk closes by intersection");
                let rooted = walks(&g, &r.query, rk, &r.bindings).into_iter();
                let back = rooted.map(|(w, m)| (r.positions.iter().map(|&i| w[i]).collect(), m));
                let want = net(walks(&g, &scan, &k, sq.hop_bindings()));
                assert!(!want.is_empty());
                assert_eq!(net(back.collect()), want, "rooted {:?}", r.bindings);
            }
        }
    }

    /// A close whose last two hops leave one position (`u4 == u3`, both
    /// from u2) intersects that position's view with itself: each pair of
    /// a 2-path's copies, as scanning the last hop under its constraint
    /// counts, on a multigraph too.
    #[test]
    fn a_close_from_one_position_intersects_a_view_with_itself() {
        let src = "Vertex (id, active, nbrs)
            GlobalVariable (c: Accm<long, SUM>)
            Initialize (u1): { u1.active = true; }
            Traverse (u1): {
                For u2 in u1.nbrs { For u3 in u2.nbrs {
                    For u4 in u2.nbrs Where (u4 == u3) { c.Accumulate(1); } } }
            }
            Update (u1): { }";
        let (_, q, k) = compiled(src);
        assert_eq!((q.closes_to, q.hops[2].source), (Some(2), 1));
        let edges = vec![(0, 1), (1, 2), (1, 2), (2, 3), (3, 1)];
        let input = GraphInput::directed(edges);
        let g = ClusterGraph::load_with_obs(&input, 2, 1 << 20, 4096, &Recorder::disabled());
        let scan = WalkQuery { closes_to: None, ..q.clone() };
        let total = |q: &WalkQuery| walks(&g, q, &k, &[Primed; 3]).iter().map(|w| w.1).sum::<i64>();
        // Per copy of u1 → u2, Σ over u3 of copies(u2 → u3)²: from 0, 2,
        // 3 and 1 (twice, the copies of 1 → 2): 4 + 1 + 4 + 2 · 1.
        assert_eq!((total(&q), total(&scan)), (11, 11));
    }

    /// A repeated directed edge counts once per copy whichever hop the
    /// intersection closes through: on `0→1, 1→2, 1→2`, inserting `2→0`
    /// closes two 3-cycles — over the Δ sub-queries as compiled, over
    /// their rooted walks, and in a one-shot on the four edges.
    #[test]
    fn a_repeated_edge_closes_once_per_copy_on_every_delta_path() {
        use itg_algorithms::programs::DIRECTED_3_CYCLES;
        let (p, q, k) = compiled(DIRECTED_3_CYCLES);
        let load = |edges: Vec<(VertexId, VertexId)>| {
            let input = GraphInput::directed(edges);
            ClusterGraph::load_with_obs(&input, 1, 1 << 20, 4096, &Recorder::disabled())
        };
        let mut g = load(vec![(0, 1), (1, 2), (1, 2)]);
        g.apply_batch(&MutationBatch::new(vec![EdgeMutation::insert(2, 0)]));
        let (mut compiled_paths, mut rooted_paths) = (0, 0);
        let delta_edges = p.delta_traverse.iter().zip(&p.kernels.rooted).filter(|(sq, _)| sq.delta_stream > 0);
        for (sq, rk) in delta_edges {
            let plain: i64 = walks(&g, &q, &k, sq.hop_bindings()).iter().map(|w| w.1).sum();
            compiled_paths += plain;
            rooted_paths += match (&sq.rooted, rk) {
                (Some(r), Some(rk)) => {
                    walks(&g, &r.query, rk, &r.bindings).iter().map(|w| w.1).sum()
                }
                _ => plain,
            };
        }
        assert_eq!((compiled_paths, rooted_paths), (2, 2));
        let fresh = load(vec![(0, 1), (1, 2), (1, 2), (2, 0)]);
        assert_eq!(walks(&fresh, &q, &k, &[Primed; 3]).iter().map(|w| w.1).sum::<i64>(), 2);
    }

    /// A `closes_to` set by hand on a shape that cannot intersect — the
    /// last hop joins u1 and u0, both bound before the penultimate hop —
    /// scans its last hop under its constraint, as without `closes_to`.
    #[test]
    fn a_close_that_cannot_intersect_scans() {
        let g = paper_graph(2);
        let eq = Expr::bin(BinOp::Eq, Expr::WalkVertex(3), Expr::WalkVertex(1));
        let hop = |constraint| HopSpec { source: 0, dir: EdgeDir::Both, constraint };
        let q = WalkQuery {
            hops: vec![hop(None), hop(None), hop(Some(eq))],
            closes_to: Some(1),
            ..tc_query()
        };
        let k = QueryKernels::compile(&q, &Schema::default()).unwrap();
        let scan = WalkQuery { closes_to: None, ..q.clone() };
        let got = walks(&g, &q, &k, &[Primed; 3]);
        // Σ deg(u0)² over the paper graph's degrees 2, 2, 2, 2, 2, 4, 1, 1.
        assert_eq!(got.len(), 38);
        assert_eq!(got, walks(&g, &scan, &k, &[Primed; 3]));
    }

    #[test]
    fn allowed_sets_prune_enumeration() {
        let g = paper_graph(1);
        let q = tc_query();
        let kernels = QueryKernels::compile(&q, &Schema::default()).unwrap();
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

    /// Run a vertex program's kernel over vertex `v`'s one-vertex walk and
    /// return its writes, `(attribute, bits)`.
    fn run_program(stmts: Vec<VStmt>, attrs: &[ColumnData], v: VertexId) -> Vec<(usize, u64)> {
        let input = GraphInput::undirected(vec![(0, 1)]);
        let g = ClusterGraph::load_with_obs(&input, 1, 1 << 16, 4096, &Recorder::disabled());
        let schema = Schema {
            columns: attrs.iter().map(|c| c.get(0).value_type()).collect(),
            globals: Vec::new(),
        };
        let k = VertexProgram { stmts }.kernel(&schema).unwrap();
        let (accm, deg_view, graph, local) = (&[][..], View::New, &g, v as usize);
        let row = WalkCtx { walk: &[v], attrs, accm, local, deg_view, graph };
        let mut frame = Frame::default();
        k.prime(&[], &mut frame);
        k.run(&row, &mut frame);
        k.writes(&frame).collect()
    }

    #[test]
    fn vertex_program_reads_its_writes() {
        // attrs: [active: bool, x: double]
        let attrs = vec![
            ColumnData::Bool(vec![false, false]),
            ColumnData::Double(vec![1.0, 2.0]),
        ];
        let x = Expr::Attr { pos: 0, attr: 1 };
        // u.x = u.x + 1; if (u.x > 1.5) { u.active = true; }
        let stmts = vec![
            VStmt::Assign { attr: 1, value: Expr::bin(BinOp::Add, x.clone(), Expr::lit_double(1.0)) },
            VStmt::If {
                cond: Expr::bin(BinOp::Gt, x, Expr::lit_double(1.5)),
                then_body: vec![VStmt::Assign { attr: 0, value: Expr::lit_bool(true) }],
                else_body: vec![],
            },
        ];
        // The If saw the *assigned* x (2.0 > 1.5), so active was set.
        assert_eq!(run_program(stmts, &attrs, 0), vec![(0, 1), (1, 2.0f64.to_bits())]);
    }

    #[test]
    fn vertex_program_reads_degree_and_num_vertices() {
        let attrs = vec![ColumnData::Long(vec![0, 0])];
        // u.x = u.degree + V
        let degree = Expr::Degree { pos: 0, dir: EdgeDir::Both };
        let value = Expr::bin(BinOp::Add, degree, Expr::NumVertices);
        assert_eq!(run_program(vec![VStmt::Assign { attr: 0, value }], &attrs, 1), vec![(0, 3)]);
    }
}
