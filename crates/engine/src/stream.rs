//! The Δ-stream builder: which walk tasks a superstep enumerates, and their
//! execution over the intra-partition worker pool.
//!
//! At snapshot 0 — and whenever a global must be re-derived — the stream is
//! a **full scan**: one all-`New` walk task per query from every active
//! vertex ([`Session::full_scan`]). At `t > 0` it is the **Rule ⑦
//! sub-queries** of the compiled `P_ΔQ` ([`Session::delta_scan`]): Δvs
//! tasks from the changed attribute images, one Δes task per hop — from
//! the Δ edges' sources over the rooted walk where the plan has one and
//! traversal reordering is on, else from the pruned batch endpoints. Both
//! fold their chunks by one rule ([`Session::parallel_enumerate`]), so the
//! result is independent of the thread count.
//!
//! Everything that is a function of the program — stream bindings, which
//! sub-query enumerates both start images, image independence, which action
//! values are start-invariant — is read off the compiled plan
//! (`itg explain` prints it). What is decided here depends on configuration
//! or data: whether pruning runs (`OptFlags`), which images of a start are
//! live, and the start lists.

use crate::accum::{AccBuffer, Accm, Emit, Run};
use crate::metrics::ParallelMetrics;
use crate::msbfs::{backward_msbfs, PruningLevels};
use crate::session::{QueryObs, Session};
use crate::walker::{WalkCtx, Walker};
use itg_compiler::{ActionTarget, DeltaSubQuery, RootedWalk};
use itg_gsa::kernel::{with_frame, Kernel};
use itg_gsa::plan::StreamVersion;
use itg_gsa::value::ColumnData;
use itg_gsa::{FxHashSet, VertexId};
use itg_store::View;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

thread_local! {
    /// One start's start-invariant action values, by action index: a
    /// value, or on the Δvs pair path a changed `(old, new)` pair (`None`
    /// where unchanged). Reused from start to start, so a start allocates
    /// nothing once warm.
    static START_VALUES: Cell<Vec<Option<Emit>>> = const { Cell::new(Vec::new()) };
}

/// The recompute pass's restriction to one vertex accumulator's targets.
type Filter<'a> = Option<(usize, &'a FxHashSet<VertexId>)>;

/// The walks one action fires on: a complete walk, or a scatter query's
/// one-hop walks to each `(d, m)` of a start's neighbour run.
#[derive(Clone, Copy)]
enum Walks<'a> {
    One(&'a [VertexId]),
    Run(&'a [(VertexId, i64)]),
}

/// The one walk sink every walk mode fires through: fold `e` for `walks`
/// at multiplicity `mult` into the lane of `target` — a vertex
/// accumulator's cell at the walk's target, a global's cell 0 — keeping,
/// under the recompute pass's `filter`, only that accumulator's listed
/// targets. Returns the contributions folded, two per walk for a pair.
/// Out of line: inlined into the walker's sink, it made `tc-stream`'s
/// refresh ~14 % slower (median of 8 pairs, seed 61, 2-core host).
#[inline(never)]
fn fire(
    buffer: &mut AccBuffer,
    target: &ActionTarget,
    walks: Walks<'_>,
    e: Emit,
    mult: i64,
    filter: Filter<'_>,
) -> u64 {
    let (accm, pos) = match *target {
        ActionTarget::VertexAccm { pos, accm } => (Accm::Vertex(accm), pos),
        // A global folds every walk into its cell 0, whatever the id.
        ActionTarget::Global(g) => (Accm::Global(g), 0),
    };
    let keep = match filter {
        None => None,
        Some((a, set)) if accm == Accm::Vertex(a) => Some(set),
        // The recompute pass re-derives one vertex accumulator.
        Some(_) => return 0,
    };
    let per_walk = if let Emit::Pair(..) = e { 2 } else { 1 };
    match walks {
        Walks::One(walk) if keep.is_some_and(|k| !k.contains(&walk[pos])) => 0,
        Walks::One(walk) => {
            buffer.add(accm, walk[pos], e, mult);
            per_walk
        }
        Walks::Run(run) => buffer.scatter(accm, run, mult, e, keep) * per_walk,
    }
}

/// Statistics of one intra-partition enumeration phase (one
/// [`Session::parallel_enumerate`] call): how many chunks the work list
/// split into and how many items each worker thread ended up executing.
pub(crate) struct PhaseStats {
    /// Starts the phase enumerated from: the active vertices of a full
    /// scan, every Rule ⑦ sub-query's start list of a Δ scan — the run's
    /// `work_units`.
    seeds: u64,
    chunks: u64,
    per_worker_units: Vec<u64>,
    /// Per-worker wall nanoseconds; all zero when the session's recorder
    /// is disabled (the clock is never read).
    per_worker_ns: Vec<u64>,
}

/// `f(0), …, f(n - 1)` in index order — inline on one thread, else each
/// on its own scoped thread.
fn scoped_map<R: Send>(threads: usize, n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let f = &f;
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..n).map(|i| scope.spawn(move |_| f(i))).collect();
        let joined = handles.into_iter().map(|h| h.join());
        joined.map(|r| r.expect("enumeration thread panicked")).collect()
    })
    .expect("enumeration scope panicked")
}

/// Whether row `local` of an attribute image is active (column 0 is the
/// pre-defined `active` flag).
pub(crate) fn is_active(attrs: &[ColumnData], local: usize) -> bool {
    matches!(&attrs[0], ColumnData::Bool(active) if active[local])
}

impl Session {
    /// Machine `w`'s `active` column in the current image.
    fn active_column(&self, w: usize) -> &[bool] {
        let ColumnData::Bool(active) = &self.parts[w].cur_attrs[0] else {
            panic!("active column must be bool");
        };
        active
    }

    /// Machine `w`'s active frontier in the current image, ascending.
    pub(crate) fn active_vertices(&self, w: usize) -> Vec<VertexId> {
        self.graph
            .local_vertices(w)
            .zip(self.active_column(w))
            .filter_map(|(v, &a)| a.then_some(v))
            .collect()
    }

    /// The size of machine `w`'s active frontier.
    pub(crate) fn active_count(&self, w: usize) -> usize {
        self.active_column(w).iter().filter(|&&a| a).count()
    }

    /// Run one Δ-stream over every owned machine (on parallel partition
    /// threads when configured), fold each phase's scheduling statistics
    /// into `par`, and return the per-sender buffers plus the seed total.
    pub(crate) fn traverse(
        &self,
        par: &mut ParallelMetrics,
        stream: impl Fn(&Session, usize) -> (AccBuffer, PhaseStats) + Sync,
    ) -> (Vec<(usize, AccBuffer)>, u64) {
        let owned: Vec<usize> = self.owned.clone().collect();
        let threads = if self.cfg.parallel { owned.len() } else { 1 };
        let phases = scoped_map(threads, owned.len(), |i| stream(self, owned[i]));
        let mut seeds = 0;
        let buffers = owned
            .iter()
            .zip(phases)
            .map(|(&w, (buf, stats))| {
                par.record_phase(stats.chunks, &stats.per_worker_units, &stats.per_worker_ns);
                seeds += stats.seeds;
                (w, buf)
            })
            .collect();
        (buffers, seeds)
    }

    /// One full-scan walk task: query `qi` from `start` over the current
    /// image and graph (`full_scan`), multiplicity +1, no pruning.
    /// `target_filter` restricts one accumulator's targets (the
    /// monoid-recompute pass).
    pub(crate) fn enumerate_current(
        &self,
        w: usize,
        qi: usize,
        start: VertexId,
        buffer: &mut AccBuffer,
        target_filter: Filter<'_>,
        qobs: Option<&QueryObs>,
    ) {
        self.enumerate_query(
            w,
            qi,
            start,
            1,
            &self.program.traverse.queries[qi].full_scan,
            &[],
            &self.parts[w].cur_attrs,
            self.graph.local_index(start),
            View::New,
            buffer,
            target_filter,
            qobs,
        );
    }

    /// The full-scan Δ-stream on machine `w`: every query from every
    /// active vertex. Serves snapshot 0, where the whole graph is the
    /// delta, and the global-recompute pass of later snapshots.
    pub(crate) fn full_scan(&self, w: usize) -> (AccBuffer, PhaseStats) {
        let actives = self.active_vertices(w);
        if self.obs.enabled {
            for qo in &self.obs.oneshot {
                qo.starts.add(actives.len() as u64);
            }
        }
        let (buffer, mut stats) = self.parallel_enumerate(&actives, |&v, buffer| {
            for (qi, qo) in self.obs.oneshot.iter().enumerate() {
                self.enumerate_current(w, qi, v, buffer, None, Some(qo));
            }
        });
        stats.seeds = actives.len() as u64;
        (buffer, stats)
    }

    /// Chunk length for intra-partition enumeration: a function of the
    /// work-list length alone — never the thread count — so the chunk
    /// decomposition, and with it the merged result, is identical for every
    /// `threads_per_machine`. Small lists stay in one chunk; large lists
    /// split into ~64 chunks for scheduling granularity, capped at the
    /// window capacity to preserve enumeration locality.
    fn par_chunk_size(&self, total: usize) -> usize {
        let hi = self.cfg.window_capacity.max(16);
        (total / 64).clamp(16, hi)
    }

    /// A pooled contribution buffer with room for every vertex id.
    pub(crate) fn scratch_buffer(&self) -> AccBuffer {
        self.buffers.take(self.graph.num_vertices())
    }

    /// Run `run` over every item of a per-partition work list, chunked
    /// across up to `threads_per_machine` worker threads that claim chunks
    /// from a shared counter.
    ///
    /// Determinism: chunk boundaries come from [`Session::par_chunk_size`]
    /// (a function of `items.len()` only), so the chunks, and with them the
    /// [`PhaseStats`] chunk count, are the same for every thread count;
    /// only the per-worker scheduling statistics vary. How a worker's cells
    /// reach the phase's buffer depends on the program's lanes:
    ///
    /// - some lane is inexact (an IEEE SUM or PROD): each worker folds a
    ///   chunk into its own pooled [`AccBuffer`] and hands the chunk's
    ///   cells over as a [`Run`]; the runs fold in chunk-index order, so
    ///   every float fold keeps one association whatever the thread count —
    ///   including 1, which executes the same chunks inline;
    /// - every lane is exact ([`BufferPool::exact`](crate::accum::BufferPool::exact)):
    ///   a worker folds every chunk it claims into one buffer and hands
    ///   over at most one run, folded in worker order. One worker folds
    ///   straight into the phase's buffer and hands over nothing.
    fn parallel_enumerate<T: Sync>(
        &self,
        items: &[T],
        run: impl Fn(&T, &mut AccBuffer) + Sync,
    ) -> (AccBuffer, PhaseStats) {
        let mut phase = self.scratch_buffer();
        if items.is_empty() {
            return (
                phase,
                PhaseStats {
                    seeds: 0,
                    chunks: 0,
                    per_worker_units: vec![0],
                    per_worker_ns: vec![0],
                },
            );
        }
        let chunk_len = self.par_chunk_size(items.len());
        let chunks: Vec<&[T]> = items.chunks(chunk_len).collect();
        let threads = self.cfg.threads_per_machine.max(1).min(chunks.len());
        let (timed, in_place) = (self.obs.enabled, self.buffers.exact());
        let next = AtomicUsize::new(0);
        // One worker: claim chunks off the shared counter until none are
        // left, folding into `buf`. Returns (indexed runs, items processed,
        // wall ns); in place, the runs are left to the caller.
        type WorkerResult = (Vec<(usize, Run)>, u64, u64);
        let worker = |buf: &mut AccBuffer| -> WorkerResult {
            let t0 = timed.then(Instant::now);
            let mut produced: Vec<(usize, Run)> = Vec::new();
            let mut units = 0u64;
            loop {
                let ci = next.fetch_add(1, Ordering::Relaxed);
                if ci >= chunks.len() {
                    break;
                }
                for item in chunks[ci] {
                    run(item, buf);
                }
                units += chunks[ci].len() as u64;
                if !in_place {
                    produced.push((ci, buf.take_run()));
                }
            }
            let ns = t0.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0);
            (produced, units, ns)
        };
        let results: Vec<WorkerResult> = if in_place && threads == 1 {
            vec![worker(&mut phase)]
        } else {
            scoped_map(threads, threads, |wi| {
                let mut buf = self.scratch_buffer();
                let (mut produced, units, ns) = worker(&mut buf);
                if in_place && units > 0 {
                    produced.push((wi, buf.take_run()));
                }
                self.buffers.put(buf);
                (produced, units, ns)
            })
        };
        let mut per_worker_units = vec![0u64; threads];
        let mut per_worker_ns = vec![0u64; threads];
        let mut runs: Vec<(usize, Run)> = Vec::new();
        for (wi, (produced, units, ns)) in results.into_iter().enumerate() {
            per_worker_units[wi] = units;
            per_worker_ns[wi] = ns;
            runs.extend(produced);
        }
        phase.fold_runs(runs);
        (
            phase,
            PhaseStats {
                seeds: 0,
                chunks: chunks.len() as u64,
                per_worker_units,
                per_worker_ns,
            },
        )
    }

    /// Run query `qi` from one start vertex, feeding actions into
    /// `buffer`. `target_filter` restricts a specific accumulator's targets
    /// (the recompute path).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn enumerate_query(
        &self,
        w: usize,
        qi: usize,
        start: VertexId,
        start_mult: i64,
        bindings: &[StreamVersion],
        allowed: &[Option<&FxHashSet<VertexId>>],
        attrs: &[ColumnData],
        local: usize,
        deg_view: View,
        buffer: &mut AccBuffer,
        target_filter: Filter<'_>,
        qobs: Option<&QueryObs>,
    ) {
        if !self.passes_start_filter(qi, start, attrs, local, deg_view) {
            return;
        }
        let (q, kernels) = (&self.program.traverse.queries[qi], &self.program.kernels.queries[qi]);
        let walker = Walker {
            graph: &self.graph,
            worker: w,
            query: q,
            kernels,
            bindings,
            allowed,
            attrs,
            local,
            deg_view,
            obs: qobs.map(|o| &o.spans),
        };
        if q.scatter {
            let contribs = self.scatter(&walker, start, start_mult, buffer, target_filter);
            if let Some(o) = qobs.filter(|_| contribs > 0) {
                o.contribs.add(contribs);
            }
            return;
        }
        // Start-invariant action values (the plan marks them; after
        // incrementalization attribute reads are position-0-only) are
        // evaluated at most once per enumeration instead of once per
        // completed walk. The cache is lazy, so a start with no complete
        // walks evaluates nothing.
        let mut cache = START_VALUES.with(Cell::take);
        cache.clear();
        cache.resize(q.actions.len(), None);
        let mut contribs = 0u64;
        walker.enumerate(start, start_mult, &mut |ai, walk, mult, ctx, frame| {
            let action = &q.actions[ai];
            let mut evaluate = || Emit::One(kernels.values[ai].cell_bits(ctx, frame));
            let e = if action.start_invariant {
                *cache[ai].get_or_insert_with(evaluate)
            } else {
                evaluate()
            };
            contribs += fire(buffer, &action.target, Walks::One(walk), e, mult, target_filter);
        });
        START_VALUES.with(|c| c.set(cache));
        if let Some(o) = qobs {
            if contribs > 0 {
                o.contribs.add(contribs);
            }
        }
    }

    /// A scatter query's walks from `start`
    /// ([`itg_compiler::WalkQuery::scatter`]): each action's value,
    /// evaluated once, folded over the whole neighbour run by one lane call.
    /// `target_filter` keeps one accumulator's targets (the recompute
    /// pass). Returns the contributions emitted.
    fn scatter(
        &self,
        walker: &Walker<'_>,
        start: VertexId,
        start_mult: i64,
        buffer: &mut AccBuffer,
        target_filter: Filter<'_>,
    ) -> u64 {
        let mut contribs = 0;
        walker.scatter(start, |run| {
            let walk = [start];
            let ctx = self.image_ctx(&walk, walker.attrs, walker.local, walker.deg_view);
            with_frame(|frame| {
                for (ai, action) in walker.query.actions.iter().enumerate() {
                    let e = Emit::One(walker.kernels.values[ai].cell_bits(&ctx, frame));
                    let walks = Walks::Run(run);
                    contribs += fire(buffer, &action.target, walks, e, start_mult, target_filter);
                }
            })
        });
        contribs
    }

    /// Sub-query `sq`'s walk re-rooted at its Δ hop, when it has one and
    /// traversal reordering is on.
    fn rooted<'a>(&self, sq: &'a DeltaSubQuery) -> Option<&'a RootedWalk> {
        sq.rooted.as_ref().filter(|_| self.cfg.opts.traversal_reorder)
    }

    /// Backward MS-BFS levels per delta sub-query (edge-delta ones only,
    /// and not those that run rooted).
    pub(crate) fn compute_pruning(&self) -> Vec<Option<PruningLevels>> {
        self.program
            .delta_traverse
            .iter()
            .map(|sq| {
                let prunes = self.cfg.opts.traversal_reorder || self.cfg.opts.neighbor_prune;
                let prunes = prunes && self.rooted(sq).is_none();
                let q = &self.program.traverse.queries[sq.query];
                let hop = &q.hops[sq.delta_hop().filter(|_| prunes)?];
                // Seeds: delta edge sources along the hop's direction.
                let mut seeds = FxHashSet::default();
                self.graph.for_each_delta_edge(hop.dir, |src, _dst, _m| {
                    seeds.insert(src);
                });
                Some(backward_msbfs(&self.graph, q, &sq.pruning_path, seeds))
            })
            .collect()
    }

    /// ΔTraverse for one worker: all Rule ⑦ sub-queries, batched per start
    /// vertex when seek/window sharing is enabled, chunked across the
    /// intra-partition worker pool either way.
    pub(crate) fn delta_scan(
        &self,
        w: usize,
        pruning: &[Option<PruningLevels>],
    ) -> (AccBuffer, PhaseStats) {
        // Per-sub-query start lists, each ascending.
        let lists: Vec<Vec<VertexId>> = (self.program.delta_traverse.iter().enumerate())
            .map(|(i, sq)| {
                let starts = self.subquery_starts(w, sq, pruning[i].as_ref());
                if self.obs.enabled {
                    self.obs.delta[i].starts.add(starts.len() as u64);
                }
                starts
            })
            .collect();
        let seeds = lists.iter().map(|s| s.len() as u64).sum();
        // The pruning-allowed sets are a function of the sub-query and the
        // phase's pruning levels, not the start vertex: build them once per
        // phase, not once per start.
        let allowed: Vec<Vec<Option<&FxHashSet<VertexId>>>> = self
            .program
            .delta_traverse
            .iter()
            .enumerate()
            .map(|(i, sq)| {
                let p = pruning[i].as_ref().filter(|_| self.cfg.opts.neighbor_prune);
                let Some(p) = p else { return Vec::new() };
                let k = self.program.traverse.queries[sq.query].hops.len();
                let mut sets: Vec<Option<&FxHashSet<VertexId>>> = vec![None; k];
                for (pi, &hop_idx) in sq.pruning_path.iter().enumerate() {
                    sets[hop_idx] = Some(p.allowed_for_path_hop(pi));
                }
                sets
            })
            .collect();
        let (buffer, mut stats) = if self.cfg.opts.seek_window_share {
            // Interleave: iterate the union of starts in order, running
            // every relevant sub-query while the start's neighborhood is
            // hot in the buffer pool. Chunking by start vertex keeps each
            // start's sub-queries on one worker, preserving the sharing.
            let (items, sqs) = merge_starts(&lists);
            self.parallel_enumerate(&items, |&(v, lo, hi), buffer| {
                for &i in &sqs[lo as usize..hi as usize] {
                    let i = i as usize;
                    self.run_subquery(w, i, v, &allowed[i], buffer);
                }
            })
        } else {
            let items: Vec<(usize, VertexId)> = (lists.iter().enumerate())
                .flat_map(|(i, starts)| starts.iter().map(move |&v| (i, v)))
                .collect();
            self.parallel_enumerate(&items, |&(i, v), buffer| {
                self.run_subquery(w, i, v, &allowed[i], buffer);
            })
        };
        stats.seeds = seeds;
        (buffer, stats)
    }

    /// The start-vertex list of one sub-query on one worker.
    fn subquery_starts(
        &self,
        w: usize,
        sq: &DeltaSubQuery,
        pruning: Option<&PruningLevels>,
    ) -> Vec<VertexId> {
        let part = &self.parts[w];
        if sq.dual_images {
            // Δvs: changed attribute images (plus degree changes when the
            // program reads degrees).
            let mut starts: Vec<VertexId> = part.changed.clone();
            if self.program.analysis.traverse_reads_degree {
                starts.extend(part.degree_changed.iter().copied());
            }
            starts.sort_unstable();
            starts.dedup();
            starts
        } else if let Some(r) = self.rooted(sq) {
            // Rooted: the Δ edges' sources along the Δ hop. A start that is
            // the origin is taken where it lives, if active; otherwise every
            // machine takes every source and keeps a walk where its origin
            // lives.
            let mut starts = Vec::new();
            self.graph.for_each_delta_edge(r.query.hops[0].dir, |src, _, _| starts.push(src));
            if r.origin == 0 {
                starts.retain(|&v| {
                    self.graph.owner(v) == w
                        && is_active(&part.cur_attrs, self.graph.local_index(v))
                });
            }
            starts.sort_unstable();
            starts.dedup();
            starts
        } else if self.cfg.opts.traversal_reorder || self.cfg.opts.neighbor_prune {
            let candidates = pruning.expect("pruning computed").start_candidates();
            let mut starts: Vec<VertexId> = candidates
                .iter()
                .copied()
                .filter(|&v| {
                    self.graph.owner(v) == w
                        && is_active(&part.cur_attrs, self.graph.local_index(v))
                })
                .collect();
            starts.sort_unstable();
            starts
        } else {
            // BASE: every active vertex re-enumerates against the delta.
            self.active_vertices(w)
        }
    }

    /// Execute one sub-query from one start vertex. `allowed` is the
    /// per-sub-query pattern precomputed by [`Self::delta_scan`] (it does
    /// not depend on the start).
    fn run_subquery(
        &self,
        w: usize,
        sq_idx: usize,
        start: VertexId,
        allowed: &[Option<&FxHashSet<VertexId>>],
        buffer: &mut AccBuffer,
    ) {
        let sq = &self.program.delta_traverse[sq_idx];
        if let Some(r) = self.rooted(sq) {
            return self.run_rooted(w, sq_idx, r, start, buffer);
        }
        let (qi, q) = (sq.query, &self.program.traverse.queries[sq.query]);
        let kernels = &self.program.kernels.queries[qi];
        let bindings = sq.hop_bindings();
        let part = &self.parts[w];
        let local = self.graph.local_index(start);
        let qobs = &self.obs.delta[sq_idx];
        // Which images of the start vertex enumerate. ω(Δvs, es, …) runs
        // both over old edges — the old image retracting, the new one
        // inserting; a Δes sub-query runs the new image only.
        let (old_ok, new_ok) = if sq.dual_images {
            (
                (start as usize) < self.graph.num_vertices_old()
                    && is_active(&part.prev_attrs, local)
                    && self.passes_start_filter(qi, start, &part.prev_attrs, local, View::Old),
                is_active(&part.cur_attrs, local)
                    && self.passes_start_filter(qi, start, &part.cur_attrs, local, View::New),
            )
        } else {
            (false, true)
        };
        // Value-change-aware dual enumeration (paper §6.2.1: do not
        // perform computations if the value does not change): when both
        // images are live and the walk *shape* cannot depend on the
        // image, enumerate the shared walk set once and emit
        // contributions only where the old- and new-image values differ.
        if old_ok && new_ok && q.image_independent {
            // When every action's value depends only on the start vertex,
            // compare the old/new values once: if none changed, no walk
            // can contribute and the whole enumeration is skipped (typical
            // for the one-hop algorithms, where the integer truncation
            // kills most of the ripple here); otherwise each walk emits
            // the changed (old, new) pairs, `None` marking an unchanged
            // action.
            let invariant = q.actions.iter().all(|a| a.start_invariant);
            let mut pre = START_VALUES.with(Cell::take);
            pre.clear();
            if invariant {
                let walk = [start];
                let new_ctx = self.image_ctx(&walk, &part.cur_attrs, local, View::New);
                let old_ctx = self.image_ctx(&walk, &part.prev_attrs, local, View::Old);
                with_frame(|frame| {
                    let mut pair = |value: &Kernel| {
                        let o = value.cell_bits(&old_ctx, frame);
                        let n = value.cell_bits(&new_ctx, frame);
                        (o != n).then_some(Emit::Pair(o, n))
                    };
                    pre.extend(kernels.values.iter().map(&mut pair));
                });
            }
            if !invariant || pre.iter().any(Option::is_some) {
                let contribs = self.enumerate_pairs(w, sq_idx, start, allowed, &pre, buffer);
                if contribs > 0 {
                    qobs.contribs.add(contribs);
                }
            }
            START_VALUES.with(|c| c.set(pre));
            return;
        }
        if old_ok {
            self.enumerate_query(
                w, qi, start, -1, bindings, allowed, &part.prev_attrs, local,
                View::Old, buffer, None, Some(qobs),
            );
        }
        if new_ok {
            self.enumerate_query(
                w, qi, start, 1, bindings, allowed, &part.cur_attrs, local,
                View::New, buffer, None, Some(qobs),
            );
        }
    }

    /// The value-change-aware walks of Δvs sub-query `sq_idx` from a start
    /// both of whose images are live: each walk retracts its old value and
    /// inserts its new one where they differ. `pre` holds every action's
    /// changed [`Emit::Pair`] when all are start-invariant, else nothing.
    /// Returns the contributions emitted.
    fn enumerate_pairs(
        &self,
        w: usize,
        sq_idx: usize,
        start: VertexId,
        allowed: &[Option<&FxHashSet<VertexId>>],
        pre: &[Option<Emit>],
        buffer: &mut AccBuffer,
    ) -> u64 {
        let sq = &self.program.delta_traverse[sq_idx];
        let q = &self.program.traverse.queries[sq.query];
        let kernels = &self.program.kernels.queries[sq.query];
        let part = &self.parts[w];
        let local = self.graph.local_index(start);
        let walker = Walker {
            graph: &self.graph,
            worker: w,
            query: q,
            kernels,
            bindings: sq.hop_bindings(),
            allowed,
            attrs: &part.cur_attrs,
            local,
            deg_view: View::New,
            obs: Some(&self.obs.delta[sq_idx].spans),
        };
        let mut contribs = 0u64;
        if q.scatter {
            walker.scatter(start, |run| {
                for (action, e) in q.actions.iter().zip(pre) {
                    let Some(e) = *e else { continue };
                    contribs += fire(buffer, &action.target, Walks::Run(run), e, 1, None);
                }
            });
            return contribs;
        }
        walker.enumerate(start, 1, &mut |ai, walk, mult, new_ctx, frame| {
            // Action conds are image-independent here, so firing under
            // the new image implies firing under the old one. Each walk
            // retracts the old value and inserts the new one.
            let e = match pre.get(ai) {
                Some(Some(e)) => *e,
                Some(None) => return, // value unchanged: contributions cancel
                None => {
                    let old_ctx = self.image_ctx(walk, &part.prev_attrs, local, View::Old);
                    let value = &kernels.values[ai];
                    let old = value.cell_bits(&old_ctx, frame);
                    let new = value.cell_bits(new_ctx, frame);
                    if old == new {
                        return; // value unchanged: contributions cancel
                    }
                    Emit::Pair(old, new)
                }
            };
            contribs += fire(buffer, &q.actions[ai].target, Walks::One(walk), e, mult, None);
        });
        contribs
    }

    /// Execute one rooted sub-query from one Δ edge source: its walks read
    /// ids only, so they need no attribute image, and each counts on the
    /// machine that owns its origin — the original start — if that vertex
    /// is active, as the original sub-query's start list demanded.
    fn run_rooted(
        &self,
        w: usize,
        sq_idx: usize,
        r: &RootedWalk,
        start: VertexId,
        buffer: &mut AccBuffer,
    ) {
        let qobs = &self.obs.delta[sq_idx];
        let walker = Walker {
            graph: &self.graph,
            worker: w,
            query: &r.query,
            kernels: self.program.kernels.rooted[sq_idx].as_ref().expect("rooted kernels"),
            bindings: &r.bindings,
            allowed: &[],
            attrs: &[],
            local: 0,
            deg_view: View::New,
            obs: Some(&qobs.spans),
        };
        let active = &self.parts[w].cur_attrs;
        let mut contribs = 0u64;
        walker.enumerate(start, 1, &mut |ai, walk, mult, ctx, frame| {
            let origin = walk[r.origin];
            if self.graph.owner(origin) != w || !is_active(active, self.graph.local_index(origin)) {
                return;
            }
            let e = Emit::One(walker.kernels.values[ai].cell_bits(ctx, frame));
            contribs += fire(buffer, &r.query.actions[ai].target, Walks::One(walk), e, mult, None);
        });
        if contribs > 0 {
            qobs.contribs.add(contribs);
        }
    }

    /// The evaluation context of a walk from a start vertex at `local`,
    /// reading the attribute image `attrs` and the `deg_view` degrees.
    fn image_ctx<'a>(
        &'a self,
        walk: &'a [VertexId],
        attrs: &'a [ColumnData],
        local: usize,
        deg_view: View,
    ) -> WalkCtx<'a> {
        let (accm, graph) = (&[][..], &self.graph);
        WalkCtx { walk, attrs, accm, local, deg_view, graph }
    }

    /// Evaluate walk query `qi`'s start filter for one image.
    fn passes_start_filter(
        &self,
        qi: usize,
        start: VertexId,
        attrs: &[ColumnData],
        local: usize,
        deg_view: View,
    ) -> bool {
        let Some(f) = &self.program.kernels.queries[qi].start_filter else {
            return true;
        };
        let walk = [start];
        let ctx = self.image_ctx(&walk, attrs, local, deg_view);
        with_frame(|frame| f.test(&ctx, frame))
    }
}

/// The union of ascending start lists, ascending: each start with the
/// sub-queries that start there, in sub-query order (a start listed twice
/// runs twice), as `(start, lo, hi)` over the returned sub-query list.
fn merge_starts(lists: &[Vec<VertexId>]) -> (Vec<(VertexId, u32, u32)>, Vec<u32>) {
    let mut at = vec![0; lists.len()];
    let (mut items, mut sqs) = (Vec::new(), Vec::new());
    while let Some(&v) = lists.iter().zip(&at).filter_map(|(l, &p)| l.get(p)).min() {
        let lo = sqs.len() as u32;
        for (i, (list, p)) in lists.iter().zip(&mut at).enumerate() {
            while list.get(*p) == Some(&v) {
                sqs.push(i as u32);
                *p += 1;
            }
        }
        items.push((v, lo, sqs.len() as u32));
    }
    (items, sqs)
}
