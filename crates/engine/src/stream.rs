//! The Δ-stream builder: which walk tasks a superstep enumerates, and their
//! execution over the intra-partition worker pool.
//!
//! At snapshot 0 — and whenever a global must be re-derived — the stream is
//! a **full scan**: one all-`New` walk task per query from every active
//! vertex ([`Session::full_scan`]). At `t > 0` it is the **Rule ⑦
//! sub-queries** of the compiled `P_ΔQ` ([`Session::delta_scan`]): Δvs
//! tasks from the changed attribute images, one Δes task per hop from the
//! pruned batch endpoints. Both merge chunk buffers in chunk order, so the
//! result is independent of the thread count.
//!
//! Everything that is a function of the program — stream bindings, which
//! sub-query enumerates both start images, image independence, which action
//! values are start-invariant — is read off the compiled plan
//! (`itg explain` prints it). What is decided here depends on configuration
//! or data: whether pruning runs (`OptFlags`), which images of a start are
//! live, and the start lists.

use crate::accum::AccBuffer;
use crate::metrics::ParallelMetrics;
use crate::msbfs::{backward_msbfs, PruningLevels};
use crate::session::{QueryObs, Session};
use crate::walker::{WalkCtx, Walker};
use itg_compiler::{ActionTarget, DeltaSubQuery};
use itg_gsa::kernel::{with_frame, Compiled};
use itg_gsa::plan::StreamVersion;
use itg_gsa::value::{ColumnData, Value};
use itg_gsa::{FxHashSet, VertexId};
use itg_store::View;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

thread_local! {
    /// One start's start-invariant action values, by action index. Reused
    /// from start to start, so a start allocates nothing once warm.
    static START_VALUES: Cell<Vec<Option<Value>>> = const { Cell::new(Vec::new()) };
}

/// Statistics of one intra-partition enumeration phase (one
/// [`Session::parallel_enumerate`] call): how many chunks the work list
/// split into and how many items each worker thread ended up executing.
pub(crate) struct PhaseStats {
    /// Δ-stream seeds the phase started from (active vertices for a full
    /// scan, changed attribute images for a Rule ⑦ scan) — the run's
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
        target_filter: Option<(usize, &FxHashSet<VertexId>)>,
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

    /// Run `run` over every item of a per-partition work list, chunked
    /// across up to `threads_per_machine` worker threads, each accumulating
    /// into a thread-local [`AccBuffer`].
    ///
    /// Determinism: chunk boundaries come from [`Session::par_chunk_size`]
    /// (a function of `items.len()` only) and the chunk buffers merge in
    /// chunk-index order, so the returned buffer is byte-identical for any
    /// thread count — including 1, which executes the same chunks inline.
    /// Workers claim chunks from a shared counter (dynamic scheduling), so
    /// only the *scheduling* statistics in [`PhaseStats`] vary with the
    /// thread count, never the buffer.
    fn parallel_enumerate<T: Sync>(
        &self,
        items: &[T],
        run: impl Fn(&T, &mut AccBuffer) + Sync,
    ) -> (AccBuffer, PhaseStats) {
        if items.is_empty() {
            return (
                self.new_buffer(),
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
        let timed = self.obs.enabled;
        let next = AtomicUsize::new(0);
        // One worker: claim chunks off the shared counter until none are
        // left. Returns (chunk-indexed buffers, items processed, wall ns).
        type WorkerResult = (Vec<(usize, AccBuffer)>, u64, u64);
        let worker = || -> WorkerResult {
            let t0 = timed.then(Instant::now);
            let mut produced: Vec<(usize, AccBuffer)> = Vec::new();
            let mut units = 0u64;
            loop {
                let ci = next.fetch_add(1, Ordering::Relaxed);
                if ci >= chunks.len() {
                    break;
                }
                let mut buf = self.new_buffer();
                for item in chunks[ci] {
                    run(item, &mut buf);
                }
                units += chunks[ci].len() as u64;
                produced.push((ci, buf));
            }
            let ns = t0.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0);
            (produced, units, ns)
        };
        let results: Vec<WorkerResult> = scoped_map(threads, threads, |_| worker());
        let mut per_worker_units = vec![0u64; threads];
        let mut per_worker_ns = vec![0u64; threads];
        let mut buffers: Vec<(usize, AccBuffer)> = Vec::with_capacity(chunks.len());
        for (wi, (produced, units, ns)) in results.into_iter().enumerate() {
            per_worker_units[wi] = units;
            per_worker_ns[wi] = ns;
            buffers.extend(produced);
        }
        (
            AccBuffer::merge_chunks(buffers).expect("non-empty items produce chunks"),
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
        target_filter: Option<(usize, &FxHashSet<VertexId>)>,
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
            use_intersection: true,
            obs: qobs.map(|o| &o.spans),
        };
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
            let mut evaluate = || kernels.values[ai].value(ctx, frame);
            let owned;
            let value: &Value = if action.start_invariant {
                cache[ai].get_or_insert_with(evaluate)
            } else {
                owned = evaluate();
                &owned
            };
            match &action.target {
                ActionTarget::VertexAccm { pos, accm } => {
                    if let Some((fa, set)) = &target_filter {
                        if fa != accm || !set.contains(&walk[*pos]) {
                            return;
                        }
                    }
                    buffer.add_vertex(*accm, walk[*pos], value, mult);
                    contribs += 1;
                }
                ActionTarget::Global(g) => {
                    if target_filter.is_some() {
                        return;
                    }
                    buffer.add_global(*g, value, mult);
                    contribs += 1;
                }
            }
        });
        START_VALUES.with(|c| c.set(cache));
        if let Some(o) = qobs {
            if contribs > 0 {
                o.contribs.add(contribs);
            }
        }
    }

    /// Backward MS-BFS levels per delta sub-query (edge-delta ones only).
    pub(crate) fn compute_pruning(&self) -> Vec<Option<PruningLevels>> {
        self.program
            .delta_traverse
            .iter()
            .map(|sq| {
                let prunes = self.cfg.opts.traversal_reorder || self.cfg.opts.neighbor_prune;
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
        // Build per-sub-query start lists.
        let mut tasks: Vec<(usize, Vec<VertexId>)> = Vec::new();
        for (i, sq) in self.program.delta_traverse.iter().enumerate() {
            let starts = self.subquery_starts(w, sq, pruning[i].as_ref());
            if self.obs.enabled {
                self.obs.delta[i].starts.add(starts.len() as u64);
            }
            if !starts.is_empty() {
                tasks.push((i, starts));
            }
        }
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
            let mut by_start: std::collections::BTreeMap<VertexId, Vec<usize>> =
                std::collections::BTreeMap::new();
            for (i, starts) in &tasks {
                for &v in starts {
                    by_start.entry(v).or_default().push(*i);
                }
            }
            let items: Vec<(VertexId, Vec<usize>)> = by_start.into_iter().collect();
            self.parallel_enumerate(&items, |(v, sqs), buffer| {
                for &i in sqs {
                    self.run_subquery(w, i, *v, &allowed[i], buffer);
                }
            })
        } else {
            let items: Vec<(usize, VertexId)> = tasks
                .into_iter()
                .flat_map(|(i, starts)| starts.into_iter().map(move |v| (i, v)))
                .collect();
            self.parallel_enumerate(&items, |&(i, v), buffer| {
                self.run_subquery(w, i, v, &allowed[i], buffer);
            })
        };
        stats.seeds = self.parts[w].changed.len() as u64;
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
            let pre: Option<Vec<Option<(Value, Value)>>> =
                q.actions.iter().all(|a| a.start_invariant).then(|| {
                    let walk = [start];
                    let new_ctx = self.image_ctx(&walk, &part.cur_attrs, local, View::New);
                    let old_ctx = self.image_ctx(&walk, &part.prev_attrs, local, View::Old);
                    with_frame(|frame| {
                        let mut pair = |value: &Compiled| {
                            let o = value.value(&old_ctx, frame);
                            let n = value.value(&new_ctx, frame);
                            (o != n).then_some((o, n))
                        };
                        kernels.values.iter().map(&mut pair).collect()
                    })
                });
            if pre.as_ref().is_some_and(|vals| vals.iter().all(Option::is_none)) {
                return;
            }
            let walker = Walker {
                graph: &self.graph,
                worker: w,
                query: q,
                kernels,
                bindings,
                allowed,
                attrs: &part.cur_attrs,
                local,
                deg_view: View::New,
                use_intersection: true,
                obs: Some(&qobs.spans),
            };
            let mut contribs = 0u64;
            walker.enumerate(start, 1, &mut |ai, walk, mult, new_ctx, frame| {
                let action = &q.actions[ai];
                // Action conds are image-independent here, so firing under
                // the new image implies firing under the old one.
                let evaluated;
                let (old_val, new_val) = match &pre {
                    Some(pre) => match &pre[ai] {
                        Some(pair) => pair,
                        None => return, // value unchanged: contributions cancel
                    },
                    None => {
                        let old_ctx = self.image_ctx(walk, &part.prev_attrs, local, View::Old);
                        let value = &kernels.values[ai];
                        evaluated = (value.value(&old_ctx, frame), value.value(new_ctx, frame));
                        if evaluated.0 == evaluated.1 {
                            return; // value unchanged: contributions cancel
                        }
                        &evaluated
                    }
                };
                // Retract the old value, insert the new one; on a vertex
                // target with one map lookup for both.
                match &action.target {
                    ActionTarget::VertexAccm { pos, accm } => {
                        buffer.add_vertex_pair(*accm, walk[*pos], old_val, new_val, mult);
                    }
                    ActionTarget::Global(g) => {
                        buffer.add_global(*g, old_val, -mult);
                        buffer.add_global(*g, new_val, mult);
                    }
                }
                contribs += 2;
            });
            if contribs > 0 {
                qobs.contribs.add(contribs);
            }
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

    /// The evaluation context of a walk from a start vertex at `local`,
    /// reading the attribute image `attrs` and the `deg_view` degrees.
    fn image_ctx<'a>(
        &'a self,
        walk: &'a [VertexId],
        attrs: &'a [ColumnData],
        local: usize,
        deg_view: View,
    ) -> WalkCtx<'a> {
        let (accm, globals, graph) = (&[][..], &[][..], &self.graph);
        WalkCtx { walk, attrs, accm, globals, local, deg_view, graph }
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
