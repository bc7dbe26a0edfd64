//! The superstep driver (DESIGN.md §4.2–§4.3): the one place the BSP
//! schedule is written. The Local and Worker planes both run it; every
//! cross-rank agreement in it is one [`Session::sync`] round, which the
//! Local plane answers with its own part and a coordinator hub answers for
//! a worker fleet — the hub runs no schedule (`coordinator.rs`).
//!
//! `P_Q` and `P_ΔQ` are the same BSP schedule — vote → advance → traverse
//! → exchange → apply → recompute-union → record → settle-globals → update
//! — and a one-shot run is snapshot `t = 0` of it: the previous image is
//! the identity/Initialize image, there are no previous globals, and the
//! previous snapshot ran zero supersteps. What differs is the three
//! functions of a [`RunPlan`], picked once per run: **setup**, **the
//! Δ-stream**, and **the Update diff baseline**.

use crate::accum::{settle_rules, AccBuffer, Contribution, Outcome, Row};
use crate::exchange::{fold_global_deltas, sorted, total_active, union_recompute, ExchangeInbox};
use crate::metrics::{ParallelMetrics, RunKind, RunMetrics};
use crate::msbfs::PruningLevels;
use crate::session::{EngineError, Session, SessionObs};
use crate::stream::PhaseStats;
use crate::vexec::{execute, VertexCtx};
use crate::walker::WalkCtx;
use crate::wire::Part;
use itg_gsa::kernel::Frame;
use itg_gsa::value::{ColumnData, Value};
use itg_gsa::{FxHashSet, VertexId};
use itg_store::wal::WalEntry;
use itg_store::{AttrStore, View, WindowBase};
use std::time::Instant;

/// The per-run half of the driver: what `P_Q` and `P_ΔQ` do differently.
pub(crate) trait RunPlan: Sized + Sync {
    const KIND: RunKind;

    /// Bring every owned partition's attribute image to superstep 0 of
    /// snapshot `t`, running Initialize on the rows that need it.
    fn setup(sess: &mut Session, t: usize);

    /// Open the run's Δ-stream (under the `run/pruning` span).
    fn open(sess: &Session) -> Self;

    /// The Δ-stream: enumerate machine `w`'s walk tasks for the current
    /// superstep into a contribution buffer.
    fn scan(&self, sess: &Session, w: usize) -> (AccBuffer, PhaseStats);

    /// The Update diff baseline on machine `w` for superstep `s`: the rows
    /// (ascending) whose next image must be re-derived, and the image every
    /// other row takes — the one [`Session::update_rows`] diffs against.
    fn baseline(
        sess: &mut Session,
        w: usize,
        at: (usize, usize),
        changed_accm: &FxHashSet<VertexId>,
        globals_changed: bool,
    ) -> (Vec<VertexId>, Vec<ColumnData>);
}

/// `P_Q`: every row is new, the whole graph is the delta, and there is no
/// previous snapshot to diff against — Update is diffed along `s`.
pub(crate) struct FromScratch;

/// `P_ΔQ`: new vertices are initialized, the Δ-stream is the compiled
/// Rule ⑦ sub-queries over the latest batch, and Update is diffed along
/// `t` against `A_{t-1,s+1}`.
pub(crate) struct Refresh {
    /// Backward MS-BFS levels per Δes sub-query, fixed for the snapshot.
    pruning: Vec<Option<PruningLevels>>,
}

impl RunPlan for FromScratch {
    const KIND: RunKind = RunKind::OneShot;

    fn setup(sess: &mut Session, _t: usize) {
        for w in sess.owned.clone() {
            let n_local = sess.parts[w].n_local;
            let types = sess.parts[w].attr_store.col_types();
            let mut cols: Vec<ColumnData> = types
                .iter()
                .map(|&t| ColumnData::zeros(t, n_local))
                .collect();
            let all: Vec<VertexId> = sess.graph.local_vertices(w).collect();
            sess.initialize_rows(&mut cols, &all);
            let part = &mut sess.parts[w];
            part.attr_store.set_init(cols.clone());
            part.cur_attrs = cols;
            // Even zero supersteps leave the identity accumulator image.
            part.cur_accm = sess.layout.identity_columns(n_local);
        }
    }

    fn open(_sess: &Session) -> FromScratch {
        FromScratch
    }

    fn scan(&self, sess: &Session, w: usize) -> (AccBuffer, PhaseStats) {
        sess.full_scan(w)
    }

    /// Along `s`: the baseline is `A_{0,s}` itself, and only a row that
    /// received a contribution or was active (and so deactivates) can leave
    /// it.
    fn baseline(
        sess: &mut Session,
        w: usize,
        _at: (usize, usize),
        changed_accm: &FxHashSet<VertexId>,
        _globals_changed: bool,
    ) -> (Vec<VertexId>, Vec<ColumnData>) {
        let mut rows = sess.active_vertices(w);
        rows.extend(changed_accm);
        rows.sort_unstable();
        rows.dedup();
        (rows, sess.parts[w].cur_attrs.clone())
    }
}

impl RunPlan for Refresh {
    const KIND: RunKind = RunKind::Incremental;

    /// `prev = A_{t-1,0}`; `cur = prev` plus Initialize for the vertices
    /// the batch created, which seed the Δvs stream.
    fn setup(sess: &mut Session, t: usize) {
        let n_old = sess.graph.num_vertices_old();
        for w in sess.owned.clone() {
            sess.window_loads += 1;
            let prev = sess.parts[w]
                .attr_store
                .load_window_before(0, t, WindowBase::Init);
            let mut cur = prev.clone();
            let new_rows: Vec<VertexId> = sess
                .graph
                .local_vertices(w)
                .filter(|&v| (v as usize) >= n_old)
                .collect();
            sess.initialize_rows(&mut cur, &new_rows);
            let part = &mut sess.parts[w];
            record_rows(&sess.graph, &mut part.attr_store, &cur, (t, 0), &new_rows);
            part.changed = new_rows;
            part.prev_attrs = prev;
            part.cur_attrs = cur;
        }
    }

    fn open(sess: &Session) -> Refresh {
        Refresh {
            pruning: sess.compute_pruning(),
        }
    }

    fn scan(&self, sess: &Session, w: usize) -> (AccBuffer, PhaseStats) {
        sess.delta_scan(w, &self.pruning)
    }

    /// Along `t`: the baseline is `A_{t-1,s+1}` — rows outside the trigger
    /// set provably repeat the previous snapshot's next-superstep values.
    fn baseline(
        sess: &mut Session,
        w: usize,
        (t, s): (usize, usize),
        changed_accm: &FxHashSet<VertexId>,
        globals_changed: bool,
    ) -> (Vec<VertexId>, Vec<ColumnData>) {
        let analysis = sess.program.analysis;
        let part = &mut sess.parts[w];
        part.attr_store
            .load_superstep_before(s + 1, t, &mut part.prev_attrs);
        let part = &sess.parts[w];
        let touched = |l: usize| {
            sess.layout.touched(&part.cur_accm, l) || sess.layout.touched(&part.prev_accm, l)
        };
        let mut trigger: FxHashSet<VertexId> = part.changed.iter().copied().collect();
        trigger.extend(changed_accm);
        if globals_changed && analysis.update_reads_globals {
            let rows = sess.graph.local_vertices(w).enumerate();
            trigger.extend(rows.filter(|&(l, _)| touched(l)).map(|(_, v)| v));
        }
        if analysis.update_reads_degree {
            let rows = part.degree_changed.iter().copied();
            trigger.extend(rows.filter(|&v| touched(sess.graph.local_index(v))));
        }
        (sorted(trigger), part.prev_attrs.clone())
    }
}

/// Record the after-images of `rows` (ascending global ids) at `(t, s)`.
/// Snapshot 0 lays down a run for every superstep it executes, even an
/// empty one — the chain's base; later snapshots record only what moved.
fn record_rows(
    graph: &crate::graph::ClusterGraph,
    store: &mut AttrStore,
    image: &[ColumnData],
    (t, s): (usize, usize),
    rows: &[VertexId],
) {
    if t > 0 && rows.is_empty() {
        return;
    }
    let vids: Vec<u32> = rows.iter().map(|&v| graph.local_index(v) as u32).collect();
    let cols = image.iter().map(|col| col.gather(&vids)).collect();
    store.record_run(t, s, vids, cols);
}

impl Session {
    /// Run the one-shot analytics on the initial graph. Panics where
    /// [`Self::try_run_oneshot`] errors.
    pub fn run_oneshot(&mut self) -> RunMetrics {
        self.try_run_oneshot().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible one-shot run: errors when the session has already run, when
    /// a mutation batch was applied first, or on a transport failure.
    pub fn try_run_oneshot(&mut self) -> Result<RunMetrics, EngineError> {
        if self.ran_oneshot || self.snapshot() != 0 {
            return Err(EngineError::Unsupported(
                "the one-shot analytics runs once, on the initial graph; \
                 apply mutations and run incrementally after it"
                    .into(),
            ));
        }
        self.run::<FromScratch>()
    }

    /// Run the incremental analytics for the latest snapshot. Panics on
    /// protocol misuse or a program outside the incremental fragment; use
    /// [`Self::try_run_incremental`] for the fallible form.
    pub fn run_incremental(&mut self) -> RunMetrics {
        self.try_run_incremental().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible incremental run: errors when no one-shot has run, no batch
    /// is pending, the program is outside the incrementally-supported
    /// fragment (degree-dependent Initialize), or on a transport failure.
    pub fn try_run_incremental(&mut self) -> Result<RunMetrics, EngineError> {
        if !self.ran_oneshot {
            return Err(EngineError::Unsupported(
                "run the one-shot analytics first".into(),
            ));
        }
        let t = self.snapshot();
        if t < 1 || t < self.superstep_counts.len() {
            return Err(EngineError::Unsupported(
                "apply a mutation batch before running incrementally".into(),
            ));
        }
        if self.program.analysis.init_reads_degree {
            return Err(EngineError::Unsupported(
                "Initialize reads degrees; initial values would change under \
                 mutations, which incremental runs do not re-derive"
                    .into(),
            ));
        }
        self.run::<Refresh>()
    }

    /// Announce a validated run, then execute it — or, on a coordinator,
    /// serve it as the workers' hub. Either way each executed superstep's
    /// globals come back and join the session's history.
    fn run<P: RunPlan>(&mut self) -> Result<RunMetrics, EngineError> {
        let t0 = Instant::now();
        let prof0 = self.obs.enabled.then(|| self.cfg.obs.profile());
        let mut metrics = RunMetrics::new(P::KIND);
        self.announce(&match P::KIND {
            RunKind::OneShot => WalEntry::OneshotRun,
            RunKind::Incremental => WalEntry::IncrementalRun,
        });
        let globals = if self.is_coordinator() {
            self.coordinate(&mut metrics)?
        } else {
            self.execute::<P>(&mut metrics)?
        };
        metrics.supersteps = globals.len();
        self.superstep_counts.push(globals.len());
        self.globals_history.push(globals);
        self.ran_oneshot = true;
        metrics.wall = t0.elapsed();
        metrics.profile = prof0.map(|p0| self.cfg.obs.profile().since(&p0));
        Ok(metrics)
    }

    /// The previous snapshot's globals at superstep `s` — identities past
    /// its last superstep, `None` at snapshot 0.
    fn prev_globals(&self, t: usize, s: usize) -> Option<Vec<Value>> {
        let at_s = self.globals_history[t.checked_sub(1)?].get(s).cloned();
        Some(at_s.unwrap_or_else(|| self.identity_globals()))
    }

    /// The executing driver (Local and Worker planes): run `P`'s plan for
    /// the current snapshot to convergence.
    fn execute<P: RunPlan>(
        &mut self,
        metrics: &mut RunMetrics,
    ) -> Result<Vec<Vec<Value>>, EngineError> {
        let io0 = self.graph.total_io();
        let t = self.snapshot();
        // Supersteps the previous snapshot executed (none below snapshot 0).
        let prev_k = t.checked_sub(1).map_or(0, |p| self.superstep_counts[p]);

        self.timed(|o| &o.setup, |sess| P::setup(sess, t));
        let plan = self.timed(|o| &o.pruning, |sess| P::open(sess));

        let mut globals: Vec<Vec<Value>> = Vec::new();
        // Snapshot 0 asks the frontier whether superstep 0 runs at all; a
        // refresh always runs it — the batch is its Δ-stream, and ΔUpdate
        // must re-derive `A_{t,1}` even from an empty frontier.
        let mut go = t > 0 || self.vote(0, prev_k)?;
        while go {
            let s = globals.len();
            globals.push(self.superstep(&plan, (t, s), metrics)?);
            go = self.vote(s + 1, prev_k)?;
        }
        metrics.io = self.graph.total_io().since(&io0);
        Ok(globals)
    }

    /// The convergence vote before superstep `s`: the run replays at least
    /// the previous snapshot's supersteps, then continues while anything
    /// is active cluster-wide, up to the configured bound.
    fn vote(&mut self, s: usize, prev_k: usize) -> Result<bool, EngineError> {
        let mine: usize = self.timed(
            |o| &o.schedule,
            |sess| {
                sess.owned
                    .clone()
                    .map(|w| sess.active_count(w))
                    .sum()
            },
        );
        let total = total_active(self.sync(Part::Active(mine as u64))?)?;
        Ok((s < prev_k || total > 0) && s < self.cfg.max_supersteps)
    }

    /// One superstep of either plan; returns its settled globals.
    fn superstep<P: RunPlan>(
        &mut self,
        plan: &P,
        (t, s): (usize, usize),
        metrics: &mut RunMetrics,
    ) -> Result<Vec<Value>, EngineError> {
        self.timed(|o| &o.store_advance, |sess| sess.advance_accumulators(t, s));
        let (buffers, seeds) = self.timed(
            |o| &o.traverse,
            |sess| sess.traverse(&mut metrics.parallel, |sess, w| plan.scan(sess, w)),
        );
        metrics.work_units += seeds;
        let (inbox, reduced) = self.timed(|o| &o.exchange, |sess| sess.exchange(buffers, false))?;

        // Apply deltas onto accumulator state; collect recomputes.
        let mut recompute: Vec<FxHashSet<VertexId>> =
            vec![FxHashSet::default(); self.layout.num_accms()];
        let mut changed_accm: Vec<FxHashSet<VertexId>> =
            vec![FxHashSet::default(); self.cfg.machines];
        self.timed(
            |o| &o.accumulate,
            |sess| {
                sess.apply_inbox(&inbox, |w, a, v, outcome| {
                    if outcome != Outcome::Unchanged {
                        changed_accm[w].insert(v);
                    }
                    if outcome == Outcome::NeedsRecompute {
                        recompute[a].insert(v);
                    }
                })
            },
        );

        // Monoid recomputation (paper §5.4). Agree on the cluster-wide
        // set first — every rank must enter (or skip) the recompute
        // exchange in lockstep.
        let n_accms = recompute.len();
        let mine = Part::Recompute(recompute.into_iter().map(sorted).collect());
        let recompute = union_recompute(n_accms, self.sync(mine)?)?;
        let n_recompute: usize = recompute.iter().map(|r| r.len()).sum();
        if n_recompute > 0 {
            metrics.recomputed_vertices += n_recompute as u64;
            self.obs.recompute_triggers.add(n_recompute as u64);
            self.timed(
                |o| &o.recompute,
                |sess| sess.recompute_accumulators(&recompute, &mut changed_accm),
            )?;
        }

        self.timed(
            |o| &o.accumulate,
            |sess| {
                for w in sess.owned.clone() {
                    let rows = sorted(changed_accm[w].iter().copied());
                    let part = &mut sess.parts[w];
                    let at = (t, s);
                    record_rows(&sess.graph, &mut part.accm_store, &part.cur_accm, at, &rows);
                }
            },
        );
        let (globals, globals_changed) = self.timed(
            |o| &o.globals,
            |sess| sess.settle_globals((t, s), reduced, &mut metrics.parallel),
        )?;
        self.timed(
            |o| &o.update,
            |sess| {
                for w in sess.owned.clone() {
                    let (rows, base) =
                        P::baseline(sess, w, (t, s), &changed_accm[w], globals_changed);
                    sess.update_rows(w, (t, s), &rows, base, &globals);
                }
            },
        );
        Ok(globals)
    }

    /// Run `f` under the `run/*` phase span `pick` selects.
    fn timed<R>(
        &mut self,
        pick: fn(&SessionObs) -> &itg_obs::SpanHandle,
        f: impl FnOnce(&mut Session) -> R,
    ) -> R {
        let span = pick(&self.obs).clone();
        let _guard = span.start();
        f(self)
    }

    /// Settle superstep `s`'s globals from the exchange's reduced
    /// contributions, and whether they moved against the previous snapshot.
    fn settle_globals(
        &mut self,
        (t, s): (usize, usize),
        reduced: Vec<Contribution>,
        par: &mut ParallelMetrics,
    ) -> Result<(Vec<Value>, bool), EngineError> {
        let prev = self.prev_globals(t, s);
        let values = match fold_global_deltas(self.global_infos(), prev.as_deref(), &reduced) {
            Some(values) => values,
            None => self.recompute_globals(par)?,
        };
        let changed = prev.is_some_and(|p| p != values);
        Ok((values, changed))
    }

    /// Bring every owned partition's accumulator arrays to superstep `s`:
    /// `prev = cur =` the previous snapshots' image of `s`, overlaid on the
    /// accumulator store's baseline — the identity image. Below snapshot 0
    /// there is no history — the window is the identity image, nothing is
    /// loaded, and `prev` stays empty.
    fn advance_accumulators(&mut self, t: usize, s: usize) {
        for w in self.owned.clone() {
            let part = &mut self.parts[w];
            if t == 0 {
                part.cur_accm = self.layout.identity_columns(part.n_local);
                continue;
            }
            self.window_loads += 1;
            let prev = part
                .accm_store
                .load_window_before(s, t, WindowBase::Identity);
            part.cur_accm = prev.clone();
            part.prev_accm = prev;
        }
    }

    /// Apply an exchange's inbox onto the owned accumulator state, reporting
    /// each `(machine, accumulator, vertex)` outcome.
    pub(crate) fn apply_inbox(
        &mut self,
        inbox: &ExchangeInbox,
        mut on: impl FnMut(usize, usize, VertexId, Outcome),
    ) {
        let use_cnt = self.cfg.opts.min_count;
        let rules = settle_rules(&self.layout, &self.vertex_lanes);
        for w in self.owned.clone() {
            let cols = &mut self.parts[w].cur_accm;
            for (a, map) in inbox[w].iter().enumerate() {
                for (&v, c) in map {
                    let l = self.graph.local_index(v);
                    let row = Row { layout: &self.layout, cols: &mut *cols, local: l, i: a };
                    let outcome = rules[a](row, c, use_cnt);
                    on(w, a, v, outcome);
                }
            }
        }
    }

    /// Run Initialize on the rows of `cols` that hold `vertices`.
    fn initialize_rows(&self, cols: &mut [ColumnData], vertices: &[VertexId]) {
        let (kernel, mut frame) = (&self.program.kernels.init, Frame::default());
        if let Some(k) = kernel {
            k.prime(&[], &mut frame);
        }
        let (accm, globals, deg_view, graph) = (&[][..], &[][..], View::New, &self.graph);
        for &v in vertices {
            let (local, attrs) = (graph.local_index(v), &*cols);
            let ctx = WalkCtx { walk: &[v], attrs, accm, globals, local, deg_view, graph };
            if let Some(k) = kernel {
                k.run(&ctx, &mut frame);
                k.writes(&frame).for_each(|(attr, bits)| cols[attr].set_bits(local, bits));
            } else {
                let ctx = VertexCtx::new(&ctx, cols.len());
                execute(&self.program.init, &ctx);
                ctx.into_writes().iter().for_each(|(attr, x)| cols[*attr].set(local, x));
            }
        }
    }

    /// Derive `A_{t,s+1}` on machine `w`: `rows` take the current image
    /// deactivated, plus Update's writes where the accumulators were
    /// touched; every other row takes `base`. Rows that left `base` seed the
    /// next Δvs stream; a row is recorded at `(t, s + 1)` when it differs
    /// from `base` *or* from `A_{t,s}` (the overlay invariant of paper §5.5:
    /// else a snapshot outliving its predecessor leaves stale images behind).
    /// The Update kernel's row is its cells' bits; the interpreter's, with
    /// no kernel, `Value`s.
    fn update_rows(
        &mut self,
        w: usize,
        (t, s): (usize, usize),
        rows: &[VertexId],
        base: Vec<ColumnData>,
        globals: &[Value],
    ) {
        let part = &self.parts[w];
        let (attrs, accm, graph) = (&part.cur_attrs[..], &part.cur_accm[..], &self.graph);
        let deg_view = View::New;
        let mut new_attrs = base;
        let mut changed: Vec<VertexId> = Vec::new();
        let mut record: Vec<VertexId> = Vec::new();
        let mut sort = |v, left_base: bool, left_cur: bool| {
            if left_base {
                changed.push(v);
            }
            if left_base || left_cur {
                record.push(v);
            }
        };
        match &self.program.kernels.update {
            Some(k) => {
                let mut frame = Frame::default();
                k.prime(globals, &mut frame);
                let mut row: Vec<u64> = vec![0; attrs.len()];
                for &v in rows {
                    let local = graph.local_index(v);
                    row.iter_mut().zip(attrs).for_each(|(x, col)| *x = col.bits(local));
                    row[0] = 0;
                    if self.layout.touched(accm, local) {
                        let walk = &[v];
                        let ctx = WalkCtx { walk, attrs, accm, globals, local, deg_view, graph };
                        k.run(&ctx, &mut frame);
                        k.writes(&frame).for_each(|(attr, bits)| row[attr] = bits);
                    }
                    let (mut left_base, mut left_cur) = (false, false);
                    for ((col, cur), &x) in new_attrs.iter_mut().zip(attrs).zip(&row) {
                        left_base |= col.bits(local) != x;
                        left_cur |= cur.bits(local) != x;
                        col.set_bits(local, x);
                    }
                    sort(v, left_base, left_cur);
                }
            }
            None => {
                let mut row: Vec<Value> = Vec::with_capacity(attrs.len());
                for &v in rows {
                    let local = graph.local_index(v);
                    row.clear();
                    row.extend(attrs.iter().map(|col| col.get(local)));
                    row[0] = Value::Bool(false);
                    if self.layout.touched(accm, local) {
                        let walk = &[v];
                        let ctx = WalkCtx { walk, attrs, accm, globals, local, deg_view, graph };
                        let ctx = VertexCtx::new(&ctx, attrs.len());
                        execute(&self.program.update, &ctx);
                        for (attr, value) in ctx.into_writes() {
                            row[attr] = value;
                        }
                    }
                    let differs = |image: &[ColumnData]| {
                        image.iter().zip(&row).any(|(col, x)| col.get(local) != *x)
                    };
                    sort(v, differs(&new_attrs), differs(attrs));
                    for (col, x) in new_attrs.iter_mut().zip(&row) {
                        col.set(local, x);
                    }
                }
            }
        }
        let part = &mut self.parts[w];
        record_rows(
            &self.graph,
            &mut part.attr_store,
            &new_attrs,
            (t, s + 1),
            &record,
        );
        part.cur_attrs = new_attrs;
        part.changed = changed;
    }
}
