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

use crate::accum::{AccBuffer, Outcome};
use crate::exchange::{total_active, union_recompute, union_sorted};
use crate::metrics::{ParallelMetrics, RunKind, RunMetrics};
use crate::msbfs::PruningLevels;
use crate::session::{EngineError, PartitionState, Session, SessionObs};
use crate::stream::PhaseStats;
use crate::walker::WalkCtx;
use crate::wire::Part;
use itg_compiler::CompiledProgram;
use itg_gsa::kernel::Frame;
use itg_gsa::value::{ColumnData, Value};
use itg_gsa::VertexId;
use itg_store::wal::WalEntry;
use itg_store::{AttrStore, View};
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
    /// `changed_accm` is the machine's moved accumulator rows, ascending.
    fn baseline(
        sess: &mut Session,
        w: usize,
        at: (usize, usize),
        changed_accm: &[VertexId],
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
        changed_accm: &[VertexId],
        _globals_changed: bool,
    ) -> (Vec<VertexId>, Vec<ColumnData>) {
        let rows = union_sorted(&sess.active_vertices(w), changed_accm);
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
            let store = &sess.parts[w].attr_store;
            let mut prev = store.materialize_init();
            store.load_superstep_before(0, t, &mut prev);
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
    /// set provably repeat the previous snapshot's next-superstep values. A
    /// row counts as touched when a count is positive in `A^accm_{t,s}` (the
    /// image) or in `A^accm_{t-1,s}`, read from the accumulator store: so
    /// this runs before `(t, s)` is recorded there.
    fn baseline(
        sess: &mut Session,
        w: usize,
        (t, s): (usize, usize),
        changed_accm: &[VertexId],
        globals_changed: bool,
    ) -> (Vec<VertexId>, Vec<ColumnData>) {
        let (analysis, graph, layout) = (sess.program.analysis, &sess.graph, &sess.layout);
        let part = &mut sess.parts[w];
        part.attr_store
            .load_superstep_before(s + 1, t, &mut part.prev_attrs);
        let mut trigger = union_sorted(&part.changed, changed_accm);
        if globals_changed && analysis.update_reads_globals {
            // Rare: every row touched in either image — the whole previous
            // window, and a load of the rows the image lacks.
            let mut prev = part.accm_store.materialize_init();
            part.accm_store.load_superstep_before(s, t, &mut prev);
            let cur = &part.accm.cols;
            let rows = (0..part.n_local).filter(|&l| layout.touched(&prev, l) || layout.touched(cur, l));
            let rows: Vec<u32> = rows.map(|l| l as u32).collect();
            let n = part.accm.load_rows(&part.accm_store, (t, s), rows.iter().copied());
            sess.obs.accm_point_rows.add(n as u64);
            let rows: Vec<VertexId> = rows.iter().map(|&l| graph.global_id(w, l as usize)).collect();
            trigger = union_sorted(&trigger, &rows);
        }
        if analysis.update_reads_degree {
            // The image holds these rows: they were loaded before the settle.
            let rows = &part.degree_changed;
            let locals: Vec<u32> = rows.iter().map(|&v| graph.local_index(v) as u32).collect();
            let prev = part.accm_store.read_rows(s, t, &locals);
            let cur = &part.accm.cols;
            let touched = |(i, &l): &(usize, &u32)| {
                layout.touched(cur, l as usize) || layout.touched(&prev, *i)
            };
            let rows = rows.iter().zip(locals.iter().enumerate());
            let rows: Vec<VertexId> = rows.filter(|(_, il)| touched(il)).map(|(&v, _)| v).collect();
            trigger = union_sorted(&trigger, &rows);
        }
        (trigger, part.prev_attrs.clone())
    }
}

/// A superstep loads its accumulator windows whole when the rows it reads,
/// counted with repeats, times this, exceed the owned partitions' rows; else
/// it point-loads them (Ligra's dense/sparse switch). Measured on a 2-core x86 host over a 32 768-row
/// accumulator store of three `long` columns: the dense path (fill, then
/// overlay the window) costs 1.0–1.7 ns per partition row, a point load
/// (index lookup, gather, scatter, reset) 12–22 ns per row it loads — a
/// crossover between 1/8 and 1/21 of the rows, 1/13 in the median.
const DENSE_SHARE: usize = 12;

/// The trigger rows Update knows before a superstep settles: the rows whose
/// attributes left the baseline and, when Update reads degrees, those whose
/// degree changed. A row may be in both.
fn trigger_rows(part: &PartitionState, reads_degree: bool) -> [&[VertexId]; 2] {
    [&part.changed, if reads_degree { &part.degree_changed } else { &[] }]
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
    /// a mutation batch was applied first, when a durable session cannot
    /// log the run, or on a transport failure.
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
    /// fragment (degree-dependent Initialize), when a durable session
    /// cannot log the run, or on a transport failure.
    pub fn try_run_incremental(&mut self) -> Result<RunMetrics, EngineError> {
        if !self.ran_oneshot {
            return Err(EngineError::Unsupported(
                "run the one-shot analytics first".into(),
            ));
        }
        // A refresh consumes exactly one batch: snapshot t follows the
        // runs of snapshots 0..t.
        let (t, runs) = (self.snapshot(), self.superstep_counts.len());
        if t < 1 || t < runs {
            return Err(EngineError::Unsupported(
                "apply a mutation batch before running incrementally".into(),
            ));
        }
        if t > runs {
            return Err(EngineError::Unsupported(format!(
                "{} mutation batches are pending; a refresh consumes exactly one",
                t - runs + 1
            )));
        }
        Session::check_refreshable(&self.program)?;
        self.run::<Refresh>()
    }

    /// Refuse a program outside the incrementally-supported fragment: one
    /// whose Initialize reads a degree.
    pub(crate) fn check_refreshable(program: &CompiledProgram) -> Result<(), EngineError> {
        if program.analysis.init_reads_degree {
            return Err(EngineError::Unsupported(
                "Initialize reads degrees; initial values would change under \
                 mutations, which incremental runs do not re-derive"
                    .into(),
            ));
        }
        Ok(())
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
        })?;
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
    /// is active cluster-wide, up to the configured bound. Below `prev_k`
    /// and at the bound every rank decides alone, so neither the frontier
    /// is counted nor a sync round joined.
    fn vote(&mut self, s: usize, prev_k: usize) -> Result<bool, EngineError> {
        if s >= self.cfg.max_supersteps || s < prev_k {
            return Ok(s < self.cfg.max_supersteps);
        }
        let mine: usize = self.timed(
            |o| &o.schedule,
            |sess| {
                sess.owned
                    .clone()
                    .map(|w| sess.active_count(w))
                    .sum()
            },
        );
        Ok(total_active(self.sync(Part::Active(mine as u64))?)? > 0)
    }

    /// One superstep of either plan; returns its settled globals.
    fn superstep<P: RunPlan>(
        &mut self,
        plan: &P,
        (t, s): (usize, usize),
        metrics: &mut RunMetrics,
    ) -> Result<Vec<Value>, EngineError> {
        self.timed(|o| &o.store_advance, |sess| sess.advance_accumulators());
        let (buffers, seeds) = self.timed(
            |o| &o.traverse,
            |sess| sess.traverse(&mut metrics.parallel, |sess, w| plan.scan(sess, w)),
        );
        metrics.work_units += seeds;
        let (inbox, reduced) = self.timed(|o| &o.exchange, |sess| sess.exchange(buffers, false))?;

        // Load the rows the superstep reads, then apply deltas onto
        // accumulator state; collect recomputes. Settle reports each lane's
        // cells in id order, so every list is ascending: the moved rows per
        // machine and lane, the rows to recompute per lane.
        let n_accms = self.layout.num_accms();
        let mut recompute: Vec<Vec<VertexId>> = vec![Vec::new(); n_accms];
        let mut moved: Vec<Vec<Vec<VertexId>>> = vec![vec![Vec::new(); n_accms]; self.cfg.machines];
        let mut changed_accm: Vec<Vec<VertexId>> = self.timed(
            |o| &o.accumulate,
            |sess| {
                sess.load_accumulators((t, s), &inbox);
                sess.apply_inbox(inbox, |w, a, v, outcome| {
                    if outcome != Outcome::Unchanged {
                        moved[w][a].push(v);
                    }
                    if outcome == Outcome::NeedsRecompute {
                        recompute[a].push(v);
                    }
                });
                let union = |lanes: Vec<Vec<VertexId>>| {
                    lanes.into_iter().reduce(|a, b| union_sorted(&a, &b)).unwrap_or_default()
                };
                moved.into_iter().map(union).collect()
            },
        );

        // Monoid recomputation (paper §5.4). Agree on the cluster-wide
        // lists first — every rank must enter (or skip) the recompute
        // exchange in lockstep. A program whose lanes never ask for a
        // recompute skips the round on every rank alike.
        let recompute = if self.layout.may_recompute() {
            union_recompute(n_accms, self.sync(Part::Recompute(recompute))?)?
        } else {
            debug_assert!(recompute.iter().all(Vec::is_empty), "a SUM lane always inverts");
            recompute
        };
        let n_recompute: usize = recompute.iter().map(|r| r.len()).sum();
        if n_recompute > 0 {
            metrics.recomputed_vertices += n_recompute as u64;
            self.obs.recompute_triggers.add(n_recompute as u64);
            self.timed(
                |o| &o.recompute,
                |sess| sess.recompute_accumulators((t, s), &recompute, &mut changed_accm),
            )?;
        }

        let (globals, globals_changed) = self.timed(
            |o| &o.globals,
            |sess| sess.settle_globals((t, s), reduced, &mut metrics.parallel),
        )?;
        // The baselines read `A^accm_{t-1,s}` from the accumulator store, so
        // they come before the record of `(t, s)`, which may merge the chain
        // into a checkpoint stamped `t`.
        let bases: Vec<(Vec<VertexId>, Vec<ColumnData>)> = self.timed(
            |o| &o.update,
            |sess| {
                let owned = sess.owned.clone();
                owned.map(|w| P::baseline(sess, w, (t, s), &changed_accm[w], globals_changed))
                    .collect()
            },
        );
        self.timed(
            |o| &o.accumulate,
            |sess| {
                for w in sess.owned.clone() {
                    let part = &mut sess.parts[w];
                    let (at, rows) = ((t, s), &changed_accm[w]);
                    record_rows(&sess.graph, &mut part.accm_store, &part.accm.cols, at, rows);
                }
            },
        );
        self.timed(
            |o| &o.update,
            |sess| {
                for (w, (rows, base)) in sess.owned.clone().zip(bases) {
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

    /// Settle superstep `s`'s globals from the exchange's reduced cells,
    /// and whether they moved against the previous snapshot.
    fn settle_globals(
        &mut self,
        (t, s): (usize, usize),
        reduced: AccBuffer,
        par: &mut ParallelMetrics,
    ) -> Result<(Vec<Value>, bool), EngineError> {
        let prev = self.prev_globals(t, s);
        let values = match reduced.global_values(prev.as_deref()) {
            Some(values) => values,
            None => self.recompute_globals(par)?,
        };
        let changed = prev.is_some_and(|p| p != values);
        Ok((values, changed))
    }

    /// Start a superstep on every owned partition's accumulator image: the
    /// identity on every row (`AccmImage::reset`).
    fn advance_accumulators(&mut self) {
        for w in self.owned.clone() {
            let part = &mut self.parts[w];
            part.accm.reset(&self.layout, part.n_local);
        }
    }

    /// Load into each owned accumulator image, before `inbox` settles onto
    /// it, every row superstep `s` of snapshot `t` reads there: the inbox's
    /// targets, and the trigger rows Update already knows — the rows whose
    /// attributes left the baseline, and those whose degree changed when
    /// Update reads degrees. A row takes its value in `A^accm_{t-1,s}`: a
    /// point load, or — when the rows, counted with repeats, are a large
    /// share of the owned rows — one overlay of the whole window. The count
    /// reads list lengths only, so the dense path costs no per-row work
    /// beyond its overlay. A one-shot reads no window.
    fn load_accumulators(&mut self, (t, s): (usize, usize), inbox: &AccBuffer) {
        let (graph, owned) = (&self.graph, self.owned.clone());
        let reads_degree = self.program.analysis.update_reads_degree;
        let parts = || owned.clone().map(|w| &self.parts[w]);
        let reads = inbox.num_targets()
            + parts().flat_map(|p| trigger_rows(p, reads_degree)).map(<[_]>::len).sum::<usize>();
        let window = (t > 0).then_some((t, s));
        if t == 0 || reads * DENSE_SHARE > parts().map(|p| p.n_local).sum() {
            for w in owned {
                let part = &mut self.parts[w];
                part.accm.load_window(&part.accm_store, window);
                self.obs.accm_dense_windows.add(window.is_some() as u64);
            }
            return;
        }
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); self.cfg.machines];
        inbox.targets().for_each(|v| rows[graph.owner(v)].push(graph.local_index(v) as u32));
        for w in owned {
            let part = &mut self.parts[w];
            let more = trigger_rows(part, reads_degree).into_iter().flatten();
            let more = more.map(|&v| graph.local_index(v) as u32);
            rows[w].extend(more);
            let n = part.accm.load_rows(&part.accm_store, (t, s), rows[w].iter().copied());
            self.obs.accm_point_rows.add(n as u64);
        }
    }

    /// Apply an exchange's inbox onto the owned accumulator state — each
    /// cell on its owner's row, which the image holds — reporting each
    /// `(machine, accumulator, vertex)` outcome; the settled inbox goes back
    /// to the pool.
    pub(crate) fn apply_inbox(
        &mut self,
        mut inbox: AccBuffer,
        mut on: impl FnMut(usize, usize, VertexId, Outcome),
    ) {
        let (cnt, graph) = (self.cfg.opts.min_count, &self.graph);
        let mut cols: Vec<&mut [ColumnData]> =
            self.parts.iter_mut().map(|p| &mut p.accm.cols[..]).collect();
        let at = |v| (graph.owner(v), graph.local_index(v));
        inbox.settle(&self.layout, &mut cols, &at, cnt, |a, v, o| on(graph.owner(v), a, v, o));
        self.buffers.put(inbox);
    }

    /// Run Initialize on the rows of `cols` that hold `vertices`.
    fn initialize_rows(&self, cols: &mut [ColumnData], vertices: &[VertexId]) {
        let (k, mut frame) = (&self.program.kernels.init, Frame::default());
        k.prime(&[], &mut frame);
        let (accm, deg_view, graph) = (&[][..], View::New, &self.graph);
        let mut copies: Vec<(usize, Value)> = Vec::new();
        for &v in vertices {
            let (local, attrs) = (graph.local_index(v), &*cols);
            let ctx = WalkCtx { walk: &[v], attrs, accm, local, deg_view, graph };
            k.run(&ctx, &mut frame);
            for (attr, bits) in k.writes(&frame) {
                // An array write names the column whose cell it copies: read
                // every copy before one lands.
                match cols[attr] {
                    ColumnData::Array(_) => copies.push((attr, cols[bits as usize].get(local))),
                    _ => cols[attr].set_bits(local, bits),
                }
            }
            copies.drain(..).for_each(|(attr, x)| cols[attr].set(local, &x));
        }
    }

    /// Derive `A_{t,s+1}` on machine `w`: `rows` take the current image
    /// deactivated, plus Update's writes where the accumulators were
    /// touched; every other row takes `base`. Rows that left `base` seed the
    /// next Δvs stream; a row is recorded at `(t, s + 1)` when it differs
    /// from `base` *or* from `A_{t,s}` (the overlay invariant of paper §5.5:
    /// else a snapshot outliving its predecessor leaves stale images behind).
    /// A row is one word per column: a scalar cell's bits, or for an array
    /// cell the column of `A_{t,s}` whose cell it copies — its own until
    /// Update assigns it.
    fn update_rows(
        &mut self,
        w: usize,
        (t, s): (usize, usize),
        rows: &[VertexId],
        base: Vec<ColumnData>,
        globals: &[Value],
    ) {
        let part = &self.parts[w];
        let (attrs, accm, graph) = (&part.cur_attrs[..], &part.accm.cols[..], &self.graph);
        let deg_view = View::New;
        let mut new_attrs = base;
        let mut changed: Vec<VertexId> = Vec::new();
        let mut record: Vec<VertexId> = Vec::new();
        let (k, mut frame) = (&self.program.kernels.update, Frame::default());
        k.prime(globals, &mut frame);
        let mut row: Vec<u64> = vec![0; attrs.len()];
        for &v in rows {
            let local = graph.local_index(v);
            for (a, (x, col)) in row.iter_mut().zip(attrs).enumerate() {
                *x = match col {
                    ColumnData::Array(_) => a as u64,
                    col => col.bits(local),
                };
            }
            row[0] = 0;
            if self.layout.touched(accm, local) {
                let walk = &[v];
                let ctx = WalkCtx { walk, attrs, accm, local, deg_view, graph };
                k.run(&ctx, &mut frame);
                k.writes(&frame).for_each(|(attr, bits)| row[attr] = bits);
            }
            let (mut left_base, mut left_cur) = (false, false);
            for ((col, cur), &x) in new_attrs.iter_mut().zip(attrs).zip(&row) {
                if let ColumnData::Array(_) = col {
                    let cell = attrs[x as usize].get(local);
                    left_base |= col.get(local) != cell;
                    left_cur |= cur.get(local) != cell;
                    col.set(local, &cell);
                } else {
                    left_base |= col.bits(local) != x;
                    left_cur |= cur.bits(local) != x;
                    col.set_bits(local, x);
                }
            }
            if left_base {
                changed.push(v);
            }
            if left_base || left_cur {
                record.push(v);
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
