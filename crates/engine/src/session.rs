//! The execution session: the state a run works on — the compiled
//! program, the partitioned graph, the per-machine vertex stores — with its
//! construction, its read API and mutation ingestion (paper §5.2). The
//! superstep driver for both one-shot (`P_Q`) and incremental (`P_ΔQ`)
//! runs is `driver.rs`; the Δ-stream, the exchange and the recompute
//! passes it calls live in `stream.rs`, `exchange.rs` and `recompute.rs`.

use crate::accum::{AccBuffer, AccmLayout, BufferPool};
use crate::config::EngineConfig;
use crate::durability::{DurabilityKind, DurableIo, DurableLog};
use crate::graph::{ClusterGraph, GraphInput};
use crate::metrics::RunMetrics;
use crate::transport::{ProcessTransport, TransportError, WorkerLink};
use crate::walker::WalkSpans;
use crate::wire::Payload;
use itg_compiler::CompiledProgram;
use itg_gsa::value::{ColumnData, Value};
use itg_gsa::VertexId;
use itg_store::wal::WalEntry;
use itg_store::{AttrStore, IoSnapshot, MutationBatch};

/// Cached per-operator instruments for one walk query or Rule ⑦ delta
/// sub-query: the seek/join/action spans plus the tuple-cardinality
/// counters joined to the plan by its stable `op_id`.
pub(crate) struct QueryObs {
    pub(crate) spans: WalkSpans,
    pub(crate) starts: itg_obs::CounterHandle,
    pub(crate) contribs: itg_obs::CounterHandle,
}

/// Every instrument the session records into, resolved once at
/// [`Session::new`] so the hot paths never touch the recorder's interning
/// locks. With a disabled recorder each handle is a single-branch no-op
/// and `enabled` gates the few explicit clock reads.
pub(crate) struct SessionObs {
    pub(crate) enabled: bool,
    pub(crate) setup: itg_obs::SpanHandle,
    pub(crate) pruning: itg_obs::SpanHandle,
    pub(crate) schedule: itg_obs::SpanHandle,
    pub(crate) traverse: itg_obs::SpanHandle,
    pub(crate) exchange: itg_obs::SpanHandle,
    pub(crate) accumulate: itg_obs::SpanHandle,
    pub(crate) recompute: itg_obs::SpanHandle,
    pub(crate) globals: itg_obs::SpanHandle,
    pub(crate) update: itg_obs::SpanHandle,
    pub(crate) store_advance: itg_obs::SpanHandle,
    pub(crate) recompute_triggers: itg_obs::CounterHandle,
    /// Accumulator rows point-loaded, and accumulator windows loaded whole
    /// (`AccmImage`).
    pub(crate) accm_point_rows: itg_obs::CounterHandle,
    pub(crate) accm_dense_windows: itg_obs::CounterHandle,
    /// Per one-shot walk query, index-aligned with `traverse.queries`.
    pub(crate) oneshot: Vec<QueryObs>,
    /// Per delta sub-query, index-aligned with `delta_traverse`.
    pub(crate) delta: Vec<QueryObs>,
}

impl SessionObs {
    pub(crate) fn new(rec: &itg_obs::Recorder, program: &CompiledProgram) -> SessionObs {
        SessionObs {
            enabled: rec.is_enabled(),
            setup: rec.span("run/setup"),
            pruning: rec.span("run/pruning"),
            schedule: rec.span("run/schedule"),
            traverse: rec.span("run/traverse"),
            exchange: rec.span("run/exchange"),
            accumulate: rec.span("run/accumulate"),
            recompute: rec.span("run/recompute"),
            globals: rec.span("run/globals"),
            update: rec.span("run/update"),
            store_advance: rec.span("run/store_advance"),
            recompute_triggers: rec.counter("delta/recompute_triggers"),
            accm_point_rows: rec.counter("accm/point_rows"),
            accm_dense_windows: rec.counter("accm/dense_windows"),
            oneshot: program
                .traverse
                .queries
                .iter()
                .map(|q| QueryObs {
                    spans: WalkSpans::resolve(rec, q.op_id),
                    starts: rec.counter_op("oneshot/starts", q.op_id),
                    contribs: rec.counter_op("oneshot/contribs", q.op_id),
                })
                .collect(),
            delta: program
                .delta_traverse
                .iter()
                .map(|sq| QueryObs {
                    spans: WalkSpans::resolve(rec, sq.op_id),
                    starts: rec.counter_op("delta/starts", sq.op_id),
                    contribs: rec.counter_op("delta/contribs", sq.op_id),
                })
                .collect(),
        }
    }
}

/// Per-machine state: the vertex store pair and the working arrays of the
/// current run.
pub struct PartitionState {
    pub worker: usize,
    pub n_local: usize,
    pub attr_store: AttrStore,
    /// The accumulator store, point-read ([`AttrStore::with_point_reads`]).
    pub accm_store: AttrStore,
    pub cur_attrs: Vec<ColumnData>,
    pub prev_attrs: Vec<ColumnData>,
    pub accm: AccmImage,
    /// Local vertices whose attribute image changed vs the previous
    /// snapshot at the current superstep (ΔA_{t,s}), as ascending global ids.
    pub changed: Vec<VertexId>,
    /// Local vertices whose degree changed in the latest batch, as
    /// ascending global ids.
    pub degree_changed: Vec<VertexId>,
}

/// A partition's accumulator image, kept for the whole session: the
/// identity state on every row but those loaded in the current superstep
/// (DESIGN.md §4.5). A superstep loads the rows it reads before it settles
/// onto them — point loads from the accumulator store, each row marked, or
/// the whole window when it reads a large share of the rows — and the next
/// superstep's `AccmImage::reset` puts the identity back on what was
/// loaded.
#[derive(Debug, Default)]
pub struct AccmImage {
    pub cols: Vec<ColumnData>,
    /// The rows loaded this superstep, in load order (sparse only).
    loaded: Vec<u32>,
    /// `mark[l]`: row `l` is among `loaded`.
    mark: Vec<bool>,
    /// Every row counts as loaded: the whole window was overlaid, or the
    /// run is a one-shot, which reads no window and settles anywhere.
    dense: bool,
}

impl AccmImage {
    /// Start a superstep: the identity on every row of `n_local`. Resets the
    /// rows the last superstep loaded — every row after a dense one — and
    /// allocates only when the image is short of `n_local` rows.
    pub(crate) fn reset(&mut self, layout: &AccmLayout, n_local: usize) {
        if self.cols.len() != layout.num_cols || self.mark.len() < n_local {
            self.cols = layout.identity_columns(n_local);
            self.mark = vec![false; n_local];
            self.loaded.clear();
        } else if self.dense {
            layout.reset_rows(&mut self.cols, None);
        } else {
            layout.reset_rows(&mut self.cols, Some(&self.loaded));
            self.loaded.drain(..).for_each(|l| self.mark[l as usize] = false);
        }
        self.dense = false;
    }

    /// Take the dense path: every row counts as loaded, and a one-shot
    /// (`window = None`) leaves the identity as it is; a refresh overlays
    /// superstep `s`'s whole window below snapshot `t` from `store`.
    pub(crate) fn load_window(&mut self, store: &AttrStore, window: Option<(usize, usize)>) {
        debug_assert!(self.loaded.is_empty(), "a window overlays the identity image");
        if let Some((t, s)) = window {
            store.load_superstep_before(s, t, &mut self.cols);
        }
        self.dense = true;
    }

    /// Point-load the rows of `rows` (local ids) not loaded yet with their
    /// value in superstep `s`'s window below snapshot `t`; returns how
    /// many were loaded.
    pub(crate) fn load_rows(
        &mut self,
        store: &AttrStore,
        (t, s): (usize, usize),
        rows: impl IntoIterator<Item = u32>,
    ) -> usize {
        if self.dense {
            return 0;
        }
        let start = self.loaded.len();
        for l in rows {
            if !std::mem::replace(&mut self.mark[l as usize], true) {
                self.loaded.push(l);
            }
        }
        let fresh = &self.loaded[start..];
        if !fresh.is_empty() {
            store.load_rows(s, t, fresh, &mut self.cols);
        }
        fresh.len()
    }
}

/// Errors surfaced by the session API.
#[derive(Debug)]
pub enum EngineError {
    Compile(itg_lnga::LngaError),
    Unsupported(String),
    UnknownAttr(String),
    /// A vertex id at or past the graph's vertex count.
    UnknownVertex(VertexId),
    /// A superstep index past the executed range of the last run.
    BadSuperstep { requested: usize, executed: usize },
    /// A distribution-layer failure (worker spawn, pipe IO, protocol).
    Transport(TransportError),
    /// A durability-layer failure (WAL IO, snapshot corruption, an
    /// unrecoverable directory).
    Durability(String),
    /// An invalid configuration value (a garbage `ITG_*` environment
    /// knob, or knobs that contradict each other).
    Config(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Compile(e) => write!(f, "{e}"),
            EngineError::Unsupported(m) => write!(f, "unsupported program: {m}"),
            EngineError::UnknownAttr(n) => write!(f, "unknown attribute `{n}`"),
            EngineError::UnknownVertex(v) => write!(f, "unknown vertex {v}"),
            EngineError::BadSuperstep { requested, executed } => write!(
                f,
                "superstep {requested} out of range: the last run executed \
                 {executed} superstep(s)"
            ),
            EngineError::Transport(e) => write!(f, "{e}"),
            EngineError::Durability(m) => write!(f, "durability: {m}"),
            EngineError::Config(m) => write!(f, "configuration: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<itg_lnga::LngaError> for EngineError {
    fn from(e: itg_lnga::LngaError) -> EngineError {
        EngineError::Compile(e)
    }
}

impl From<TransportError> for EngineError {
    fn from(e: TransportError) -> EngineError {
        EngineError::Transport(e)
    }
}

/// A payload or value the control protocol's state machine cannot accept.
pub(crate) fn protocol(msg: impl Into<String>) -> EngineError {
    EngineError::Transport(TransportError::Protocol(msg.into()))
}

/// Which role this session plays in the distribution topology, and the
/// link behind its exchange.
pub(crate) enum Plane {
    /// Every partition in this process: every cell stays on its typed
    /// lane, and a sync round's only part is this plane's.
    Local,
    /// A partition worker process driving `Session::owned` over its
    /// [`crate::link::Conn`] to the coordinator.
    Worker(WorkerLink),
    /// The coordinator of a [`ProcessTransport`] fleet; drives no
    /// partitions itself (see `coordinator.rs`).
    Coordinator(ProcessTransport),
}

/// An analytics session over a dynamic graph.
pub struct Session {
    pub cfg: EngineConfig,
    pub program: CompiledProgram,
    pub graph: ClusterGraph,
    pub(crate) layout: AccmLayout,
    /// The contribution buffers enumeration, exchange and settle reuse.
    pub(crate) buffers: BufferPool,
    pub(crate) parts: Vec<PartitionState>,
    /// Global accumulator values: `[snapshot][superstep][global]`.
    pub(crate) globals_history: Vec<Vec<Vec<Value>>>,
    /// Supersteps executed per snapshot.
    pub(crate) superstep_counts: Vec<usize>,
    pub(crate) ran_oneshot: bool,
    pub(crate) obs: SessionObs,
    /// The exchange endpoint and this session's role in the topology.
    pub(crate) plane: Plane,
    /// The machine range this session drives (all machines for
    /// [`Plane::Local`], a contiguous group for [`Plane::Worker`], empty
    /// for [`Plane::Coordinator`]).
    pub(crate) owned: std::ops::Range<usize>,
    /// The open WAL when [`crate::DurabilityKind::Wal`] is configured;
    /// every state-changing command is appended here before executing
    /// (see `durability.rs`).
    pub(crate) durable: Option<DurableLog>,
}

impl Session {
    /// Create a session from a compiled program. The configured
    /// [`crate::TransportKind`] decides the topology: `Local` keeps every
    /// partition in this process; a [`crate::ClusterSpec`] establishes
    /// partition worker processes and turns this session into their
    /// coordinator.
    /// Internal — the public construction path is
    /// [`crate::SessionBuilder::build`].
    pub(crate) fn new(
        program: CompiledProgram,
        input: &GraphInput,
        cfg: EngineConfig,
        io: Option<DurableIo>,
    ) -> Result<Session, EngineError> {
        if let Some(what) = cfg.unrunnable() {
            return Err(EngineError::Config(what.into()));
        }
        match cfg.transport.cluster_spec() {
            None => {
                let owned = 0..cfg.machines;
                let mut sess = Session::assemble(program, input, cfg, Plane::Local, owned)?;
                sess.attach_durability(io)?;
                Ok(sess)
            }
            Some(spec) => {
                if !matches!(cfg.durability, DurabilityKind::None) {
                    return Err(EngineError::Unsupported(
                        "durability requires the local transport (the \
                         SessionBuilder default — drop the \
                         SessionBuilder::cluster(...) call); a cluster \
                         replicates state across worker processes that a \
                         single WAL cannot cover"
                            .into(),
                    ));
                }
                Session::build_coordinator(program, input, cfg, &spec)
            }
        }
    }

    /// Build the session state shared by every role: validate the program,
    /// load the (full, replicated) graph, and size the per-machine stores.
    pub(crate) fn assemble(
        program: CompiledProgram,
        input: &GraphInput,
        cfg: EngineConfig,
        plane: Plane,
        owned: std::ops::Range<usize>,
    ) -> Result<Session, EngineError> {
        if program.symbols.uses_in_direction && input.undirected {
            return Err(EngineError::Unsupported(
                "in_nbrs/in_degree on an undirected graph (use nbrs/degree)".into(),
            ));
        }
        let graph = ClusterGraph::load_with_obs(
            input,
            cfg.machines,
            cfg.buffer_pool_bytes,
            cfg.page_size,
            &cfg.obs,
        );
        let obs = SessionObs::new(&cfg.obs, &program);
        let layout = AccmLayout::new(&program.symbols.accms);
        let buffers = BufferPool::new(&program.symbols.accms, &program.symbols.globals);
        let attr_types: Vec<_> = program.symbols.attrs.iter().map(|a| a.ty).collect();
        let accm_types = layout.column_types();
        let mut parts = Vec::with_capacity(cfg.machines);
        for w in 0..cfg.machines {
            let n_local = graph.local_vertices(w).count();
            let stats = graph.partitions[w].stats.clone();
            let attr_store =
                AttrStore::new(attr_types.clone(), n_local, cfg.maintenance, stats.clone());
            let mut accm_store = AttrStore::new(
                accm_types.clone(),
                n_local,
                cfg.maintenance,
                stats.clone(),
            )
            .with_point_reads();
            accm_store.set_init(layout.identity_columns(n_local));
            parts.push(PartitionState {
                worker: w,
                n_local,
                attr_store,
                accm_store,
                cur_attrs: Vec::new(),
                prev_attrs: Vec::new(),
                accm: AccmImage::default(),
                changed: Vec::new(),
                degree_changed: Vec::new(),
            });
        }
        Ok(Session {
            cfg,
            program,
            graph,
            layout,
            buffers,
            parts,
            globals_history: Vec::new(),
            superstep_counts: Vec::new(),
            ran_oneshot: false,
            obs,
            plane,
            owned,
            durable: None,
        })
    }

    pub(crate) fn is_coordinator(&self) -> bool {
        matches!(self.plane, Plane::Coordinator(_))
    }

    /// The coordinator's process transport. Panics outside that role.
    pub(crate) fn coord(&mut self) -> &mut ProcessTransport {
        match &mut self.plane {
            Plane::Coordinator(t) => t,
            _ => unreachable!("coordinator-only operation on a non-coordinator session"),
        }
    }

    /// Bytes of bootstrap frames shipped to each worker rank (the
    /// `net/bootstrap_bytes` counter, split per rank). `None` on the local
    /// plane, which has no bootstrap exchange.
    pub fn bootstrap_bytes(&self) -> Option<Vec<u64>> {
        match &self.plane {
            Plane::Coordinator(t) => Some(t.bootstrap_bytes().to_vec()),
            _ => None,
        }
    }

    /// Kill worker `rank`'s process (coordinator plane only). Test hook
    /// for the revive path: the next exchange observes the dropped
    /// connection and revives the rank from its frame journal.
    #[doc(hidden)]
    pub fn debug_kill_worker(&mut self, rank: usize) -> Result<(), EngineError> {
        match &mut self.plane {
            Plane::Coordinator(t) => Ok(t.kill_worker(rank)?),
            _ => Err(EngineError::Unsupported(
                "debug_kill_worker targets the coordinator plane".into(),
            )),
        }
    }

    /// The worker plane's link. Panics outside that role.
    pub(crate) fn worker_link(&mut self) -> &mut WorkerLink {
        match &mut self.plane {
            Plane::Worker(link) => link,
            _ => unreachable!("worker-only operation on a non-worker session"),
        }
    }

    /// The current snapshot index.
    pub fn snapshot(&self) -> usize {
        self.graph.snapshot()
    }

    /// Read a vertex's attribute by name from the final state of the last
    /// run.
    pub fn attr_value(&self, v: VertexId, name: &str) -> Result<Value, EngineError> {
        let idx = self.final_attr_index(name)?;
        if v >= self.graph.num_vertices() as VertexId {
            return Err(EngineError::UnknownVertex(v));
        }
        self.final_attr(v, idx)
    }

    /// The index of attribute `name`, once a run has left final values.
    fn final_attr_index(&self, name: &str) -> Result<usize, EngineError> {
        let idx = self
            .program
            .symbols
            .attr_index(name)
            .ok_or_else(|| EngineError::UnknownAttr(name.to_string()))?;
        if self.parts.iter().any(|p| p.cur_attrs.is_empty()) {
            return Err(EngineError::Unsupported(
                "no run has been executed yet".into(),
            ));
        }
        Ok(idx)
    }

    /// Attribute `idx` of vertex `v < num_vertices` after the last run; a
    /// vertex a later batch added has none until the next run.
    fn final_attr(&self, v: VertexId, idx: usize) -> Result<Value, EngineError> {
        let col = &self.parts[self.graph.owner(v)].cur_attrs[idx];
        let l = self.graph.local_index(v);
        if l >= col.len() {
            let msg = format!("vertex {v} was added after the last run");
            return Err(EngineError::Unsupported(msg));
        }
        Ok(col.get(l))
    }

    /// Read a global accumulator's value at a superstep of the last run
    /// (defaults to superstep 0 when `superstep` is `None` — the common
    /// single-superstep analytics case). A superstep past the executed
    /// range is [`EngineError::BadSuperstep`], not a silent clamp.
    pub fn global_value(&self, name: &str, superstep: Option<usize>) -> Result<Value, EngineError> {
        let idx = self
            .program
            .symbols
            .global_index(name)
            .ok_or_else(|| EngineError::UnknownAttr(name.to_string()))?;
        let snap = self.globals_history.last().ok_or_else(|| {
            EngineError::Unsupported("no run has been executed yet".into())
        })?;
        let s = superstep.unwrap_or(0);
        if s >= snap.len() {
            return Err(EngineError::BadSuperstep {
                requested: s,
                executed: snap.len(),
            });
        }
        Ok(snap[s][idx].clone())
    }

    /// All final attribute values of `name` as a dense vector by vertex id.
    pub fn attr_column(&self, name: &str) -> Result<Vec<Value>, EngineError> {
        let idx = self.final_attr_index(name)?;
        let n = self.graph.num_vertices() as VertexId;
        (0..n).map(|v| self.final_attr(v, idx)).collect()
    }

    /// A fresh contribution buffer, each accumulator on its lane, with room
    /// for no vertex id: for the globals alone.
    pub(crate) fn new_buffer(&self) -> AccBuffer {
        let symbols = &self.program.symbols;
        AccBuffer::new(&symbols.accms, &symbols.globals)
    }

    pub(crate) fn identity_globals(&self) -> Vec<Value> {
        let globals = self.program.symbols.globals.iter();
        globals.map(|g| g.op.identity(g.prim)).collect()
    }

    /// Stable operator labels of the compiled plan — `(op_id, label)`
    /// pairs for joining profile rows ([`itg_obs::SpanStat::op`],
    /// [`itg_obs::CounterStat::op`]) to human-readable operator names.
    pub fn operator_labels(&self) -> Vec<(u32, String)> {
        self.program.operator_labels()
    }

    // ---------------------------------------------------------------
    // Mutation ingestion and incremental execution (P_ΔQ).
    // ---------------------------------------------------------------

    /// Announce a state-changing command before executing it: a
    /// coordinator ships it to every partition worker, so all replicas
    /// execute the same command sequence, and a durable session logs it
    /// ahead. An error means the log refused the command, which must then
    /// not execute.
    pub(crate) fn announce(&mut self, entry: &WalEntry) -> Result<(), EngineError> {
        if let Plane::Coordinator(t) = &mut self.plane {
            t.broadcast(&Payload::Command(entry.clone()));
        }
        self.log_command(entry)
    }

    /// Execute one command — a WAL record being replayed, or a worker's
    /// [`Payload::Command`]. A run returns its metrics.
    pub(crate) fn dispatch(&mut self, entry: &WalEntry) -> Result<Option<RunMetrics>, EngineError> {
        Ok(match entry {
            WalEntry::OneshotRun => Some(self.try_run_oneshot()?),
            WalEntry::IncrementalRun => Some(self.try_run_incremental()?),
            WalEntry::Batch(batch) => {
                self.apply_mutations(batch);
                None
            }
            WalEntry::Compact => {
                self.compact_edges();
                None
            }
        })
    }

    /// Apply a mutation batch, advancing to the next snapshot. Panics if
    /// a durable session cannot log the batch.
    pub fn apply_mutations(&mut self, batch: &MutationBatch) {
        let entry = WalEntry::Batch(batch.clone());
        self.announce(&entry).unwrap_or_else(|e| panic!("{e}"));
        self.graph.apply_batch(batch);
        // Grow per-partition state to the new vertex space.
        let identity = self.layout.identity_columns(1);
        let identity_row: Vec<Value> = identity.iter().map(|c| c.get(0)).collect();
        for w in 0..self.cfg.machines {
            let n_local = self.graph.local_vertices(w).count();
            let part = &mut self.parts[w];
            part.attr_store.grow(n_local);
            part.accm_store.grow_with(n_local, Some(&identity_row));
            part.n_local = n_local;
        }
        self.derive_degree_changed();
    }

    /// Each machine's `degree_changed`: the latest batch's Δ-edge
    /// endpoints it owns.
    pub(crate) fn derive_degree_changed(&mut self) {
        let mut lists = vec![Vec::new(); self.cfg.machines];
        self.graph.for_each_delta_edge(itg_gsa::EdgeDir::Out, |s, d, _| {
            lists[self.graph.owner(s)].push(s);
            lists[self.graph.owner(d)].push(d);
        });
        for (part, mut list) in self.parts.iter_mut().zip(lists) {
            list.sort_unstable();
            list.dedup();
            part.degree_changed = list;
        }
    }

    /// Aggregate IO snapshot (graph + stores share the same counters).
    pub fn total_io(&self) -> IoSnapshot {
        self.graph.total_io()
    }

    /// Bytes held by the stores (size reporting).
    pub fn store_bytes(&self) -> u64 {
        self.parts
            .iter()
            .map(|p| p.attr_store.size_bytes() + p.accm_store.size_bytes())
            .sum()
    }

    /// Supersteps executed per snapshot so far.
    pub fn superstep_counts(&self) -> &[usize] {
        &self.superstep_counts
    }

    /// Compact the edge store's segment chains: the base CSRs are
    /// rewritten from the `Old` view and only the latest delta segments
    /// kept, so the graph a refresh reads — `Old`, `New` and the delta
    /// stream — is the same before and after, a pending batch included.
    /// Long-running sessions use this to bound the edge-segment chain the
    /// same way the vertex store's merge policy bounds delta chains.
    /// Panics if a durable session cannot log the compaction.
    pub fn compact_edges(&mut self) {
        self.announce(&WalEntry::Compact).unwrap_or_else(|e| panic!("{e}"));
        self.graph.compact();
    }
}
