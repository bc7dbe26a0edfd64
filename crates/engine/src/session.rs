//! The execution session: the state a run works on — the compiled
//! program, the partitioned graph, the per-machine vertex stores — with its
//! construction, its read API and mutation ingestion (paper §5.2). The
//! superstep driver for both one-shot (`P_Q`) and incremental (`P_ΔQ`)
//! runs is `driver.rs`; the Δ-stream, the exchange and the recompute
//! passes it calls live in `stream.rs`, `exchange.rs` and `recompute.rs`.

use crate::accum::{AccBuffer, AccmLayout};
use crate::config::EngineConfig;
use crate::durability::{DurabilityKind, DurableIo, DurableLog};
use crate::graph::{ClusterGraph, GraphInput};
use crate::metrics::RunMetrics;
use crate::transport::{LocalTransport, ProcessTransport, Transport, TransportError, WorkerLink};
use crate::walker::WalkSpans;
use crate::wire::Payload;
use itg_compiler::{AccmLane, CompiledProgram};
use itg_gsa::value::{ColumnData, Value};
use itg_gsa::{FxHashSet, VertexId};
use itg_lnga::AccmInfo;
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
    pub accm_store: AttrStore,
    pub cur_attrs: Vec<ColumnData>,
    pub prev_attrs: Vec<ColumnData>,
    pub cur_accm: Vec<ColumnData>,
    pub prev_accm: Vec<ColumnData>,
    /// Local vertices whose attribute image changed vs the previous
    /// snapshot at the current superstep (ΔA_{t,s}), as ascending global ids.
    pub changed: Vec<VertexId>,
    /// Local vertices whose degree changed in the latest batch.
    pub degree_changed: FxHashSet<VertexId>,
}

/// Errors surfaced by the session API.
#[derive(Debug)]
pub enum EngineError {
    Compile(itg_lnga::LngaError),
    Unsupported(String),
    UnknownAttr(String),
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
/// transport behind its exchange.
pub(crate) enum Plane {
    /// Every partition in this process; exchange over an in-memory
    /// loopback ([`LocalTransport`] unless a test injects another).
    Local(Box<dyn Transport>),
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
    /// Accumulate lane per vertex/global accumulator
    /// ([`CompiledProgram::lanes`]); all [`AccmLane::Generic`] when
    /// `cfg.opts.specialize` is off.
    pub(crate) vertex_lanes: Vec<AccmLane>,
    pub(crate) global_lanes: Vec<AccmLane>,
    /// Cacheable window loads executed so far; `cache/hit + cache/miss`
    /// equals this at every cache capacity (the `cache_oracle` invariant).
    pub(crate) window_loads: u64,
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
        match cfg.transport.cluster_spec() {
            None => {
                let plane = Plane::Local(Box::new(LocalTransport::new(&cfg.obs)));
                let owned = 0..cfg.machines;
                let mut sess = Session::assemble(program, input, cfg, plane, owned)?;
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
        let (vertex_lanes, global_lanes) = program.lanes(cfg.opts.specialize);
        let attr_types: Vec<_> = program.symbols.attrs.iter().map(|a| a.ty).collect();
        let accm_types = layout.column_types();
        let mut parts = Vec::with_capacity(cfg.machines);
        for w in 0..cfg.machines {
            let n_local = graph.local_vertices(w).count();
            let stats = graph.partitions[w].stats.clone();
            let mut attr_store =
                AttrStore::new(attr_types.clone(), n_local, cfg.maintenance, stats.clone());
            attr_store.set_cache_capacity(cfg.cache_bytes);
            let mut accm_store = AttrStore::new(
                accm_types.clone(),
                n_local,
                cfg.maintenance,
                stats.clone(),
            );
            accm_store.set_init(layout.identity_columns(n_local));
            accm_store.set_cache_capacity(cfg.cache_bytes);
            parts.push(PartitionState {
                worker: w,
                n_local,
                attr_store,
                accm_store,
                cur_attrs: Vec::new(),
                prev_attrs: Vec::new(),
                cur_accm: Vec::new(),
                prev_accm: Vec::new(),
                changed: Vec::new(),
                degree_changed: FxHashSet::default(),
            });
        }
        Ok(Session {
            cfg,
            program,
            graph,
            layout,
            vertex_lanes,
            global_lanes,
            window_loads: 0,
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
        let idx = self
            .program
            .symbols
            .attr_index(name)
            .ok_or_else(|| EngineError::UnknownAttr(name.to_string()))?;
        let w = self.graph.owner(v);
        let l = self.graph.local_index(v);
        Ok(self.parts[w].cur_attrs[idx].get(l))
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
        let idx = self
            .program
            .symbols
            .attr_index(name)
            .ok_or_else(|| EngineError::UnknownAttr(name.to_string()))?;
        let n = self.graph.num_vertices();
        let mut out = Vec::with_capacity(n);
        for v in 0..n as u64 {
            let w = self.graph.owner(v);
            let l = self.graph.local_index(v);
            out.push(self.parts[w].cur_attrs[idx].get(l));
        }
        Ok(out)
    }

    pub(crate) fn global_infos(&self) -> &[AccmInfo] {
        &self.program.symbols.globals
    }

    /// A fresh contribution buffer with this session's selected lanes.
    pub(crate) fn new_buffer(&self) -> AccBuffer {
        AccBuffer::with_lanes(
            &self.program.symbols.accms,
            self.global_infos(),
            &self.vertex_lanes,
            &self.global_lanes,
        )
    }

    /// The accumulate lane selected for each vertex accumulator (plan
    /// order). All [`AccmLane::Generic`] when specialization is disabled.
    pub fn vertex_lanes(&self) -> &[AccmLane] {
        &self.vertex_lanes
    }

    /// The accumulate lane selected for each global accumulator.
    pub fn global_lanes(&self) -> &[AccmLane] {
        &self.global_lanes
    }

    /// Cacheable window loads executed so far; equals `cache/hit +
    /// cache/miss` at every `cache_bytes` capacity, including 0.
    pub fn window_loads(&self) -> u64 {
        self.window_loads
    }

    pub(crate) fn identity_globals(&self) -> Vec<Value> {
        self.global_infos()
            .iter()
            .map(|g| g.op.identity(g.prim))
            .collect()
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
    /// ahead.
    pub(crate) fn announce(&mut self, entry: &WalEntry) {
        if let Plane::Coordinator(t) = &mut self.plane {
            t.broadcast(&Payload::Command(entry.clone()));
        }
        self.log_command(entry);
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

    /// Apply a mutation batch, advancing to the next snapshot.
    pub fn apply_mutations(&mut self, batch: &MutationBatch) {
        self.announce(&WalEntry::Batch(batch.clone()));
        self.graph.apply_batch(batch);
        // Grow per-partition state to the new vertex space.
        let identity_row = self.layout.identity_row();
        for w in 0..self.cfg.machines {
            let n_local = self.graph.local_vertices(w).count();
            let part = &mut self.parts[w];
            part.attr_store.grow(n_local);
            part.accm_store.grow_with(n_local, Some(&identity_row));
            part.n_local = n_local;
            // Degree-changed endpoints (owned side).
            part.degree_changed.clear();
        }
        self.graph.for_each_delta_edge(itg_gsa::EdgeDir::Out, |s, d, _| {
            self.parts[self.graph.owner(s)].degree_changed.insert(s);
            self.parts[self.graph.owner(d)].degree_changed.insert(d);
        });
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

    /// Compact the edge store's segment chains (between snapshots): the
    /// base CSRs are rewritten from the current view and the per-snapshot
    /// delta segments dropped. Call after `run_incremental` has consumed
    /// the latest batch; the next batch then diffs against the compacted
    /// base. Long-running sessions use this to bound the edge-segment
    /// chain the same way the vertex store's merge policy bounds delta
    /// chains.
    pub fn compact_edges(&mut self) {
        self.announce(&WalEntry::Compact);
        self.graph.compact();
    }
}
