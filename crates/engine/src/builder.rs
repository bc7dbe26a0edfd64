//! [`SessionBuilder`]: the one construction path for analytics sessions.
//!
//! Named, chainable knobs over an [`EngineConfig`]; a session loads its
//! graph with its own recorder ([`crate::ClusterGraph::load_with_obs`],
//! which also loads a bare graph without a session). The builder starts from
//! [`EngineConfig::default`], and a builder call overrides it.
//!
//! ```
//! use itg_engine::{GraphInput, SessionBuilder};
//!
//! let g = GraphInput::undirected(vec![(0, 1), (1, 2), (0, 2)]);
//! let mut session = SessionBuilder::new()
//!     .machines(2)
//!     .threads(1)
//!     .from_source(
//!         "Vertex (id, active, nbrs, c: Accm<long, SUM>)
//!          Initialize (u): { u.active = true; }
//!          Traverse (u): { For v in u.nbrs { v.c.Accumulate(1); } }
//!          Update (u): { }",
//!         &g,
//!     )
//!     .unwrap();
//! let m = session.run_oneshot();
//! assert_eq!(m.supersteps, 1);
//! ```

use crate::config::{EngineConfig, OptFlags};
use crate::durability::{DurabilityKind, DurableIo};
use crate::graph::GraphInput;
use crate::session::{EngineError, Session};
use crate::transport::{ClusterSpec, TransportKind};
use itg_compiler::CompiledProgram;
use itg_store::wal::WalOptions;
use itg_store::{DurableFs, MaintenancePolicy};
use std::sync::Arc;

/// Chainable session construction; see the module docs for the full
/// precedence story. Terminal methods: [`SessionBuilder::from_source`]
/// (compiles `L_NGA` text — required for the process transport, which
/// ships source to workers) and [`SessionBuilder::build`] (takes an
/// already-compiled program).
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    cfg: EngineConfig,
    io: Option<DurableIo>,
}

impl Default for SessionBuilder {
    fn default() -> SessionBuilder {
        SessionBuilder::new()
    }
}

impl SessionBuilder {
    /// A builder seeded from [`EngineConfig::default`].
    pub fn new() -> SessionBuilder {
        SessionBuilder::from_config(EngineConfig::default())
    }

    /// A builder over an explicit base configuration.
    pub fn from_config(cfg: EngineConfig) -> SessionBuilder {
        SessionBuilder { cfg, io: None }
    }

    /// Number of simulated machines (partitions). More than one machine
    /// also enables parallel partition phases, matching
    /// [`EngineConfig::with_machines`]; override with
    /// [`SessionBuilder::parallel`] afterwards if needed.
    pub fn machines(mut self, n: usize) -> SessionBuilder {
        self.cfg.machines = n.max(1);
        self.cfg.parallel = n > 1;
        self
    }

    /// Intra-partition worker threads per machine (results are
    /// byte-identical for every value; see [`EngineConfig::threads_per_machine`]).
    pub fn threads(mut self, n: usize) -> SessionBuilder {
        self.cfg.threads_per_machine = n.max(1);
        self
    }

    /// The superstep exchange plane ([`TransportKind::Local`] or
    /// [`TransportKind::Cluster`]). For clusters, prefer the
    /// [`SessionBuilder::cluster`] shorthand.
    pub fn transport(mut self, t: TransportKind) -> SessionBuilder {
        self.cfg.transport = t;
        self
    }

    /// Run partition groups as a worker fleet described by a
    /// [`ClusterSpec`] — children spawned over TCP or a Unix-domain
    /// socket, or pre-started endpoints. Shorthand for
    /// `.transport(TransportKind::Cluster(spec))`.
    pub fn cluster(mut self, spec: ClusterSpec) -> SessionBuilder {
        self.cfg.transport = TransportKind::Cluster(spec);
        self
    }

    /// Observability recorder for the session, its stores, and walkers.
    pub fn observer(mut self, rec: itg_obs::Recorder) -> SessionBuilder {
        self.cfg.obs = rec;
        self
    }

    /// Durability: [`DurabilityKind::Wal`] logs every state-changing
    /// command to a write-ahead log in the given directory before
    /// executing it, and [`crate::Session::checkpoint`] /
    /// [`crate::Session::recover`] provide snapshot recovery (DESIGN.md
    /// §9). Requires [`TransportKind::Local`] and a source-built session
    /// ([`SessionBuilder::from_source`]).
    pub fn durability(mut self, kind: DurabilityKind) -> SessionBuilder {
        self.cfg.durability = kind;
        self
    }

    /// Test support: a durable session issues its file writes through
    /// `fs` and cuts its WAL into segments of `wal.segment_bytes` instead
    /// of [`WalOptions::default`]'s. The crash-state tests record a
    /// history's effects this way; the bytes written are those
    /// [`itg_store::StdFs`] writes.
    pub fn durable_io(mut self, fs: Arc<dyn DurableFs>, wal: WalOptions) -> SessionBuilder {
        self.io = Some((fs, wal));
        self
    }

    /// Run partition phases on worker threads (one per owned machine).
    pub fn parallel(mut self, on: bool) -> SessionBuilder {
        self.cfg.parallel = on;
        self
    }

    /// Superstep cap (`usize::MAX` = run to convergence).
    pub fn max_supersteps(mut self, n: usize) -> SessionBuilder {
        self.cfg.max_supersteps = n;
        self
    }

    /// The Δ-walk optimization switches (§6.4.2 ablation axes).
    pub fn opts(mut self, opts: OptFlags) -> SessionBuilder {
        self.cfg.opts = opts;
        self
    }

    /// Vertex-store delta maintenance policy.
    pub fn maintenance(mut self, policy: MaintenancePolicy) -> SessionBuilder {
        self.cfg.maintenance = policy;
        self
    }

    /// The configuration the terminal methods will build with.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Compile `L_NGA` source and build the session. This is the terminal
    /// to use with [`TransportKind::Cluster`] — workers rebuild the
    /// program from the shipped source.
    pub fn from_source(self, src: &str, input: &GraphInput) -> Result<Session, EngineError> {
        Session::new(itg_compiler::compile_source(src)?, input, self.cfg, self.io)
    }

    /// Build the session from an already-compiled program.
    pub fn build(
        self,
        program: CompiledProgram,
        input: &GraphInput,
    ) -> Result<Session, EngineError> {
        Session::new(program, input, self.cfg, self.io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itg_gsa::value::Value;
    use itg_store::{EdgeMutation, MutationBatch};

    const DEG: &str = "Vertex (id, active, nbrs, deg: Accm<long, SUM>)
         Initialize (u): { u.active = true; }
         Traverse (u): { For v in u.nbrs { v.deg.Accumulate(1); } }
         Update (u): { }";

    #[test]
    fn builder_knobs_land_in_the_config() {
        let b = SessionBuilder::from_config(EngineConfig::default())
            .machines(4)
            .threads(2)
            .cluster(ClusterSpec::tcp(2))
            .max_supersteps(7)
            .opts(OptFlags::none());
        let cfg = b.config();
        assert_eq!(cfg.machines, 4);
        assert!(cfg.parallel, "multi-machine implies parallel phases");
        assert_eq!(cfg.threads_per_machine, 2);
        assert_eq!(
            cfg.transport,
            TransportKind::Cluster(ClusterSpec::tcp(2))
        );
        assert_eq!(cfg.max_supersteps, 7);
        assert!(!cfg.opts.min_count);
    }

    #[test]
    fn machines_clamp_and_parallel_override() {
        let b = SessionBuilder::from_config(EngineConfig::default())
            .machines(0)
            .parallel(true);
        assert_eq!(b.config().machines, 1);
        assert!(b.config().parallel);
    }

    #[test]
    fn builder_builds_a_running_session() {
        let g = GraphInput::undirected(vec![(0, 1), (1, 2)]);
        let mut sess = SessionBuilder::from_config(EngineConfig::default())
            .machines(2)
            .from_source(DEG, &g)
            .expect("compiles");
        let m = sess.run_oneshot();
        assert_eq!(m.supersteps, 1);
    }

    #[test]
    fn a_config_no_session_can_run_on_is_an_error() {
        let g = GraphInput::undirected(vec![(0, 1), (1, 2)]);
        let zero_pages = EngineConfig {
            page_size: 0,
            ..EngineConfig::default()
        };
        for cfg in [EngineConfig::with_machines(0), zero_pages] {
            let built = SessionBuilder::from_config(cfg).from_source(DEG, &g);
            assert!(
                matches!(built, Err(EngineError::Config(_))),
                "{:?}",
                built.err()
            );
        }
    }

    #[test]
    fn attribute_reads_without_a_run_behind_them_are_errors() {
        let g = GraphInput::undirected(vec![(0, 1), (1, 2)]);
        let mut sess = SessionBuilder::from_config(EngineConfig::with_machines(2))
            .from_source(DEG, &g)
            .unwrap();
        let no_run = |r: Result<Value, EngineError>| matches!(r, Err(EngineError::Unsupported(_)));
        assert!(no_run(sess.attr_value(0, "active")));
        assert!(matches!(
            sess.attr_column("active"),
            Err(EngineError::Unsupported(_))
        ));
        sess.run_oneshot();
        assert_eq!(sess.attr_column("active").unwrap().len(), 3);
        assert!(matches!(
            sess.attr_value(3, "active"),
            Err(EngineError::UnknownVertex(3))
        ));
        // A vertex a batch added has no final value until the next run.
        sess.apply_mutations(&MutationBatch::new(vec![EdgeMutation::insert(2, 3)]));
        assert!(no_run(sess.attr_value(3, "active")));
        sess.run_incremental();
        assert!(sess.attr_value(3, "active").is_ok());
    }
}
