//! # itg-engine — the iTurboGraph runtime engine (paper §5)
//!
//! Executes compiled `L_NGA` programs over the dynamic graph store under
//! the BSP model: one-shot plans by windowed walk enumeration, incremental
//! plans by Δ-walk enumeration with traversal reordering, MS-BFS neighbor
//! pruning, seek/window sharing, and group/monoid-aware incremental
//! Accumulate. The cluster is simulated: vertices are hash-partitioned
//! across worker "machines", cross-partition adjacency reads and
//! pre-aggregated accumulator exchanges are charged as network bytes, and
//! all store reads flow through per-machine buffer pools.

//! ## Distribution
//!
//! The default [`transport::TransportKind::Local`] plane keeps every
//! partition in-process, and its exchange moves typed accumulator cells;
//! [`transport::TransportKind::Cluster`] runs partition groups in separate
//! `itg-partition-worker` OS processes, exchanging the versioned
//! [`wire::Payload`] binary format over one [`link::Conn`] per worker —
//! TCP or Unix-domain sockets — with the coordinator as a hub that
//! relays frames and releases the `sync` rounds every cross-rank agreement
//! goes through (DESIGN.md §8).

//! ## Standing queries
//!
//! [`registry::QueryRegistry`] is the multi-tenant layer over [`Session`]:
//! queries register against a live graph, every committed mutation batch
//! drives all registered Δ-plans, and queries with the same plan (equal
//! up to declared names: [`itg_compiler::CompiledProgram::same_plan`])
//! share one backing session so their Δ-walks are enumerated once per
//! batch (DESIGN.md §11). The `itg serve` CLI and `expt serve` workload
//! are built on it.

pub mod accum;
pub mod builder;
pub mod config;
mod coordinator;
mod driver;
pub mod durability;
mod exchange;
mod fleet;
pub mod graph;
pub mod link;
pub mod metrics;
pub mod msbfs;
mod recompute;
pub mod registry;
pub mod session;
mod stream;
pub mod transport;
pub mod walker;
pub mod wire;
pub mod worker;

pub use builder::SessionBuilder;
pub use config::{EngineConfig, OptFlags};
pub use durability::{DurabilityKind, SnapshotId};
pub use graph::{ClusterGraph, GraphInput};
pub use metrics::{ParallelMetrics, RunKind, RunMetrics};
pub use registry::{CommitStats, QueryId, QueryRegistry, RegistryError, ServeLimits};
pub use session::{EngineError, Session};
pub use transport::{ClusterSpec, TransportError, TransportKind};
pub use wire::Payload;
