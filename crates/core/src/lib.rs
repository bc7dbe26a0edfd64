//! # iTurboGraph — scaling and automating incremental graph analytics
//!
//! A from-scratch Rust implementation of the system described in
//! *"iTurboGraph: Scaling and Automating Incremental Graph Analytics"*
//! (Ko, Lee, Hong, Lee, Seo, Seo, Han — SIGMOD 2021): a domain-specific
//! language (`L_NGA`) for neighbor-centric graph analytics, a compiler
//! that lowers it to Graph Streaming Algebra and *automatically
//! incrementalizes* the query, and a runtime engine that executes both the
//! one-shot and incremental plans over a delta-based dynamic graph store.
//!
//! ## Quick start
//!
//! ```
//! use iturbograph::prelude::*;
//!
//! // Triangle counting, written once in L_NGA — the incremental plan is
//! // derived automatically.
//! let graph = GraphInput::undirected(vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
//! let mut session = SessionBuilder::new()
//!     .from_source(iturbograph::algorithms::TRIANGLE_COUNT, &graph)
//!     .unwrap();
//!
//! session.run_oneshot();
//! assert_eq!(session.global_value("cnts", None).unwrap(), Value::Long(1));
//!
//! // Stream in a mutation batch and update the result incrementally.
//! session.apply_mutations(&MutationBatch::new(vec![EdgeMutation::insert(1, 3)]));
//! session.run_incremental();
//! assert_eq!(session.global_value("cnts", None).unwrap(), Value::Long(2));
//! ```
//!
//! ## Standing queries
//!
//! [`QueryRegistry`](prelude::QueryRegistry) (the engine behind
//! `itg serve`) maintains many registered queries against one mutation
//! stream, backing structurally identical queries with a single shared
//! session so their Δ-walks are enumerated once per batch:
//!
//! ```
//! use iturbograph::prelude::*;
//!
//! let graph = GraphInput::undirected(vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
//! let mut registry =
//!     QueryRegistry::new(&graph, EngineConfig::default(), ServeLimits::default());
//! let a = registry.register("tc-a", iturbograph::algorithms::TRIANGLE_COUNT).unwrap();
//! let b = registry.register("tc-b", iturbograph::algorithms::TRIANGLE_COUNT).unwrap();
//! assert_eq!(registry.num_groups(), 1); // structural twins share one session
//!
//! let batch = MutationBatch::new(vec![EdgeMutation::insert(1, 3)]);
//! let stats = registry.commit(&batch).unwrap();
//! assert_eq!(stats.share_hits, 1); // enumerated once, fanned out to both
//! assert_eq!(registry.global_value(a, "cnts").unwrap(), Value::Long(2));
//! assert_eq!(registry.global_value(b, "cnts").unwrap(), Value::Long(2));
//! ```
//!
//! Sharing is keyed on plan equality,
//! [`same_plan`](prelude::CompiledProgram::same_plan), which leaves
//! declared names out, and results are byte-identical to running each
//! query in its own isolated session (DESIGN.md §11).
//!
//! ## Crate map
//!
//! | Re-export | Crate | Paper section |
//! |---|---|---|
//! | [`lnga`] | `itg-lnga` | §3 — the `L_NGA` language front end |
//! | [`gsa`] | `itg-gsa` | §4 — Graph Streaming Algebra, Table 4 rules |
//! | [`compiler`] | `itg-compiler` | §4.4/§5.1 — lowering + incrementalization |
//! | [`store`] | `itg-store` | §5.5 — the delta-based dynamic graph store |
//! | [`engine`] | `itg-engine` | §5.2–5.4 — the BSP runtime and Δ-walks |
//! | [`algorithms`] | `itg-algorithms` | §6.1 — PR, LP, WCC, BFS, TC, LCC |
//! | [`graphgen`] | `itg-graphgen` | §6.1 — RMAT, upscaling, workloads |

pub use itg_compiler as compiler;
pub use itg_engine as engine;
pub use itg_graphgen as graphgen;
pub use itg_gsa as gsa;
pub use itg_lnga as lnga;
pub use itg_obs as obs;
pub use itg_store as store;

/// The paper's six evaluation algorithms as ready-to-compile `L_NGA`
/// sources, plus native reference implementations.
pub mod algorithms {
    pub use itg_algorithms::native;
    pub use itg_algorithms::programs::*;
    pub use itg_algorithms::SimpleGraph;
}

/// The common imports for applications.
pub mod prelude {
    pub use itg_compiler::{compile_source, CompiledProgram};
    pub use itg_engine::{
        ClusterSpec, CommitStats, DurabilityKind, EngineConfig, GraphInput, OptFlags, QueryId,
        QueryRegistry, RegistryError, RunKind, RunMetrics, ServeLimits, Session, SessionBuilder,
        SnapshotId, TransportKind,
    };
    pub use itg_gsa::{Value, VertexId};
    pub use itg_store::{BatchReceipt, EdgeMutation, MaintenancePolicy, MutationBatch};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn facade_quickstart_compiles_and_runs() {
        let graph = GraphInput::undirected(vec![(0, 1), (0, 2), (1, 2)]);
        let mut s = SessionBuilder::from_config(EngineConfig::default())
            .from_source(crate::algorithms::TRIANGLE_COUNT, &graph)
            .unwrap();
        s.run_oneshot();
        assert_eq!(s.global_value("cnts", None).unwrap(), Value::Long(1));
    }
}
