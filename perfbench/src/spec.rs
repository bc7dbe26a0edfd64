//! The five workloads: what each runs, at what size, and why it exists.
//!
//! Sizes are fixed by the time one benchmark run may take (see
//! `BENCHMARK.json`): one replay of a workload's history — session build,
//! one-shot, warm-up and timed batches — takes two to three seconds, so a
//! run of fifteen seconds, at one replay per three, takes about that long.
//! Each insert pool (a tenth of the graph) outlasts warm-up and timed
//! batches.

use itg_bench::Dataset;
use iturbograph::obs::Recorder;
use iturbograph::prelude::*;
use std::path::Path;

/// Untimed batches at the head of every replay: caches fill, delta chains
/// reach their steady length.
pub const WARMUP_BATCHES: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    PageRank,
    TriangleCount,
    Bfs,
    LabelProp,
}

/// Where an algorithm leaves the result the oracle compares.
#[derive(Debug, Clone, Copy)]
pub enum ResultRef {
    Attr(&'static str),
    Global(&'static str),
}

impl Algo {
    pub fn key(self) -> &'static str {
        match self {
            Algo::PageRank => "pr",
            Algo::TriangleCount => "tc",
            Algo::Bfs => "bfs",
            Algo::LabelProp => "lp",
        }
    }

    /// The L_NGA program; BFS starts at vertex 0, an RMAT graph's hub.
    pub fn source(self) -> String {
        iturbograph::algorithms::source(self.key()).expect("a built-in program")
    }

    pub fn undirected(self) -> bool {
        iturbograph::algorithms::is_undirected(self.key())
    }

    pub fn result(self) -> ResultRef {
        match self {
            Algo::PageRank => ResultRef::Attr("rank"),
            Algo::TriangleCount => ResultRef::Global("cnts"),
            Algo::Bfs => ResultRef::Attr("dist"),
            Algo::LabelProp => ResultRef::Attr("label"),
        }
    }
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub algo: Algo,
    /// The graph is `RMAT_<scale>`: `2^scale` edges over `2^(scale-4)`
    /// vertices, 90 % loaded as G₀ and 10 % held back as the insert pool.
    pub scale: u32,
    pub batch_size: usize,
    pub insert_pct: u32,
    pub timed_batches: usize,
    pub cache_bytes: u64,
    pub buffer_pool_bytes: u64,
    /// 1 = `TransportKind::Local`; 2 = two `itg-partition-worker`
    /// processes over Unix-domain sockets.
    pub machines: usize,
    /// WAL + delta snapshots, a checkpoint every `checkpoint_every`
    /// batches, and a recovery at the end of the history.
    pub durable: bool,
    pub checkpoint_every: usize,
    /// A from-scratch session checks the result after every
    /// `oracle_every`-th batch and after the last.
    pub oracle_every: usize,
    /// Test hook: make the oracle check with this index compare against a
    /// corrupted expectation, to prove a mismatch is counted.
    pub corrupt_oracle_check: Option<usize>,
}

const DEFAULT_POOL: u64 = 64 << 20;
pub const PAGE_SIZE: u64 = 4096;
const WINDOW_CAPACITY: usize = 1024;

impl Spec {
    pub fn all() -> Vec<Spec> {
        let base = Spec {
            name: "",
            algo: Algo::PageRank,
            scale: 16,
            batch_size: 64,
            insert_pct: 75,
            timed_batches: 100,
            cache_bytes: 0,
            buffer_pool_bytes: DEFAULT_POOL,
            machines: 1,
            durable: false,
            checkpoint_every: 0,
            oracle_every: 20,
            corrupt_oracle_check: None,
        };
        vec![
            Spec {
                name: "pr-stream",
                cache_bytes: 32 << 20,
                ..base.clone()
            },
            Spec {
                name: "tc-stream",
                algo: Algo::TriangleCount,
                scale: 14,
                batch_size: 12,
                ..base.clone()
            },
            Spec {
                name: "bfs-churn",
                algo: Algo::Bfs,
                scale: 19,
                batch_size: 400,
                insert_pct: 25,
                timed_batches: 200,
                buffer_pool_bytes: 256 << 10,
                ..base.clone()
            },
            Spec {
                name: "lp-durable",
                algo: Algo::LabelProp,
                scale: 15,
                batch_size: 32,
                durable: true,
                checkpoint_every: 8,
                ..base.clone()
            },
            Spec {
                name: "pr-cluster",
                cache_bytes: 32 << 20,
                machines: 2,
                ..base
            },
        ]
    }

    pub fn by_name(name: &str) -> Option<Spec> {
        Spec::all().into_iter().find(|s| s.name == name)
    }

    /// The same workload at a size a test can run in a second: `RMAT_10`
    /// and twelve batches.
    pub fn tiny(name: &str) -> Option<Spec> {
        let spec = Spec::by_name(name)?;
        Some(Spec {
            scale: 10,
            batch_size: 8,
            timed_batches: 12 - WARMUP_BATCHES,
            oracle_every: 4,
            checkpoint_every: if spec.durable { 4 } else { 0 },
            ..spec
        })
    }

    pub fn total_batches(&self) -> usize {
        WARMUP_BATCHES + self.timed_batches
    }

    pub fn dataset(&self, seed: u64) -> Dataset {
        let name = format!("RMAT_{}", self.scale);
        if self.algo.undirected() {
            Dataset::rmat_undirected(&name, self.scale, seed)
        } else {
            Dataset::rmat_directed(&name, self.scale, seed)
        }
    }

    /// Every field is written out: `EngineConfig::default()` reads the
    /// `ITG_*` environment, and a field added to the engine later must be
    /// decided here, not inherited.
    ///
    /// `wal` and `uds` are fresh directories the session may write its log
    /// and its sockets to; a workload that has neither never touches them.
    pub fn engine_config(&self, obs: Recorder, wal: &Path, uds: &Path) -> EngineConfig {
        EngineConfig {
            machines: self.machines,
            window_capacity: WINDOW_CAPACITY,
            buffer_pool_bytes: self.buffer_pool_bytes,
            page_size: PAGE_SIZE,
            max_supersteps: itg_bench::superstep_cap(self.algo.key()),
            maintenance: MaintenancePolicy::CostBased,
            cache_bytes: self.cache_bytes,
            opts: OptFlags {
                traversal_reorder: true,
                neighbor_prune: true,
                seek_window_share: true,
                min_count: true,
                specialize: true,
            },
            parallel: self.machines > 1,
            threads_per_machine: 1,
            transport: if self.machines > 1 {
                TransportKind::Cluster(ClusterSpec::uds_at(uds, self.machines))
            } else {
                TransportKind::Local
            },
            durability: if self.durable {
                DurabilityKind::Wal {
                    dir: wal.to_path_buf(),
                }
            } else {
                DurabilityKind::None
            },
            snapshot_delta: true,
            obs,
        }
    }

    /// The configuration of the from-scratch oracle and of probes that
    /// need a plain session: this workload's program on one local machine,
    /// nothing durable, nothing observed.
    pub fn plain_config(&self) -> EngineConfig {
        let plain = Spec {
            machines: 1,
            durable: false,
            ..self.clone()
        };
        let nowhere = Path::new("");
        plain.engine_config(Recorder::disabled(), nowhere, nowhere)
    }

    /// The configuration as recorded with the results.
    pub fn describe(&self) -> String {
        format!(
            "algo={} graph=RMAT_{} batches={}+{}x{}@{}:{} machines={} transport={} \
             threads_per_machine=1 cache_bytes={} buffer_pool_bytes={} page_size={PAGE_SIZE} \
             window_capacity={WINDOW_CAPACITY} max_supersteps={} maintenance=CostBased opts=all \
             durability={} snapshot_delta=true checkpoint_every={} oracle_every={}",
            self.algo.key(),
            self.scale,
            WARMUP_BATCHES,
            self.timed_batches,
            self.batch_size,
            self.insert_pct,
            100 - self.insert_pct,
            self.machines,
            if self.machines > 1 { "uds" } else { "local" },
            self.cache_bytes,
            self.buffer_pool_bytes,
            match itg_bench::superstep_cap(self.algo.key()) {
                usize::MAX => "convergence".to_string(),
                n => n.to_string(),
            },
            if self.durable { "wal" } else { "none" },
            self.checkpoint_every,
            self.oracle_every,
        )
    }
}
