//! Engine configuration: simulated cluster size, window/buffer budgets, and
//! the optimization flags evaluated in the paper's ablation (§6.4.2).

use crate::durability::DurabilityKind;
use crate::session::EngineError;
use crate::transport::{ClusterSpec, TransportKind};
use itg_store::codec::{CodecError, CodecResult, Reader, Writer};
use itg_store::MaintenancePolicy;

/// The run-time optimization switches (Figure 16's ablation axes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptFlags {
    /// TR — traversal reordering: start Δ-walk enumeration at the delta
    /// stream's endpoints instead of re-executing the full prefix. A
    /// sub-query with a compiled rooted walk (`DeltaSubQuery::rooted`: an
    /// id-only query whose Δ hop does not leave the start) starts at its Δ
    /// edges' sources — at their ends on the start, when the Δ hop closes
    /// there — and takes the Δ hop first, with no MS-BFS; any other
    /// Δes sub-query starts at the vertices backward MS-BFS reaches from
    /// the Δ edges (`V_Δ`).
    pub traversal_reorder: bool,
    /// NP — neighbor pruning: restrict Δ-walk enumeration of the sub-queries
    /// that do not run rooted to the per-depth vertex sets found by
    /// backward MS-BFS. A rooted walk has nothing left to prune: its first
    /// hop is the Δ.
    pub neighbor_prune: bool,
    /// SWS — seek/window sharing: batch-process the Rule ⑦ sub-queries per
    /// start vertex so their window seeks share IO.
    pub seek_window_share: bool,
    /// CNT — Min/Max with support counting: avoid monoid recomputation when
    /// the retracted value was not the sole extremum.
    pub min_count: bool,
    /// Ignored: every accumulator folds on the typed lane of its `(op,
    /// prim)` pair (DESIGN.md §10.1), and there is no other path to select.
    /// Kept for configuration literals that name it; the replay block
    /// still carries its byte, written `true`.
    pub specialize: bool,
}

impl Default for OptFlags {
    fn default() -> OptFlags {
        OptFlags {
            traversal_reorder: true,
            neighbor_prune: true,
            seek_window_share: true,
            min_count: true,
            specialize: true,
        }
    }
}

impl OptFlags {
    /// The BASE configuration of §6.4.2: everything off.
    pub fn none() -> OptFlags {
        OptFlags {
            traversal_reorder: false,
            neighbor_prune: false,
            seek_window_share: false,
            min_count: false,
            specialize: false,
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of simulated machines (partitions / worker threads).
    pub machines: usize,
    /// Vertices per graph-window chunk during walk enumeration.
    pub window_capacity: usize,
    /// Buffer pool capacity per machine, bytes.
    pub buffer_pool_bytes: u64,
    /// Page size, bytes.
    pub page_size: u64,
    /// Superstep cap (e.g. 10 for the paper's Group 1 runs); `usize::MAX`
    /// means run to convergence.
    pub max_supersteps: usize,
    /// Vertex-store delta maintenance policy (Figure 17).
    pub maintenance: MaintenancePolicy,
    /// Ignored: the vertex store has no window cache — every window load
    /// reads its baseline and chain, bounded by the merge policy alone.
    /// Kept for configuration literals that name it; ROADMAP item 1 (f)
    /// removes it.
    pub cache_bytes: u64,
    pub opts: OptFlags,
    /// Run partition phases on worker threads (one per machine). With
    /// `false` the phases run sequentially — deterministic and easier to
    /// debug; metrics are identical either way.
    pub parallel: bool,
    /// Intra-partition worker threads per machine for walk enumeration
    /// (one-shot Traverse and Rule ⑦ ΔTraverse). Start-vertex lists are
    /// split into chunks whose boundaries depend only on the list length,
    /// and cells fold either in chunk order or, when every lane is exact,
    /// where they land, so every value of this knob produces byte-identical
    /// results — including `1`, which runs the same chunks inline.
    pub threads_per_machine: usize,
    /// The superstep message-exchange plane. [`TransportKind::Local`] (the
    /// default) keeps every partition in this process;
    /// [`TransportKind::Cluster`] runs partition groups in separate
    /// `itg-partition-worker` OS processes, the fleet being what a
    /// [`ClusterSpec`] describes (spawned and dialing back over TCP or a
    /// Unix-domain socket, or pre-started endpoints). [`parse_transport`]
    /// reads the names `itg --transport` takes.
    pub transport: TransportKind,
    /// Durability: [`DurabilityKind::None`] (default) or
    /// [`DurabilityKind::Wal`], which logs every state-changing command to
    /// a segmented write-ahead log before executing it and checkpoints
    /// snapshots for [`crate::Session::recover`] (DESIGN.md §9). Only
    /// supported with [`TransportKind::Local`].
    pub durability: DurabilityKind,
    /// Ignored: [`crate::Session::checkpoint`] always stores a snapshot as
    /// a byte delta against the previous one where the chain allows it
    /// (DESIGN.md §9). Kept for configuration literals that name it.
    pub snapshot_delta: bool,
    /// Observability recorder threaded through the session, its stores,
    /// and its walkers. Defaults to a clone of [`itg_obs::global`] — a
    /// no-op unless the `ITG_PROFILE` environment variable enables it (or
    /// `itg_obs::init_global` ran first). Override with
    /// [`itg_obs::Recorder::enabled`] to profile one session in isolation:
    ///
    /// ```
    /// let mut cfg = itg_engine::EngineConfig::default();
    /// cfg.obs = itg_obs::Recorder::enabled();
    /// assert!(cfg.obs.is_enabled());
    /// ```
    pub obs: itg_obs::Recorder,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            machines: 1,
            window_capacity: 1024,
            buffer_pool_bytes: 64 << 20,
            page_size: 4096,
            max_supersteps: usize::MAX,
            maintenance: MaintenancePolicy::CostBased,
            cache_bytes: 0,
            opts: OptFlags::default(),
            parallel: false,
            threads_per_machine: default_threads_per_machine(),
            transport: TransportKind::Local,
            durability: DurabilityKind::None,
            snapshot_delta: true,
            obs: itg_obs::global().clone(),
        }
    }
}

/// Default intra-partition thread count: the `ITG_THREADS_PER_MACHINE`
/// environment variable when set (CI runs the whole test suite at 4 this
/// way), otherwise 1.
fn default_threads_per_machine() -> usize {
    parse_threads(std::env::var("ITG_THREADS_PER_MACHINE").ok().as_deref()).unwrap_or(1)
}

fn parse_threads(var: Option<&str>) -> Option<usize> {
    var.and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

impl EngineConfig {
    pub fn with_machines(machines: usize) -> EngineConfig {
        EngineConfig {
            machines,
            parallel: machines > 1,
            ..EngineConfig::default()
        }
    }

    /// Builder-style override of [`EngineConfig::threads_per_machine`].
    pub fn with_threads(mut self, threads: usize) -> EngineConfig {
        self.threads_per_machine = threads.max(1);
        self
    }

    /// Serialize the subset of the configuration a replay depends on — the
    /// one codec behind both the session snapshot's configuration block
    /// and the cluster bootstrap frame. Left out, because results are
    /// byte-identical whatever they are: the transport, durability and the
    /// recorder (re-attached by whoever decodes); `cache_bytes` and
    /// `snapshot_delta` are ignored.
    pub(crate) fn encode_replay(&self, w: &mut Writer) {
        w.u64(self.machines as u64);
        w.u64(self.window_capacity as u64);
        w.u64(self.buffer_pool_bytes);
        w.u64(self.page_size);
        w.u64(self.max_supersteps as u64);
        match self.maintenance {
            MaintenancePolicy::NoMerge => w.u8(0),
            MaintenancePolicy::Periodic(p) => {
                w.u8(1);
                w.u64(p as u64);
            }
            MaintenancePolicy::CostBased => w.u8(2),
        }
        w.bool(self.opts.traversal_reorder);
        w.bool(self.opts.neighbor_prune);
        w.bool(self.opts.seek_window_share);
        w.bool(self.opts.min_count);
        w.bool(true); // the ignored `specialize`
        w.bool(self.parallel);
        w.u64(self.threads_per_machine as u64);
    }

    /// The inverse of [`EngineConfig::encode_replay`]: the shipped fields
    /// over [`EngineConfig::default`]. A block no session can run on — no
    /// machines, or pages of zero bytes — is [`CodecError::Malformed`].
    pub(crate) fn decode_replay(r: &mut Reader<'_>) -> CodecResult<EngineConfig> {
        let cfg = EngineConfig {
            machines: r.u64()? as usize,
            window_capacity: r.u64()? as usize,
            buffer_pool_bytes: r.u64()?,
            page_size: r.u64()?,
            max_supersteps: r.u64()? as usize,
            maintenance: match r.u8()? {
                0 => MaintenancePolicy::NoMerge,
                1 => MaintenancePolicy::Periodic(r.u64()? as usize),
                2 => MaintenancePolicy::CostBased,
                tag => return Err(CodecError::BadTag { what: "maintenance policy", tag }),
            },
            opts: OptFlags {
                traversal_reorder: r.bool()?,
                neighbor_prune: r.bool()?,
                seek_window_share: r.bool()?,
                min_count: r.bool()?,
                specialize: r.bool()?,
            },
            parallel: r.bool()?,
            threads_per_machine: r.u64()? as usize,
            ..EngineConfig::default()
        };
        match cfg.unrunnable() {
            Some(what) => Err(CodecError::Malformed(what)),
            None => Ok(cfg),
        }
    }

    /// Why no session can run on this configuration, if none can.
    pub(crate) fn unrunnable(&self) -> Option<&'static str> {
        if self.machines == 0 {
            Some("configuration: machines must be at least 1")
        } else if self.page_size == 0 {
            Some("configuration: page_size must be at least 1 byte")
        } else {
            None
        }
    }
}

/// Parse a transport name — `local`, `tcp[://ADDR]` (the coordinator's
/// listen address; default `127.0.0.1:0`) or `uds[://DIR]` (the socket
/// directory; default a fresh temp directory) — as `itg --transport` and
/// `expt --transport` spell it. Cluster kinds spawn one worker per machine.
pub fn parse_transport(name: &str) -> Result<TransportKind, EngineError> {
    let name = name.trim();
    let (scheme, at) = match name.split_once("://") {
        Some((scheme, at)) => (scheme, Some(at)),
        None => (name, None),
    };
    let spec = match (scheme.to_ascii_lowercase().as_str(), at) {
        ("local", None) => return Ok(TransportKind::Local),
        ("tcp", None) => ClusterSpec::tcp(0),
        ("tcp", Some(addr)) if !addr.is_empty() => ClusterSpec::tcp_at(addr, 0),
        ("uds", None) => ClusterSpec::uds(0),
        ("uds", Some(dir)) if !dir.is_empty() => ClusterSpec::uds_at(dir, 0),
        _ => {
            return Err(EngineError::Config(format!(
                "transport must be one of local|tcp[://ADDR]|uds[://DIR], got `{name}`"
            )))
        }
    };
    Ok(TransportKind::Cluster(spec))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_all_optimizations() {
        let c = EngineConfig::default();
        assert!(c.opts.traversal_reorder && c.opts.neighbor_prune);
        assert!(c.opts.seek_window_share && c.opts.min_count);
        assert!(c.opts.specialize);
        assert_eq!(c.machines, 1);
    }

    #[test]
    fn replay_block_roundtrips_every_shipped_field() {
        let cfg = EngineConfig {
            machines: 8,
            window_capacity: 77,
            buffer_pool_bytes: 1 << 20,
            page_size: 512,
            max_supersteps: usize::MAX,
            maintenance: MaintenancePolicy::Periodic(6),
            opts: OptFlags { neighbor_prune: false, ..OptFlags::default() },
            parallel: true,
            threads_per_machine: 4,
            ..EngineConfig::default()
        };
        let mut w = Writer::new();
        cfg.encode_replay(&mut w);
        let mut r = Reader::new(&w.buf);
        let back = EngineConfig::decode_replay(&mut r).unwrap();
        r.finish().unwrap();
        let mut again = Writer::new();
        back.encode_replay(&mut again);
        assert_eq!(again.buf, w.buf);
        assert_eq!((back.machines, back.maintenance, back.opts), (8, cfg.maintenance, cfg.opts));
        // A truncated block and an unknown policy tag are errors.
        assert!(EngineConfig::decode_replay(&mut Reader::new(&w.buf[..w.buf.len() - 1])).is_err());
        let mut bad = w.buf.clone();
        bad[40] = 9;
        assert!(EngineConfig::decode_replay(&mut Reader::new(&bad)).is_err());
    }

    #[test]
    fn with_threads_clamps_to_one() {
        assert_eq!(EngineConfig::default().with_threads(0).threads_per_machine, 1);
        assert_eq!(EngineConfig::default().with_threads(4).threads_per_machine, 4);
    }

    #[test]
    fn garbage_thread_counts_fall_back_to_the_default() {
        assert_eq!(parse_threads(Some(" 3 ")), Some(3));
        for junk in [None, Some("zero"), Some("0"), Some("  ")] {
            assert_eq!(parse_threads(junk), None, "{junk:?}");
        }
    }

    #[test]
    fn base_flags_disable_all() {
        let f = OptFlags::none();
        assert!(!f.traversal_reorder && !f.neighbor_prune);
        assert!(!f.seek_window_share && !f.min_count);
        assert!(!f.specialize);
    }

    // `itg --transport` and `expt --transport` take the names the retired
    // `ITG_TRANSPORT` variable took; these tests keep its names.
    #[test]
    fn transport_env_selects_the_plane() {
        let cluster = TransportKind::Cluster;
        for (value, want) in [
            ("local", TransportKind::Local),
            (" TCP ", cluster(ClusterSpec::tcp(0))),
            ("tcp://127.0.0.1:7171", cluster(ClusterSpec::tcp_at("127.0.0.1:7171", 0))),
            ("uds:///tmp/itg-sockets", cluster(ClusterSpec::uds_at("/tmp/itg-sockets", 0))),
        ] {
            assert_eq!(parse_transport(value).unwrap(), want, "{value}");
        }
        // Bare `uds` picks a fresh socket directory per call.
        assert!(matches!(
            parse_transport("uds").unwrap(),
            TransportKind::Cluster(ClusterSpec::Listen { uri, workers: 0 }) if uri.starts_with("uds://")
        ));
    }

    #[test]
    fn transport_env_garbage_is_a_hard_error() {
        // A topology name is not a tuning knob: garbage must not silently
        // run on the wrong plane.
        for value in ["carrier-pigeon", "pipes", "ftp://x", "local://x", "tcp://", "uds://", " "] {
            assert!(
                matches!(parse_transport(value), Err(EngineError::Config(_))),
                "`{value}` must be rejected"
            );
        }
    }

    #[test]
    fn replay_block_without_machines_or_page_bytes_is_malformed() {
        for cfg in [
            EngineConfig { machines: 0, ..EngineConfig::default() },
            EngineConfig { page_size: 0, ..EngineConfig::default() },
        ] {
            let mut w = Writer::new();
            cfg.encode_replay(&mut w);
            let back = EngineConfig::decode_replay(&mut Reader::new(&w.buf));
            assert!(matches!(back, Err(CodecError::Malformed(_))), "{back:?}");
        }
    }
}
