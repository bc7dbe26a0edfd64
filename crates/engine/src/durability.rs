//! Durability: segmented write-ahead logging, incremental snapshots, and
//! recovery (DESIGN.md §9).
//!
//! A durable session logs every state-changing command — the one-shot run,
//! each mutation batch, each incremental run, each compaction — to a
//! [`Wal`] *before* executing it. Because the engine's execution is
//! deterministic given the stores and the command sequence (for every
//! thread count — see [`crate::EngineConfig::threads_per_machine`]),
//! recovery is: materialize the latest snapshot found by name (composing
//! its delta chain over the nearest full snapshot), then re-execute the
//! WAL tail from the `wal_start` its name carries. The recovered
//! session's attribute values, global history, and store epochs are
//! byte-identical to the pre-crash state — a torn final WAL record (the
//! process died mid-append) is truncated, everything else replays.
//!
//! Snapshots serialize the *full* session state: the compiled program's
//! source text, the deterministic configuration subset, every partition's
//! edge-store segment chains (structure preserved exactly — flattening
//! would change neighbor scan order and hence float accumulation order),
//! both attribute stores with their delta chains, the working arrays, the
//! global accumulator history, and the per-snapshot superstep counts.
//! A checkpoint *stores* that image as an [`itg_store::delta`] document
//! against the previous epoch's — epoch 0 and every
//! [`MAX_DELTA_CHAIN`]-th epoch stay full so recovery composes a bounded
//! chain. The snapshot's rename to `snapshot-<epoch>-<wal_start>.bin`
//! (or `.delta.bin`) is the commit point; after it, WAL segments fully
//! covered by the new snapshot are garbage-collected.
//!
//! A session is durable when built with
//! [`crate::SessionBuilder::durability`] (or `itg run --wal-dir`). The
//! session is the log's one writer: each command is one serialized,
//! fsynced [`Wal::append`]. Every file write goes through one
//! [`DurableFs`] — the crash-state tests hand in a recording one
//! (DESIGN.md §9.8).

use crate::accum::{AccmLayout, BufferPool};
use crate::config::EngineConfig;
use crate::graph::ClusterGraph;
use crate::session::{EngineError, PartitionState, Plane, Session, SessionObs};
use itg_gsa::value::ColumnData;
use itg_store::codec::{CodecError, CodecResult, Reader, Writer};
use itg_store::snapshot::{get_column, get_value, put_column, put_value};
use itg_store::wal::{Wal, WalEntry, WalOptions, WalScan, WalStats};
use itg_store::{snapshot_file_name, AttrStore, DurableFs, Manifest, SnapshotKind, StdFs};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Snapshot-payload format version (inside the checksummed
/// [`itg_store::snapshot`] container, which carries its own magic).
/// Unchanged by delta snapshots: a delta file stores an
/// [`itg_store::delta`] document *inside* the same container, and
/// composing the chain yields a payload of this version byte-identical to
/// a full snapshot's. Version 4: sparse edge delta segments and nothing
/// else of the edge chain — the signed index is derived on load (DESIGN.md
/// §4.5); older images are rejected with [`CodecError::BadVersion`] —
/// re-run from the graph input instead.
const SESSION_SNAPSHOT_VERSION: u8 = 4;

/// Upper bound on a delta-snapshot chain: once this many snapshots link
/// back to the nearest full one, the next checkpoint writes a full image
/// again. Bounds both recovery composition work and the number of old
/// snapshot files a live one can depend on.
pub const MAX_DELTA_CHAIN: usize = 8;

/// Whether and where a session persists its command history.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum DurabilityKind {
    /// No durability: state lives and dies with the process (the default,
    /// and the PR 3 baseline the `wal_overhead` benchmark pins).
    #[default]
    None,
    /// Write-ahead logging into `dir` (`wal-<start_lsn>.log` segments and
    /// `snapshot-<epoch>-<wal_start>.bin` / `.delta.bin` files), with an
    /// epoch-0 full snapshot written at session creation so recovery
    /// always has a base.
    Wal { dir: PathBuf },
}

/// The identifier [`Session::checkpoint`] returns: the snapshot's epoch,
/// as its file name spells it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SnapshotId(pub u64);

/// Where a durable session writes and how its WAL is cut: [`StdFs`] and
/// [`WalOptions::default`] unless [`crate::SessionBuilder::durable_io`]
/// names others.
pub(crate) type DurableIo = (Arc<dyn DurableFs>, WalOptions);

/// The open WAL plus the durability instruments, attached to a session.
pub(crate) struct DurableLog {
    dir: PathBuf,
    fs: Arc<dyn DurableFs>,
    wal: Wal,
    /// Set during recovery replay: re-executed commands must not re-append.
    pub(crate) replaying: bool,
    append_ns: itg_obs::HistHandle,
    fsyncs: itg_obs::CounterHandle,
    rotations: itg_obs::CounterHandle,
    delta_bytes: itg_obs::CounterHandle,
    replayed: itg_obs::CounterHandle,
    /// The WAL stats already mirrored into the obs counters; each
    /// [`DurableLog::sync_obs`] adds only the diff since this.
    stats_seen: WalStats,
    /// The previous snapshot's epoch and *payload* (the state image it
    /// materializes to) — the base the next delta snapshot diffs against.
    /// `None` until the first checkpoint, forcing it full.
    last_snapshot: Option<(u64, Vec<u8>)>,
    enabled: bool,
}

impl std::fmt::Debug for DurableLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableLog")
            .field("dir", &self.dir)
            .field("next_lsn", &self.wal.next_lsn())
            .field("replaying", &self.replaying)
            .finish()
    }
}

impl DurableLog {
    pub(crate) fn open(
        dir: &Path,
        rec: &itg_obs::Recorder,
        io: Option<DurableIo>,
    ) -> Result<(DurableLog, WalScan), EngineError> {
        let (fs, opts) = io.unwrap_or_else(|| (Arc::new(StdFs), WalOptions::default()));
        let (wal, scan) = Wal::open_on(fs.clone(), dir, opts).map_err(durability_err)?;
        Ok((
            DurableLog {
                dir: dir.to_path_buf(),
                fs,
                wal,
                replaying: false,
                append_ns: rec.hist("wal/append_ns"),
                fsyncs: rec.counter("wal/fsync"),
                rotations: rec.counter("wal/rotation"),
                delta_bytes: rec.counter("snapshot/delta_bytes"),
                replayed: rec.counter("recovery/replayed_records"),
                stats_seen: WalStats::default(),
                last_snapshot: None,
                enabled: rec.is_enabled(),
            },
            scan,
        ))
    }

    /// Log one command before execution. A no-op during recovery replay
    /// (the record is already in the log).
    fn append(&mut self, entry: &WalEntry) -> Result<(), EngineError> {
        if self.replaying {
            return Ok(());
        }
        let t0 = self.enabled.then(std::time::Instant::now);
        self.wal.append(entry).map_err(durability_err)?;
        self.sync_obs();
        if let Some(t0) = t0 {
            self.append_ns.observe(t0.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    /// Mirror the WAL's cumulative stats into the obs counters: the diff
    /// since the last call, since a rotation adds an fsync of its own.
    fn sync_obs(&mut self) {
        let now = self.wal.stats();
        self.fsyncs.add(now.fsyncs - self.stats_seen.fsyncs);
        self.rotations.add(now.rotations - self.stats_seen.rotations);
        self.stats_seen = now;
    }
}

fn durability_err(e: impl std::fmt::Display) -> EngineError {
    EngineError::Durability(e.to_string())
}

impl Session {
    /// Open the configured durability plane. Called once from
    /// [`Session::new`] for [`crate::TransportKind::Local`] sessions; writes
    /// the epoch-0 snapshot so recovery always has a base to replay onto.
    pub(crate) fn attach_durability(&mut self, io: Option<DurableIo>) -> Result<(), EngineError> {
        let DurabilityKind::Wal { dir } = self.cfg.durability.clone() else {
            return Ok(());
        };
        if self.program.source.is_empty() {
            return Err(EngineError::Unsupported(
                "durable sessions need the program's source text for \
                 snapshots; build with `from_source` (or `compile_source`), \
                 not a program compiled without source"
                    .into(),
            ));
        }
        let manifest = Manifest::load(&dir).map_err(durability_err)?;
        if manifest.latest().is_some() {
            return Err(EngineError::Durability(format!(
                "{} already contains snapshots; recover the existing \
                 history with Session::recover instead of creating a new \
                 session over it",
                dir.display()
            )));
        }
        let (log, scan) = DurableLog::open(&dir, &self.cfg.obs, io)?;
        if !scan.records.is_empty() {
            return Err(EngineError::Durability(format!(
                "{} has WAL records but no snapshot; refusing to overwrite \
                 an unrecoverable history",
                dir.display()
            )));
        }
        self.durable = Some(log);
        self.checkpoint()?;
        Ok(())
    }

    /// Log one command ahead of executing it. On a WAL failure the
    /// command must not execute: continuing would silently drop
    /// durability.
    pub(crate) fn log_command(&mut self, entry: &WalEntry) -> Result<(), EngineError> {
        match &mut self.durable {
            Some(d) => d.append(entry),
            None => Ok(()),
        }
    }

    /// Write a snapshot (an [`itg_store::delta`] document against the
    /// previous epoch while its chain is shorter than [`MAX_DELTA_CHAIN`],
    /// else full) under its final name, garbage-collect WAL segments the
    /// new snapshot fully covers, and return its epoch. Subsequent recovery replays only WAL
    /// records appended after this point. Errors on a session without
    /// [`DurabilityKind::Wal`].
    pub fn checkpoint(&mut self) -> Result<SnapshotId, EngineError> {
        if self.durable.is_none() {
            return Err(EngineError::Unsupported(
                "checkpoint on a session without durability (enable with \
                 SessionBuilder::durability)"
                    .into(),
            ));
        };
        // Serialize first: `encode_state` borrows the whole session.
        let mut w = Writer::new();
        self.encode_state(&mut w);
        let payload = w.buf;

        let d = self.durable.as_mut().expect("checked above");
        let wal_start = d.wal.next_lsn();
        let manifest = Manifest::load(&d.dir).map_err(durability_err)?;
        let epoch = manifest.next_epoch();

        // Delta only against the previous epoch (the name carries no base)
        // AND while its chain is short enough that this snapshot keeps
        // chain length ≤ MAX_DELTA_CHAIN.
        let delta = d
            .last_snapshot
            .as_ref()
            .filter(|(base_epoch, _)| {
                base_epoch + 1 == epoch
                    && manifest
                        .chain_for(*base_epoch)
                        .is_ok_and(|chain| chain.len() < MAX_DELTA_CHAIN)
            })
            .map(|(_, base_payload)| itg_store::delta::encode(base_payload, &payload));
        let (kind, bytes) = match &delta {
            Some(doc) => {
                d.delta_bytes.add(doc.len() as u64);
                (SnapshotKind::Delta { base_epoch: epoch - 1 }, doc)
            }
            None => (SnapshotKind::Full, &payload),
        };
        let path = d.dir.join(snapshot_file_name(epoch, wal_start, kind));

        // The rename inside `write_file` is the commit point: from here on
        // recovery starts at this snapshot.
        itg_store::snapshot::write_file(&*d.fs, &path, bytes).map_err(durability_err)?;
        d.wal.gc_below(wal_start).map_err(durability_err)?;
        d.last_snapshot = Some((epoch, payload));
        Ok(SnapshotId(epoch))
    }

    /// Rebuild a session from a durability directory: materialize the
    /// latest snapshot found by name (a full image, or a delta chain
    /// composed link by link over the nearest full snapshot — each link
    /// CRC-pinned to its exact base), then re-execute the WAL tail
    /// (records with `lsn >= wal_start`). A torn final record is
    /// truncated; any other WAL damage is an error. The recovered session
    /// logs into the same directory and observes through
    /// [`itg_obs::global`].
    pub fn recover(dir: impl AsRef<Path>) -> Result<Session, EngineError> {
        let dir = dir.as_ref();
        let manifest = Manifest::load(dir).map_err(durability_err)?;
        let Some(latest) = manifest.latest() else {
            return Err(EngineError::Durability(format!(
                "{} holds no snapshot; nothing to recover",
                dir.display()
            )));
        };
        let chain = manifest.chain_for(latest.epoch).map_err(durability_err)?;
        let mut payload: Vec<u8> = Vec::new();
        for entry in &chain {
            let bytes = itg_store::snapshot::read_file(&dir.join(&entry.file))
                .map_err(durability_err)?;
            payload = match entry.kind {
                SnapshotKind::Full => bytes,
                SnapshotKind::Delta { .. } => itg_store::delta::apply(&payload, &bytes).map_err(|e| {
                    EngineError::Durability(format!(
                        "delta snapshot {} does not compose: {e}",
                        entry.file
                    ))
                })?,
            };
        }
        let undecodable = |e: CodecError| {
            EngineError::Durability(format!("snapshot {} undecodable: {e}", latest.file))
        };
        let mut r = Reader::new(&payload);
        let source = decode_source(&mut r).map_err(undecodable)?;
        let program = itg_compiler::compile_source(&source).map_err(|e| {
            EngineError::Durability(format!(
                "snapshot {} holds a program that no longer compiles: {e}",
                latest.file
            ))
        })?;
        let mut sess = Session::decode_state(&mut r, dir, program).map_err(undecodable)?;
        r.finish().map_err(|e| {
            EngineError::Durability(format!("snapshot {} trailing bytes: {e}", latest.file))
        })?;

        let wal_start = latest.wal_start;
        let latest_epoch = latest.epoch;
        let (mut log, scan) = DurableLog::open(dir, &sess.cfg.obs, None)?;
        if scan.base_lsn > wal_start {
            let gap = format!("{} lacks WAL records {wal_start}..{}", dir.display(), scan.base_lsn);
            return Err(EngineError::Durability(gap));
        }
        log.replaying = true;
        // The materialized image is the base the next delta snapshot
        // diffs against (deltas are snapshot-to-snapshot, never against
        // post-replay state).
        log.last_snapshot = Some((latest_epoch, payload));
        let replayed = log.replayed.clone();
        sess.durable = Some(log);
        for rec in scan.records.iter().filter(|rec| rec.lsn >= wal_start) {
            sess.dispatch(&rec.entry)?;
            replayed.add(1);
        }
        if let Some(d) = &mut sess.durable {
            d.replaying = false;
        }
        Ok(sess)
    }

    /// The session's full serialized state — the exact bytes a
    /// [`Session::checkpoint`] snapshot would carry. Works on any local
    /// session, durable or not; the crash-state tests use it to
    /// assert a recovered session is *byte*-identical to an uninterrupted
    /// one, and it is a useful state-divergence diagnostic generally.
    pub fn state_image(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_state(&mut w);
        w.buf
    }

    /// The *dynamic* state only — partition stores and working arrays,
    /// global history, superstep counts — with the configuration subset
    /// left out. Two sessions configured differently (thread count,
    /// transport) but fed the same commands must produce
    /// identical dynamic images; the equivalence
    /// suites compare this across configurations where [`state_image`]
    /// would trivially differ on the config prefix.
    ///
    /// [`state_image`]: Session::state_image
    pub fn dynamic_state_image(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_dynamic(&mut w);
        w.buf
    }

    // ---------------------------------------------------------------
    // Full-state codec.
    // ---------------------------------------------------------------

    fn encode_state(&self, w: &mut Writer) {
        w.u8(SESSION_SNAPSHOT_VERSION);
        w.str(&self.program.source);
        // Everything replay depends on. Transport is Local by
        // construction; observability and durability are re-attached at
        // recover time.
        self.cfg.encode_replay(w);
        self.graph.encode_into(w);
        self.encode_dynamic(w);
    }

    /// The tail of the state image: everything that is neither program,
    /// configuration nor graph.
    fn encode_dynamic(&self, w: &mut Writer) {
        for part in &self.parts {
            w.u64(part.n_local as u64);
            part.attr_store.encode_into(w);
            part.accm_store.encode_into(w);
            put_columns(w, &part.cur_attrs);
            put_columns(w, &part.prev_attrs);
            put_columns(w, &part.cur_accm);
            put_columns(w, &part.prev_accm);
        }
        w.u64(self.globals_history.len() as u64);
        for snap in &self.globals_history {
            w.u64(snap.len() as u64);
            for step in snap {
                w.u64(step.len() as u64);
                for v in step {
                    put_value(w, v);
                }
            }
        }
        w.u64(self.superstep_counts.len() as u64);
        for &s in &self.superstep_counts {
            w.u64(s as u64);
        }
        w.bool(self.ran_oneshot);
    }

    /// The rest of the state image after [`decode_source`], for the
    /// `program` compiled from that source.
    fn decode_state(
        r: &mut Reader<'_>,
        dir: &Path,
        program: itg_compiler::CompiledProgram,
    ) -> CodecResult<Session> {
        let cfg = EngineConfig {
            durability: DurabilityKind::Wal {
                dir: dir.to_path_buf(),
            },
            ..EngineConfig::decode_replay(r)?
        };
        let graph = ClusterGraph::decode_from(
            r,
            cfg.machines,
            cfg.buffer_pool_bytes,
            cfg.page_size,
            &cfg.obs,
        )?;
        let mut parts = Vec::with_capacity(cfg.machines);
        for (w, partition) in graph.partitions.iter().enumerate() {
            let stats = partition.stats.clone();
            let n_local = r.u64()? as usize;
            let attr_store = AttrStore::decode_from(r, cfg.maintenance, stats.clone())?;
            let accm_store = AttrStore::decode_from(r, cfg.maintenance, stats)?;
            parts.push(PartitionState {
                worker: w,
                n_local,
                attr_store,
                accm_store,
                cur_attrs: get_columns(r)?,
                prev_attrs: get_columns(r)?,
                cur_accm: get_columns(r)?,
                prev_accm: get_columns(r)?,
                changed: Vec::new(),
                degree_changed: Vec::new(),
            });
        }
        let mut globals_history = Vec::new();
        for _ in 0..r.u64()? {
            let mut snap = Vec::new();
            for _ in 0..r.u64()? {
                let mut step = Vec::new();
                for _ in 0..r.u64()? {
                    step.push(get_value(r)?);
                }
                snap.push(step);
            }
            globals_history.push(snap);
        }
        let mut superstep_counts = Vec::new();
        for _ in 0..r.u64()? {
            superstep_counts.push(r.u64()? as usize);
        }
        let ran_oneshot = r.bool()?;

        let obs = SessionObs::new(&cfg.obs, &program);
        let layout = AccmLayout::new(&program.symbols.accms);
        let buffers = BufferPool::new(&program.symbols.accms, &program.symbols.globals);
        let owned = 0..cfg.machines;
        let mut sess = Session {
            cfg: cfg.clone(),
            program,
            graph,
            layout,
            buffers,
            parts,
            globals_history,
            superstep_counts,
            ran_oneshot,
            obs,
            plane: Plane::Local,
            owned,
            durable: None,
        };
        // `degree_changed` is derivable: it mirrors the latest batch's
        // delta stream exactly as `apply_mutations` builds it (and is only
        // ever read when a fresh batch is pending). `changed` starts empty —
        // every incremental run clears it before use.
        sess.derive_degree_changed();
        Ok(sess)
    }
}

/// The head of a state image: its version, then the program source.
fn decode_source(r: &mut Reader<'_>) -> CodecResult<String> {
    match r.u8()? {
        SESSION_SNAPSHOT_VERSION => r.str(),
        ver => Err(CodecError::BadVersion(ver)),
    }
}

fn put_columns(w: &mut Writer, cols: &[ColumnData]) {
    w.u64(cols.len() as u64);
    for c in cols {
        put_column(w, c);
    }
}

fn get_columns(r: &mut Reader<'_>) -> CodecResult<Vec<ColumnData>> {
    let n = r.u64()? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_column(r)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphInput, SessionBuilder};
    use itg_store::{EdgeMutation, MutationBatch};
    use std::sync::atomic::{AtomicBool, Ordering};

    /// A fresh durability directory holding one epoch-0 snapshot.
    fn durable_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("itg-durability-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        SessionBuilder::from_config(EngineConfig::default())
            .durability(DurabilityKind::Wal { dir: dir.clone() })
            .from_source(
                "Vertex (id, active, nbrs, deg: Accm<long, SUM>)
                 Initialize (u): { u.active = true; }
                 Traverse (u): { For v in u.nbrs { v.deg.Accumulate(1); } }
                 Update (u): { }",
                &GraphInput::undirected(vec![(0, 1), (1, 2)]),
            )
            .unwrap();
        dir
    }

    #[test]
    fn recover_refuses_a_wal_that_starts_past_the_snapshot() {
        // The snapshot covers nothing, and the segment holding record 0 is
        // gone: replaying from record 1 would silently skip a command.
        let dir = durable_dir("gap");
        let seg = |lsn| dir.join(itg_store::segment_file_name(lsn));
        std::fs::remove_file(seg(0)).unwrap();
        let frame = itg_store::wal::encode_record(1, &WalEntry::OneshotRun);
        std::fs::write(seg(1), frame).unwrap();
        let err = Session::recover(&dir).err().unwrap().to_string();
        assert!(err.contains("lacks WAL records 0..1"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_names_a_program_that_no_longer_compiles() {
        let dir = durable_dir("source");
        let file = dir.join(&Manifest::load(&dir).unwrap().latest().unwrap().file);
        let mut payload = itg_store::snapshot::read_file(&file).unwrap();
        // Version byte, u32 source length, then the source text.
        let len = u32::from_le_bytes(payload[1..5].try_into().unwrap()) as usize;
        payload[5..5 + len].fill(b'@');
        itg_store::snapshot::write_file(&StdFs, &file, &payload).unwrap();
        let err = Session::recover(&dir).err().unwrap().to_string();
        assert!(err.contains("no longer compiles"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_refuses_a_configuration_no_session_can_run_on() {
        // After the version byte, the u32 source length and the source:
        // the replay block (machines at +0, page size at +24; 55 bytes at
        // the default policy), then the graph image, its partition count
        // first.
        for (at, value) in [(0, 0u64), (24, 0), (0, 2), (55, 2)] {
            let dir = durable_dir(&format!("config-{at}-{value}"));
            let file = dir.join(&Manifest::load(&dir).unwrap().latest().unwrap().file);
            let mut payload = itg_store::snapshot::read_file(&file).unwrap();
            let len = u32::from_le_bytes(payload[1..5].try_into().unwrap()) as usize;
            let at = 5 + len + at;
            payload[at..at + 8].copy_from_slice(&value.to_le_bytes());
            itg_store::snapshot::write_file(&StdFs, &file, &payload).unwrap();
            let err = Session::recover(&dir).err().unwrap().to_string();
            assert!(err.contains("undecodable"), "{err}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A [`DurableFs`] whose `fdatasync` of a WAL segment fails once
    /// `fail` is set.
    #[derive(Debug, Default)]
    struct FailingWalSync {
        fail: AtomicBool,
    }

    impl DurableFs for FailingWalSync {
        fn fdatasync(&self, file: &std::fs::File, path: &Path) -> std::io::Result<()> {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("wal-") && self.fail.load(Ordering::SeqCst) {
                return Err(std::io::Error::other("injected fdatasync failure"));
            }
            StdFs.fdatasync(file, path)
        }
    }

    #[test]
    fn a_run_the_wal_refuses_returns_an_error_before_it_executes() {
        let input = GraphInput::undirected(vec![(0, 1), (1, 2), (3, 4)]);
        let wcc = itg_algorithms::programs::source("wcc").unwrap();
        for oneshot in [true, false] {
            let dir = std::env::temp_dir()
                .join(format!("itg-durability-refused-{oneshot}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let fs = Arc::new(FailingWalSync::default());
            let mut sess = SessionBuilder::from_config(EngineConfig::default())
                .durability(DurabilityKind::Wal { dir: dir.clone() })
                .durable_io(fs.clone(), WalOptions::default())
                .from_source(&wcc, &input)
                .unwrap();
            if !oneshot {
                sess.run_oneshot();
                sess.apply_mutations(&MutationBatch::new(vec![EdgeMutation::insert(2, 3)]));
            }
            fs.fail.store(true, Ordering::SeqCst);
            let before = (sess.snapshot(), sess.superstep_counts().to_vec());
            let mut run = || {
                if oneshot {
                    sess.try_run_oneshot()
                } else {
                    sess.try_run_incremental()
                }
            };
            let Err(EngineError::Durability(first)) = run() else {
                panic!("the run must fail on its WAL append")
            };
            assert!(first.contains("injected fdatasync failure"), "{first}");
            assert!(!first.contains("poisoned"), "the first failure is the IO error: {first}");
            let Err(EngineError::Durability(second)) = run() else {
                panic!("a poisoned WAL must keep refusing runs")
            };
            assert!(second.contains("poisoned"), "{second}");
            assert_eq!((sess.snapshot(), sess.superstep_counts().to_vec()), before);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
