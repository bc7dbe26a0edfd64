//! The cluster planes behind superstep message exchange.
//!
//! A [`TransportKind::Local`] session drives every partition in this
//! process: its exchange moves typed cells and its sync rounds have one
//! part, so nothing here is involved. A [`TransportKind::Cluster`] session
//! is the coordinator of a star topology: each partition group runs in its
//! own `itg-partition-worker` process, whose [`WorkerLink`] carries the
//! frames bound to machines it does not own and joins the sync collective
//! every cross-rank agreement goes through; the coordinator's
//! [`ProcessTransport`] hub relays worker↔worker frames and releases each
//! sync round once every rank has joined it, knowing nothing of the
//! schedule (see DESIGN.md §8). A [`ClusterSpec`] says how the fleet comes
//! to be — spawned and dialing back into a listen URI, or pre-started
//! endpoints the coordinator dials — and that is all it
//! decides: every rank is reached over one [`Conn`], opens with the same
//! versioned handshake ([`crate::wire::Handshake`]), has every frame sent
//! to it journalled, and survives a worker restart by a bounded
//! journal-replay revive ([`REVIVE_ATTEMPTS`]).
//!
//! Addresses are machine indexes `0..machines`; [`COORD`] addresses the
//! coordinator endpoint (sync rounds, run results).

pub use crate::fleet::{find_worker_binary, ProcessTransport, REVIVE_ATTEMPTS, REVIVE_BACKOFF_MS};
pub use crate::link::{Conn, Listener};
use crate::wire::{decode_payload, encode_payload, Part, Payload, WireError, DST_COORD, DST_CTRL};
use std::ops::Range;
use std::path::PathBuf;

/// The `dst` value addressing the coordinator instead of a machine.
pub const COORD: usize = DST_COORD as usize;

// ---------------------------------------------------------------
// Cluster topology.
// ---------------------------------------------------------------

/// What the worker fleet is, and therefore how the coordinator obtains
/// each rank's [`Conn`]. Built via the constructors and handed to
/// [`crate::SessionBuilder::cluster`]. `workers = 0` means one worker per
/// machine; otherwise each rank drives `⌈machines/workers⌉` contiguous
/// machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterSpec {
    /// The coordinator binds `uri` (`tcp://ADDR`, `:0` picks a free port,
    /// or `uds://PATH`), spawns `itg-partition-worker` children with
    /// `--connect <uri>`, and they dial back.
    Listen { uri: String, workers: usize },
    /// Workers already run elsewhere (started with `--listen <uri>`); the
    /// coordinator dials these URIs, one rank per endpoint in list order.
    Endpoints(Vec<String>),
}

impl ClusterSpec {
    /// Spawned workers over loopback TCP (`127.0.0.1:0`, free port).
    pub fn tcp(workers: usize) -> ClusterSpec {
        ClusterSpec::tcp_at("127.0.0.1:0", workers)
    }

    /// Spawned workers over TCP with an explicit listen address.
    pub fn tcp_at(listen: impl Into<String>, workers: usize) -> ClusterSpec {
        ClusterSpec::Listen {
            uri: format!("tcp://{}", listen.into()),
            workers,
        }
    }

    /// Spawned workers over Unix-domain sockets in a fresh per-process
    /// temp directory (removed again on shutdown).
    pub fn uds(workers: usize) -> ClusterSpec {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "itg-uds-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        ClusterSpec::uds_at(dir, workers)
    }

    /// Spawned workers over the Unix-domain socket `<dir>/coord.sock`
    /// (`dir` is created if missing, and then removed again on shutdown).
    pub fn uds_at(dir: impl Into<PathBuf>, workers: usize) -> ClusterSpec {
        ClusterSpec::Listen {
            uri: format!("uds://{}", dir.into().join("coord.sock").display()),
            workers,
        }
    }

    /// Pre-started workers the coordinator dials: one `tcp://ADDR` or
    /// `uds://PATH` URI per rank, in rank order. Rank discovery happens in
    /// the handshake: a dialed worker claims [`crate::wire::RANK_ANY`] and
    /// is assigned its endpoint index.
    pub fn endpoints(endpoints: Vec<String>) -> ClusterSpec {
        ClusterSpec::Endpoints(endpoints)
    }

    /// The worker-process count this spec resolves to on a
    /// `machines`-machine cluster.
    pub fn resolved_workers(&self, machines: usize) -> Result<usize, TransportError> {
        match self {
            ClusterSpec::Listen { workers, .. } => Ok(resolve_workers(machines, *workers)),
            ClusterSpec::Endpoints(eps) if eps.is_empty() || eps.len() > machines => {
                Err(TransportError::Protocol(format!(
                    "endpoint list has {} entries for {machines} machines \
                     (need 1..={machines})",
                    eps.len()
                )))
            }
            ClusterSpec::Endpoints(eps) => Ok(eps.len()),
        }
    }
}

/// Which transport a [`crate::Session`] exchanges messages over.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// All partitions in this process; exchange moves typed cells.
    #[default]
    Local,
    /// Partition groups in separate OS processes, the fleet being what a
    /// [`ClusterSpec`] describes.
    Cluster(ClusterSpec),
}

impl TransportKind {
    /// The [`ClusterSpec`] this kind resolves to (`None` for `Local`).
    pub fn cluster_spec(&self) -> Option<ClusterSpec> {
        match self {
            TransportKind::Local => None,
            TransportKind::Cluster(spec) => Some(spec.clone()),
        }
    }
}

/// Transport-layer failures (IO, worker lifecycle, protocol violations).
/// Byte-level decode failures are wrapped [`WireError`]s.
#[derive(Debug)]
pub enum TransportError {
    Io(std::io::Error),
    Wire(WireError),
    /// A worker's connection closed before the protocol finished, and the
    /// revive attempts did not bring it back (`cause` is the last one's
    /// failure).
    WorkerExited {
        rank: usize,
        cause: Box<TransportError>,
    },
    /// The coordinator closed the connection mid-protocol (a worker-side
    /// condition: the worker stops serving, and a `--listen` worker goes
    /// back to accepting).
    Disconnected,
    /// The `itg-partition-worker` binary could not be located (see
    /// [`find_worker_binary`]).
    WorkerBinaryNotFound,
    /// Spawning a worker process failed.
    Spawn(std::io::Error),
    /// A connection handshake was rejected (wire-version, fingerprint, or
    /// rank mismatch) — by us or by the peer.
    Handshake(String),
    /// A payload arrived that the protocol state machine cannot accept.
    Protocol(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "transport IO error: {e}"),
            TransportError::Wire(e) => write!(f, "transport decode error: {e}"),
            TransportError::WorkerExited { rank, cause } => write!(
                f,
                "partition worker {rank} exited unexpectedly and could not be revived: {cause}"
            ),
            TransportError::Disconnected => {
                write!(f, "the coordinator closed the connection mid-protocol")
            }
            TransportError::WorkerBinaryNotFound => write!(
                f,
                "itg-partition-worker binary not found (set ITG_WORKER_BIN or \
                 build the workspace binaries)"
            ),
            TransportError::Spawn(e) => write!(f, "failed to spawn partition worker: {e}"),
            TransportError::Handshake(msg) => write!(f, "connection handshake rejected: {msg}"),
            TransportError::Protocol(msg) => write!(f, "transport protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> TransportError {
        TransportError::Io(e)
    }
}

impl From<WireError> for TransportError {
    fn from(e: WireError) -> TransportError {
        TransportError::Wire(e)
    }
}

// ---------------------------------------------------------------
// Machine-range partitioning.
// ---------------------------------------------------------------

/// The contiguous machine range driven by worker `rank` when `machines`
/// machines are split across `workers` processes: `⌈machines/workers⌉` per
/// worker, the last worker possibly short.
pub fn partition_range(machines: usize, workers: usize, rank: usize) -> Range<usize> {
    let per = machines.div_ceil(workers);
    (rank * per).min(machines)..((rank + 1) * per).min(machines)
}

/// How many worker processes a spawned worker set resolves to for a given
/// machine count (`workers = 0` → one per machine; always clamped to
/// `machines`).
pub fn resolve_workers(machines: usize, workers: usize) -> usize {
    if workers == 0 {
        machines
    } else {
        workers.min(machines).max(1)
    }
}

// ---------------------------------------------------------------
// WorkerLink: the worker end.
// ---------------------------------------------------------------

/// A worker process's link to the coordinator over a [`Conn`].
///
/// One exchange round is: the session `send`s a frame per `(sender,
/// destination machine)` whose cells another process owns (its own
/// machines' cells never reach the link), joins the round with `sync`,
/// and then drains the inbox. `sync` writes a [`Payload::Sync`] and then
/// blocks reading the connection until the matching [`Payload::Release`]
/// arrives — data frames relayed in the meantime are filed into the
/// inbox, so every frame sent before the round has been delivered when
/// it returns.
pub struct WorkerLink {
    conn: Conn,
    rank: u32,
    owned: Range<usize>,
    inbox: Vec<(usize, Payload)>,
    /// The last sync round joined; the hub counts the same rounds.
    seq: u64,
    /// Frames written since the previous [`Self::report`], recorder or not.
    frames: u64,
    barrier_wait: itg_obs::SpanHandle,
}

impl WorkerLink {
    pub fn new(
        conn: Conn,
        rank: u32,
        owned: Range<usize>,
        rec: &itg_obs::Recorder,
    ) -> WorkerLink {
        WorkerLink {
            conn,
            rank,
            owned,
            inbox: Vec::new(),
            seq: 0,
            frames: 0,
            barrier_wait: rec.span("net/barrier_wait"),
        }
    }

    pub fn rank(&self) -> u32 {
        self.rank
    }

    pub fn owned(&self) -> Range<usize> {
        self.owned.clone()
    }

    fn write(&mut self, dst: u16, payload: &Payload) -> Result<(), TransportError> {
        Ok(self.conn.send(dst, &encode_payload(payload))?)
    }

    /// The next control payload from the coordinator; machine-addressed
    /// frames read on the way are filed into the inbox.
    pub fn recv_ctrl(&mut self) -> Result<Payload, TransportError> {
        loop {
            let Some((dst, body)) = self.conn.recv()? else {
                return Err(TransportError::Disconnected);
            };
            if dst == DST_CTRL {
                return Ok(decode_payload(&body)?);
            }
            let dst = dst as usize;
            if self.owned.contains(&dst) {
                self.inbox.push((dst, decode_payload(&body)?));
            } else {
                return Err(TransportError::Protocol(format!(
                    "frame for machine {dst} delivered to worker {} owning {:?}",
                    self.rank, self.owned
                )));
            }
        }
    }

    /// Write `payload` out for the coordinator: to machine `dst`'s worker,
    /// or to the coordinator itself at [`COORD`].
    pub fn send(&mut self, dst: usize, payload: Payload) -> Result<(), TransportError> {
        self.frames += 1;
        self.write(dst as u16, &payload)
    }

    /// Write the end-of-run report `done` builds from the frames this link
    /// wrote since the previous report — the `Hello` before the first —
    /// counting the report itself.
    pub fn report(&mut self, done: impl FnOnce(u64) -> Payload) -> Result<(), TransportError> {
        let frames = std::mem::take(&mut self.frames) + 1;
        self.write(DST_COORD, &done(frames))
    }

    /// The frames relayed to this worker's machines, as `(machine,
    /// payload)` in arrival order.
    pub fn drain_inbox(&mut self) -> Vec<(usize, Payload)> {
        std::mem::take(&mut self.inbox)
    }

    /// The collective: contribute `part` to the next sync round and return
    /// every rank's part, in rank order, once all have joined. A command
    /// cannot arrive mid-round (the hub sends the next one only after
    /// every rank reported the run done), so anything but the matching
    /// release is a protocol error.
    pub fn sync(&mut self, part: Part) -> Result<Vec<Part>, TransportError> {
        self.seq += 1;
        let seq = self.seq;
        self.frames += 1;
        let from = self.rank;
        self.write(DST_COORD, &Payload::Sync { from, seq, part })?;
        let timing = self.barrier_wait.is_enabled();
        let start = timing.then(std::time::Instant::now);
        match self.recv_ctrl()? {
            Payload::Release { seq: s, parts } if s == seq => {
                if let Some(start) = start {
                    self.barrier_wait.record(1, start.elapsed().as_nanos() as u64);
                }
                Ok(parts)
            }
            Payload::Release { seq: s, .. } => Err(TransportError::Protocol(format!(
                "rank {from} got the release of sync {s} while waiting for sync {seq}"
            ))),
            other => Err(TransportError::Protocol(format!(
                "rank {from} got {} while waiting for the release of sync {seq}",
                other.kind()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_ranges_cover_machines_exactly() {
        for machines in 1..12 {
            for workers in 1..=machines {
                let mut covered = Vec::new();
                for rank in 0..workers {
                    covered.extend(partition_range(machines, workers, rank));
                }
                assert_eq!(covered, (0..machines).collect::<Vec<_>>());
            }
        }
        assert_eq!(partition_range(5, 2, 0), 0..3);
        assert_eq!(partition_range(5, 2, 1), 3..5);
    }

    #[test]
    fn worker_resolution_clamps() {
        assert_eq!(resolve_workers(4, 0), 4);
        assert_eq!(resolve_workers(4, 2), 2);
        assert_eq!(resolve_workers(4, 9), 4);
        assert_eq!(resolve_workers(1, 0), 1);
    }

    #[test]
    fn cluster_spec_resolution() {
        assert!(TransportKind::Local.cluster_spec().is_none());
        let tcp = TransportKind::Cluster(ClusterSpec::tcp(2))
            .cluster_spec()
            .unwrap();
        assert_eq!(
            tcp,
            ClusterSpec::Listen {
                uri: "tcp://127.0.0.1:0".into(),
                workers: 2
            }
        );
        assert_eq!(
            ClusterSpec::uds_at("/tmp/itg-x", 0),
            ClusterSpec::Listen {
                uri: "uds:///tmp/itg-x/coord.sock".into(),
                workers: 0
            }
        );
    }

    #[test]
    fn endpoint_counts_are_validated() {
        let spec = ClusterSpec::endpoints(vec![
            "tcp://127.0.0.1:7001".into(),
            "tcp://127.0.0.1:7002".into(),
        ]);
        assert_eq!(spec.resolved_workers(4).unwrap(), 2);
        assert!(spec.resolved_workers(1).is_err());
        assert!(ClusterSpec::endpoints(Vec::new()).resolved_workers(4).is_err());
    }
}
