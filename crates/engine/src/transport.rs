//! The transport abstraction behind superstep message exchange.
//!
//! The BSP drivers ([`crate::Session::run_oneshot`],
//! [`crate::Session::try_run_incremental`]) never move bytes themselves:
//! every cross-partition payload goes through the [`Transport`] trait —
//! `send`, `drain_inbox`, `barrier`. Two implementations exist:
//!
//! * [`LocalTransport`] — the in-memory loopback used when every partition
//!   lives in this process (the pre-distribution behaviour, bit-identical
//!   results and unchanged `net_bytes` accounting).
//! * [`ProcessTransport`] + [`WorkerLink`] — the coordinator and worker
//!   ends of a star topology: each partition group runs in its own
//!   `itg-partition-worker` process, the coordinator relays worker↔worker
//!   frames and owns superstep barriers, global-accumulator reduction, and
//!   convergence voting (see DESIGN.md §"Distribution"). The link between
//!   the two is described by a [`ClusterSpec`]: parent-child stdin/stdout
//!   pipes ([`LinkKind::Pipes`]), loopback-or-remote TCP
//!   ([`LinkKind::Tcp`]), or Unix-domain sockets ([`LinkKind::Uds`]).
//!   Socket links open with a versioned handshake
//!   ([`crate::wire::Handshake`]) carrying rank and cluster fingerprint,
//!   and survive a worker restart between frames via a bounded
//!   journal-replay reconnect loop ([`ReconnectPolicy`]).
//!
//! Addresses are machine indexes `0..machines`; [`COORD`] addresses the
//! coordinator endpoint (global partials, frontier votes, run results).

use crate::wire::{
    decode_handshake, decode_payload, encode_handshake, encode_payload, read_frame, write_frame,
    write_frame_bytes, Handshake, Payload, WireError, DST_COORD, DST_CTRL, FINGERPRINT_ANY,
    RANK_ANY, WIRE_VERSION,
};
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The `dst` value addressing the coordinator instead of a machine.
pub const COORD: usize = DST_COORD as usize;

/// How long the coordinator waits for every spawned worker to dial back in
/// and complete the handshake before giving up on the initial connect.
const ACCEPT_TIMEOUT: Duration = Duration::from_secs(60);

/// How long one reconnect attempt waits for the respawned worker's
/// handshake (the outer [`ReconnectPolicy`] bounds the attempt count).
const REVIVE_ACCEPT_TIMEOUT: Duration = Duration::from_secs(10);

type BoxRead = Box<dyn Read + Send + Sync>;
type BoxWrite = Box<dyn Write + Send + Sync>;

// ---------------------------------------------------------------
// Cluster topology.
// ---------------------------------------------------------------

/// The physical link between the coordinator and its workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkKind {
    /// Parent-child stdin/stdout pipes (the original process plane). No
    /// handshake, no reconnect: the pipe dies with the child.
    Pipes,
    /// TCP: the coordinator binds `listen` (`"127.0.0.1:0"` picks a free
    /// loopback port) and workers dial in.
    Tcp { listen: String },
    /// Unix-domain sockets: the coordinator binds `<dir>/coord.sock`.
    /// Unix-only; [`ProcessTransport::connect`] fails loudly elsewhere.
    Uds { dir: PathBuf },
}

/// Where the worker processes come from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerSet {
    /// The coordinator spawns `n` `itg-partition-worker` children itself
    /// (`0` = one per machine). Over socket links the children are handed
    /// `--connect <uri> --rank <r> --fingerprint <fp>` and dial back.
    Spawn(usize),
    /// Workers already run elsewhere (started with `--listen <uri>`); the
    /// coordinator dials these URIs (`tcp://ADDR` / `uds://PATH`), one
    /// rank per endpoint in list order. Rank discovery happens in the
    /// handshake: a dialed worker claims [`RANK_ANY`] and is assigned its
    /// endpoint index.
    Endpoints(Vec<String>),
}

/// Bounded reconnect-with-backoff for socket links: when a worker's
/// connection drops mid-protocol the coordinator re-establishes it
/// (respawn + re-accept for [`WorkerSet::Spawn`], re-dial for
/// [`WorkerSet::Endpoints`]), replays the rank's frame journal, and
/// resumes. Results are byte-identical because workers are deterministic
/// replicas of their input frame stream. `max_attempts = 0` disables
/// reconnect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconnectPolicy {
    pub max_attempts: u32,
    pub backoff_ms: u64,
}

impl Default for ReconnectPolicy {
    fn default() -> ReconnectPolicy {
        ReconnectPolicy {
            max_attempts: 5,
            backoff_ms: 50,
        }
    }
}

/// A cluster topology: link kind + worker set + reconnect policy. Built via
/// the constructors ([`ClusterSpec::pipes`], [`ClusterSpec::tcp`],
/// [`ClusterSpec::uds`], [`ClusterSpec::endpoints`]) and handed to
/// [`crate::SessionBuilder::cluster`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSpec {
    pub link: LinkKind,
    pub workers: WorkerSet,
    pub reconnect: ReconnectPolicy,
}

impl ClusterSpec {
    /// Spawned workers over stdin/stdout pipes (`workers = 0` → one per
    /// machine).
    pub fn pipes(workers: usize) -> ClusterSpec {
        ClusterSpec {
            link: LinkKind::Pipes,
            workers: WorkerSet::Spawn(workers),
            reconnect: ReconnectPolicy::default(),
        }
    }

    /// Spawned workers over loopback TCP (`127.0.0.1:0`, free port).
    pub fn tcp(workers: usize) -> ClusterSpec {
        ClusterSpec::tcp_at("127.0.0.1:0", workers)
    }

    /// Spawned workers over TCP with an explicit listen address.
    pub fn tcp_at(listen: impl Into<String>, workers: usize) -> ClusterSpec {
        ClusterSpec {
            link: LinkKind::Tcp {
                listen: listen.into(),
            },
            workers: WorkerSet::Spawn(workers),
            reconnect: ReconnectPolicy::default(),
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

    /// Spawned workers over Unix-domain sockets in an explicit directory.
    pub fn uds_at(dir: impl Into<PathBuf>, workers: usize) -> ClusterSpec {
        ClusterSpec {
            link: LinkKind::Uds { dir: dir.into() },
            workers: WorkerSet::Spawn(workers),
            reconnect: ReconnectPolicy::default(),
        }
    }

    /// Pre-started workers the coordinator dials: one `tcp://ADDR` or
    /// `uds://PATH` URI per rank, in rank order.
    pub fn endpoints(endpoints: Vec<String>) -> ClusterSpec {
        ClusterSpec {
            link: LinkKind::Tcp {
                listen: String::new(),
            },
            workers: WorkerSet::Endpoints(endpoints),
            reconnect: ReconnectPolicy::default(),
        }
    }

    /// Override the reconnect policy.
    pub fn with_reconnect(mut self, reconnect: ReconnectPolicy) -> ClusterSpec {
        self.reconnect = reconnect;
        self
    }

    /// The worker-process count this spec resolves to on a
    /// `machines`-machine cluster.
    pub fn resolved_workers(&self, machines: usize) -> Result<usize, TransportError> {
        match &self.workers {
            WorkerSet::Spawn(n) => Ok(resolve_workers(machines, *n)),
            WorkerSet::Endpoints(eps) => {
                if eps.is_empty() || eps.len() > machines {
                    Err(TransportError::Protocol(format!(
                        "endpoint list has {} entries for {machines} machines \
                         (need 1..={machines})",
                        eps.len()
                    )))
                } else {
                    Ok(eps.len())
                }
            }
        }
    }
}

/// Which transport a [`crate::Session`] exchanges messages over.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// All partitions in this process; exchange is an in-memory loopback.
    #[default]
    Local,
    /// Partition groups in separate OS processes with the link, worker
    /// set, and reconnect policy described by a [`ClusterSpec`].
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
    /// A worker process closed its pipe before the protocol finished.
    WorkerExited { rank: usize },
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
            TransportError::WorkerExited { rank } => {
                write!(f, "partition worker {rank} exited unexpectedly")
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

/// Superstep message exchange. One exchange round is: every participant
/// `send`s its outgoing payloads, enters `barrier(seq)` (sequence numbers
/// increase monotonically and are agreed by construction — both sides run
/// the same driver), and then `drain_inbox`es the payloads addressed to the
/// machines it owns.
///
/// `drain_inbox` returns `(dst_machine, payload)` pairs in arrival order;
/// for [`LocalTransport`] that is exactly send order, which the engine
/// relies on to replay the pre-distribution merge sequence bit-for-bit.
pub trait Transport: Send + Sync {
    fn send(&mut self, dst: usize, payload: Payload) -> Result<(), TransportError>;
    fn drain_inbox(&mut self) -> Vec<(usize, Payload)>;
    fn barrier(&mut self, seq: u64) -> Result<(), TransportError>;
}

// ---------------------------------------------------------------
// LocalTransport.
// ---------------------------------------------------------------

/// In-memory loopback: every `send` lands directly in the local inbox, the
/// barrier is a no-op (all partitions advance in lockstep inside one
/// driver loop). This is the pre-distribution exchange path, now behind
/// the trait; it doubles as the test double the cross-transport
/// equivalence suite compares [`ProcessTransport`] against.
pub struct LocalTransport {
    inbox: Vec<(usize, Payload)>,
    msgs: itg_obs::CounterHandle,
}

impl LocalTransport {
    pub fn new(rec: &itg_obs::Recorder) -> LocalTransport {
        LocalTransport {
            inbox: Vec::new(),
            msgs: rec.counter("net/messages"),
        }
    }
}

impl Transport for LocalTransport {
    fn send(&mut self, dst: usize, payload: Payload) -> Result<(), TransportError> {
        self.msgs.add(1);
        self.inbox.push((dst, payload));
        Ok(())
    }

    fn drain_inbox(&mut self) -> Vec<(usize, Payload)> {
        std::mem::take(&mut self.inbox)
    }

    fn barrier(&mut self, _seq: u64) -> Result<(), TransportError> {
        Ok(())
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

/// Locate the `itg-partition-worker` binary: the `ITG_WORKER_BIN`
/// environment variable wins; otherwise search the directory containing
/// the current executable and its parent (covers both `target/<profile>/`
/// binaries and `target/<profile>/deps/` test executables).
pub fn find_worker_binary() -> Option<PathBuf> {
    if let Ok(path) = std::env::var("ITG_WORKER_BIN") {
        if !path.is_empty() {
            return Some(PathBuf::from(path));
        }
    }
    let name = format!("itg-partition-worker{}", std::env::consts::EXE_SUFFIX);
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?;
    for d in [Some(dir), dir.parent()] {
        let candidate = d?.join(&name);
        if candidate.is_file() {
            return Some(candidate);
        }
    }
    None
}

// ---------------------------------------------------------------
// Connections and URIs.
// ---------------------------------------------------------------

/// One established coordinator↔worker connection: a read half (handed to a
/// reader thread on the coordinator side) and a buffered write half.
struct Conn {
    reader: BoxRead,
    writer: BoxWrite,
}

impl Conn {
    fn from_tcp(stream: TcpStream) -> Result<Conn, TransportError> {
        stream.set_nonblocking(false)?;
        // Barrier acks/releases are tiny request-response frames; Nagle
        // would serialize every round on the delayed-ack timer.
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: Box::new(BufReader::new(stream.try_clone()?)),
            writer: Box::new(BufWriter::new(stream)),
        })
    }

    #[cfg(unix)]
    fn from_uds(stream: std::os::unix::net::UnixStream) -> Result<Conn, TransportError> {
        stream.set_nonblocking(false)?;
        Ok(Conn {
            reader: Box::new(BufReader::new(stream.try_clone()?)),
            writer: Box::new(BufWriter::new(stream)),
        })
    }
}

/// Split `tcp://ADDR` / `uds://PATH` into `(scheme, rest)`.
fn split_uri(uri: &str) -> Result<(&str, &str), TransportError> {
    uri.split_once("://").ok_or_else(|| {
        TransportError::Protocol(format!(
            "malformed endpoint `{uri}` (expected tcp://ADDR or uds://PATH)"
        ))
    })
}

/// One dial attempt against a worker/coordinator URI.
fn dial_once(uri: &str) -> Result<Conn, TransportError> {
    let (scheme, rest) = split_uri(uri)?;
    match scheme {
        "tcp" => Conn::from_tcp(TcpStream::connect(rest)?),
        #[cfg(unix)]
        "uds" => Conn::from_uds(std::os::unix::net::UnixStream::connect(rest)?),
        #[cfg(not(unix))]
        "uds" => Err(TransportError::Protocol(
            "unix-domain sockets are not supported on this platform".into(),
        )),
        other => Err(TransportError::Protocol(format!(
            "unknown endpoint scheme `{other}` in `{uri}`"
        ))),
    }
}

/// Dial with retries (the peer may still be binding its listener).
fn dial_retry(uri: &str, attempts: u32, delay_ms: u64) -> Result<Conn, TransportError> {
    let mut last = None;
    for attempt in 0..attempts.max(1) {
        if attempt > 0 {
            std::thread::sleep(Duration::from_millis(delay_ms));
        }
        match dial_once(uri) {
            Ok(conn) => return Ok(conn),
            // Non-IO failures (malformed URI, platform) never heal.
            Err(e @ TransportError::Protocol(_)) => return Err(e),
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        TransportError::Protocol(format!("could not connect to `{uri}`"))
    }))
}

/// The coordinator's listening socket for spawned socket workers.
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Uds(std::os::unix::net::UnixListener),
}

/// A bound listener plus the URI workers dial and the UDS paths to clean
/// up on shutdown.
struct Bound {
    listener: Listener,
    uri: String,
    uds_socket: Option<PathBuf>,
    uds_dir: Option<PathBuf>,
}

fn bind_listener(link: &LinkKind) -> Result<Bound, TransportError> {
    match link {
        LinkKind::Pipes => Err(TransportError::Protocol(
            "pipes link has no listen socket".into(),
        )),
        LinkKind::Tcp { listen } => {
            let listener = TcpListener::bind(listen.as_str())?;
            listener.set_nonblocking(true)?;
            let uri = format!("tcp://{}", listener.local_addr()?);
            Ok(Bound {
                listener: Listener::Tcp(listener),
                uri,
                uds_socket: None,
                uds_dir: None,
            })
        }
        #[cfg(unix)]
        LinkKind::Uds { dir } => {
            let created = !dir.exists();
            std::fs::create_dir_all(dir)?;
            let sock = dir.join("coord.sock");
            // A stale socket file from a crashed run makes bind fail.
            let _ = std::fs::remove_file(&sock);
            let listener = std::os::unix::net::UnixListener::bind(&sock)?;
            listener.set_nonblocking(true)?;
            let uri = format!("uds://{}", sock.display());
            Ok(Bound {
                listener: Listener::Uds(listener),
                uri,
                uds_socket: Some(sock),
                uds_dir: created.then(|| dir.clone()),
            })
        }
        #[cfg(not(unix))]
        LinkKind::Uds { .. } => Err(TransportError::Protocol(
            "unix-domain sockets are not supported on this platform".into(),
        )),
    }
}

impl Listener {
    /// Accept one connection before `deadline`, polling `alive` (worker
    /// liveness) between attempts so a crashed worker fails fast instead
    /// of timing out.
    fn accept_within(
        &self,
        deadline: Instant,
        alive: &mut dyn FnMut() -> Result<(), TransportError>,
    ) -> Result<Conn, TransportError> {
        loop {
            let accepted = match self {
                Listener::Tcp(l) => match l.accept() {
                    Ok((stream, _)) => Some(Conn::from_tcp(stream)?),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                    Err(e) => return Err(e.into()),
                },
                #[cfg(unix)]
                Listener::Uds(l) => match l.accept() {
                    Ok((stream, _)) => Some(Conn::from_uds(stream)?),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                    Err(e) => return Err(e.into()),
                },
            };
            if let Some(conn) = accepted {
                return Ok(conn);
            }
            alive()?;
            if Instant::now() >= deadline {
                return Err(TransportError::Protocol(
                    "timed out waiting for a worker to complete the connection handshake".into(),
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

// ---------------------------------------------------------------
// Handshake.
// ---------------------------------------------------------------

/// Coordinator side of the handshake on a fresh connection: read the
/// worker's `Hello`, validate fingerprint + rank claim (via `claim`, which
/// maps the claimed rank to the assigned one or explains the rejection),
/// and answer `Accept { rank, fingerprint }` or `Reject { reason }`. The
/// handshake never enters the frame journal — it is per-connection.
fn coordinator_handshake(
    conn: &mut Conn,
    fingerprint: u64,
    claim: &mut dyn FnMut(u32) -> Result<usize, String>,
) -> Result<usize, TransportError> {
    let reject = |conn: &mut Conn, reason: String| -> TransportError {
        let frame = encode_handshake(&Handshake::Reject {
            reason: reason.clone(),
        });
        let _ = write_frame_bytes(&mut conn.writer, DST_CTRL, &frame);
        TransportError::Handshake(reason)
    };
    let Some((dst, body)) = read_frame(&mut conn.reader)? else {
        return Err(TransportError::Handshake(
            "peer closed the connection before sending a hello".into(),
        ));
    };
    if dst != DST_CTRL {
        return Err(reject(conn, format!("hello frame addressed to {dst:#06x}")));
    }
    let hello = match decode_handshake(&body) {
        Ok(h) => h,
        Err(e) => return Err(reject(conn, format!("bad hello ({e})"))),
    };
    let Handshake::Hello {
        rank,
        fingerprint: fp,
    } = hello
    else {
        return Err(reject(conn, "expected a hello, got another handshake kind".into()));
    };
    if fp != FINGERPRINT_ANY && fp != fingerprint {
        return Err(reject(
            conn,
            format!(
                "cluster fingerprint {fp:#018x} does not match coordinator \
                 {fingerprint:#018x}"
            ),
        ));
    }
    let assigned = match claim(rank) {
        Ok(assigned) => assigned,
        Err(reason) => return Err(reject(conn, reason)),
    };
    let accept = encode_handshake(&Handshake::Accept {
        rank: assigned as u32,
        fingerprint,
    });
    write_frame_bytes(&mut conn.writer, DST_CTRL, &accept)?;
    Ok(assigned)
}

/// Worker side of the handshake: send `Hello { rank, fingerprint }`
/// (spawned workers know both from their CLI; dialed-into workers claim
/// [`RANK_ANY`] / [`FINGERPRINT_ANY`]) and return the
/// `(rank, fingerprint)` the coordinator accepted with.
///
/// `ITG_WIRE_VERSION_SKEW` (test/CI hook) makes the hello advertise that
/// wire version instead of ours, to exercise the coordinator's rejection
/// path.
pub fn worker_handshake(
    channel: &mut WorkerChannel,
    rank: u32,
    fingerprint: u64,
) -> Result<(u32, u64), TransportError> {
    let version = match std::env::var("ITG_WIRE_VERSION_SKEW") {
        Ok(v) if !v.trim().is_empty() => v
            .trim()
            .parse::<u8>()
            .unwrap_or_else(|_| panic!("ITG_WIRE_VERSION_SKEW must be a u8, got `{v}`")),
        _ => WIRE_VERSION,
    };
    let hello = crate::wire::encode_handshake_versioned(
        &Handshake::Hello { rank, fingerprint },
        version,
    );
    channel.write_bytes(DST_CTRL, &hello)?;
    let Some((dst, body)) = channel.read()? else {
        return Err(TransportError::Handshake(
            "coordinator closed the connection during the handshake".into(),
        ));
    };
    if dst != DST_CTRL {
        return Err(TransportError::Protocol(format!(
            "handshake reply addressed to {dst:#06x}"
        )));
    }
    match decode_handshake(&body)? {
        Handshake::Accept { rank, fingerprint } => Ok((rank, fingerprint)),
        Handshake::Reject { reason } => Err(TransportError::Handshake(reason)),
        Handshake::Hello { .. } => Err(TransportError::Protocol(
            "unexpected hello from the coordinator".into(),
        )),
    }
}

// ---------------------------------------------------------------
// WorkerChannel + WorkerLink: the worker end.
// ---------------------------------------------------------------

/// The byte channel a worker speaks to its coordinator over.
pub enum WorkerChannel {
    /// This process's own stdin/stdout (spawned pipe workers).
    Stdio,
    /// A dialed or accepted socket.
    Socket { reader: BoxRead, writer: BoxWrite },
}

impl WorkerChannel {
    /// Dial the coordinator at `uri` (`tcp://ADDR` / `uds://PATH`),
    /// retrying briefly while it finishes binding.
    pub fn dial(uri: &str) -> Result<WorkerChannel, TransportError> {
        let Conn { reader, writer } = dial_retry(uri, 250, 20)?;
        Ok(WorkerChannel::Socket { reader, writer })
    }

    pub fn write(&mut self, dst: u16, payload: &Payload) -> Result<(), TransportError> {
        self.write_bytes(dst, &encode_payload(payload))
    }

    pub fn write_bytes(&mut self, dst: u16, body: &[u8]) -> Result<(), TransportError> {
        match self {
            WorkerChannel::Stdio => {
                let stdout = std::io::stdout();
                write_frame_bytes(&mut stdout.lock(), dst, body)?;
            }
            WorkerChannel::Socket { writer, .. } => write_frame_bytes(writer, dst, body)?,
        }
        Ok(())
    }

    /// Read one frame; `None` is clean EOF at a frame boundary.
    pub fn read(&mut self) -> Result<Option<(u16, Vec<u8>)>, TransportError> {
        let frame = match self {
            WorkerChannel::Stdio => {
                let stdin = std::io::stdin();
                read_frame(&mut stdin.lock())?
            }
            WorkerChannel::Socket { reader, .. } => read_frame(reader)?,
        };
        Ok(frame)
    }
}

/// A worker listening for its coordinator to dial in
/// ([`WorkerSet::Endpoints`] mode; `itg-partition-worker --listen <uri>`).
pub struct WorkerListener {
    inner: Listener,
    uds_socket: Option<PathBuf>,
}

impl WorkerListener {
    pub fn bind(uri: &str) -> Result<WorkerListener, TransportError> {
        let (scheme, rest) = split_uri(uri)?;
        match scheme {
            "tcp" => Ok(WorkerListener {
                inner: Listener::Tcp(TcpListener::bind(rest)?),
                uds_socket: None,
            }),
            #[cfg(unix)]
            "uds" => {
                let path = PathBuf::from(rest);
                if let Some(parent) = path.parent() {
                    std::fs::create_dir_all(parent)?;
                }
                let _ = std::fs::remove_file(&path);
                Ok(WorkerListener {
                    inner: Listener::Uds(std::os::unix::net::UnixListener::bind(&path)?),
                    uds_socket: Some(path),
                })
            }
            #[cfg(not(unix))]
            "uds" => Err(TransportError::Protocol(
                "unix-domain sockets are not supported on this platform".into(),
            )),
            other => Err(TransportError::Protocol(format!(
                "unknown endpoint scheme `{other}` in `{uri}`"
            ))),
        }
    }

    /// The bound URI (resolves a `tcp://…:0` request to the actual port).
    pub fn local_uri(&self) -> Result<String, TransportError> {
        match &self.inner {
            Listener::Tcp(l) => Ok(format!("tcp://{}", l.local_addr()?)),
            #[cfg(unix)]
            Listener::Uds(_) => Ok(format!(
                "uds://{}",
                self.uds_socket
                    .as_deref()
                    .unwrap_or(std::path::Path::new(""))
                    .display()
            )),
        }
    }

    /// Block until the coordinator dials in.
    pub fn accept(&self) -> Result<WorkerChannel, TransportError> {
        let conn = match &self.inner {
            Listener::Tcp(l) => {
                l.set_nonblocking(false)?;
                let (stream, _) = l.accept()?;
                Conn::from_tcp(stream)?
            }
            #[cfg(unix)]
            Listener::Uds(l) => {
                l.set_nonblocking(false)?;
                let (stream, _) = l.accept()?;
                Conn::from_uds(stream)?
            }
        };
        let Conn { reader, writer } = conn;
        Ok(WorkerChannel::Socket { reader, writer })
    }
}

impl Drop for WorkerListener {
    fn drop(&mut self) {
        if let Some(path) = &self.uds_socket {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A worker process's link to the coordinator over a [`WorkerChannel`].
///
/// Frames addressed to machines this worker owns short-circuit into the
/// local inbox without touching the channel (they would only be relayed
/// straight back); everything else is written out for the coordinator to
/// relay. `barrier` writes a [`Payload::BarrierAck`] and then blocks
/// reading the channel until the matching [`Payload::Barrier`] release
/// arrives — data frames relayed in the meantime are filed into the inbox,
/// control payloads into a queue served by [`WorkerLink::recv_ctrl`].
pub struct WorkerLink {
    channel: WorkerChannel,
    rank: u32,
    owned: Range<usize>,
    inbox: Vec<(usize, Payload)>,
    ctrl: VecDeque<Payload>,
    msgs: itg_obs::CounterHandle,
    barrier_wait: itg_obs::SpanHandle,
}

impl WorkerLink {
    pub fn new(
        channel: WorkerChannel,
        rank: u32,
        owned: Range<usize>,
        rec: &itg_obs::Recorder,
    ) -> WorkerLink {
        WorkerLink {
            channel,
            rank,
            owned,
            inbox: Vec::new(),
            ctrl: VecDeque::new(),
            msgs: rec.counter("net/messages"),
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
        self.channel.write(dst, payload)
    }

    /// Read one frame from the coordinator; machine-addressed frames are
    /// filed into the inbox, control frames are returned.
    fn pump_ctrl(&mut self) -> Result<Payload, TransportError> {
        loop {
            let frame = self.channel.read()?;
            let Some((dst, body)) = frame else {
                return Err(TransportError::Protocol(
                    "coordinator closed the pipe mid-protocol".into(),
                ));
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

    /// The next control payload from the coordinator (a queued one if the
    /// barrier loop already read past it).
    pub fn recv_ctrl(&mut self) -> Result<Payload, TransportError> {
        if let Some(p) = self.ctrl.pop_front() {
            return Ok(p);
        }
        self.pump_ctrl()
    }
}

impl Transport for WorkerLink {
    fn send(&mut self, dst: usize, payload: Payload) -> Result<(), TransportError> {
        self.msgs.add(1);
        if dst == COORD {
            self.write(DST_COORD, &payload)
        } else if self.owned.contains(&dst) {
            self.inbox.push((dst, payload));
            Ok(())
        } else {
            self.write(dst as u16, &payload)
        }
    }

    fn drain_inbox(&mut self) -> Vec<(usize, Payload)> {
        std::mem::take(&mut self.inbox)
    }

    fn barrier(&mut self, seq: u64) -> Result<(), TransportError> {
        self.write(DST_COORD, &Payload::BarrierAck { from: self.rank, seq })?;
        let timing = self.barrier_wait.is_enabled();
        let start = timing.then(std::time::Instant::now);
        loop {
            match self.pump_ctrl()? {
                Payload::Barrier { seq: s } if s == seq => {
                    if let Some(start) = start {
                        self.barrier_wait.record(1, start.elapsed().as_nanos() as u64);
                    }
                    return Ok(());
                }
                Payload::Barrier { seq: s } => {
                    return Err(TransportError::Protocol(format!(
                        "barrier release {s} while waiting for {seq}"
                    )));
                }
                other => self.ctrl.push_back(other),
            }
        }
    }
}

// ---------------------------------------------------------------
// ProcessTransport: the coordinator end.
// ---------------------------------------------------------------

/// Sentinel a reader thread emits when its worker's stream reaches EOF.
const RANK_EOF: u16 = DST_CTRL;

/// One worker's coordinator-side state: the child handle (spawn modes),
/// the buffered write half, and — on reconnectable socket links — a
/// journal of every frame ever written to this rank plus the
/// received-frame count, which together make a restarted worker catch up
/// deterministically (replay the journal, discard the first `recvd`
/// regenerated frames).
struct RankLink {
    child: Option<Child>,
    writer: BoxWrite,
    journal: Option<Vec<u8>>,
    recvd: u64,
    skip: u64,
    dead: bool,
}

/// How the fleet was established — and therefore how a dead rank revives.
enum FleetMode {
    /// stdin/stdout pipes; no reconnect (the pipe dies with the child).
    Pipes,
    /// Coordinator listens, spawned children dial back; revive = respawn
    /// the child and re-accept.
    Listen {
        listener: Listener,
        uri: String,
        bin: PathBuf,
    },
    /// Coordinator dialed pre-started workers; revive = re-dial.
    Dial { endpoints: Vec<String> },
}

/// The coordinator's hub of worker processes.
///
/// One worker per rank — spawned children over pipes or sockets, or
/// pre-started endpoints the coordinator dials (see [`ClusterSpec`]). A
/// reader thread per connection feeds every incoming frame — still encoded
/// — into one mpsc channel; the coordinator relays machine-addressed
/// frames to the owning worker without re-encoding and decodes
/// coordinator-addressed frames into a queue served by
/// [`ProcessTransport::recv_coord`].
pub struct ProcessTransport {
    links: Vec<RankLink>,
    mode: FleetMode,
    reconnect: ReconnectPolicy,
    fingerprint: u64,
    // Mutex-wrapped solely for `Sync` (the session is shared across scoped
    // threads during partition phases); the coordinator is the only user.
    tx: std::sync::Mutex<mpsc::Sender<(usize, u16, Vec<u8>)>>,
    rx: std::sync::Mutex<mpsc::Receiver<(usize, u16, Vec<u8>)>>,
    readers: Vec<std::thread::JoinHandle<()>>,
    coord: VecDeque<(usize, Payload)>,
    machines: usize,
    workers: usize,
    uds_socket: Option<PathBuf>,
    uds_dir: Option<PathBuf>,
    bootstrap_bytes: Vec<u64>,
    bootstrap_counter: itg_obs::CounterHandle,
    msgs: itg_obs::CounterHandle,
    barrier_wait: itg_obs::SpanHandle,
}

/// Spawn the reader thread for one connection: every decoded-frame-later
/// byte chunk goes into the shared channel; EOF or a read error emits the
/// [`RANK_EOF`] sentinel so a coordinator blocked on this worker fails
/// fast (or revives it) instead of hanging.
fn spawn_reader(
    rank: usize,
    mut reader: BoxRead,
    tx: mpsc::Sender<(usize, u16, Vec<u8>)>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || loop {
        match read_frame(&mut reader) {
            Ok(Some((dst, body))) => {
                if tx.send((rank, dst, body)).is_err() {
                    return;
                }
            }
            Ok(None) | Err(_) => {
                let _ = tx.send((rank, RANK_EOF, Vec::new()));
                return;
            }
        }
    })
}

/// Command line for a spawned socket worker.
fn socket_worker_command(bin: &PathBuf, uri: &str, rank: usize, fingerprint: u64) -> Command {
    let mut cmd = Command::new(bin);
    cmd.arg("--connect")
        .arg(uri)
        .arg("--rank")
        .arg(rank.to_string())
        .arg("--fingerprint")
        .arg(fingerprint.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::inherit())
        .stderr(Stdio::inherit());
    cmd
}

impl ProcessTransport {
    /// Establish the fleet a [`ClusterSpec`] describes for a
    /// `machines`-machine cluster. `fingerprint` is the cluster
    /// fingerprint ([`crate::wire::cluster_fingerprint`]) socket
    /// handshakes are validated against. The caller bootstraps the
    /// workers afterwards (program source, graph slice, config) via
    /// [`ProcessTransport::send_ctrl`].
    pub fn connect(
        machines: usize,
        spec: &ClusterSpec,
        fingerprint: u64,
        rec: &itg_obs::Recorder,
    ) -> Result<ProcessTransport, TransportError> {
        let workers = spec.resolved_workers(machines)?;
        let (tx, rx) = mpsc::channel();
        let mut readers = Vec::with_capacity(workers);
        let mut links = Vec::with_capacity(workers);
        let mut uds_socket = None;
        let mut uds_dir = None;

        let mode = match (&spec.link, &spec.workers) {
            (LinkKind::Pipes, WorkerSet::Endpoints(_)) => {
                return Err(TransportError::Protocol(
                    "the pipes link cannot dial endpoints; use Tcp or Uds".into(),
                ))
            }
            (LinkKind::Pipes, WorkerSet::Spawn(_)) => {
                let bin = find_worker_binary().ok_or(TransportError::WorkerBinaryNotFound)?;
                for rank in 0..workers {
                    let mut child = Command::new(&bin)
                        .stdin(Stdio::piped())
                        .stdout(Stdio::piped())
                        .stderr(Stdio::inherit())
                        .spawn()
                        .map_err(TransportError::Spawn)?;
                    let stdin = child.stdin.take().expect("piped stdin");
                    let stdout = child.stdout.take().expect("piped stdout");
                    readers.push(spawn_reader(rank, Box::new(stdout), tx.clone()));
                    links.push(RankLink {
                        child: Some(child),
                        writer: Box::new(BufWriter::new(stdin)),
                        journal: None,
                        recvd: 0,
                        skip: 0,
                        dead: false,
                    });
                }
                FleetMode::Pipes
            }
            (link, WorkerSet::Spawn(_)) => {
                let bin = find_worker_binary().ok_or(TransportError::WorkerBinaryNotFound)?;
                let bound = bind_listener(link)?;
                uds_socket = bound.uds_socket;
                uds_dir = bound.uds_dir;
                let mut children: Vec<Option<Child>> = Vec::with_capacity(workers);
                let mut conns: Vec<Option<Conn>> = (0..workers).map(|_| None).collect();
                let result = (|| -> Result<(), TransportError> {
                    for rank in 0..workers {
                        let child = socket_worker_command(&bin, &bound.uri, rank, fingerprint)
                            .spawn()
                            .map_err(TransportError::Spawn)?;
                        children.push(Some(child));
                    }
                    let deadline = Instant::now() + ACCEPT_TIMEOUT;
                    let mut connected = 0;
                    while connected < workers {
                        let mut alive = || {
                            for (rank, child) in children.iter_mut().enumerate() {
                                if let Some(child) = child {
                                    if let Ok(Some(status)) = child.try_wait() {
                                        return Err(TransportError::Protocol(format!(
                                            "worker {rank} exited ({status}) before \
                                             completing the handshake"
                                        )));
                                    }
                                }
                            }
                            Ok(())
                        };
                        let mut conn = bound.listener.accept_within(deadline, &mut alive)?;
                        let rank =
                            coordinator_handshake(&mut conn, fingerprint, &mut |claim| {
                                if claim == RANK_ANY {
                                    return Err(
                                        "spawned workers must claim their assigned rank".into()
                                    );
                                }
                                let claim = claim as usize;
                                if claim >= workers {
                                    Err(format!(
                                        "rank {claim} out of range for {workers} workers"
                                    ))
                                } else if conns[claim].is_some() {
                                    Err(format!("rank {claim} is already connected"))
                                } else {
                                    Ok(claim)
                                }
                            })?;
                        conns[rank] = Some(conn);
                        connected += 1;
                    }
                    Ok(())
                })();
                if let Err(e) = result {
                    for child in children.iter_mut().flatten() {
                        let _ = child.kill();
                        let _ = child.wait();
                    }
                    if let Some(path) = &uds_socket {
                        let _ = std::fs::remove_file(path);
                    }
                    if let Some(dir) = &uds_dir {
                        let _ = std::fs::remove_dir(dir);
                    }
                    return Err(e);
                }
                for (rank, (child, conn)) in children.into_iter().zip(conns).enumerate() {
                    let Conn { reader, writer } = conn.expect("all ranks connected");
                    readers.push(spawn_reader(rank, reader, tx.clone()));
                    links.push(RankLink {
                        child,
                        writer,
                        journal: Some(Vec::new()),
                        recvd: 0,
                        skip: 0,
                        dead: false,
                    });
                }
                FleetMode::Listen {
                    listener: bound.listener,
                    uri: bound.uri,
                    bin,
                }
            }
            (_, WorkerSet::Endpoints(endpoints)) => {
                for (rank, uri) in endpoints.iter().enumerate() {
                    // The workers may still be binding their listeners.
                    let mut conn = dial_retry(uri, 250, 20)?;
                    let assigned =
                        coordinator_handshake(&mut conn, fingerprint, &mut |claim| {
                            if claim == RANK_ANY || claim as usize == rank {
                                Ok(rank)
                            } else {
                                Err(format!(
                                    "endpoint {uri} claims rank {claim}, expected {rank}"
                                ))
                            }
                        })?;
                    debug_assert_eq!(assigned, rank);
                    let Conn { reader, writer } = conn;
                    readers.push(spawn_reader(rank, reader, tx.clone()));
                    links.push(RankLink {
                        child: None,
                        writer,
                        journal: Some(Vec::new()),
                        recvd: 0,
                        skip: 0,
                        dead: false,
                    });
                }
                FleetMode::Dial {
                    endpoints: endpoints.clone(),
                }
            }
        };

        Ok(ProcessTransport {
            links,
            mode,
            reconnect: spec.reconnect.clone(),
            fingerprint,
            tx: std::sync::Mutex::new(tx),
            rx: std::sync::Mutex::new(rx),
            readers,
            coord: VecDeque::new(),
            machines,
            workers,
            uds_socket,
            uds_dir,
            bootstrap_bytes: vec![0; workers],
            bootstrap_counter: rec.counter("net/bootstrap_bytes"),
            msgs: rec.counter("net/messages"),
            barrier_wait: rec.span("net/barrier_wait"),
        })
    }

    pub fn workers(&self) -> usize {
        self.workers
    }

    pub fn rank_of(&self, machine: usize) -> usize {
        let per = self.machines.div_ceil(self.workers);
        machine / per
    }

    /// The machine range worker `rank` drives.
    pub fn owned_range(&self, rank: usize) -> Range<usize> {
        partition_range(self.machines, self.workers, rank)
    }

    /// Bytes of [`Payload::Bootstrap`] frames sent to each rank so far
    /// (the `net/bootstrap_bytes` counter, split per rank).
    pub fn bootstrap_bytes(&self) -> &[u64] {
        &self.bootstrap_bytes
    }

    /// Kill worker `rank`'s child process (test hook for the reconnect
    /// path; spawn modes only). The next frame exchange observes the EOF
    /// sentinel and revives the rank.
    pub fn kill_worker(&mut self, rank: usize) -> Result<(), TransportError> {
        match &mut self.links[rank].child {
            Some(child) => {
                child.kill()?;
                Ok(())
            }
            None => Err(TransportError::Protocol(format!(
                "rank {rank} has no child process to kill (endpoints mode)"
            ))),
        }
    }

    /// Append the frame to the rank's journal (socket links) and write it
    /// out. Write failures on a journaled link mark the rank dead instead
    /// of erroring: the frame is safe in the journal, and the revive
    /// triggered by the rank's EOF sentinel replays it.
    fn push_frame(&mut self, rank: usize, dst: u16, body: &[u8]) -> Result<(), TransportError> {
        let link = &mut self.links[rank];
        if let Some(journal) = &mut link.journal {
            journal.extend_from_slice(&((body.len() + 2) as u32).to_le_bytes());
            journal.extend_from_slice(&dst.to_le_bytes());
            journal.extend_from_slice(body);
        }
        if link.dead {
            return Ok(());
        }
        match write_frame_bytes(&mut link.writer, dst, body) {
            Ok(()) => Ok(()),
            Err(_) if link.journal.is_some() => {
                link.dead = true;
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Send a control payload to one worker.
    pub fn send_ctrl(&mut self, rank: usize, payload: &Payload) -> Result<(), TransportError> {
        self.msgs.add(1);
        let body = encode_payload(payload);
        if matches!(payload, Payload::Bootstrap { .. }) {
            // Frame overhead: len u32 + dst u16.
            let framed = body.len() as u64 + 6;
            self.bootstrap_bytes[rank] += framed;
            self.bootstrap_counter.add(framed);
        }
        self.push_frame(rank, DST_CTRL, &body)
    }

    /// Send a control payload to every worker.
    pub fn broadcast(&mut self, payload: &Payload) -> Result<(), TransportError> {
        for rank in 0..self.workers {
            self.send_ctrl(rank, payload)?;
        }
        Ok(())
    }

    /// The next frame from any worker, transparently reviving ranks whose
    /// connection dropped (journaled links only). Frames regenerated by a
    /// revived worker's deterministic replay are discarded up to the
    /// count already processed before the drop (`skip`), so the protocol
    /// state machine never sees a duplicate.
    fn next_frame(&mut self) -> Result<(usize, u16, Vec<u8>), TransportError> {
        loop {
            let (rank, dst, body) = self
                .rx
                .lock()
                .expect("reader channel lock")
                .recv()
                .map_err(|_| TransportError::Protocol("all reader threads exited".into()))?;
            if dst == RANK_EOF {
                self.links[rank].dead = true;
                if self.links[rank].journal.is_some() && self.reconnect.max_attempts > 0 {
                    self.revive(rank)?;
                    continue;
                }
                return Err(TransportError::WorkerExited { rank });
            }
            if self.links[rank].skip > 0 {
                self.links[rank].skip -= 1;
                continue;
            }
            self.links[rank].recvd += 1;
            return Ok((rank, dst, body));
        }
    }

    /// Bounded reconnect-with-backoff for a dead rank.
    fn revive(&mut self, rank: usize) -> Result<(), TransportError> {
        let policy = self.reconnect.clone();
        let mut backoff = policy.backoff_ms.max(1);
        let mut last = None;
        for attempt in 0..policy.max_attempts {
            if attempt > 0 {
                std::thread::sleep(Duration::from_millis(backoff));
                backoff = (backoff * 2).min(2_000);
            }
            match self.try_reattach(rank) {
                Ok(()) => return Ok(()),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or(TransportError::WorkerExited { rank }))
    }

    /// One reconnect attempt: re-establish the rank's connection
    /// (respawn + re-accept, or re-dial), handshake expecting exactly this
    /// rank, then attach — new reader thread first (so the worker's replay
    /// responses drain instead of deadlocking the socket buffers), then
    /// journal replay, with `skip` armed to swallow the regenerated
    /// frames.
    fn try_reattach(&mut self, rank: usize) -> Result<(), TransportError> {
        let fingerprint = self.fingerprint;
        let tx = self.tx.lock().expect("sender lock").clone();
        let mut conn = match &self.mode {
            FleetMode::Pipes => return Err(TransportError::WorkerExited { rank }),
            FleetMode::Listen { listener, uri, bin } => {
                if let Some(mut old) = self.links[rank].child.take() {
                    let _ = old.kill();
                    let _ = old.wait();
                }
                let mut child = socket_worker_command(bin, uri, rank, fingerprint)
                    .spawn()
                    .map_err(TransportError::Spawn)?;
                let deadline = Instant::now() + REVIVE_ACCEPT_TIMEOUT;
                let mut alive = || match child.try_wait() {
                    Ok(Some(status)) => Err(TransportError::Protocol(format!(
                        "worker {rank} exited ({status}) before completing the handshake"
                    ))),
                    _ => Ok(()),
                };
                match listener.accept_within(deadline, &mut alive) {
                    Ok(conn) => {
                        self.links[rank].child = Some(child);
                        conn
                    }
                    Err(e) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(e);
                    }
                }
            }
            FleetMode::Dial { endpoints } => dial_once(&endpoints[rank])?,
        };
        let accepted = coordinator_handshake(&mut conn, fingerprint, &mut |claim| {
            if claim == RANK_ANY || claim as usize == rank {
                Ok(rank)
            } else {
                Err(format!("expected rank {rank} to reconnect, got {claim}"))
            }
        });
        if let Err(e) = accepted {
            if let Some(child) = &mut self.links[rank].child {
                let _ = child.kill();
                let _ = child.wait();
            }
            return Err(e);
        }
        let Conn { reader, writer } = conn;
        self.readers.push(spawn_reader(rank, reader, tx));
        let link = &mut self.links[rank];
        link.writer = writer;
        link.dead = false;
        link.skip = link.recvd;
        if let Some(journal) = &link.journal {
            link.writer.write_all(journal)?;
            link.writer.flush()?;
        }
        Ok(())
    }

    /// Blocking receive of the next coordinator-addressed payload, relaying
    /// any machine-addressed frames encountered along the way.
    pub fn recv_coord(&mut self) -> Result<(usize, Payload), TransportError> {
        if let Some(item) = self.coord.pop_front() {
            return Ok(item);
        }
        loop {
            let (rank, dst, body) = self.next_frame()?;
            if dst == DST_COORD {
                return Ok((rank, decode_payload(&body)?));
            }
            let machine = dst as usize;
            if machine >= self.machines {
                return Err(TransportError::Protocol(format!(
                    "frame from worker {rank} addressed to unknown machine {machine}"
                )));
            }
            let owner = self.rank_of(machine);
            self.push_frame(owner, dst, &body)?;
        }
    }

    /// Pop `n` queued/incoming coordinator payloads (arrival order).
    pub fn recv_coord_n(&mut self, n: usize) -> Result<Vec<(usize, Payload)>, TransportError> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.recv_coord()?);
        }
        Ok(out)
    }

    /// One barrier round: collect every worker's [`Payload::BarrierAck`]
    /// for `seq` — relaying data frames and queueing other
    /// coordinator-addressed payloads (global partials) as they arrive —
    /// then broadcast the [`Payload::Barrier`] release. Per-worker link
    /// FIFO guarantees all of a worker's data frames for the round precede
    /// its ack, so once the release is sent, delivery is complete.
    pub fn barrier_round(&mut self, seq: u64) -> Result<(), TransportError> {
        let timing = self.barrier_wait.is_enabled();
        let start = timing.then(std::time::Instant::now);
        let mut acked = vec![false; self.workers];
        let mut pending = self.workers;
        // Drain already-queued payloads first in case an ack was read
        // during an earlier round. Non-ack payloads (global partials) are
        // deferred to a side queue — NOT back onto `self.coord`, which
        // `recv_coord` pops from and would hand the same payload straight
        // back — and merged once every ack is in.
        let mut stash = VecDeque::new();
        std::mem::swap(&mut stash, &mut self.coord);
        let mut deferred: VecDeque<(usize, Payload)> = VecDeque::new();
        let mut next = move |this: &mut Self| -> Result<(usize, Payload), TransportError> {
            if let Some(item) = stash.pop_front() {
                Ok(item)
            } else {
                this.recv_coord()
            }
        };
        while pending > 0 {
            let (rank, payload) = next(self)?;
            match payload {
                Payload::BarrierAck { from, seq: s } if s == seq => {
                    let from = from as usize;
                    if from >= self.workers || acked[from] {
                        return Err(TransportError::Protocol(format!(
                            "duplicate or out-of-range barrier ack from rank {from}"
                        )));
                    }
                    acked[from] = true;
                    pending -= 1;
                }
                Payload::BarrierAck { from, seq: s } => {
                    return Err(TransportError::Protocol(format!(
                        "barrier ack for {s} from rank {from} while collecting {seq}"
                    )));
                }
                other => deferred.push_back((rank, other)),
            }
        }
        // `recv_coord` never pushes onto `self.coord`, so it is still empty
        // here; the deferred payloads keep their arrival order.
        debug_assert!(self.coord.is_empty());
        self.coord = deferred;
        self.broadcast(&Payload::Barrier { seq })?;
        if let Some(start) = start {
            self.barrier_wait.record(1, start.elapsed().as_nanos() as u64);
        }
        Ok(())
    }
}

impl Transport for ProcessTransport {
    fn send(&mut self, dst: usize, payload: Payload) -> Result<(), TransportError> {
        if dst == COORD {
            return Err(TransportError::Protocol(
                "coordinator cannot send to itself".into(),
            ));
        }
        self.msgs.add(1);
        let rank = self.rank_of(dst);
        let body = encode_payload(&payload);
        self.push_frame(rank, dst as u16, &body)
    }

    fn drain_inbox(&mut self) -> Vec<(usize, Payload)> {
        // The coordinator owns no machines; nothing is ever addressed to it
        // through the machine plane.
        Vec::new()
    }

    fn barrier(&mut self, seq: u64) -> Result<(), TransportError> {
        self.barrier_round(seq)
    }
}

impl Drop for ProcessTransport {
    fn drop(&mut self) {
        for link in &mut self.links {
            if !link.dead {
                let _ = write_frame(&mut link.writer, DST_CTRL, &Payload::Shutdown);
                let _ = link.writer.flush();
            }
        }
        // Close the write halves: pipe workers blocked on stdin see EOF.
        // (Socket workers exit on the Shutdown payload instead — the reader
        // thread's clone keeps the connection itself open.)
        for link in &mut self.links {
            link.writer = Box::new(std::io::sink());
        }
        for link in &mut self.links {
            if let Some(child) = &mut link.child {
                let deadline = Instant::now() + Duration::from_secs(10);
                loop {
                    match child.try_wait() {
                        Ok(Some(_)) => break,
                        Ok(None) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        _ => {
                            // Wedged or unqueryable: reap it the hard way.
                            let _ = child.kill();
                            let _ = child.wait();
                            break;
                        }
                    }
                }
            }
        }
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
        if let Some(path) = &self.uds_socket {
            let _ = std::fs::remove_file(path);
        }
        if let Some(dir) = &self.uds_dir {
            let _ = std::fs::remove_dir(dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_transport_preserves_send_order() {
        let rec = itg_obs::Recorder::enabled();
        let mut t = LocalTransport::new(&rec);
        t.send(1, Payload::RunOneshot).unwrap();
        t.send(0, Payload::Compact).unwrap();
        t.barrier(1).unwrap();
        let drained = t.drain_inbox();
        assert_eq!(
            drained,
            vec![(1, Payload::RunOneshot), (0, Payload::Compact)]
        );
        assert!(t.drain_inbox().is_empty());
        assert_eq!(rec.profile().counter_total("net/messages"), 2);
    }

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
        assert!(matches!(tcp.link, LinkKind::Tcp { .. }));
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

    #[test]
    fn uri_parsing_rejects_garbage() {
        assert!(split_uri("tcp://127.0.0.1:80").is_ok());
        assert!(split_uri("no-scheme").is_err());
        assert!(matches!(
            dial_once("ftp://x"),
            Err(TransportError::Protocol(_))
        ));
    }

    /// Drive `coordinator_handshake` over an in-memory connection.
    fn admit(hello_frame: &[u8], fingerprint: u64) -> Result<usize, TransportError> {
        let mut conn = Conn {
            reader: Box::new(std::io::Cursor::new(hello_frame.to_vec())),
            writer: Box::new(Vec::new()),
        };
        coordinator_handshake(&mut conn, fingerprint, &mut |rank| {
            if rank == RANK_ANY || rank == 1 {
                Ok(1)
            } else {
                Err(format!("rank {rank} is not expected"))
            }
        })
    }

    fn hello_frame(rank: u32, fingerprint: u64) -> Vec<u8> {
        let body = encode_handshake(&Handshake::Hello { rank, fingerprint });
        let mut out = Vec::new();
        write_frame_bytes(&mut out, DST_CTRL, &body).unwrap();
        out
    }

    #[test]
    fn coordinator_rejects_bad_credentials() {
        let fp = crate::wire::cluster_fingerprint(4, 2, "src", 10, true);

        // The right rank with the right (or unknown) fingerprint is in.
        assert_eq!(admit(&hello_frame(1, fp), fp).unwrap(), 1);
        assert_eq!(admit(&hello_frame(1, FINGERPRINT_ANY), fp).unwrap(), 1);
        assert_eq!(admit(&hello_frame(RANK_ANY, fp), fp).unwrap(), 1);

        // A fingerprint naming another cluster is refused loudly.
        match admit(&hello_frame(1, fp ^ 0xBEEF), fp) {
            Err(TransportError::Handshake(msg)) => {
                assert!(msg.contains("fingerprint"), "message was: {msg}")
            }
            other => panic!("expected a handshake rejection, got {other:?}"),
        }

        // A rank the claim closure refuses is a handshake error too.
        assert!(matches!(
            admit(&hello_frame(7, fp), fp),
            Err(TransportError::Handshake(_))
        ));

        // A truncated hello never hangs or admits: chop the frame short.
        let frame = hello_frame(1, fp);
        assert!(admit(&frame[..frame.len() - 3], fp).is_err());
    }
}
