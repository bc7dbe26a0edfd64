//! The coordinator's hub of worker processes: how each rank's [`Conn`] is
//! obtained (spawn and accept, or dial — the one place the two fleet
//! kinds differ), the per-rank frame journal, the revive
//! that replays it, and the sync rounds it releases.
//!
//! A worker is a deterministic function of its input frame stream, so a
//! restarted worker fed the journal from the `Bootstrap` on regenerates
//! every response it ever sent; the coordinator discards as many as it had
//! already processed and carries on. That argument is the same whatever
//! carries the bytes, so it is written once (DESIGN.md §8.5).

use crate::link::{coordinator_handshake, BoxWrite, Conn, Listener};
use crate::transport::{partition_range, ClusterSpec, TransportError};
use crate::wire::{
    decode_payload, encode_payload, read_frame, write_frame_bytes, Part, Payload, DST_COORD,
    DST_CTRL,
};
use std::io::{Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long the coordinator waits for the whole fleet to connect and
/// complete the handshake before giving up on the initial connect.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(60);

/// How long one revive attempt waits for the rank's new connection.
const REVIVE_TIMEOUT: Duration = Duration::from_secs(10);

/// How many times the coordinator tries to revive a rank whose connection
/// dropped before the failure becomes fatal.
pub const REVIVE_ATTEMPTS: u32 = 5;

/// Pause before the second revive attempt, milliseconds; doubles per
/// attempt, capped at two seconds.
pub const REVIVE_BACKOFF_MS: u64 = 50;

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

/// Start one worker process for `rank`, dialing back to `connect`.
fn spawn_worker(
    bin: &Path,
    connect: &str,
    rank: usize,
    fingerprint: u64,
) -> Result<Child, TransportError> {
    Command::new(bin)
        .arg("--rank")
        .arg(rank.to_string())
        .arg("--fingerprint")
        .arg(fingerprint.to_string())
        .arg("--connect")
        .arg(connect)
        .stdin(Stdio::null())
        .stdout(Stdio::inherit())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(TransportError::Spawn)
}

/// Sentinel a reader thread emits when its worker's stream reaches EOF.
const RANK_EOF: u16 = DST_CTRL;

/// One worker's coordinator-side state: the child handle (where the
/// coordinator spawned it), the connection's write half (`None` while the
/// rank has no live connection), the journal of every frame ever written
/// to this rank, and the received-frame count. Journal and count together
/// make a restarted worker catch up deterministically: replay the journal,
/// discard the first `recvd` regenerated frames.
struct RankLink {
    child: Option<Child>,
    writer: Option<BoxWrite>,
    journal: Vec<u8>,
    recvd: u64,
    skip: u64,
}

/// Where the fleet's connections come from — the only thing the two
/// [`ClusterSpec`] kinds decide.
enum Fleet {
    /// The coordinator spawns the workers, and they dial back into
    /// `listener`.
    Spawn { bin: PathBuf, listener: Listener },
    /// Pre-started workers the coordinator dials, one per rank.
    Dial { endpoints: Vec<String> },
}

/// The coordinator's hub of worker processes.
///
/// One worker per rank (see [`ClusterSpec`]). A reader thread per
/// connection feeds every incoming frame — still encoded — into one mpsc
/// channel; the coordinator relays machine-addressed frames to the owning
/// worker without re-encoding and decodes coordinator-addressed frames
/// for [`ProcessTransport::recv_coord`].
pub struct ProcessTransport {
    links: Vec<RankLink>,
    fleet: Fleet,
    fingerprint: u64,
    // Mutex-wrapped solely for `Sync` (the session is shared across scoped
    // threads during partition phases); the coordinator is the only user.
    tx: std::sync::Mutex<mpsc::Sender<(usize, u16, Vec<u8>)>>,
    rx: std::sync::Mutex<mpsc::Receiver<(usize, u16, Vec<u8>)>>,
    readers: Vec<std::thread::JoinHandle<()>>,
    /// The last sync round released, and the parts of the open one by
    /// rank, with when its first part arrived (when timing).
    seq: u64,
    round: Vec<Option<Part>>,
    round_start: Option<Instant>,
    machines: usize,
    workers: usize,
    bootstrap_bytes: Vec<u64>,
    bootstrap_counter: itg_obs::CounterHandle,
    msgs: itg_obs::CounterHandle,
    barrier_wait: itg_obs::SpanHandle,
}

/// Spawn the reader thread for one connection: every frame goes, still
/// encoded, into the shared channel; EOF or a read error emits the
/// [`RANK_EOF`] sentinel so a coordinator blocked on this worker revives it
/// instead of hanging.
fn spawn_reader(
    rank: usize,
    mut reader: impl Read + Send + 'static,
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

impl ProcessTransport {
    /// Establish the fleet a [`ClusterSpec`] describes for a
    /// `machines`-machine cluster. `fingerprint` is the cluster
    /// fingerprint ([`crate::wire::cluster_fingerprint`]) handshakes are
    /// validated against. The caller bootstraps the workers afterwards
    /// (program source, graph slice, config) via
    /// [`ProcessTransport::send_ctrl`].
    pub fn connect(
        machines: usize,
        spec: &ClusterSpec,
        fingerprint: u64,
        rec: &itg_obs::Recorder,
    ) -> Result<ProcessTransport, TransportError> {
        let workers = spec.resolved_workers(machines)?;
        let fleet = match spec {
            ClusterSpec::Listen { uri, .. } => Fleet::Spawn {
                bin: find_worker_binary().ok_or(TransportError::WorkerBinaryNotFound)?,
                listener: Listener::bind(uri)?,
            },
            ClusterSpec::Endpoints(endpoints) => Fleet::Dial {
                endpoints: endpoints.clone(),
            },
        };
        let (tx, rx) = mpsc::channel();
        let mut t = ProcessTransport {
            links: (0..workers)
                .map(|_| RankLink {
                    child: None,
                    writer: None,
                    journal: Vec::new(),
                    recvd: 0,
                    skip: 0,
                })
                .collect(),
            fleet,
            fingerprint,
            tx: std::sync::Mutex::new(tx),
            rx: std::sync::Mutex::new(rx),
            readers: Vec::with_capacity(workers),
            seq: 0,
            round: vec![None; workers],
            round_start: None,
            machines,
            workers,
            bootstrap_bytes: vec![0; workers],
            bootstrap_counter: rec.counter("net/bootstrap_bytes"),
            msgs: rec.counter("net/messages"),
            barrier_wait: rec.span("net/barrier_wait"),
        };
        // A failure drops `t`: children are reaped and the listener's
        // socket file and directory removed.
        t.attach(0..workers, CONNECT_TIMEOUT)?;
        Ok(t)
    }

    /// Obtain a handshaken [`Conn`] (and, where the coordinator spawns,
    /// a fresh `Child`) for every rank in `ranks`, and put it into
    /// service: reader thread first (so the worker's replay responses
    /// drain instead of deadlocking the stream's buffers), then the
    /// journal replay, with `skip` armed to swallow the regenerated
    /// frames. The initial [`ProcessTransport::connect`] attaches the whole
    /// fleet (empty journals); a revive attaches the one dead rank.
    fn attach(&mut self, ranks: Range<usize>, timeout: Duration) -> Result<(), TransportError> {
        let deadline = Instant::now() + timeout;
        let fingerprint = self.fingerprint;
        let links = &mut self.links;
        // Start every child before waiting on any of them.
        if let Fleet::Spawn { bin, listener } = &self.fleet {
            for rank in ranks.clone() {
                reap(&mut links[rank].child, None);
                links[rank].child = Some(spawn_worker(bin, listener.uri(), rank, fingerprint)?);
            }
        }
        let mut awaited: Vec<usize> = ranks.collect();
        while let Some(&next) = awaited.first() {
            // A dialed endpoint can only be `next`; a connection accepted
            // off the listener is whichever awaited rank its hello claims.
            let (mut conn, candidates) = match &self.fleet {
                Fleet::Spawn { listener, .. } => {
                    let mut alive = || {
                        for &rank in &awaited {
                            let child = links[rank].child.as_mut().expect("spawned above");
                            if let Ok(Some(status)) = child.try_wait() {
                                return Err(TransportError::Protocol(format!(
                                    "worker {rank} exited ({status}) before completing the \
                                     handshake"
                                )));
                            }
                        }
                        Ok(())
                    };
                    (listener.accept(Some(deadline), &mut alive)?, &awaited[..])
                }
                Fleet::Dial { endpoints } => {
                    (Conn::dial(&endpoints[next], deadline)?, &awaited[..1])
                }
            };
            let rank = coordinator_handshake(&mut conn, fingerprint, candidates)?;
            awaited.retain(|&r| r != rank);

            let Conn { reader, mut writer } = conn;
            let tx = self.tx.lock().expect("sender lock").clone();
            self.readers.push(spawn_reader(rank, reader, tx));
            let link = &mut links[rank];
            link.skip = link.recvd;
            writer.write_all(&link.journal)?;
            writer.flush()?;
            link.writer = Some(writer);
        }
        Ok(())
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

    /// Kill worker `rank`'s child process (test hook for the revive path;
    /// spawned fleets only). The next frame exchange observes the EOF
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

    /// Append the frame to the rank's journal and write it out. A write
    /// failure just drops the connection instead of erroring: the frame is
    /// safe in the journal, and the revive triggered by the rank's EOF
    /// sentinel replays it.
    fn push_frame(&mut self, rank: usize, dst: u16, body: &[u8]) {
        let link = &mut self.links[rank];
        write_frame_bytes(&mut link.journal, dst, body).expect("a Vec write cannot fail");
        if let Some(writer) = &mut link.writer {
            if write_frame_bytes(writer, dst, body).is_err() {
                link.writer = None;
            }
        }
    }

    /// Add `n` frames a worker wrote, as its run report counts them, to
    /// `net/messages`, beside the frames the coordinator writes.
    pub fn count_worker_frames(&self, n: u64) {
        self.msgs.add(n);
    }

    /// Send a control payload to one worker.
    pub fn send_ctrl(&mut self, rank: usize, payload: &Payload) {
        self.msgs.add(1);
        let body = encode_payload(payload);
        if matches!(payload, Payload::Bootstrap { .. }) {
            // Frame overhead: len u32 + dst u16.
            let framed = body.len() as u64 + 6;
            self.bootstrap_bytes[rank] += framed;
            self.bootstrap_counter.add(framed);
        }
        self.push_frame(rank, DST_CTRL, &body);
    }

    /// Send a control payload to every worker, encoded once.
    pub fn broadcast(&mut self, payload: &Payload) {
        let body = encode_payload(payload);
        for rank in 0..self.workers {
            self.msgs.add(1);
            self.push_frame(rank, DST_CTRL, &body);
        }
    }

    /// The next frame from any worker, transparently reviving ranks whose
    /// connection dropped. Frames regenerated by a revived worker's
    /// deterministic replay are discarded up to the count already
    /// processed before the drop (`skip`), so the protocol state machine
    /// never sees a duplicate.
    fn next_frame(&mut self) -> Result<(usize, u16, Vec<u8>), TransportError> {
        loop {
            let (rank, dst, body) = self
                .rx
                .lock()
                .expect("reader channel lock")
                .recv()
                .map_err(|_| TransportError::Protocol("all reader threads exited".into()))?;
            if dst == RANK_EOF {
                self.links[rank].writer = None;
                self.revive(rank)?;
                continue;
            }
            if self.links[rank].skip > 0 {
                self.links[rank].skip -= 1;
                continue;
            }
            self.links[rank].recvd += 1;
            return Ok((rank, dst, body));
        }
    }

    /// Bounded re-attach with backoff for a rank whose connection dropped:
    /// up to [`REVIVE_ATTEMPTS`] attempts, pausing [`REVIVE_BACKOFF_MS`]
    /// (doubling, capped at 2 s) between them.
    fn revive(&mut self, rank: usize) -> Result<(), TransportError> {
        let mut backoff = Duration::from_millis(REVIVE_BACKOFF_MS);
        let mut attempt = 1;
        loop {
            match self.attach(rank..rank + 1, REVIVE_TIMEOUT) {
                Ok(()) => return Ok(()),
                Err(cause) if attempt == REVIVE_ATTEMPTS => {
                    let cause = Box::new(cause);
                    return Err(TransportError::WorkerExited { rank, cause });
                }
                Err(_) => {
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(Duration::from_secs(2));
                    attempt += 1;
                }
            }
        }
    }

    /// Blocking receive of the next coordinator-addressed payload, relaying
    /// any machine-addressed frames encountered along the way.
    pub fn recv_coord(&mut self) -> Result<(usize, Payload), TransportError> {
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
            self.push_frame(owner, dst, &body);
        }
    }

    /// File rank `from`'s `part` of sync round `seq`; once every rank has
    /// joined, broadcast the [`Payload::Release`] with the parts in rank
    /// order. Per-rank link FIFO puts every data frame a rank wrote for
    /// the round before its `Sync`, and the relay forwards them before
    /// reading on, so the release follows them on every link.
    pub(crate) fn join(&mut self, from: u32, seq: u64, part: Part) -> Result<(), TransportError> {
        let rank = from as usize;
        if seq != self.seq + 1 {
            return Err(TransportError::Protocol(format!(
                "rank {rank} joined sync {seq} while sync {} is open",
                self.seq + 1
            )));
        }
        match self.round.get_mut(rank) {
            Some(slot @ None) => *slot = Some(part),
            _ => {
                return Err(TransportError::Protocol(format!(
                    "duplicate or out-of-range rank {rank} in sync {seq}"
                )))
            }
        }
        if self.barrier_wait.is_enabled() {
            self.round_start.get_or_insert_with(Instant::now);
        }
        if self.round.iter().any(Option::is_none) {
            return Ok(());
        }
        let parts = self
            .round
            .iter_mut()
            .map(|p| p.take().expect("every rank joined"))
            .collect();
        self.seq = seq;
        self.broadcast(&Payload::Release { seq, parts });
        if let Some(start) = self.round_start.take() {
            self.barrier_wait.record(1, start.elapsed().as_nanos() as u64);
        }
        Ok(())
    }
}

/// Wait for a child to exit until `deadline` (`None` = not at all), then
/// kill it; either way it is reaped.
fn reap(child: &mut Option<Child>, deadline: Option<Instant>) {
    let Some(mut child) = child.take() else {
        return;
    };
    while deadline.is_some_and(|d| Instant::now() < d) {
        if !matches!(child.try_wait(), Ok(None)) {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = child.kill();
    let _ = child.wait();
}

impl Drop for ProcessTransport {
    fn drop(&mut self) {
        // Connected workers exit on the Shutdown payload; a child without
        // a connection cannot hear it and is killed outright.
        let body = encode_payload(&Payload::Shutdown);
        let heard: Vec<bool> = (self.links.iter_mut())
            .map(|link| {
                let writer = link.writer.take();
                writer.is_some_and(|mut w| write_frame_bytes(&mut w, DST_CTRL, &body).is_ok())
            })
            .collect();
        let grace = Instant::now() + Duration::from_secs(10);
        for (link, heard) in self.links.iter_mut().zip(heard) {
            reap(&mut link.child, heard.then_some(grace));
        }
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
    }
}
