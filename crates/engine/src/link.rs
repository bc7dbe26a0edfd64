//! The one coordinator↔worker link: an ordered byte stream per rank.
//!
//! A [`Conn`] is a buffered read half plus a buffered write half over a
//! TCP stream or a Unix-domain socket. Both ends of every fleet kind hold
//! one; nothing above this module knows which family it is. A [`Listener`] binds a `tcp://ADDR` or `uds://PATH` URI and accepts
//! `Conn`s — for the coordinator of a spawned socket fleet and for a
//! `--listen` worker alike — and [`Conn::dial`] is its counterpart.
//!
//! Every connection opens with the same versioned handshake
//! ([`crate::wire::Handshake`]): the worker speaks first
//! (`worker_handshake`), the coordinator validates and answers
//! (`coordinator_handshake`). See DESIGN.md §8.4.

use crate::transport::TransportError;
use crate::wire::{
    decode_handshake, encode_handshake, read_frame, write_frame_bytes, Handshake, DST_CTRL,
    FINGERPRINT_ANY, RANK_ANY,
};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub(crate) type BoxRead = Box<dyn Read + Send + Sync>;
pub(crate) type BoxWrite = Box<dyn Write + Send + Sync>;

/// One established coordinator↔worker connection. The coordinator hands
/// the read half to a reader thread and keeps the write half; a worker
/// keeps both.
pub struct Conn {
    pub(crate) reader: BoxRead,
    pub(crate) writer: BoxWrite,
}

impl Conn {
    fn from_tcp(stream: TcpStream) -> std::io::Result<Conn> {
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
    fn from_uds(stream: UnixStream) -> std::io::Result<Conn> {
        stream.set_nonblocking(false)?;
        Ok(Conn {
            reader: Box::new(BufReader::new(stream.try_clone()?)),
            writer: Box::new(BufWriter::new(stream)),
        })
    }

    /// Dial `uri` (`tcp://ADDR` / `uds://PATH`), retrying until `deadline`
    /// while the peer finishes binding its listener.
    pub fn dial(uri: &str, deadline: Instant) -> Result<Conn, TransportError> {
        let addr = Addr::parse(uri)?;
        loop {
            let attempt = match &addr {
                Addr::Tcp(a) => TcpStream::connect(a.as_str()).and_then(Conn::from_tcp),
                #[cfg(unix)]
                Addr::Uds(p) => UnixStream::connect(p).and_then(Conn::from_uds),
            };
            match attempt {
                Ok(conn) => return Ok(conn),
                Err(e) if Instant::now() >= deadline => return Err(e.into()),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    /// Write one `[len][dst][body]` frame and flush it.
    pub fn send(&mut self, dst: u16, body: &[u8]) -> std::io::Result<()> {
        write_frame_bytes(&mut self.writer, dst, body)
    }

    /// Read one frame; `None` is a clean close at a frame boundary.
    pub fn recv(&mut self) -> std::io::Result<Option<(u16, Vec<u8>)>> {
        read_frame(&mut self.reader)
    }
}

/// A parsed endpoint URI — the one place the `tcp://` / `uds://` schemes
/// are interpreted.
enum Addr {
    Tcp(String),
    #[cfg(unix)]
    Uds(PathBuf),
}

impl Addr {
    fn parse(uri: &str) -> Result<Addr, TransportError> {
        match uri.split_once("://") {
            Some(("tcp", addr)) => Ok(Addr::Tcp(addr.to_string())),
            #[cfg(unix)]
            Some(("uds", path)) => Ok(Addr::Uds(PathBuf::from(path))),
            #[cfg(not(unix))]
            Some(("uds", _)) => Err(TransportError::Protocol(
                "unix-domain sockets are not supported on this platform".into(),
            )),
            _ => Err(TransportError::Protocol(format!(
                "malformed endpoint `{uri}` (expected tcp://ADDR or uds://PATH)"
            ))),
        }
    }
}

enum Socket {
    Tcp(TcpListener),
    #[cfg(unix)]
    Uds(UnixListener),
}

/// A bound listening socket: the coordinator's, for spawned workers to
/// dial back into, or a `--listen` worker's, for its coordinator to dial.
pub struct Listener {
    socket: Socket,
    uri: String,
    /// UDS only: the socket file, and whether `bind` created its
    /// directory. Both are removed again on drop.
    uds: Option<(PathBuf, bool)>,
}

impl Listener {
    pub fn bind(uri: &str) -> Result<Listener, TransportError> {
        match Addr::parse(uri)? {
            Addr::Tcp(addr) => {
                let listener = TcpListener::bind(addr.as_str())?;
                // Resolves a `:0` request to the port actually bound.
                let uri = format!("tcp://{}", listener.local_addr()?);
                Ok(Listener {
                    socket: Socket::Tcp(listener),
                    uri,
                    uds: None,
                })
            }
            #[cfg(unix)]
            Addr::Uds(path) => {
                let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
                let created = dir.is_some_and(|d| !d.exists());
                if let Some(dir) = dir {
                    std::fs::create_dir_all(dir)?;
                }
                // A stale socket file from a crashed run makes bind fail.
                let _ = std::fs::remove_file(&path);
                Ok(Listener {
                    socket: Socket::Uds(UnixListener::bind(&path)?),
                    uri: uri.to_string(),
                    uds: Some((path, created)),
                })
            }
        }
    }

    /// The URI peers dial.
    pub fn uri(&self) -> &str {
        &self.uri
    }

    /// Accept one connection. With a `deadline` the wait polls `alive`
    /// (worker liveness) between attempts, so a crashed worker fails fast
    /// instead of timing out; without one it blocks in the kernel (an idle
    /// `--listen` worker must not spin).
    pub fn accept(
        &self,
        deadline: Option<Instant>,
        alive: &mut dyn FnMut() -> Result<(), TransportError>,
    ) -> Result<Conn, TransportError> {
        let poll = deadline.is_some();
        match &self.socket {
            Socket::Tcp(l) => l.set_nonblocking(poll)?,
            #[cfg(unix)]
            Socket::Uds(l) => l.set_nonblocking(poll)?,
        }
        loop {
            let accepted = match &self.socket {
                Socket::Tcp(l) => l.accept().and_then(|(s, _)| Conn::from_tcp(s)),
                #[cfg(unix)]
                Socket::Uds(l) => l.accept().and_then(|(s, _)| Conn::from_uds(s)),
            };
            match accepted {
                Ok(conn) => return Ok(conn),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(e.into()),
            }
            alive()?;
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(TransportError::Protocol(
                    "timed out waiting for a worker to complete the connection handshake".into(),
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Some((path, created_dir)) = &self.uds {
            let _ = std::fs::remove_file(path);
            if let (true, Some(dir)) = (*created_dir, path.parent()) {
                let _ = std::fs::remove_dir(dir);
            }
        }
    }
}

/// Coordinator side of the handshake on a fresh connection: read the
/// worker's `Hello`, validate its fingerprint and its rank claim against
/// `awaited` (the ranks this connection may fill — a worker claiming
/// [`RANK_ANY`] is assigned the only awaited rank), and answer
/// `Accept { rank, fingerprint }` or `Reject { reason }`. The handshake
/// never enters the frame journal — it is per-connection.
pub(crate) fn coordinator_handshake(
    conn: &mut Conn,
    fingerprint: u64,
    awaited: &[usize],
) -> Result<usize, TransportError> {
    let hello = match conn.recv() {
        Ok(Some(frame)) => frame,
        Ok(None) => {
            return Err(TransportError::Handshake(
                "peer closed the connection before sending a hello".into(),
            ))
        }
        Err(e) => {
            return Err(TransportError::Handshake(format!(
                "connection lost before a complete hello arrived ({e})"
            )))
        }
    };
    let verdict = match hello {
        (DST_CTRL, body) => match decode_handshake(&body) {
            Ok(Handshake::Hello { fingerprint: fp, .. })
                if fp != FINGERPRINT_ANY && fp != fingerprint =>
            {
                Err(format!(
                    "cluster fingerprint {fp:#018x} does not match coordinator \
                     {fingerprint:#018x}"
                ))
            }
            Ok(Handshake::Hello { rank: RANK_ANY, .. }) if awaited.len() == 1 => Ok(awaited[0]),
            Ok(Handshake::Hello { rank, .. }) if awaited.contains(&(rank as usize)) => {
                Ok(rank as usize)
            }
            Ok(Handshake::Hello { rank, .. }) => Err(format!(
                "worker claims rank {rank:#x}, but this connection is for one of {awaited:?}"
            )),
            Ok(_) => Err("expected a hello, got another handshake kind".into()),
            Err(e) => Err(format!("bad hello ({e})")),
        },
        (dst, _) => Err(format!("hello frame addressed to {dst:#06x}")),
    };
    let reply = match &verdict {
        Ok(rank) => Handshake::Accept {
            rank: *rank as u32,
            fingerprint,
        },
        Err(reason) => Handshake::Reject {
            reason: reason.clone(),
        },
    };
    let sent = conn.send(DST_CTRL, &encode_handshake(&reply));
    let rank = verdict.map_err(TransportError::Handshake)?;
    sent?;
    Ok(rank)
}

/// Worker side of the handshake: send `Hello { rank, fingerprint }` (a
/// spawned worker knows both from its command line; a dialed-into worker
/// claims [`RANK_ANY`] / [`FINGERPRINT_ANY`]) and return the
/// `(rank, fingerprint)` the coordinator accepted with.
pub(crate) fn worker_handshake(
    conn: &mut Conn,
    rank: u32,
    fingerprint: u64,
) -> Result<(u32, u64), TransportError> {
    conn.send(
        DST_CTRL,
        &encode_handshake(&Handshake::Hello { rank, fingerprint }),
    )?;
    match conn.recv()? {
        None => Err(TransportError::Disconnected),
        Some((DST_CTRL, body)) => match decode_handshake(&body)? {
            Handshake::Accept { rank, fingerprint } => Ok((rank, fingerprint)),
            Handshake::Reject { reason } => Err(TransportError::Handshake(reason)),
            Handshake::Hello { .. } => Err(TransportError::Protocol(
                "unexpected hello from the coordinator".into(),
            )),
        },
        Some((dst, _)) => Err(TransportError::Protocol(format!(
            "handshake reply addressed to {dst:#06x}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uri_parsing_rejects_garbage() {
        let soon = Instant::now();
        for uri in ["no-scheme", "ftp://x"] {
            assert!(matches!(
                Conn::dial(uri, soon),
                Err(TransportError::Protocol(_))
            ));
            assert!(matches!(
                Listener::bind(uri),
                Err(TransportError::Protocol(_))
            ));
        }
    }

    /// A UDS listener owns its socket file, and its directory if `bind`
    /// had to create it: both go when the listener does — on shutdown and
    /// on a failed connect alike, since either drops it.
    #[cfg(unix)]
    #[test]
    fn uds_listener_removes_what_it_created() {
        let base = std::env::temp_dir().join(format!("itg-link-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let (fresh, kept) = (base.join("fresh"), base.join("kept"));
        std::fs::create_dir_all(&kept).unwrap();
        for dir in [&fresh, &kept] {
            let sock = dir.join("coord.sock");
            let listener = Listener::bind(&format!("uds://{}", sock.display())).unwrap();
            assert!(sock.exists());
            drop(listener);
            assert!(!sock.exists());
        }
        assert!(!fresh.exists(), "an auto-created directory is removed");
        assert!(kept.exists(), "a pre-existing directory is left alone");
        std::fs::remove_dir_all(&base).unwrap();
    }

    /// Drive `coordinator_handshake` over an in-memory connection that
    /// awaits rank 1.
    fn admit(hello_frame: &[u8], fingerprint: u64) -> Result<usize, TransportError> {
        let mut conn = Conn {
            reader: Box::new(std::io::Cursor::new(hello_frame.to_vec())),
            writer: Box::new(Vec::new()),
        };
        coordinator_handshake(&mut conn, fingerprint, &[1])
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

        // A rank this connection does not await is a handshake error too.
        assert!(matches!(
            admit(&hello_frame(7, fp), fp),
            Err(TransportError::Handshake(_))
        ));

        // A truncated hello never hangs or admits: chop the frame short.
        let frame = hello_frame(1, fp);
        assert!(admit(&frame[..frame.len() - 3], fp).is_err());
    }
}
