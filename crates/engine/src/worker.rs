//! The partition-worker process entry point (`itg-partition-worker`).
//!
//! A worker is an ordinary [`Session`] whose plane is a [`WorkerLink`] to
//! the coordinator: it bootstraps from the first control frame (program
//! source, graph slice, config), rebuilds the session state for its
//! partition group, and then executes each commanded run on the same BSP
//! driver as the local plane — restricted to its owned machine range, with
//! contributions and sync rounds flowing over the link.
//!
//! Two ways to reach the coordinator, selected by the command line — they
//! differ only in where the [`Conn`] comes from; the handshake and
//! everything after it are the same:
//!
//! * `--connect <uri>` — dial the coordinator's listen socket (spawned by
//!   [`ClusterSpec::Listen`] fleets, which hand the worker
//!   `--rank <r> --fingerprint <fp>` to claim in the handshake, on the
//!   first start and on every revive);
//! * `--listen <uri>` — bind a socket and wait for the coordinator to dial
//!   in ([`ClusterSpec::Endpoints`]); the worker claims no rank and adopts
//!   the one the handshake assigns. After a dropped connection it goes
//!   back to accepting, so a coordinator revive (journal replay) finds a
//!   fresh worker at the same address.
//!
//! [`ClusterSpec::Listen`]: crate::transport::ClusterSpec::Listen
//! [`ClusterSpec::Endpoints`]: crate::transport::ClusterSpec::Endpoints

use crate::config::EngineConfig;
use crate::graph::GraphInput;
use crate::link::worker_handshake;
use crate::metrics::RunMetrics;
use crate::session::{EngineError, Plane, Session};
use crate::transport::{partition_range, Conn, Listener, TransportError, WorkerLink, COORD};
use crate::wire::{Payload, DST_CTRL, FINGERPRINT_ANY, RANK_ANY};
use std::time::{Duration, Instant};

/// How long a `--connect` worker keeps dialing while the coordinator
/// finishes binding its listener.
const DIAL_TIMEOUT: Duration = Duration::from_secs(5);

/// Worker entry point: parse the connection arguments and run the
/// protocol to completion.
pub fn worker_main_with_args(args: &[String]) -> Result<(), TransportError> {
    let mut connect: Option<String> = None;
    let mut listen: Option<String> = None;
    let mut rank = RANK_ANY;
    let mut fingerprint = FINGERPRINT_ANY;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |i: &mut usize| -> Result<String, TransportError> {
            *i += 1;
            args.get(*i).cloned().ok_or_else(|| {
                TransportError::Protocol(format!("missing value for `{flag}`"))
            })
        };
        match flag {
            "--connect" => connect = Some(value(&mut i)?),
            "--listen" => listen = Some(value(&mut i)?),
            "--rank" => {
                rank = value(&mut i)?.parse().map_err(|_| {
                    TransportError::Protocol("--rank expects an unsigned integer".into())
                })?;
            }
            "--fingerprint" => {
                fingerprint = value(&mut i)?.parse().map_err(|_| {
                    TransportError::Protocol("--fingerprint expects an unsigned integer".into())
                })?;
            }
            other => {
                return Err(TransportError::Protocol(format!(
                    "unknown argument `{other}` (expected --connect/--listen/--rank/--fingerprint)"
                )));
            }
        }
        i += 1;
    }
    match (connect, listen) {
        (None, Some(uri)) => {
            let listener = Listener::bind(&uri)?;
            eprintln!("itg-partition-worker: listening on {}", listener.uri());
            loop {
                let conn = listener.accept(None, &mut || Ok(()))?;
                // A dialed-into worker claims no rank and checks no
                // fingerprint; the coordinator assigns both.
                match serve(conn, RANK_ANY, FINGERPRINT_ANY) {
                    // The coordinator went away; a revive dials back in
                    // and replays the journal into a fresh session.
                    Err(TransportError::Disconnected | TransportError::Io(_)) => continue,
                    done => return done,
                }
            }
        }
        (Some(uri), None) => {
            let conn = Conn::dial(&uri, Instant::now() + DIAL_TIMEOUT)?;
            match serve(conn, rank, fingerprint) {
                // The coordinator is gone and nobody can dial a spawned
                // worker again: stop quietly.
                Err(TransportError::Disconnected) => Ok(()),
                done => done,
            }
        }
        _ => Err(TransportError::Protocol(
            "expected exactly one of --connect and --listen".into(),
        )),
    }
}

/// Handshake, bootstrap a session from the first control frame, then
/// execute commands until `Shutdown` (`Ok`) or until the coordinator
/// closes the connection ([`TransportError::Disconnected`]).
fn serve(mut conn: Conn, claim: u32, fingerprint: u64) -> Result<(), TransportError> {
    let (granted, _) = worker_handshake(&mut conn, claim, fingerprint)?;
    if claim != RANK_ANY && granted != claim {
        return Err(TransportError::Protocol(format!(
            "coordinator assigned rank {granted}, expected {claim}"
        )));
    }
    let Some((dst, body)) = conn.recv()? else {
        return Err(TransportError::Disconnected);
    };
    if dst != DST_CTRL {
        return Err(TransportError::Protocol(format!(
            "bootstrap frame addressed to {dst}, expected the control channel"
        )));
    }
    let Payload::Bootstrap {
        rank,
        workers,
        source,
        num_vertices,
        undirected,
        edges,
        replay,
    } = crate::wire::decode_payload(&body)?
    else {
        return Err(TransportError::Protocol(
            "first control payload was not Bootstrap".into(),
        ));
    };

    let input = GraphInput {
        num_vertices: num_vertices as usize,
        edges,
        undirected,
    };
    let mut block = itg_store::codec::Reader::new(&replay);
    let cfg = EngineConfig::decode_replay(&mut block)?;
    block.finish()?;

    let program = itg_compiler::compile_source(&source)
        .map_err(|e| TransportError::Protocol(format!("bootstrap program rejected: {e}")))?;
    let owned = partition_range(cfg.machines, workers as usize, rank as usize);
    let link = WorkerLink::new(conn, rank, owned.clone(), &cfg.obs);
    let mut sess = Session::assemble(program, &input, cfg, Plane::Worker(link), owned)
        .map_err(|e| TransportError::Protocol(format!("bootstrap session rejected: {e}")))?;
    sess.worker_link().send(COORD, Payload::Hello { rank })?;

    loop {
        match sess.worker_link().recv_ctrl()? {
            Payload::Command(entry) => {
                if let Some(metrics) = sess.dispatch(&entry).map_err(run_error)? {
                    report_run(&mut sess, rank, &metrics)?;
                }
            }
            Payload::Shutdown => return Ok(()),
            other => {
                return Err(TransportError::Protocol(format!(
                    "unexpected command payload: {}",
                    other.kind()
                )));
            }
        }
    }
}

/// A failed run on the worker plane: a transport failure passes through; a
/// run the coordinator should never have commanded is a protocol error.
fn run_error(e: EngineError) -> TransportError {
    match e {
        EngineError::Transport(e) => e,
        other => TransportError::Protocol(format!("commanded run rejected: {other}")),
    }
}

/// Ship the end-of-run report: one attribute image per owned machine plus
/// the run's globals and this worker's scalar results.
fn report_run(sess: &mut Session, rank: u32, metrics: &RunMetrics) -> Result<(), TransportError> {
    for w in sess.owned.clone() {
        let cols = sess.parts[w].cur_attrs.clone();
        sess.worker_link().send(
            COORD,
            Payload::AttrImage {
                machine: w as u32,
                cols,
            },
        )?;
    }
    let globals = sess
        .globals_history
        .last()
        .cloned()
        .expect("the run joined the history");
    sess.worker_link().report(|frames| Payload::RunDone {
        from: rank,
        globals,
        stats: crate::wire::RunDoneStats {
            work_units: metrics.work_units,
            recomputed: metrics.recomputed_vertices,
            phases: metrics.parallel.phases,
            chunks: metrics.parallel.chunks,
            max_worker_units: metrics.parallel.max_worker_units,
            min_worker_units: metrics.parallel.min_worker_units,
            io: metrics.io,
            frames,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_handshake, encode_payload, write_frame_bytes, Handshake, WireError};
    use itg_store::codec::Writer;

    /// A worker reaches its coordinator over a socket only: with neither
    /// `--connect` nor `--listen`, or with both, it refuses to start.
    #[test]
    fn a_worker_needs_exactly_one_of_connect_and_listen() {
        let both = ["--connect", "uds:///nowhere/a.sock", "--listen", "uds:///nowhere/b.sock"];
        for args in [&[][..], &both[..]] {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            let refused = worker_main_with_args(&args);
            assert!(
                matches!(&refused, Err(TransportError::Protocol(m))
                    if m.contains("exactly one of --connect and --listen")),
                "{args:?}: {refused:?}"
            );
        }
    }

    /// A coordinator that accepts the handshake and bootstraps a session
    /// on `cfg`'s replay block: the worker must refuse a block no session
    /// can run on with an error, not panic building it.
    #[test]
    fn bootstrap_refuses_a_configuration_no_session_can_run_on() {
        let zero_pages = EngineConfig {
            page_size: 0,
            ..EngineConfig::default()
        };
        for cfg in [EngineConfig::with_machines(0), zero_pages] {
            let mut replay = Writer::new();
            cfg.encode_replay(&mut replay);
            let accept = Handshake::Accept {
                rank: 0,
                fingerprint: FINGERPRINT_ANY,
            };
            let bootstrap = Payload::Bootstrap {
                rank: 0,
                workers: 1,
                source: "Vertex (id, active, nbrs, deg: Accm<long, SUM>)
                         Initialize (u): { u.active = true; }
                         Traverse (u): { For v in u.nbrs { v.deg.Accumulate(1); } }
                         Update (u): { }"
                    .into(),
                num_vertices: 2,
                undirected: true,
                edges: vec![(0, 1)],
                replay: replay.buf,
            };
            let mut frames = Vec::new();
            write_frame_bytes(&mut frames, DST_CTRL, &encode_handshake(&accept)).unwrap();
            write_frame_bytes(&mut frames, DST_CTRL, &encode_payload(&bootstrap)).unwrap();
            let conn = Conn {
                reader: Box::new(std::io::Cursor::new(frames)),
                writer: Box::new(std::io::sink()),
            };
            let served = serve(conn, RANK_ANY, FINGERPRINT_ANY);
            assert!(
                matches!(served, Err(TransportError::Wire(WireError::Malformed(_)))),
                "{served:?}"
            );
        }
    }
}
