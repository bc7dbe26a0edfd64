//! The partition-worker process entry point (`itg-partition-worker`).
//!
//! A worker is an ordinary [`Session`] whose plane is a [`WorkerLink`] to
//! the coordinator: it bootstraps from the first control frame (program
//! source, graph slice, config), rebuilds the session state for its
//! partition group, and then executes the same BSP drivers as the local
//! plane — restricted to its owned machine range, with exchange,
//! convergence votes, and global reduction flowing over the link.
//!
//! Three channel modes, selected by the command line:
//!
//! * no arguments — the original pipe worker: speak the protocol over this
//!   process's own stdin/stdout (spawned by [`LinkKind::Pipes`] fleets);
//! * `--connect <uri> --rank <r> --fingerprint <fp>` — dial the
//!   coordinator's listen socket and handshake with the assigned rank
//!   (spawned by `Tcp`/`Uds` fleets, and respawned by the reconnect path);
//! * `--listen <uri>` — bind a socket and wait for the coordinator to dial
//!   in ([`crate::transport::WorkerSet::Endpoints`] mode); the worker
//!   claims no rank and adopts the one the handshake assigns. After a
//!   dropped connection it goes back to accepting, so a coordinator
//!   reconnect (journal replay) finds a fresh worker at the same address.
//!
//! [`LinkKind::Pipes`]: crate::transport::LinkKind

use crate::config::EngineConfig;
use crate::graph::GraphInput;
use crate::metrics::RunMetrics;
use crate::session::{EngineError, Plane, Session};
use crate::transport::{
    partition_range, worker_handshake, Transport, TransportError, WorkerChannel, WorkerLink,
    WorkerListener, COORD,
};
use crate::wire::{Payload, DST_CTRL, FINGERPRINT_ANY, RANK_ANY};

/// How one serve loop ended: an explicit shutdown command, or the
/// connection going away (clean EOF or the coordinator vanishing).
enum ServeEnd {
    Shutdown,
    Disconnected,
}

/// Run the worker protocol over this process's stdin/stdout (the pipe
/// fleet mode) to completion.
pub fn worker_main() -> Result<(), TransportError> {
    serve(WorkerChannel::Stdio).map(|_| ())
}

/// Full worker entry point: parse the channel-mode arguments and run the
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
        (Some(_), Some(_)) => Err(TransportError::Protocol(
            "--connect and --listen are mutually exclusive".into(),
        )),
        (None, None) => worker_main(),
        (Some(uri), None) => {
            let mut channel = WorkerChannel::dial(&uri)?;
            let (granted, _) = worker_handshake(&mut channel, rank, fingerprint)?;
            if rank != RANK_ANY && granted != rank {
                return Err(TransportError::Protocol(format!(
                    "coordinator assigned rank {granted}, expected {rank}"
                )));
            }
            serve(channel).map(|_| ())
        }
        (None, Some(uri)) => {
            let listener = WorkerListener::bind(&uri)?;
            eprintln!(
                "itg-partition-worker: listening on {}",
                listener.local_uri()?
            );
            loop {
                let mut channel = listener.accept()?;
                // A dialed-into worker claims no rank and checks no
                // fingerprint; the coordinator assigns both.
                worker_handshake(&mut channel, RANK_ANY, FINGERPRINT_ANY)?;
                match serve(channel) {
                    Ok(ServeEnd::Shutdown) => return Ok(()),
                    // The coordinator went away; a reconnect dials back in
                    // and replays the journal into a fresh session.
                    Ok(ServeEnd::Disconnected) | Err(TransportError::Io(_)) => continue,
                    Err(e) => return Err(e),
                }
            }
        }
    }
}

/// Bootstrap a session from the channel's first control frame, then serve
/// run commands until `Shutdown` or disconnect.
fn serve(mut channel: WorkerChannel) -> Result<ServeEnd, TransportError> {
    let first = channel.read()?;
    let Some((dst, body)) = first else {
        return Err(TransportError::Protocol(
            "coordinator closed the pipe before bootstrap".into(),
        ));
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
        cfg: wire_cfg,
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
    let mut cfg = EngineConfig::default();
    wire_cfg.apply(&mut cfg);

    let program = itg_compiler::compile_source(&source)
        .map_err(|e| TransportError::Protocol(format!("bootstrap program rejected: {e}")))?;
    let owned = partition_range(cfg.machines, workers as usize, rank as usize);
    let link = WorkerLink::new(channel, rank, owned.clone(), &cfg.obs);
    let mut sess = Session::assemble(program, &input, cfg, Plane::Worker(link), owned)
        .map_err(|e| TransportError::Protocol(format!("bootstrap session rejected: {e}")))?;
    sess.worker_link().send(COORD, Payload::Hello { rank })?;

    loop {
        match sess.worker_link().recv_ctrl() {
            Ok(Payload::RunOneshot) => {
                let metrics = sess.try_run_oneshot().map_err(run_error)?;
                report_run(&mut sess, rank, &metrics)?;
            }
            Ok(Payload::RunIncremental) => {
                let metrics = sess.try_run_incremental().map_err(run_error)?;
                report_run(&mut sess, rank, &metrics)?;
            }
            Ok(Payload::Mutations(batch)) => sess.apply_mutations(&batch),
            Ok(Payload::Compact) => sess.compact_edges(),
            Ok(Payload::Shutdown) => return Ok(ServeEnd::Shutdown),
            Ok(other) => {
                return Err(TransportError::Protocol(format!(
                    "unexpected command payload: {}",
                    other.kind()
                )));
            }
            // A closed link without Shutdown: the coordinator is gone;
            // report a disconnect rather than crash-looping on EOF.
            Err(TransportError::Protocol(msg)) if msg.contains("closed the pipe") => {
                return Ok(ServeEnd::Disconnected);
            }
            Err(e) => return Err(e),
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
/// this worker's scalar results.
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
    let stats = crate::wire::RunDoneStats {
        supersteps: metrics.supersteps as u64,
        work_units: metrics.work_units,
        recomputed: metrics.recomputed_vertices,
        phases: metrics.parallel.phases,
        chunks: metrics.parallel.chunks,
        max_worker_units: metrics.parallel.max_worker_units,
        min_worker_units: metrics.parallel.min_worker_units,
        io: metrics.io,
    };
    sess.worker_link()
        .send(COORD, Payload::RunDone { from: rank, stats })
}
