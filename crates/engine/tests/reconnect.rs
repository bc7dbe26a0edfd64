//! Worker-failure recovery on every cluster plane — TCP, UDS.
//!
//! The coordinator journals every frame it sends to a rank. When a worker
//! dies (its reader thread reports EOF), the coordinator respawns or
//! re-dials it, replays the journal — bootstrap, mutation history, and
//! every run command — and discards the regenerated responses, so the
//! revived worker converges to exactly the state the dead one held. The
//! tests here kill one worker *between* incremental runs of a random
//! mutation history and demand the final transcript stay byte-identical
//! with the local plane.
//!
//! Also covers `ClusterSpec::endpoints`: pre-started `--listen` workers
//! the coordinator dials (rank assigned by endpoint order at handshake).
#![cfg(unix)]

mod common;

use common::{attr_names, build_workload, mk_input, MutationMode, Scenario};
use itg_algorithms::programs;
use itg_engine::{ClusterSpec, EngineConfig, Session, SessionBuilder, TransportKind};
use itg_gsa::Value;

fn scenario(seed: u64) -> Scenario {
    Scenario {
        algo: "wcc",
        machines: 4,
        threads: 1,
        seed,
        batches: 4,
        batch_size: 8,
        mutation_mode: MutationMode::Uniform,
    }
}

fn snapshot(sess: &Session, algo: &str) -> Vec<(String, Vec<Value>)> {
    attr_names(algo)
        .iter()
        .map(|a| (a.to_string(), sess.attr_column(a).unwrap()))
        .collect()
}

/// Run the scenario's full history over `transport`, optionally killing
/// one worker rank right before the given batch index.
fn transcript(
    sc: &Scenario,
    transport: TransportKind,
    kill: Option<(usize, usize)>, // (before batch index, rank)
) -> Vec<Vec<(String, Vec<Value>)>> {
    let (base, batches) = build_workload(sc);
    let input = mk_input(sc.algo, &base);
    let cfg = EngineConfig {
        machines: sc.machines,
        parallel: false,
        ..EngineConfig::default()
    };
    let mut sess = SessionBuilder::from_config(cfg)
        .transport(transport)
        .from_source(&programs::source(sc.algo).unwrap(), &input)
        .expect("session builds");
    let mut out = Vec::new();
    sess.run_oneshot();
    out.push(snapshot(&sess, sc.algo));
    for (i, batch) in batches.iter().enumerate() {
        if kill == Some((i, kill.map_or(0, |k| k.1))) {
            let (_, rank) = kill.unwrap();
            sess.debug_kill_worker(rank).expect("kill a spawned worker");
            // Give the OS a moment to tear the socket down so the revive
            // path (EOF sentinel, not a live link) is what we exercise.
            std::thread::sleep(std::time::Duration::from_millis(30));
        }
        sess.apply_mutations(batch);
        sess.run_incremental();
        out.push(snapshot(&sess, sc.algo));
    }
    out
}

/// Kill one of two TCP workers mid-history: the journal replay must
/// reconstruct its state and the remaining runs must stay byte-identical
/// with the local plane.
#[test]
fn killed_tcp_worker_reconnects_and_stays_exact() {
    let sc = scenario(0xC0FFEE);
    let local = transcript(&sc, TransportKind::Local, None);
    for rank in 0..2 {
        let revived = transcript(
            &sc,
            TransportKind::Cluster(ClusterSpec::tcp(2)),
            Some((2, rank)),
        );
        assert_eq!(
            local, revived,
            "transcript diverged after killing and reviving rank {rank}"
        );
    }
}

/// Same over Unix-domain sockets, killing before the first incremental
/// run (the journal then holds only bootstrap + one-shot).
#[test]
fn killed_uds_worker_reconnects_and_stays_exact() {
    let sc = scenario(0xDECAF);
    let local = transcript(&sc, TransportKind::Local, None);
    let revived = transcript(
        &sc,
        TransportKind::Cluster(ClusterSpec::uds(2)),
        Some((0, 1)),
    );
    assert_eq!(local, revived, "transcript diverged after UDS revive");
}

/// A fleet of pre-started `--listen` workers the coordinator dials:
/// endpoint order assigns ranks, and the transcript matches local.
#[test]
fn endpoint_workers_are_dialed_and_exact() {
    let sc = scenario(0xFADED);
    let local = transcript(&sc, TransportKind::Local, None);

    let bin = env!("CARGO_BIN_EXE_itg-partition-worker");
    let dir = std::env::temp_dir().join(format!("itg-endpoints-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut children = Vec::new();
    let mut uris = Vec::new();
    for i in 0..2 {
        let sock = dir.join(format!("w{i}.sock"));
        let uri = format!("uds://{}", sock.display());
        children.push(
            std::process::Command::new(bin)
                .args(["--listen", &uri])
                .stdin(std::process::Stdio::null())
                .spawn()
                .expect("spawn listen worker"),
        );
        uris.push(uri);
    }
    // Wait for both sockets to appear before the coordinator dials.
    for i in 0..2 {
        let sock = dir.join(format!("w{i}.sock"));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !sock.exists() {
            assert!(
                std::time::Instant::now() < deadline,
                "worker {i} never bound its socket"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }

    // A coordinator that vanishes — before the handshake, or right after
    // it — must leave a `--listen` worker accepting, not dead.
    for accept_first in [false, true] {
        use itg_engine::wire::{encode_handshake, read_frame, write_frame_bytes, Handshake, DST_CTRL};
        // The socket file appears at bind(), a moment before listen().
        let mut refused = 0;
        let mut conn = loop {
            match std::os::unix::net::UnixStream::connect(dir.join("w0.sock")) {
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused && refused < 2000 => {
                    refused += 1;
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                conn => break conn.unwrap(),
            }
        };
        if accept_first {
            read_frame(&mut conn).unwrap().expect("the worker's hello");
            let accept = encode_handshake(&Handshake::Accept { rank: 0, fingerprint: 1 });
            write_frame_bytes(&mut conn, DST_CTRL, &accept).unwrap();
        }
    }

    let dialed = transcript(
        &sc,
        TransportKind::Cluster(ClusterSpec::endpoints(uris)),
        None,
    );
    assert_eq!(local, dialed, "endpoint fleet diverged from local");

    // `--listen` workers outlive a session (they go back to accepting);
    // the test owns their lifetime.
    for mut c in children {
        let _ = c.kill();
        let _ = c.wait();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
