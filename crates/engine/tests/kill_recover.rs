//! Recovery tests (DESIGN.md §9): a real process killed with SIGKILL
//! mid-history, named crash states of the recorded history that
//! `crash_states.rs` enumerates in full, and the snapshot-format and
//! delta-chain checks.
//!
//! A named state is one prefix of the history's effect log under the
//! crash model (`crash_history/`): every state a crash there can leave
//! must meet the contract — recover to the oracle after *n* commands,
//! acked ≤ *n* ≤ started, and finish the history in lockstep — and the
//! test pins which *n* the state recovers to. Log-before-execute makes
//! that precise: once record `L` is synced, recovery replays commands
//! `0..=L`; a record cut short by the crash is truncated, and recovery
//! replays `0..L`.

mod common;
mod crash_history;

use crash_history::crashfs::{self, Effect};
use crash_history::{durable_session, exec, history, record, scenario, Outcome, TINY_WAL};
use itg_engine::Session;
use itg_store::{snapshot_file_name, SnapshotKind};
use std::path::{Path, PathBuf};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("itg-kill-recover-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn recovered(n: usize) -> Outcome {
    Outcome::Recovered(vec![n])
}

/// The epoch-1 delta snapshot: the checkpoint after command 4 covers WAL
/// records 0..5.
fn epoch_1_delta() -> PathBuf {
    Path::new("wal").join(snapshot_file_name(
        1,
        5,
        SnapshotKind::Delta { base_epoch: 0 },
    ))
}

// ---------------------------------------------------------------
// Named crash states.
// ---------------------------------------------------------------

#[test]
fn recover_after_crash_before_any_run() {
    // Record 0 is synced, the one-shot has not run: recovery replays it
    // from the epoch-0 snapshot.
    let r = record("wcc", TINY_WAL, "before-any-run");
    assert_eq!(r.check_prefix(r.synced(0))[0], recovered(1));
}

#[test]
fn recover_after_crash_mid_history() {
    // After the epoch-1 checkpoint: recovery starts there and replays the
    // WAL tail.
    let r = record("wcc", TINY_WAL, "mid-history");
    let k = r.synced(6);
    for state in crashfs::states_after(&r.log[..k]) {
        assert!(
            state.contains_key(&epoch_1_delta()),
            "the epoch-1 snapshot is committed"
        );
    }
    assert!(r.check_prefix(k).iter().all(|o| *o == recovered(7)));
}

#[test]
fn recover_after_crash_at_final_record() {
    let r = record("wcc", TINY_WAL, "final-record");
    assert!(r
        .check_prefix(r.synced(11))
        .iter()
        .all(|o| *o == recovered(12)));
}

#[test]
fn recover_after_torn_final_record() {
    // Record 6 is written but not synced: a crash keeps any prefix of it.
    // A cut frame is truncated and recovery lands *before* command 6.
    let r = record("wcc", TINY_WAL, "torn-record");
    let outcomes = r.check_prefix(r.written(6));
    assert_eq!(outcomes[0], recovered(7), "the whole frame survives");
    assert!(
        outcomes[1..].contains(&recovered(6)),
        "a cut frame is dropped"
    );
    assert!(outcomes.len() > 10, "every header and CRC byte is a cut");
}

#[test]
fn recover_float_algorithm_bitwise() {
    // PageRank: float accumulation order must survive snapshot + replay.
    let r = record("pr", TINY_WAL, "pagerank");
    assert!(r
        .check_prefix(r.synced(5))
        .iter()
        .all(|o| *o == recovered(6)));
}

#[test]
fn recover_after_crash_mid_rotation() {
    // The second rotation has created its segment file, and the directory
    // entry is not yet synced: the segment may or may not be there, and
    // the record that caused the rotation is not written yet.
    let r = record("wcc", TINY_WAL, "mid-rotation");
    let opened = |from| {
        r.after(
            from,
            |e| matches!(e, Effect::Open { path, .. } if crash_history::is_segment(path)),
        )
    };
    let k = opened(opened(opened(0)));
    let acked = crashfs::marks(&r.log[..k]).0 as usize;
    let outcomes = r.check_prefix(k);
    assert!(outcomes.len() >= 2, "with and without the new segment");
    assert!(
        outcomes.iter().all(|o| *o == recovered(acked)),
        "{outcomes:?}"
    );
}

#[test]
fn recover_after_crash_mid_delta_snapshot() {
    // The epoch-1 delta is renamed into place and its directory synced —
    // committed — and the WAL GC has not run: recovery starts at epoch 1
    // and skips the covered records still in the directory.
    let r = record("wcc", TINY_WAL, "mid-delta");
    let renamed = r.after(
        0,
        |e| matches!(e, Effect::Rename { to, .. } if *to == epoch_1_delta()),
    );
    let k = r.after(renamed, |e| matches!(e, Effect::SyncDir(_)));
    assert!(matches!(r.log[k], Effect::Unlink(_)), "GC comes next");
    assert!(r.check_prefix(k).iter().all(|o| *o == recovered(5)));
}

#[test]
fn recover_after_torn_delta_snapshot() {
    // The epoch-1 delta's payload is written to its `.tmp` but not synced
    // or renamed: recovery sees epoch 0 and a stray `.tmp`, and replays
    // the five commands.
    let r = record("wcc", TINY_WAL, "torn-delta");
    let tmp = epoch_1_delta().with_extension("tmp");
    let opened = r.after(
        0,
        |e| matches!(e, Effect::Open { path, .. } if *path == tmp),
    );
    let k = opened + 4; // magic, version, length, payload
    assert!(matches!(&r.log[k - 1], Effect::Write { path, .. } if *path == tmp));
    let outcomes = r.check_prefix(k);
    assert!(
        outcomes.len() > 10,
        "the payload is cut at every tried byte"
    );
    assert!(outcomes.iter().all(|o| *o == recovered(5)));
}

#[test]
fn recovered_session_checkpoints_again() {
    let sc = scenario("bfs", 4);
    let (steps, _) = history(&sc);
    let dir = fresh_dir("re-checkpoint");
    let mut live = durable_session(&sc, &dir);
    for step in &steps[..4] {
        exec(&mut live, step);
    }
    drop(live);
    let mut recovered = Session::recover(&dir).unwrap();
    let id = recovered.checkpoint().unwrap();
    assert!(id.0 >= 1, "fresh checkpoint advances the epoch");
    // A second recovery from the new snapshot (empty tail) matches.
    let again = Session::recover(&dir).unwrap();
    assert_eq!(recovered.state_image(), again.state_image());
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------
// A real process, killed.
// ---------------------------------------------------------------

/// Batches in the SIGKILL child's history: 80 commands.
const LONG: usize = 40;

/// Child-process entry: run a long durable history, then wait to be
/// killed.
#[test]
#[ignore = "child entry for the SIGKILL smoke; spawned with ITG_KR_DIR set"]
fn child_run_long_history() {
    let Ok(dir) = std::env::var("ITG_KR_DIR") else {
        // Running under a bare `cargo test -- --include-ignored` sweep:
        // nothing to do without the driver's environment.
        return;
    };
    let sc = scenario("wcc", LONG);
    let (steps, _) = history(&sc);
    let mut sess = durable_session(&sc, Path::new(&dir));
    for step in &steps {
        exec(&mut sess, step);
    }
    std::thread::sleep(std::time::Duration::from_secs(60));
}

#[test]
fn sigkill_mid_history_recovers_every_logged_command() {
    // The parent kills the child once its log holds at least 16 records.
    // A killed process loses nothing it wrote, so recovery must hold at
    // least those, and equal the oracle after as many commands as the log
    // holds.
    const SEEN: usize = 16;
    let dir = fresh_dir("sigkill");
    let exe = std::env::current_exe().unwrap();
    let mut child = std::process::Command::new(exe)
        .args(["child_run_long_history", "--exact", "--include-ignored"])
        .env("ITG_KR_DIR", &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child");
    let t0 = std::time::Instant::now();
    while itg_store::scan_dir(&dir).map_or(0, |s| s.records.len()) < SEEN
        && child.try_wait().unwrap().is_none()
        && t0.elapsed().as_secs() < 60
    {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let running = child.try_wait().unwrap().is_none();
    let _ = child.kill();
    child.wait().unwrap();
    assert!(running, "the child exited before it was killed");

    let n = itg_store::scan_dir(&dir).unwrap().next_lsn() as usize;
    let sc = scenario("wcc", LONG);
    let (steps, _) = history(&sc);
    let commands: Vec<_> = steps.iter().filter(|s| s.is_command()).collect();
    println!("killed after {n} of {} commands", commands.len());
    assert!(n >= SEEN);
    let mut recovered = Session::recover(&dir).unwrap();
    let mut oracle = crash_history::oracle_session(&sc);
    for cmd in &commands[..n] {
        exec(&mut oracle, cmd);
    }
    assert!(
        recovered.state_image() == oracle.state_image(),
        "recovered state is not the {n}-command oracle"
    );
    // And it keeps working in lockstep.
    for cmd in commands[n..].iter().take(3) {
        exec(&mut recovered, cmd);
        exec(&mut oracle, cmd);
    }
    assert!(
        recovered.state_image() == oracle.state_image(),
        "the continuation diverged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------
// Snapshot format and delta chains.
// ---------------------------------------------------------------

#[test]
fn older_snapshot_version_is_rejected_by_name() {
    // A version-3 image (edge chains with a tombstone-marks section) must
    // not be mistaken for the current layout: recovery names the version
    // and stops.
    let sc = scenario("wcc", 4);
    let dir = fresh_dir("old-version");
    drop(durable_session(&sc, &dir)); // leaves the epoch-0 full snapshot
    let manifest = itg_store::Manifest::load(&dir).unwrap();
    let file = dir.join(&manifest.latest().unwrap().file);
    let mut payload = itg_store::snapshot::read_file(&file).unwrap();
    assert_eq!(payload[0], 4, "the payload leads with its format version");
    payload[0] = 3;
    itg_store::snapshot::write_file(&itg_store::StdFs, &file, &payload).unwrap();
    match Session::recover(&dir) {
        Ok(_) => panic!("a version-3 snapshot was accepted"),
        Err(e) => assert!(
            e.to_string().contains("unsupported format version 3"),
            "error should name the version: {e}"
        ),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn delta_chain_recovery_roundtrip() {
    // Uninterrupted delta chain: checkpoint after every incremental run,
    // so epochs 1..=3 are deltas chained back to the epoch-0 full base.
    // Recovery must compose the chain byte-exactly, and each delta must be
    // materially smaller than the full snapshot it stands in for.
    let sc = scenario("wcc", 4);
    let dir = fresh_dir("delta-chain");
    let mut live = durable_session(&sc, &dir);
    let (steps, tail) = history(&sc);
    let steps: Vec<_> = steps.into_iter().filter(|s| s.is_command()).collect();
    for step in &steps {
        exec(&mut live, step);
        if matches!(step, crash_history::Step::Incremental) {
            live.checkpoint().unwrap();
        }
    }
    let live_image = live.state_image();
    drop(live); // release the WAL before a second session opens the dir

    let manifest = itg_store::Manifest::load(&dir).unwrap();
    assert_eq!(manifest.snapshots.len(), 4, "epoch 0 + three checkpoints");
    assert!(matches!(manifest.snapshots[0].kind, itg_store::SnapshotKind::Full));
    // Compose each epoch's full-equivalent payload and compare it to the
    // bytes actually stored. Epoch 1 rewrites most of the state (epoch 0
    // predates the one-shot run, so arrays and history appear wholesale);
    // epochs 2 and 3 are the steady state the delta encoder exists for —
    // one batch + incremental run apart — and must shrink checkpoint
    // bytes by at least 2×.
    let mut payload = itg_store::snapshot::read_file(&dir.join(&manifest.snapshots[0].file))
        .unwrap();
    for entry in &manifest.snapshots[1..] {
        assert!(
            matches!(entry.kind, itg_store::SnapshotKind::Delta { .. }),
            "epoch {} should be a delta",
            entry.epoch
        );
        let doc = itg_store::snapshot::read_file(&dir.join(&entry.file)).unwrap();
        payload = itg_store::delta::apply(&payload, &doc).unwrap();
        let (stored, full_equiv) = (doc.len(), payload.len());
        println!("epoch {}: delta {stored} B vs full {full_equiv} B", entry.epoch);
        if entry.epoch >= 2 {
            assert!(
                stored * 2 < full_equiv,
                "steady-state delta epoch {} ({stored} B) should be well \
                 under a full snapshot ({full_equiv} B)",
                entry.epoch
            );
        }
    }
    assert_eq!(
        manifest.chain_for(3).unwrap().len(),
        4,
        "epoch 3 resolves through 2 and 1 to the full base"
    );

    let recovered = Session::recover(&dir).unwrap();
    assert_eq!(
        recovered.state_image(),
        live_image,
        "chain-composed recovery not byte-identical to the live session"
    );
    // And the full oracle comparison plus continuation workload.
    let oracle = crash_history::oracle(&sc, &steps, &tail);
    assert!(recovered.state_image() == oracle.images[steps.len()]);
    let ctx = "uninterrupted delta chain";
    crash_history::finish_in_lockstep(recovered, steps.len(), &steps, &tail, &oracle, ctx);
    let _ = std::fs::remove_dir_all(&dir);
}
