//! The headline durability test (DESIGN.md §9): a child process applies a
//! random mutation history through a durable session and is killed by WAL
//! fault injection (`ITG_CRASH=wal:<lsn>`, optionally `:torn`) at a
//! chosen LSN; the parent recovers from the WAL directory and asserts the
//! recovered session's *full serialized state* is byte-identical to an
//! uninterrupted oracle session that executed exactly the durable prefix
//! of the command history. The recovered session must then keep working:
//! one more batch + incremental run lands both sessions in the same state
//! again.
//!
//! Log-before-execute makes the durable prefix precise: `ITG_CRASH=wal:L`
//! aborts after record `L` is fsynced but before the command runs, so
//! recovery replays commands `0..=L`. A torn crash (`ITG_CRASH=wal:L:torn`)
//! half-writes record `L`; recovery truncates it and replays `0..L`.

mod common;

use common::{attr_names, build_workload, mk_config, mk_input, Scenario};
use itg_algorithms::programs;
use itg_engine::{DurabilityKind, Session, SessionBuilder};
use itg_store::MutationBatch;
use std::path::{Path, PathBuf};

/// The fixed scenario both processes derive the identical history from.
fn scenario(algo: &'static str) -> Scenario {
    Scenario {
        algo,
        machines: 2,
        threads: 2,
        seed: 0xD00D_F00D,
        batches: 4,
        batch_size: 8,
        mutation_mode: common::MutationMode::Uniform,
    }
}

/// One logged command of the child's history.
enum Cmd {
    Oneshot,
    Batch(MutationBatch),
    Incremental,
    Compact,
}

/// The command history: one-shot, then (batch, incremental) per batch,
/// with a compaction between the second and third transition. One WAL
/// record per command, LSN = index. The final batch is held back as the
/// post-recovery continuation workload.
fn history(sc: &Scenario) -> (Vec<Cmd>, MutationBatch) {
    let (base, mut batches) = build_workload(sc);
    let _ = base; // the input graph is rebuilt by `child_input`
    let tail = batches.pop().expect("scenario has >= 2 batches");
    let mut cmds = vec![Cmd::Oneshot];
    for (i, b) in batches.into_iter().enumerate() {
        cmds.push(Cmd::Batch(b));
        cmds.push(Cmd::Incremental);
        if i == 1 {
            cmds.push(Cmd::Compact);
        }
    }
    (cmds, tail)
}

fn exec(sess: &mut Session, cmd: &Cmd) {
    match cmd {
        Cmd::Oneshot => {
            sess.run_oneshot();
        }
        Cmd::Batch(b) => sess.apply_mutations(b),
        Cmd::Incremental => {
            sess.run_incremental();
        }
        Cmd::Compact => sess.compact_edges(),
    }
}

fn durable_session(sc: &Scenario, dir: &Path) -> Session {
    let (base, _) = build_workload(sc);
    let src = programs::source(sc.algo).unwrap();
    SessionBuilder::from_config(mk_config(sc.algo, sc.machines, sc.threads))
        .durability(DurabilityKind::Wal {
            dir: dir.to_path_buf(),
        })
        .from_source(&src, &mk_input(sc.algo, &base))
        .unwrap()
}

fn oracle_session(sc: &Scenario) -> Session {
    let (base, _) = build_workload(sc);
    let src = programs::source(sc.algo).unwrap();
    SessionBuilder::from_config(mk_config(sc.algo, sc.machines, sc.threads))
        .from_source(&src, &mk_input(sc.algo, &base))
        .unwrap()
}

/// Child-process entry: run the full history through a durable session.
/// The WAL's fault injection kills the process at `ITG_CRASH`; a
/// mid-history checkpoint exercises snapshot-plus-tail recovery.
#[test]
#[ignore = "child entry for the kill-and-recover tests; spawned with ITG_KR_DIR set"]
fn child_run_history() {
    let Ok(dir) = std::env::var("ITG_KR_DIR") else {
        // Running under a bare `cargo test -- --include-ignored` sweep:
        // nothing to do without the driver's environment.
        return;
    };
    let algo = std::env::var("ITG_KR_ALGO").unwrap();
    let sc = scenario(Box::leak(algo.into_boxed_str()));
    let mut sess = durable_session(&sc, Path::new(&dir));
    let (cmds, _) = history(&sc);
    for (i, cmd) in cmds.iter().enumerate() {
        exec(&mut sess, cmd);
        if i == 4 {
            // Mid-history snapshot: recovery from a crash after this point
            // must start at epoch 1 and replay only the WAL tail.
            sess.checkpoint().unwrap();
        }
    }
}

/// Spawn the `child_run_history` entry with arbitrary fault-injection
/// environment and assert it died mid-history.
fn spawn_child_env(dir: &Path, algo: &str, envs: &[(&str, String)]) {
    let exe = std::env::current_exe().unwrap();
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["child_run_history", "--exact", "--include-ignored", "--nocapture"])
        .env("ITG_KR_DIR", dir)
        .env("ITG_KR_ALGO", algo)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let status = cmd.status().expect("spawn child");
    assert!(
        !status.success(),
        "child should have died at the injected fault ({envs:?}), but exited cleanly"
    );
}

fn spawn_child(dir: &Path, algo: &str, crash_at: u64, torn: bool) {
    let torn = if torn { ":torn" } else { "" };
    spawn_child_env(dir, algo, &[("ITG_CRASH", format!("wal:{crash_at}{torn}"))]);
}

/// The name of the child's epoch-1 delta snapshot: the checkpoint after
/// command 4 covers WAL records 0..5.
fn epoch_1_delta() -> String {
    itg_store::snapshot_file_name(1, 5, itg_store::SnapshotKind::Delta { base_epoch: 0 })
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "itg-kill-recover-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Recover from `dir`, compare byte-for-byte against an oracle that
/// executed exactly `executed` commands, then run the rest of the history
/// plus the continuation workload on both in lockstep.
fn verify_recovery(dir: &Path, sc: &Scenario, executed: usize, ctx: &str) {
    let (cmds, tail) = history(sc);
    let recovered = Session::recover(dir).unwrap();

    let mut oracle = oracle_session(sc);
    for cmd in &cmds[..executed] {
        exec(&mut oracle, cmd);
    }

    assert_eq!(
        recovered.state_image(),
        oracle.state_image(),
        "{ctx}: recovered state not byte-identical to the {executed}-command \
         oracle"
    );
    for attr in attr_names(sc.algo) {
        assert_eq!(
            recovered.attr_column(attr).unwrap(),
            oracle.attr_column(attr).unwrap(),
            "{ctx}: attribute `{attr}` diverged"
        );
    }

    // The recovered session keeps working — and stays in lockstep: both
    // sessions finish the interrupted history, then take one more
    // batch + incremental run.
    let mut recovered = recovered;
    for cmd in &cmds[executed..] {
        exec(&mut recovered, cmd);
        exec(&mut oracle, cmd);
    }
    recovered.apply_mutations(&tail);
    recovered.run_incremental();
    oracle.apply_mutations(&tail);
    oracle.run_incremental();
    assert_eq!(
        recovered.state_image(),
        oracle.state_image(),
        "{ctx}: post-recovery continuation diverged"
    );
}

/// The driver: kill the child at `crash_at`, recover, compare against the
/// oracle that executed the durable prefix, then run the continuation
/// workload on both and compare again.
fn kill_and_recover(algo: &'static str, crash_at: u64, torn: bool) {
    let sc = scenario(algo);
    let (cmds, _) = history(&sc);
    assert!((crash_at as usize) < cmds.len(), "crash point inside history");
    let dir = fresh_dir(&format!("{algo}-{crash_at}-{}", u8::from(torn)));
    spawn_child(&dir, algo, crash_at, torn);

    // The durable prefix: a clean crash fsyncs record `crash_at` before
    // dying (command replayed on recovery); a torn crash half-writes it
    // (record truncated, command lost).
    let executed = if torn { crash_at } else { crash_at + 1 } as usize;
    verify_recovery(
        &dir,
        &sc,
        executed,
        &format!("{algo} crash at lsn {crash_at} (torn={torn})"),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recover_after_crash_before_any_run() {
    // Dies fsyncing the very first record: recovery replays the one-shot
    // from the epoch-0 snapshot.
    kill_and_recover("wcc", 0, false);
}

#[test]
fn recover_after_crash_mid_history() {
    // Dies after the mid-history checkpoint: recovery starts at epoch 1
    // and replays the WAL tail.
    kill_and_recover("wcc", 6, false);
}

#[test]
fn recover_after_crash_at_final_record() {
    let sc = scenario("wcc");
    let (cmds, _) = history(&sc);
    kill_and_recover("wcc", cmds.len() as u64 - 1, false);
}

#[test]
fn recover_after_torn_final_record() {
    // The crash record is half-written: recovery must truncate it and
    // land on the state *before* that command.
    kill_and_recover("wcc", 6, true);
}

#[test]
fn recover_float_algorithm_bitwise() {
    // PageRank: float accumulation order must survive snapshot + replay.
    kill_and_recover("pr", 5, false);
}

#[test]
fn recovered_session_checkpoints_again() {
    let dir = fresh_dir("re-checkpoint");
    spawn_child(&dir, "bfs", 3, false);
    let mut recovered = Session::recover(&dir).unwrap();
    let id = recovered.checkpoint().unwrap();
    assert!(id.0 >= 1, "fresh checkpoint advances the epoch");
    // A second recovery from the new snapshot (empty tail) matches.
    let again = Session::recover(&dir).unwrap();
    assert_eq!(recovered.state_image(), again.state_image());
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------
// PR 8 kill points: mid-group-commit, mid-rotation, mid-snapshot.
// ---------------------------------------------------------------

#[test]
fn recover_after_crash_mid_group_commit_window() {
    // A leader window is open (ITG_GROUP_COMMIT_US) when the crash lands:
    // the ack contract — every acknowledged command durable, nothing
    // acknowledged past the crash LSN — must hold exactly as without the
    // window. (The engine's command loop is single-threaded, so the window
    // exercises the leader-sleep path; the multi-committer partial-ack
    // matrix lives in itg-store's group_commit suite.)
    let sc = scenario("wcc");
    let dir = fresh_dir("mid-window");
    spawn_child_env(
        &dir,
        "wcc",
        &[
            ("ITG_CRASH", "wal:5".to_string()),
            ("ITG_GROUP_COMMIT_US", "300".to_string()),
        ],
    );
    verify_recovery(&dir, &sc, 6, "wcc crash inside a 300µs commit window");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recover_after_crash_mid_rotation() {
    // Tiny segments force rotations mid-history; ITG_CRASH=rotation:2 dies
    // between creating the new segment file and fsyncing its directory
    // entry. Which LSN that is depends on record sizes, so the durable
    // prefix is discovered from the directory itself — exactly what real
    // recovery must do.
    let sc = scenario("wcc");
    let dir = fresh_dir("mid-rotation");
    spawn_child_env(
        &dir,
        "wcc",
        &[
            ("ITG_WAL_SEGMENT_BYTES", "96".to_string()),
            ("ITG_CRASH", "rotation:2".to_string()),
        ],
    );

    let scan = itg_store::scan_dir(&dir).unwrap();
    assert!(
        scan.segments.len() >= 2,
        "96-byte segments must have rotated before the crash"
    );
    let executed = scan.next_lsn() as usize;
    let (cmds, _) = history(&sc);
    assert!(
        executed > 0 && executed < cmds.len(),
        "rotation crash must land mid-history (durable prefix {executed} \
         of {})",
        cmds.len()
    );
    verify_recovery(
        &dir,
        &sc,
        executed,
        "wcc crash mid-rotation (new segment created, dir entry unsynced)",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recover_after_crash_mid_delta_snapshot() {
    // The child checkpoints after command 4; epoch 1 is a delta snapshot
    // (epoch 0 is its base). ITG_CRASH=snapshot:1 dies after the delta
    // file's rename (the commit point) but before WAL GC: recovery must
    // start at epoch 1 and skip the covered WAL records.
    let sc = scenario("wcc");
    let dir = fresh_dir("mid-delta-snapshot");
    spawn_child_env(&dir, "wcc", &[("ITG_CRASH", "snapshot:1".to_string())]);

    let manifest = itg_store::Manifest::load(&dir).unwrap();
    assert_eq!(
        manifest.latest().unwrap().epoch,
        1,
        "the renamed epoch-1 snapshot is committed"
    );
    assert!(
        dir.join(epoch_1_delta()).exists(),
        "the delta file was renamed into place before the crash"
    );
    // Commands 0..=4 ran (the checkpoint follows command index 4).
    verify_recovery(&dir, &sc, 5, "wcc crash between delta commit and WAL GC");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recover_after_torn_delta_snapshot() {
    // Same kill point, but the delta file itself is half-written (no
    // rename): recovery sees only a stale `.tmp` next to epoch 0.
    let sc = scenario("wcc");
    let dir = fresh_dir("torn-delta-snapshot");
    spawn_child_env(&dir, "wcc", &[("ITG_CRASH", "snapshot:1:torn".to_string())]);

    assert_eq!(itg_store::Manifest::load(&dir).unwrap().latest().unwrap().epoch, 0);
    assert!(
        !dir.join(epoch_1_delta()).exists(),
        "a torn snapshot write must never produce the final file"
    );
    verify_recovery(&dir, &sc, 5, "wcc crash mid-delta-snapshot-write");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn older_snapshot_version_is_rejected_by_name() {
    // A version-2 image (dense edge delta segments) must not be mistaken
    // for the current layout: recovery names the version and stops.
    let sc = scenario("wcc");
    let dir = fresh_dir("old-version");
    drop(durable_session(&sc, &dir)); // leaves the epoch-0 full snapshot
    let manifest = itg_store::Manifest::load(&dir).unwrap();
    let file = dir.join(&manifest.latest().unwrap().file);
    let mut payload = itg_store::snapshot::read_file(&file).unwrap();
    assert_eq!(payload[0], 3, "the payload leads with its format version");
    payload[0] = 2;
    itg_store::snapshot::write_file(&file, &payload).unwrap();
    match Session::recover(&dir) {
        Ok(_) => panic!("a version-2 snapshot was accepted"),
        Err(e) => assert!(
            e.to_string().contains("unsupported format version 2"),
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
    let sc = scenario("wcc");
    let dir = fresh_dir("delta-chain");
    let mut live = durable_session(&sc, &dir);
    let (cmds, _) = history(&sc);
    for cmd in &cmds {
        exec(&mut live, cmd);
        if matches!(cmd, Cmd::Incremental) {
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
    verify_recovery(&dir, &sc, cmds.len(), "uninterrupted delta chain");
    let _ = std::fs::remove_dir_all(&dir);
}
