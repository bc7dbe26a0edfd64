//! Group-commit tests (DESIGN.md §9): concurrent appenders coalesce into
//! shared fsyncs without losing contiguity or the ack contract.
//!
//! - Concurrent appends from many threads produce a contiguous, complete,
//!   scannable log.
//! - A group-commit window amortizes fsyncs: the same 32-record history
//!   costs at least 2× fewer fsyncs with 4 concurrent committers than
//!   fsync-per-append (the CI smoke asserts the *fsync count*, which is
//!   deterministic, rather than flaky wall-clock).
//! - Killing the process mid-group-commit (`ITG_CRASH=wal:<lsn>`) recovers
//!   exactly the durable LSN prefix: every *acknowledged* append is in it,
//!   and unacknowledged ones past the crash point are not.

use itg_store::wal::{scan_dir, Wal, WalEntry, WalOptions};
use itg_store::{EdgeMutation, MutationBatch};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("itg-group-commit-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A distinguishable batch entry so scans can prove which append wrote
/// which record.
fn batch_entry(thread: u64, seq: u64) -> WalEntry {
    WalEntry::Batch(MutationBatch::new(vec![EdgeMutation::insert(thread, seq)]))
}

const THREADS: u64 = 4;
const PER_THREAD: u64 = 8;

/// Run THREADS committers of PER_THREAD appends each and return the wal.
fn run_committers(dir: &Path, opts: WalOptions) -> Wal {
    let (wal, _) = Wal::open_with(dir, opts).unwrap();
    let barrier = Arc::new(Barrier::new(THREADS as usize));
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let wal = wal.clone();
            let barrier = barrier.clone();
            s.spawn(move || {
                barrier.wait();
                for i in 0..PER_THREAD {
                    wal.append(&batch_entry(t, i)).unwrap();
                }
            });
        }
    });
    wal
}

#[test]
fn concurrent_appends_are_contiguous_and_complete() {
    let dir = fresh_dir("contiguous");
    let wal = run_committers(
        &dir,
        WalOptions {
            segment_bytes: 256, // force rotations under concurrency too
            group_commit_us: 0,
        },
    );
    assert_eq!(wal.stats().flushed_records, THREADS * PER_THREAD);

    let scan = scan_dir(&dir).unwrap();
    assert!(!scan.torn_tail);
    assert_eq!(scan.records.len() as u64, THREADS * PER_THREAD);
    // LSNs are contiguous (scan_dir enforces it) and every (thread, seq)
    // pair appears exactly once, in per-thread order.
    let mut seen_seq = vec![Vec::new(); THREADS as usize];
    for rec in &scan.records {
        let WalEntry::Batch(b) = &rec.entry else {
            panic!("unexpected entry {:?}", rec.entry)
        };
        let m = &b.edges()[0];
        seen_seq[m.src as usize].push(m.dst);
    }
    for (t, seqs) in seen_seq.iter().enumerate() {
        let want: Vec<u64> = (0..PER_THREAD).collect();
        assert_eq!(seqs, &want, "thread {t} appends complete and ordered");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn group_commit_amortizes_fsyncs_at_depth_4() {
    // Serial baseline: one committer, no window — fsync per append.
    let serial_dir = fresh_dir("serial");
    let (serial, _) = Wal::open_with(
        &serial_dir,
        WalOptions {
            segment_bytes: 8 << 20,
            group_commit_us: 0,
        },
    )
    .unwrap();
    for i in 0..THREADS * PER_THREAD {
        serial.append(&batch_entry(i % THREADS, i / THREADS)).unwrap();
    }
    let serial_fsyncs = serial.stats().fsyncs;
    assert_eq!(serial_fsyncs, THREADS * PER_THREAD, "serial = fsync per append");

    // Grouped: 4 concurrent committers and a 5 ms leader window.
    let grouped_dir = fresh_dir("grouped");
    let wal = run_committers(
        &grouped_dir,
        WalOptions {
            segment_bytes: 8 << 20,
            group_commit_us: 5_000,
        },
    );
    let stats = wal.stats();
    assert_eq!(stats.flushed_records, THREADS * PER_THREAD);
    println!(
        "serial fsyncs: {serial_fsyncs}, grouped fsyncs: {} ({} records)",
        stats.fsyncs,
        stats.flushed_records
    );
    // The ≥2× acceptance bound, measured in fsyncs (deterministic, unlike
    // wall-clock): with 4 committers per window the leader flushes
    // multi-record groups, so the same history needs at most half the
    // syncs. In practice it is far fewer (~record count / window size).
    assert!(
        stats.fsyncs * 2 <= serial_fsyncs,
        "grouped fsyncs {} not ≥2× better than serial {serial_fsyncs}",
        stats.fsyncs
    );
    let sizes = wal.drain_group_sizes();
    assert_eq!(sizes.iter().sum::<u64>(), THREADS * PER_THREAD);
    assert!(
        sizes.iter().any(|&g| g >= 2),
        "at least one flush must have grouped multiple committers: {sizes:?}"
    );
    // Identical history either way.
    let a = scan_dir(&serial_dir).unwrap();
    let b = scan_dir(&grouped_dir).unwrap();
    let key = |s: &itg_store::wal::WalScan| {
        let mut v: Vec<(u64, u64)> = s
            .records
            .iter()
            .map(|r| match &r.entry {
                WalEntry::Batch(b) => {
                    let m = &b.edges()[0];
                    (m.src, m.dst)
                }
                _ => unreachable!(),
            })
            .collect();
        v.sort();
        v
    };
    assert_eq!(key(&a), key(&b));
    let _ = std::fs::remove_dir_all(&serial_dir);
    let _ = std::fs::remove_dir_all(&grouped_dir);
}

// ---------------------------------------------------------------
// Crash mid-group-commit: some committers acked, some not.
// ---------------------------------------------------------------

/// Child half of the partial-ack crash test. Each committer thread
/// journals every LSN it was *acknowledged* (append returned) to its own
/// side file before continuing; `ITG_CRASH=wal:<lsn>` kills the process inside a
/// flush, after the crash LSN's bytes are durable but while later queued
/// records — some of whose committers are still blocked in `append` — are
/// lost.
#[test]
#[ignore = "run by group_commit_partial_ack via child process"]
fn child_partial_ack() {
    let Ok(dir) = std::env::var("ITG_GC_DIR") else {
        return; // invoked directly (not as a child): nothing to do
    };
    let dir = PathBuf::from(dir);
    let (wal, _) = Wal::open_with(
        &dir,
        WalOptions {
            segment_bytes: 8 << 20,
            group_commit_us: 2_000,
        },
    )
    .unwrap();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let wal = wal.clone();
            let ack_path = dir.join(format!("acked-{t}.txt"));
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    let lsn = wal.append(&batch_entry(t, i)).unwrap();
                    // Journal the ack durably before proceeding, so the
                    // parent can trust every recorded LSN was acked.
                    let mut text = std::fs::read_to_string(&ack_path).unwrap_or_default();
                    text.push_str(&format!("{lsn}\n"));
                    std::fs::write(&ack_path, text).unwrap();
                }
            });
        }
    });
    // Reaching here means the crash LSN was never flushed — a test bug.
    std::process::abort();
}

#[test]
fn group_commit_partial_ack_crash_recovers_acked_prefix() {
    const CRASH_AT: u64 = 12;
    let dir = fresh_dir("partial-ack");
    std::fs::create_dir_all(&dir).unwrap();
    let exe = std::env::current_exe().unwrap();
    let status = std::process::Command::new(exe)
        .args(["child_partial_ack", "--exact", "--include-ignored", "--nocapture"])
        .env("ITG_GC_DIR", &dir)
        .env("ITG_CRASH", format!("wal:{CRASH_AT}"))
        .status()
        .unwrap();
    assert!(!status.success(), "child must die at the crash point");

    // The recovered log is exactly the acknowledged-or-durable prefix:
    // every LSN up to the crash point, nothing after.
    let scan = scan_dir(&dir).unwrap();
    let recovered: Vec<u64> = scan.records.iter().map(|r| r.lsn).collect();
    let want: Vec<u64> = (0..=CRASH_AT).collect();
    assert_eq!(recovered, want, "durable prefix is 0..=CRASH_AT exactly");

    // Every acked append is in the recovered prefix (the ack contract),
    // and the crash left most appends unacknowledged.
    let mut acked = Vec::new();
    for t in 0..THREADS {
        if let Ok(text) = std::fs::read_to_string(dir.join(format!("acked-{t}.txt"))) {
            acked.extend(text.lines().map(|l| l.parse::<u64>().unwrap()));
        }
    }
    for lsn in &acked {
        assert!(
            *lsn <= CRASH_AT,
            "acked lsn {lsn} missing from the recovered prefix"
        );
    }
    assert!(
        (acked.len() as u64) < THREADS * PER_THREAD,
        "crash at lsn {CRASH_AT} must leave some appends unacknowledged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_group_commit_crash_truncates_to_acked_prefix() {
    // Same matrix point with `:torn`: the crash record itself is
    // half-written, so recovery holds LSNs 0..CRASH_AT (exclusive).
    const CRASH_AT: u64 = 9;
    let dir = fresh_dir("partial-ack-torn");
    std::fs::create_dir_all(&dir).unwrap();
    let exe = std::env::current_exe().unwrap();
    let status = std::process::Command::new(exe)
        .args(["child_partial_ack", "--exact", "--include-ignored", "--nocapture"])
        .env("ITG_GC_DIR", &dir)
        .env("ITG_CRASH", format!("wal:{CRASH_AT}:torn"))
        .status()
        .unwrap();
    assert!(!status.success());

    let scan = scan_dir(&dir).unwrap();
    assert!(scan.torn_tail, "half-written crash record reads as torn");
    let recovered: Vec<u64> = scan.records.iter().map(|r| r.lsn).collect();
    let want: Vec<u64> = (0..CRASH_AT).collect();
    assert_eq!(recovered, want, "torn record itself is not recovered");
    for t in 0..THREADS {
        if let Ok(text) = std::fs::read_to_string(dir.join(format!("acked-{t}.txt"))) {
            for lsn in text.lines().map(|l| l.parse::<u64>().unwrap()) {
                assert!(lsn < CRASH_AT, "acked lsn {lsn} lost by torn-tail truncation");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
