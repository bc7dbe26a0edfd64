//! Concurrent appenders (DESIGN.md §9.3): [`Wal::append`] serializes
//! callers on one mutex, and what they write must stay contiguous and keep
//! the ack contract.
//!
//! - Concurrent appends from many threads produce a contiguous, complete,
//!   scannable log.
//! - A crash at any point of a recorded 4-committer run (every prefix of
//!   its effect log, under the crash model in `crashfs/`) recovers a
//!   contiguous LSN prefix holding every *acknowledged* append and
//!   possibly a durable-but-unacknowledged suffix.

mod crashfs;

use crashfs::Effect;
use itg_store::wal::{scan_dir, Wal, WalEntry, WalOptions};
use itg_store::{EdgeMutation, MutationBatch};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Barrier, Mutex};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("itg-wal-appenders-{tag}-{}", std::process::id()));
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
    let barrier = Barrier::new(THREADS as usize);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (wal, barrier) = (&wal, &barrier);
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
        // Force rotations under concurrency too.
        WalOptions { segment_bytes: 256 },
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

// ---------------------------------------------------------------
// Crash among concurrent committers: some acked, some not.
// ---------------------------------------------------------------

#[test]
fn four_committer_crash_recovers_acked_prefix() {
    // One recorded run: each committer marks its append's start and, right
    // after `append` returns, its ack, into the effect log the WAL writes
    // through. Every crash state of every prefix of that log must recover
    // a contiguous LSN prefix 0..n that covers every acked LSN, whose
    // records are appended entries in per-committer order.
    let root = crashfs::scratch_dir("wal-appenders");
    let rec = crashfs::Recorder::new(&root);
    let appended = Mutex::new(BTreeMap::new());
    let opts = WalOptions { segment_bytes: 256 };
    let (wal, _) = Wal::open_on(rec.clone(), &root.join("wal"), opts).unwrap();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (wal, rec, appended) = (&wal, &rec, &appended);
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    rec.mark(Effect::Started(t * PER_THREAD + i));
                    let lsn = wal.append(&batch_entry(t, i)).unwrap();
                    rec.mark(Effect::Acked(lsn));
                    appended.lock().unwrap().insert(lsn, (t, i));
                }
            });
        }
    });
    drop(wal);
    let log = rec.log();
    let appended = appended.into_inner().unwrap();
    let at = root.join("state");
    // Recovery of each distinct state, by fingerprint: the LSN it ends at.
    let mut recovered: HashMap<u64, u64> = HashMap::new();
    let (mut states, mut partial, mut torn) = (0, 0, 0);
    crashfs::crash_states(&log, |k, crash| {
        let (acked, started) = crashfs::marks(&log[..k]);
        let need = log[..k].iter().filter_map(|e| match e {
            Effect::Acked(lsn) => Some(lsn + 1),
            _ => None,
        });
        let need = need.max().unwrap_or(0);
        for state in crash {
            states += 1;
            let n = *recovered
                .entry(crashfs::fingerprint(state))
                .or_insert_with(|| {
                    crashfs::materialize(state, &at);
                    let scan = scan_dir(&at.join("wal"))
                        .unwrap_or_else(|e| panic!("prefix {k}: recovery failed: {e}"));
                    assert_eq!(scan.base_lsn, 0, "prefix {k}: nothing was collected");
                    torn += u64::from(scan.torn_tail);
                    let mut next = [0; THREADS as usize];
                    for r in &scan.records {
                        let WalEntry::Batch(b) = &r.entry else {
                            panic!("{:?}", r.entry)
                        };
                        let (t, i) = (b.edges()[0].src, b.edges()[0].dst);
                        assert_eq!(
                            i, next[t as usize],
                            "prefix {k}: committer {t} out of order"
                        );
                        next[t as usize] += 1;
                        if let Some(&want) = appended.get(&r.lsn) {
                            assert_eq!((t, i), want, "prefix {k}: lsn {} is another append", r.lsn);
                        }
                    }
                    scan.next_lsn()
                });
            assert!(
                need <= n && n <= started,
                "prefix {k}: recovered 0..{n}, acked up to {need}, {started} started"
            );
            partial += u64::from(n > acked);
        }
    });
    println!(
        "{} effects, {states} crash states, {} distinct",
        log.len(),
        recovered.len()
    );
    assert!(
        partial > 0,
        "some state must hold durable but unacknowledged records"
    );
    assert!(torn > 0, "some state must end in a torn frame");
    let _ = std::fs::remove_dir_all(&root);
}
