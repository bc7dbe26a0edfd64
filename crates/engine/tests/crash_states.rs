//! Crash-state enumeration (DESIGN.md §9.8): a durable history of twelve
//! commands — one-shot, batch and incremental pairs, a compaction — on
//! 96-byte WAL segments, with the epoch-0 full snapshot, two delta
//! checkpoints and the WAL GC after each, is recorded through the crash
//! model's file-system seam. Every state a crash after every prefix of its
//! effect log can leave must recover to the oracle after *n* commands,
//! acked ≤ *n* ≤ started, and finish the history in lockstep with it (the
//! contract in `crash_history/`).

mod common;
mod crash_history;

use crash_history::crashfs::{self, Effect};
use crash_history::{record, Recorded, TINY_WAL};
use std::path::Path;

fn name(p: &Path) -> &str {
    p.file_name().and_then(|n| n.to_str()).unwrap_or("")
}

/// The history does what the enumeration is meant to cover; returns the
/// rotations and the segments collected.
fn assert_shape(r: &Recorded) -> (usize, usize) {
    let count = |pick: &dyn Fn(&Effect) -> bool| r.log.iter().filter(|e| pick(e)).count();
    let segments =
        count(&|e| matches!(e, Effect::Open { path, .. } if crash_history::is_segment(path)));
    assert!(
        segments >= 3,
        "tiny segments must rotate at least twice ({segments} segments)"
    );
    let unlinks = count(&|e| matches!(e, Effect::Unlink(_)));
    assert!(unlinks >= 1, "a checkpoint must collect a WAL segment");
    let full =
        count(&|e| matches!(e, Effect::Rename { to, .. } if !name(to).ends_with(".delta.bin")));
    let delta =
        count(&|e| matches!(e, Effect::Rename { to, .. } if name(to).ends_with(".delta.bin")));
    assert_eq!(
        (full, delta),
        (1, 2),
        "the epoch-0 full snapshot and two delta checkpoints"
    );
    (segments - 1, unlinks)
}

fn every_state(algo: &'static str) {
    let t0 = std::time::Instant::now();
    let r = record(algo, TINY_WAL, &format!("every-{algo}"));
    let (rotations, collected) = assert_shape(&r);
    let c = r.check_every_state();
    println!(
        "{algo}: {rotations} rotations, {collected} segments collected, {} effects, \
         {} prefixes, {} crash states, {} distinct recovered, {} finished in lockstep, {:.2} s",
        r.log.len(),
        c.prefixes,
        c.states,
        c.distinct,
        c.continued,
        t0.elapsed().as_secs_f64()
    );
}

#[test]
fn every_crash_state_of_a_wcc_history_recovers() {
    every_state("wcc");
}

#[test]
fn every_crash_state_of_a_pagerank_history_recovers_bitwise() {
    // Float accumulation order must survive snapshot + replay: the oracle
    // comparison is on the bytes of the state image.
    every_state("pr");
}

#[test]
fn the_durability_directory_survives_the_first_ack() {
    // The directory's own entry lives in its parent. Once the first
    // command is acked, no crash state may lose it.
    let r = record("wcc", TINY_WAL, "first-ack");
    let k = r.after(0, |e| *e == Effect::Acked(0));
    for state in crashfs::states_after(&r.log[..k]) {
        assert!(
            state.get(Path::new("wal")) == Some(&None),
            "a crash after the first ack can drop the durability directory\n{}",
            crash_history::describe(&state)
        );
    }
    r.check_prefix(k);
}
