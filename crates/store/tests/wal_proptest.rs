//! Property-based tests for the WAL record codec and the segmented layout
//! (DESIGN.md §9): for arbitrary command sequences the on-disk image
//! round-trips exactly, the encoding is canonical (re-encoding a decoded
//! log reproduces the bytes), truncation at *any* byte offset is read as a
//! torn tail rather than an error, and corrupting any payload or CRC byte
//! of a complete frame fails loudly with a CRC mismatch. The multi-segment
//! properties run the same histories through real directories with tiny
//! `segment_bytes` so every invariant also holds *across* segment
//! boundaries: round-trip, newest-segment truncation tolerated at any
//! offset, corruption detected in any segment.

use itg_store::wal::{
    decode_payload, encode_record, scan_bytes, scan_dir, Wal, WalOptions,
};
use itg_store::wal::WalEntry;
use itg_store::{CodecError, EdgeMutation, MutationBatch, WalError};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn mutation() -> impl Strategy<Value = EdgeMutation> {
    (0u64..64, 0u64..64, any::<bool>()).prop_map(|(src, dst, ins)| {
        if ins {
            EdgeMutation::insert(src, dst)
        } else {
            EdgeMutation::delete(src, dst)
        }
    })
}

fn entry() -> impl Strategy<Value = WalEntry> {
    (0usize..4, proptest::collection::vec(mutation(), 0..12)).prop_map(|(kind, muts)| {
        match kind {
            0 => WalEntry::OneshotRun,
            1 => WalEntry::IncrementalRun,
            2 => WalEntry::Compact,
            _ => WalEntry::Batch(MutationBatch::new(muts)),
        }
    })
}

fn entries() -> impl Strategy<Value = Vec<WalEntry>> {
    proptest::collection::vec(entry(), 1..10)
}

/// Concatenated frames for a command sequence, LSN = index.
fn image(entries: &[WalEntry]) -> Vec<u8> {
    let mut out = Vec::new();
    for (lsn, e) in entries.iter().enumerate() {
        out.extend_from_slice(&encode_record(lsn as u64, e));
    }
    out
}

proptest! {
    #[test]
    fn roundtrip_preserves_every_record(es in entries()) {
        let scan = scan_bytes(&image(&es)).unwrap();
        prop_assert!(!scan.torn_tail);
        prop_assert_eq!(scan.records.len(), es.len());
        prop_assert_eq!(scan.next_lsn(), es.len() as u64);
        for (i, rec) in scan.records.iter().enumerate() {
            prop_assert_eq!(rec.lsn, i as u64);
            prop_assert_eq!(&rec.entry, &es[i]);
        }
    }

    #[test]
    fn encoding_is_canonical(es in entries()) {
        let bytes = image(&es);
        let scan = scan_bytes(&bytes).unwrap();
        let reencoded: Vec<u8> = scan
            .records
            .iter()
            .flat_map(|r| encode_record(r.lsn, &r.entry))
            .collect();
        prop_assert_eq!(reencoded, bytes);
    }

    #[test]
    fn truncation_at_any_offset_is_a_torn_tail_never_an_error(
        es in entries(),
        cut_seed in any::<usize>(),
    ) {
        let bytes = image(&es);
        let cut = cut_seed % (bytes.len() + 1);
        let scan = scan_bytes(&bytes[..cut]).unwrap();
        // The valid prefix is a frame boundary at or before the cut, and
        // the scan is torn exactly when the cut fell mid-frame.
        prop_assert!(scan.valid_bytes as usize <= cut);
        prop_assert_eq!(scan.torn_tail, scan.valid_bytes as usize != cut);
        // Every surviving record matches the original at its LSN.
        prop_assert!(scan.records.len() <= es.len());
        for (i, rec) in scan.records.iter().enumerate() {
            prop_assert_eq!(rec.lsn, i as u64);
            prop_assert_eq!(&rec.entry, &es[i]);
        }
    }

    #[test]
    fn corrupting_payload_or_crc_bytes_is_detected(
        es in entries(),
        which in any::<usize>(),
        flip in 1u8..255,
    ) {
        let mut bytes = image(&es);
        // Pick a byte inside some frame's payload-or-CRC region (skipping
        // the 4 `len` bytes, whose corruption legitimately reads as a torn
        // or oversized tail instead).
        let mut regions = Vec::new();
        let mut pos = 0usize;
        for e in &es {
            let frame = encode_record(0, e).len();
            regions.push(pos + 4..pos + frame);
            pos += frame;
        }
        let region = &regions[which % regions.len()];
        let target = region.start + (which / regions.len()) % region.len();
        bytes[target] ^= flip;
        prop_assert!(matches!(
            scan_bytes(&bytes),
            Err(WalError::Corrupt(CodecError::Crc { .. }))
        ));
    }
}

// ---------------------------------------------------------------
// Multi-segment properties (real directories, tiny segment_bytes).
// ---------------------------------------------------------------

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch directory per proptest case (cases run concurrently).
fn fresh_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "itg-wal-prop-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Write `es` through a real appender with the given segment bound and
/// return the directory.
fn write_segmented(es: &[WalEntry], segment_bytes: u64) -> PathBuf {
    let dir = fresh_dir();
    let (wal, _) = Wal::open_with(&dir, WalOptions { segment_bytes }).unwrap();
    for e in es {
        wal.append(e).unwrap();
    }
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tiny_segments_roundtrip_across_boundaries(
        es in entries(),
        seg_bytes in 16u64..160,
    ) {
        let dir = write_segmented(&es, seg_bytes);
        let scan = scan_dir(&dir).unwrap();
        prop_assert!(!scan.torn_tail);
        prop_assert_eq!(scan.records.len(), es.len());
        for (i, rec) in scan.records.iter().enumerate() {
            prop_assert_eq!(rec.lsn, i as u64);
            prop_assert_eq!(&rec.entry, &es[i]);
        }
        // Reopening resumes appends at the right LSN in the live segment.
        let (wal, reopen) = Wal::open_with(
            &dir,
            WalOptions { segment_bytes: seg_bytes },
        ).unwrap();
        prop_assert_eq!(reopen.next_lsn(), es.len() as u64);
        prop_assert_eq!(wal.append(&WalEntry::Compact).unwrap(), es.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn newest_segment_truncation_is_tolerated_at_any_offset(
        es in entries(),
        seg_bytes in 16u64..160,
        cut_seed in any::<usize>(),
    ) {
        let dir = write_segmented(&es, seg_bytes);
        let scan = scan_dir(&dir).unwrap();
        let last = scan.segments.last().unwrap();
        let path = dir.join(&last.file);
        let full = std::fs::read(&path).unwrap();
        let cut = cut_seed % (full.len() + 1);
        std::fs::write(&path, &full[..cut]).unwrap();

        let cut_scan = scan_dir(&dir).unwrap();
        // Records from older segments all survive; the newest segment
        // keeps its frame-aligned prefix and reads torn iff the cut fell
        // mid-frame.
        let older: u64 = scan.records.len() as u64 - last.records;
        prop_assert!(cut_scan.records.len() as u64 >= older);
        prop_assert_eq!(cut_scan.torn_tail, cut_scan.valid_bytes as usize != cut);
        for (i, rec) in cut_scan.records.iter().enumerate() {
            prop_assert_eq!(rec.lsn, i as u64);
            prop_assert_eq!(&rec.entry, &es[i]);
        }
        // And the appender itself accepts the damage, truncates, resumes.
        let (wal, reopen) = Wal::open_with(
            &dir,
            WalOptions { segment_bytes: seg_bytes },
        ).unwrap();
        let resume_at = reopen.next_lsn();
        prop_assert_eq!(resume_at, cut_scan.records.len() as u64);
        prop_assert_eq!(wal.append(&WalEntry::OneshotRun).unwrap(), resume_at);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_in_any_segment_is_detected(
        es in entries(),
        seg_bytes in 16u64..160,
        which in any::<usize>(),
        flip in 1u8..255,
    ) {
        let dir = write_segmented(&es, seg_bytes);
        let scan = scan_dir(&dir).unwrap();
        // Flip a payload-or-CRC byte in ANY segment (len-field bytes are
        // excluded: in the final segment their corruption legitimately
        // reads as a torn tail). Corrupting a non-final segment must fail
        // even where a final segment would tolerate damage.
        let mut regions = Vec::new(); // (segment file, frame-relative range)
        for seg in &scan.segments {
            let mut pos = 0usize;
            for rec in &scan.records[seg.start_lsn as usize..(seg.start_lsn + seg.records) as usize] {
                let frame = encode_record(rec.lsn, &rec.entry).len();
                regions.push((seg.file.clone(), pos + 4..pos + frame));
                pos += frame;
            }
        }
        prop_assert!(!regions.is_empty()); // entries() yields >= 1 record
        let (file, region) = &regions[which % regions.len()];
        let target = region.start + (which / regions.len().max(1)) % region.len();
        let path = dir.join(file);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[target] ^= flip;
        std::fs::write(&path, &bytes).unwrap();
        prop_assert!(matches!(
            scan_dir(&dir),
            Err(WalError::Corrupt(CodecError::Crc { .. }))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn torn_frame_in_a_non_final_segment_is_an_error_not_a_tail() {
    // Force one record per segment, then truncate the FIRST segment
    // mid-frame: unlike the newest segment, this must scan as damage.
    let es = vec![WalEntry::OneshotRun, WalEntry::IncrementalRun, WalEntry::Compact];
    let dir = write_segmented(&es, 1);
    let scan = scan_dir(&dir).unwrap();
    assert!(scan.segments.len() >= 3);
    let first = dir.join(&scan.segments[0].file);
    let full = std::fs::read(&first).unwrap();
    std::fs::write(&first, &full[..full.len() - 1]).unwrap();
    assert!(matches!(scan_dir(&dir), Err(WalError::Segment(_))));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn payload_decode_rejects_unknown_tag() {
    let frame = encode_record(0, &WalEntry::Compact);
    let mut payload = frame[4..frame.len() - 4].to_vec();
    payload[3] = 0x7F; // tag byte
    assert!(matches!(
        decode_payload(&payload),
        Err(CodecError::BadTag { .. })
    ));
}
