//! Segmented write-ahead log for the mutation stream (ROADMAP item 2,
//! DESIGN.md §9).
//!
//! Durable incremental sessions log every state-changing command *before*
//! executing it; because the engine's runs are deterministic given the
//! stores and the command sequence, replaying the log over the latest
//! snapshot reconstructs the exact pre-crash state.
//!
//! ## Record frame (all little-endian)
//!
//! ```text
//! [len: u32]  [magic: u16 = 0xA17C]  [ver: u8 = 1]  [tag: u8]  [lsn: u64]  [body…]  [crc: u32]
//!             ^ payload starts here; `len` counts payload bytes only
//! ```
//!
//! `crc` is [`crate::codec::crc32`] over the payload. The reader tolerates
//! exactly one failure shape without complaint: a *torn tail*, i.e. the
//! newest segment ends mid-frame because the process died inside a write.
//! Everything else — bad magic, bad version, a CRC mismatch on a complete
//! frame, a non-consecutive LSN, a torn frame in any *older* segment — is
//! corruption and fails loudly.
//!
//! ## Segments
//!
//! The log is a sequence of size-bounded segment files named
//! `wal-<start_lsn:020>.log` ([`WalOptions::segment_bytes`] bounds each
//! one). Rotation happens inside an append: the live segment is fsynced,
//! the new segment file is created, and the directory entry is fsynced
//! before any record lands in it — a crash at any intermediate point
//! leaves at worst an empty (or unlinked) trailing segment, which recovery
//! tolerates. Once a snapshot covers a prefix of the log,
//! [`Wal::gc_below`] unlinks every segment whose records all precede the
//! snapshot's `wal_start`.
//!
//! ## One writer
//!
//! [`Wal::append`] assigns the LSN, writes the frame and `fdatasync`s it
//! under one mutex, so appends are serialized: each costs one fsync, and
//! it returns only once its record is durable — acknowledged ⇒
//! recoverable. Recovery may additionally include a synced record whose
//! append had not yet returned when the process died. An append that
//! fails poisons the handle: the durable frontier is unknown, so every
//! later append fails too.
//!
//! ## Writes
//!
//! Every file write goes through the handle's [`DurableFs`] ([`StdFs`]
//! unless [`Wal::open_on`] names another), so the crash-state tests can
//! record them (DESIGN.md §9.8).

use crate::codec::{crc32, CodecError, Reader, Writer};
use crate::fsutil::{parse_name_number, read_names, DurableFs, StdFs};
use crate::mutation::MutationBatch;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// WAL record magic: the first two payload bytes of every record.
pub const WAL_MAGIC: u16 = 0xA17C;
/// WAL format version; bumped on any layout change.
pub const WAL_VERSION: u8 = 1;
/// Upper bound on a single record's payload, as a corruption guard.
pub const MAX_RECORD_BYTES: u32 = 1 << 30;

/// Default [`WalOptions::segment_bytes`].
pub const DEFAULT_SEGMENT_BYTES: u64 = 8 << 20;

/// The file name of the segment whose first record carries `start_lsn`.
/// Zero-padded so lexicographic order is LSN order.
pub fn segment_file_name(start_lsn: u64) -> String {
    format!("wal-{start_lsn:020}.log")
}

/// Inverse of [`segment_file_name`]; `None` for non-segment names.
fn parse_segment_name(name: &str) -> Option<u64> {
    parse_name_number(name.strip_prefix("wal-")?.strip_suffix(".log")?)
}

/// How the appender cuts its log into segments; see the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalOptions {
    /// Rotate to a new segment once the live one holds at least this many
    /// bytes. A single record larger than the bound gets a segment to
    /// itself.
    pub segment_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> WalOptions {
        WalOptions {
            segment_bytes: DEFAULT_SEGMENT_BYTES,
        }
    }
}

/// WAL failures: IO from the filesystem layer, corruption from the byte
/// layer, structural damage to the segment sequence, or an earlier failed
/// append poisoning the appender.
#[derive(Debug)]
pub enum WalError {
    Io(std::io::Error),
    Corrupt(CodecError),
    /// Records must carry consecutive LSNs; a gap means a lost write.
    LsnGap { expected: u64, found: u64 },
    /// The segment sequence itself is damaged (a start LSN out of
    /// sequence, a torn frame in a non-final segment).
    Segment(String),
    /// An earlier append hit an IO error; the appender refuses further
    /// work because the durable frontier is unknown.
    Poisoned(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Corrupt(e) => write!(f, "wal corrupt: {e}"),
            WalError::LsnGap { expected, found } => {
                write!(f, "wal lsn gap: expected {expected}, found {found}")
            }
            WalError::Segment(m) => write!(f, "wal segment error: {m}"),
            WalError::Poisoned(m) => write!(f, "wal poisoned by an earlier failed append: {m}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> WalError {
        WalError::Io(e)
    }
}

impl From<CodecError> for WalError {
    fn from(e: CodecError) -> WalError {
        WalError::Corrupt(e)
    }
}

/// One logged command. The engine executes these in order on replay;
/// anything that changes store or session state must pass through here
/// first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalEntry {
    /// The initial one-shot run over `G_0`.
    OneshotRun,
    /// A mutation batch `ΔG_t` (logged before `apply_mutations`).
    Batch(MutationBatch),
    /// An incremental run over the latest snapshot transition.
    IncrementalRun,
    /// An edge-store compaction (collapses delta chains; changes byte
    /// layout, so it must replay at the same point in the history).
    Compact,
}

/// The entry codec, shared by a WAL record and the engine's wire command:
/// a tag byte, and after it (wherever the container puts it) a body —
/// [`MutationBatch::encode`]'s layout for a batch, nothing otherwise.
impl WalEntry {
    pub fn tag(&self) -> u8 {
        match self {
            WalEntry::OneshotRun => 1,
            WalEntry::Batch(_) => 2,
            WalEntry::IncrementalRun => 3,
            WalEntry::Compact => 4,
        }
    }

    /// Write the entry's body.
    pub fn put_body(&self, w: &mut Writer) {
        if let WalEntry::Batch(batch) = self {
            w.buf.extend_from_slice(&batch.encode());
        }
    }

    /// Read the body of the entry tagged `tag`: all that is left of `r`.
    pub fn read(tag: u8, r: &mut Reader<'_>) -> Result<WalEntry, CodecError> {
        let entry = match tag {
            1 => WalEntry::OneshotRun,
            2 => {
                let body = r.bytes(r.remaining())?;
                WalEntry::Batch(MutationBatch::decode(body).ok_or(CodecError::Truncated)?)
            }
            3 => WalEntry::IncrementalRun,
            4 => WalEntry::Compact,
            tag => return Err(CodecError::BadTag { what: "wal entry", tag }),
        };
        r.finish()?;
        Ok(entry)
    }
}

/// A decoded record: the entry plus its log sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    pub lsn: u64,
    pub entry: WalEntry,
}

/// Encode one record into its on-disk frame (`[len][payload][crc]`).
pub fn encode_record(lsn: u64, entry: &WalEntry) -> Vec<u8> {
    let mut w = Writer::new();
    w.u16(WAL_MAGIC);
    w.u8(WAL_VERSION);
    w.u8(entry.tag());
    w.u64(lsn);
    entry.put_body(&mut w);
    let payload = w.buf;
    let mut frame = Vec::with_capacity(payload.len() + 8);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame
}

/// Decode one payload (the bytes between `len` and `crc`, already
/// CRC-verified) into a record.
pub fn decode_payload(payload: &[u8]) -> Result<WalRecord, CodecError> {
    let mut r = Reader::new(payload);
    let magic = r.u16()?;
    if magic != WAL_MAGIC {
        return Err(CodecError::BadMagic(magic as u32));
    }
    let ver = r.u8()?;
    if ver != WAL_VERSION {
        return Err(CodecError::BadVersion(ver));
    }
    let tag = r.u8()?;
    let lsn = r.u64()?;
    let entry = WalEntry::read(tag, &mut r)?;
    Ok(WalRecord { lsn, entry })
}

/// One discovered segment, oldest first in [`WalScan::segments`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentInfo {
    /// First LSN this segment holds (also encoded in its file name).
    pub start_lsn: u64,
    /// File name relative to the WAL directory.
    pub file: String,
    /// Valid frame bytes (excluding any torn tail).
    pub bytes: u64,
    /// Number of complete records.
    pub records: u64,
}

/// The result of scanning a WAL directory (or a single in-memory image).
#[derive(Debug)]
pub struct WalScan {
    /// All complete, CRC-valid records in LSN order.
    pub records: Vec<WalRecord>,
    /// The LSN the first scanned record must carry — > 0 once GC has
    /// retired segments whose history a snapshot covers.
    pub base_lsn: u64,
    /// Byte length of the *newest* segment's valid prefix (everything
    /// after it is torn).
    pub valid_bytes: u64,
    /// Whether a torn final record was skipped.
    pub torn_tail: bool,
    /// Discovered segments, oldest first (empty for a fresh directory or
    /// an in-memory scan).
    pub segments: Vec<SegmentInfo>,
}

impl WalScan {
    /// The next LSN an appender should use.
    pub fn next_lsn(&self) -> u64 {
        self.records.last().map_or(self.base_lsn, |r| r.lsn + 1)
    }
}

/// Scan one segment image whose first record must carry `expected_lsn`.
/// Returns `(records, valid_bytes, torn_tail)`.
fn scan_segment(
    bytes: &[u8],
    mut expected_lsn: u64,
) -> Result<(Vec<WalRecord>, u64, bool), WalError> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut torn_tail = false;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        if rest.len() < 4 {
            torn_tail = true;
            break;
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().unwrap());
        if len > MAX_RECORD_BYTES {
            return Err(CodecError::Malformed("wal record length").into());
        }
        let frame_len = 4 + len as usize + 4;
        if rest.len() < frame_len {
            torn_tail = true;
            break;
        }
        let payload = &rest[4..4 + len as usize];
        let stored_crc =
            u32::from_le_bytes(rest[4 + len as usize..frame_len].try_into().unwrap());
        let actual = crc32(payload);
        if stored_crc != actual {
            return Err(CodecError::Crc {
                expected: stored_crc,
                actual,
            }
            .into());
        }
        let rec = decode_payload(payload)?;
        if rec.lsn != expected_lsn {
            return Err(WalError::LsnGap {
                expected: expected_lsn,
                found: rec.lsn,
            });
        }
        expected_lsn += 1;
        records.push(rec);
        pos += frame_len;
    }
    Ok((records, pos as u64, torn_tail))
}

/// Scan a single in-memory log image starting at LSN 0 (the testable
/// core; the property tests drive it directly).
pub fn scan_bytes(bytes: &[u8]) -> Result<WalScan, WalError> {
    let (records, valid_bytes, torn_tail) = scan_segment(bytes, 0)?;
    Ok(WalScan {
        records,
        base_lsn: 0,
        valid_bytes,
        torn_tail,
        segments: Vec::new(),
    })
}

/// The segments in `dir` as `(start_lsn, file)`, oldest first. A segment
/// name has one spelling per start LSN, so no two collide.
fn list_segments(dir: &Path) -> std::io::Result<Vec<(u64, String)>> {
    let mut segs = read_names(dir, |name| Some((parse_segment_name(name)?, name.to_string())))?;
    segs.sort();
    Ok(segs)
}

/// Scan every segment in a WAL directory, validating cross-segment LSN
/// continuity. A torn tail is tolerated only in the newest segment; a
/// torn frame in any older segment is corruption.
pub fn scan_dir(dir: &Path) -> Result<WalScan, WalError> {
    let segs = list_segments(dir)?;
    let base_lsn = segs.first().map_or(0, |(s, _)| *s);
    let mut records = Vec::new();
    let mut segments = Vec::new();
    let mut expected = base_lsn;
    let mut torn_tail = false;
    let last_idx = segs.len().saturating_sub(1);
    for (i, (start, name)) in segs.iter().enumerate() {
        if *start != expected {
            return Err(WalError::Segment(format!(
                "segment {name} starts at LSN {start}, expected {expected}"
            )));
        }
        let (recs, valid, torn) = scan_segment(&std::fs::read(dir.join(name))?, expected)?;
        torn_tail = torn;
        if torn && i != last_idx {
            return Err(WalError::Segment(format!(
                "torn frame inside non-final segment {name}"
            )));
        }
        expected += recs.len() as u64;
        segments.push(SegmentInfo {
            start_lsn: *start,
            file: name.clone(),
            bytes: valid,
            records: recs.len() as u64,
        });
        records.extend(recs);
    }
    Ok(WalScan {
        records,
        base_lsn,
        valid_bytes: segments.last().map_or(0, |s| s.bytes),
        torn_tail,
        segments,
    })
}

/// Cumulative appender statistics; see [`Wal::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// `fdatasync` calls issued on segment files carrying record bytes:
    /// one per append, plus one sealing each rotated-out segment.
    pub fsyncs: u64,
    /// Records made durable.
    pub flushed_records: u64,
    /// Segment rotations performed by this handle.
    pub rotations: u64,
}

/// Everything an append changes, under [`Wal`]'s one mutex.
struct WalState {
    file: File,
    /// The live segment's path.
    path: PathBuf,
    seg_bytes: u64,
    next_lsn: u64,
    stats: WalStats,
    /// Sticky error from a failed append: the durable frontier is unknown,
    /// so every later append fails too.
    poisoned: Option<String>,
}

/// Appender handle over a segmented WAL directory. [`Wal::append`] takes
/// `&self` and serializes callers on one mutex.
pub struct Wal {
    dir: PathBuf,
    opts: WalOptions,
    fs: Arc<dyn DurableFs>,
    state: Mutex<WalState>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("next_lsn", &self.next_lsn())
            .finish()
    }
}

impl Wal {
    /// Open (or create) the segmented WAL in `dir` for appending: scan
    /// and validate every segment, truncate a torn tail in the newest one
    /// so new frames never land after garbage, and return the appender
    /// plus the scan of the valid history.
    pub fn open_with(dir: &Path, opts: WalOptions) -> Result<(Wal, WalScan), WalError> {
        Wal::open_on(Arc::new(StdFs), dir, opts)
    }

    /// [`Wal::open_with`], issuing every write through `fs`.
    pub fn open_on(
        fs: Arc<dyn DurableFs>,
        dir: &Path,
        opts: WalOptions,
    ) -> Result<(Wal, WalScan), WalError> {
        fs.create_dir_all(dir)?;
        let scan = scan_dir(dir)?;
        let (live_name, live_valid) = match scan.segments.last() {
            Some(s) => (s.file.clone(), s.bytes),
            None => (segment_file_name(0), 0),
        };
        let path = dir.join(&live_name);
        let file = fs.open_append(&path, false)?;
        if scan.segments.is_empty() {
            fs.fsync(&file, &path)?;
            fs.sync_dir(dir)?;
        }
        if scan.torn_tail {
            fs.ftruncate(&file, &path, live_valid)?;
            fs.fdatasync(&file, &path)?;
        }
        let state = WalState {
            file,
            path,
            seg_bytes: live_valid,
            next_lsn: scan.next_lsn(),
            stats: WalStats::default(),
            poisoned: None,
        };
        let wal = Wal {
            dir: dir.to_path_buf(),
            opts,
            fs,
            state: Mutex::new(state),
        };
        Ok((wal, scan))
    }

    /// The LSN the next [`Wal::append`] will assign.
    pub fn next_lsn(&self) -> u64 {
        self.state.lock().unwrap().next_lsn
    }

    /// Cumulative fsync/record/rotation counts.
    pub fn stats(&self) -> WalStats {
        self.state.lock().unwrap().stats
    }

    /// Unlink every segment whose records all have `lsn < keep_from`
    /// (i.e. whose successor segment starts at or before `keep_from`).
    /// The live segment, the newest in the directory, is never removed.
    /// Returns the removed file names. Callers must only pass a
    /// `keep_from` covered by a durably committed snapshot — the
    /// snapshot's rename is the commit point.
    pub fn gc_below(&self, keep_from: u64) -> Result<Vec<String>, WalError> {
        // Holding the state keeps a rotation from adding a segment.
        let _state = self.state.lock().unwrap();
        let (dir, fs) = (&self.dir, &self.fs);
        let segs = list_segments(dir)?;
        let mut removed = Vec::new();
        for pair in segs.windows(2).take_while(|p| p[1].0 <= keep_from) {
            fs.remove_file(&dir.join(&pair[0].1))?;
            removed.push(pair[0].1.clone());
        }
        if !removed.is_empty() {
            fs.sync_dir(dir)?;
        }
        Ok(removed)
    }

    /// Append one entry and return its LSN once it is durable. This is
    /// the log-before-execute point: callers must not mutate state until
    /// this returns. The first failure returns its own error and poisons
    /// the handle; every later append returns [`WalError::Poisoned`].
    pub fn append(&self, entry: &WalEntry) -> Result<u64, WalError> {
        let mut state = self.state.lock().unwrap();
        if let Some(msg) = &state.poisoned {
            return Err(WalError::Poisoned(msg.clone()));
        }
        let lsn = state.next_lsn;
        state.next_lsn += 1;
        match self.write(&mut state, lsn, &encode_record(lsn, entry)) {
            Ok(()) => {
                state.stats.flushed_records += 1;
                Ok(lsn)
            }
            Err(e) => {
                state.poisoned = Some(e.to_string());
                Err(e)
            }
        }
    }

    /// Write `frame` (rotating first if it would overflow the live
    /// segment) and fdatasync it.
    fn write(&self, state: &mut WalState, lsn: u64, frame: &[u8]) -> Result<(), WalError> {
        let fs = &self.fs;
        if state.seg_bytes > 0 && state.seg_bytes + frame.len() as u64 > self.opts.segment_bytes {
            // Rotate: seal the live segment, create the next one, and
            // fsync the directory entry before any record lands in it.
            fs.fdatasync(&state.file, &state.path)?;
            state.stats.fsyncs += 1;
            state.stats.rotations += 1;
            state.path = self.dir.join(segment_file_name(lsn));
            state.file = fs.open_append(&state.path, true)?;
            state.seg_bytes = 0;
            fs.fsync(&state.file, &state.path)?;
            fs.sync_dir(&self.dir)?;
        }
        fs.write_all(&mut state.file, &state.path, frame)?;
        state.seg_bytes += frame.len() as u64;
        fs.fdatasync(&state.file, &state.path)?;
        state.stats.fsyncs += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutation::EdgeMutation;
    use std::fs::OpenOptions;
    use std::io::Write as _;

    fn sample_entries() -> Vec<WalEntry> {
        vec![
            WalEntry::OneshotRun,
            WalEntry::Batch(MutationBatch::new(vec![
                EdgeMutation::insert(1, 2),
                EdgeMutation::delete(3, 4),
            ])),
            WalEntry::IncrementalRun,
            WalEntry::Compact,
            WalEntry::Batch(MutationBatch::default()),
        ]
    }

    fn image(entries: &[WalEntry]) -> Vec<u8> {
        let mut out = Vec::new();
        for (lsn, e) in entries.iter().enumerate() {
            out.extend_from_slice(&encode_record(lsn as u64, e));
        }
        out
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("itg-wal-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_all_entry_kinds() {
        let entries = sample_entries();
        let scan = scan_bytes(&image(&entries)).unwrap();
        assert!(!scan.torn_tail);
        assert_eq!(scan.records.len(), entries.len());
        for (i, rec) in scan.records.iter().enumerate() {
            assert_eq!(rec.lsn, i as u64);
            assert_eq!(&rec.entry, &entries[i]);
        }
        assert_eq!(scan.next_lsn(), entries.len() as u64);
    }

    #[test]
    fn torn_tail_is_tolerated_at_every_cut() {
        let entries = sample_entries();
        let full = image(&entries);
        let last_frame = encode_record(4, &entries[4]).len();
        let body_end = full.len() - last_frame;
        for cut in body_end + 1..full.len() {
            let scan = scan_bytes(&full[..cut]).unwrap();
            assert!(scan.torn_tail, "cut at {cut} should be torn");
            assert_eq!(scan.records.len(), 4);
            assert_eq!(scan.valid_bytes, body_end as u64);
        }
    }

    #[test]
    fn crc_corruption_is_an_error() {
        let entries = sample_entries();
        let mut bytes = image(&entries);
        // Flip a byte inside the second record's payload.
        let first_len = encode_record(0, &entries[0]).len();
        bytes[first_len + 10] ^= 0xFF;
        assert!(matches!(
            scan_bytes(&bytes),
            Err(WalError::Corrupt(CodecError::Crc { .. }))
        ));
    }

    #[test]
    fn lsn_gap_is_an_error() {
        let mut bytes = encode_record(0, &WalEntry::OneshotRun);
        bytes.extend_from_slice(&encode_record(2, &WalEntry::IncrementalRun));
        assert!(matches!(
            scan_bytes(&bytes),
            Err(WalError::LsnGap {
                expected: 1,
                found: 2
            })
        ));
    }

    #[test]
    fn appender_resumes_after_torn_tail() {
        let dir = tmp_dir("resume");
        {
            let (wal, scan) = Wal::open_with(&dir, WalOptions::default()).unwrap();
            assert_eq!(scan.records.len(), 0);
            assert_eq!(wal.append(&WalEntry::OneshotRun).unwrap(), 0);
            assert_eq!(wal.append(&WalEntry::IncrementalRun).unwrap(), 1);
        }
        // Tear the tail by appending garbage that looks like a frame start.
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(dir.join(segment_file_name(0)))
                .unwrap();
            f.write_all(&[0x30, 0, 0, 0, 0xAA]).unwrap();
        }
        let (wal, scan) = Wal::open_with(&dir, WalOptions::default()).unwrap();
        assert!(scan.torn_tail);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(wal.next_lsn(), 2);
        assert_eq!(wal.append(&WalEntry::Compact).unwrap(), 2);
        let rescan = scan_dir(&dir).unwrap();
        assert!(!rescan.torn_tail);
        assert_eq!(rescan.records.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_splits_segments_and_scan_reassembles() {
        let dir = tmp_dir("rotate");
        let opts = WalOptions { segment_bytes: 48 };
        let entries = sample_entries();
        {
            let (wal, _) = Wal::open_with(&dir, opts.clone()).unwrap();
            for e in &entries {
                wal.append(e).unwrap();
            }
            assert!(wal.stats().rotations >= 1, "tiny segments must rotate");
            let segments = scan_dir(&dir).unwrap().segments.len() as u64;
            assert_eq!(segments, wal.stats().rotations + 1);
        }
        let scan = scan_dir(&dir).unwrap();
        assert!(scan.segments.len() > 1);
        assert_eq!(scan.records.len(), entries.len());
        for (i, rec) in scan.records.iter().enumerate() {
            assert_eq!(rec.lsn, i as u64);
            assert_eq!(&rec.entry, &entries[i]);
        }
        // Reopen resumes in the newest segment.
        let (wal, scan) = Wal::open_with(&dir, opts).unwrap();
        assert_eq!(scan.next_lsn(), entries.len() as u64);
        assert_eq!(wal.append(&WalEntry::Compact).unwrap(), entries.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_below_unlinks_covered_segments_only() {
        let dir = tmp_dir("gc");
        // Every record gets its own segment.
        let opts = WalOptions { segment_bytes: 1 };
        let (wal, _) = Wal::open_with(&dir, opts).unwrap();
        for _ in 0..5 {
            wal.append(&WalEntry::IncrementalRun).unwrap();
        }
        assert_eq!(scan_dir(&dir).unwrap().segments.len(), 5);
        let removed = wal.gc_below(3).unwrap();
        assert_eq!(removed.len(), 3, "segments for lsns 0,1,2 are covered");
        let scan = scan_dir(&dir).unwrap();
        assert_eq!(scan.base_lsn, 3);
        assert_eq!(scan.next_lsn(), 5);
        assert_eq!(
            scan.records.iter().map(|r| r.lsn).collect::<Vec<_>>(),
            vec![3, 4]
        );
        // The live segment survives even when fully covered.
        let removed = wal.gc_below(u64::MAX).unwrap();
        assert_eq!(removed.len(), 1);
        assert_eq!(scan_dir(&dir).unwrap().segments.len(), 1);
        // Appends continue after GC.
        assert_eq!(wal.append(&WalEntry::Compact).unwrap(), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_record_length_is_malformed() {
        let bytes = [&(MAX_RECORD_BYTES + 1).to_le_bytes()[..], &[0; 16]].concat();
        let err = scan_bytes(&bytes).unwrap_err();
        assert!(matches!(err, WalError::Corrupt(CodecError::Malformed(_))), "{err}");
    }

    #[test]
    fn segment_name_roundtrip() {
        assert_eq!(segment_file_name(0), "wal-00000000000000000000.log");
        assert_eq!(parse_segment_name(&segment_file_name(7)), Some(7));
        assert_eq!(parse_segment_name(&segment_file_name(u64::MAX)), Some(u64::MAX));
        assert_eq!(parse_segment_name("wal.log"), None);
        assert_eq!(parse_segment_name("wal-123.log"), None, "unpadded");
        assert_eq!(parse_segment_name("snapshot-0.bin"), None);
    }
}
