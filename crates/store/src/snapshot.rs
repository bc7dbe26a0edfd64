//! Snapshot serialization for the durability subsystem (DESIGN.md §9).
//!
//! A snapshot is a *full-fidelity* image of store state: the edge store's
//! exact segment-chain structure (base CSR, per-delta insert/delete
//! segments, degree arrays) and the attribute stores' baseline plus
//! per-superstep delta chains. Fidelity
//! matters because the engine's float accumulation order follows the
//! segment scan order — flattening the chain into one CSR would produce a
//! *semantically* equal graph whose incremental runs are no longer
//! byte-identical to the pre-crash session.
//!
//! This module holds the shared [`Value`]/[`ColumnData`] codecs (bitwise
//! floats, tag-per-variant — the same scheme as the engine's transport
//! wire format) and the snapshot *file* container:
//!
//! ```text
//! [magic: u32 = 0x17B0_5A9D]  [ver: u8 = 1]  [len: u64]  [payload…]  [crc: u32]
//! ```
//!
//! `crc` is [`crate::codec::crc32`] over the payload. Files are written
//! atomically (tmp + fsync + rename) so a crash mid-checkpoint never
//! leaves a torn snapshot under its final name: recovery finds snapshots
//! by name ([`crate::manifest`]), so the rename is the commit point.

use crate::codec::{crc32, CodecError, CodecResult, Reader, Writer};
use crate::fsutil::DurableFs;
use itg_gsa::value::{ColumnData, PrimType, Value, ValueType};
use std::path::{Path, PathBuf};

/// Snapshot file magic (first four bytes).
pub const SNAPSHOT_MAGIC: u32 = 0x17B0_5A9D;
/// Snapshot container version; bumped on any layout change.
pub const SNAPSHOT_VERSION: u8 = 1;

/// Snapshot failures: filesystem IO, byte-level corruption, or a
/// directory whose snapshot names ([`crate::manifest`]) do not add up.
#[derive(Debug)]
pub enum SnapshotError {
    Io(std::io::Error),
    Corrupt(CodecError),
    /// Two snapshot files claim the same epoch.
    DuplicateEpoch { epoch: u64, files: [String; 2] },
    /// Materializing `epoch` needs the snapshot of epoch `missing`.
    MissingLink { epoch: u64, missing: u64 },
    /// The directory holds the `manifest.json` of the earlier layout.
    LegacyManifest(PathBuf),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::Corrupt(e) => write!(f, "snapshot corrupt: {e}"),
            SnapshotError::DuplicateEpoch { epoch, files: [a, b] } => {
                write!(f, "snapshots {a} and {b} share epoch {epoch}")
            }
            SnapshotError::MissingLink { epoch, missing } => {
                write!(f, "snapshot chain for epoch {epoch} is missing epoch {missing}")
            }
            SnapshotError::LegacyManifest(p) => {
                write!(f, "{} is from an older layout; re-run from the graph input", p.display())
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> SnapshotError {
        SnapshotError::Corrupt(e)
    }
}

/// Atomically write a snapshot payload to `path` through `fs` (container
/// framing, tmp file, fsync, rename, directory fsync).
///
/// The directory fsync matters: fsync(file) makes the *contents* durable,
/// but the rename's directory entry needs its own fsync or a crash can
/// lose the file. The rename is the checkpoint commit point, so WAL GC
/// may run only after this returns.
pub fn write_file(fs: &dyn DurableFs, path: &Path, payload: &[u8]) -> Result<(), SnapshotError> {
    let tmp = path.with_extension("tmp");
    let mut f = fs.create(&tmp)?;
    fs.write_all(&mut f, &tmp, &SNAPSHOT_MAGIC.to_le_bytes())?;
    fs.write_all(&mut f, &tmp, &[SNAPSHOT_VERSION])?;
    fs.write_all(&mut f, &tmp, &(payload.len() as u64).to_le_bytes())?;
    fs.write_all(&mut f, &tmp, payload)?;
    fs.write_all(&mut f, &tmp, &crc32(payload).to_le_bytes())?;
    fs.fdatasync(&f, &tmp)?;
    drop(f);
    fs.rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        fs.sync_dir(dir)?;
    }
    Ok(())
}

/// Read and verify a snapshot file, returning its payload.
pub fn read_file(path: &Path) -> Result<Vec<u8>, SnapshotError> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < 4 + 1 + 8 + 4 {
        return Err(CodecError::Truncated.into());
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    if magic != SNAPSHOT_MAGIC {
        return Err(CodecError::BadMagic(magic).into());
    }
    let ver = bytes[4];
    if ver != SNAPSHOT_VERSION {
        return Err(CodecError::BadVersion(ver).into());
    }
    // Compare in u64 against what the file holds: `13 + len + 4` computed
    // from the stored field overflows for a length near `u64::MAX`.
    let len = u64::from_le_bytes(bytes[5..13].try_into().unwrap());
    if len != (bytes.len() - 17) as u64 {
        return Err(CodecError::Truncated.into());
    }
    let (payload, crc) = bytes[13..].split_at(bytes.len() - 17);
    let stored = u32::from_le_bytes(crc.try_into().unwrap());
    let actual = crc32(payload);
    if stored != actual {
        return Err(CodecError::Crc {
            expected: stored,
            actual,
        }
        .into());
    }
    Ok(payload.to_vec())
}

// ---------------------------------------------------------------
// Value / type / column codecs (shared by the store snapshot methods and
// the engine's session-state serializer).
// ---------------------------------------------------------------

pub fn put_prim_type(w: &mut Writer, t: PrimType) {
    w.u8(match t {
        PrimType::Bool => 0,
        PrimType::Int => 1,
        PrimType::Long => 2,
        PrimType::Float => 3,
        PrimType::Double => 4,
    });
}

pub fn get_prim_type(r: &mut Reader<'_>) -> CodecResult<PrimType> {
    Ok(match r.u8()? {
        0 => PrimType::Bool,
        1 => PrimType::Int,
        2 => PrimType::Long,
        3 => PrimType::Float,
        4 => PrimType::Double,
        tag => return Err(CodecError::BadTag { what: "prim type", tag }),
    })
}

pub fn put_value_type(w: &mut Writer, t: &ValueType) {
    match t {
        ValueType::Prim(p) => {
            w.u8(0);
            put_prim_type(w, *p);
        }
        ValueType::Array(p, len) => {
            w.u8(1);
            put_prim_type(w, *p);
            w.u64(*len as u64);
        }
    }
}

pub fn get_value_type(r: &mut Reader<'_>) -> CodecResult<ValueType> {
    Ok(match r.u8()? {
        0 => ValueType::Prim(get_prim_type(r)?),
        1 => {
            let p = get_prim_type(r)?;
            let len = r.u64()? as usize;
            ValueType::Array(p, len)
        }
        tag => return Err(CodecError::BadTag { what: "value type", tag }),
    })
}

pub fn put_value(w: &mut Writer, v: &Value) {
    match v {
        Value::Bool(b) => {
            w.u8(0);
            w.bool(*b);
        }
        Value::Int(x) => {
            w.u8(1);
            w.i32(*x);
        }
        Value::Long(x) => {
            w.u8(2);
            w.i64(*x);
        }
        Value::Float(x) => {
            w.u8(3);
            w.f32(*x);
        }
        Value::Double(x) => {
            w.u8(4);
            w.f64(*x);
        }
        Value::Array(items) => {
            w.u8(5);
            w.u32(items.len() as u32);
            for item in items {
                put_value(w, item);
            }
        }
    }
}

pub fn get_value(r: &mut Reader<'_>) -> CodecResult<Value> {
    Ok(match r.u8()? {
        0 => Value::Bool(r.bool()?),
        1 => Value::Int(r.i32()?),
        2 => Value::Long(r.i64()?),
        3 => Value::Float(r.f32()?),
        4 => Value::Double(r.f64()?),
        5 => {
            let n = r.u32()? as usize;
            let mut items = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                items.push(get_value(r)?);
            }
            Value::Array(items)
        }
        tag => return Err(CodecError::BadTag { what: "value", tag }),
    })
}

pub fn put_column(w: &mut Writer, col: &ColumnData) {
    match col {
        ColumnData::Bool(v) => {
            w.u8(0);
            w.u64(v.len() as u64);
            for &b in v {
                w.bool(b);
            }
        }
        ColumnData::Int(v) => {
            w.u8(1);
            w.u64(v.len() as u64);
            for &x in v {
                w.i32(x);
            }
        }
        ColumnData::Long(v) => {
            w.u8(2);
            w.u64(v.len() as u64);
            for &x in v {
                w.i64(x);
            }
        }
        ColumnData::Float(v) => {
            w.u8(3);
            w.u64(v.len() as u64);
            for &x in v {
                w.f32(x);
            }
        }
        ColumnData::Double(v) => {
            w.u8(4);
            w.u64(v.len() as u64);
            for &x in v {
                w.f64(x);
            }
        }
        ColumnData::Array(rows) => {
            w.u8(5);
            w.u64(rows.len() as u64);
            for row in rows {
                w.u32(row.len() as u32);
                for v in row {
                    put_value(w, v);
                }
            }
        }
    }
}

pub fn get_column(r: &mut Reader<'_>) -> CodecResult<ColumnData> {
    let tag = r.u8()?;
    let n = r.u64()? as usize;
    let cap = n.min(1 << 20);
    Ok(match tag {
        0 => {
            let mut v = Vec::with_capacity(cap);
            for _ in 0..n {
                v.push(r.bool()?);
            }
            ColumnData::Bool(v)
        }
        1 => {
            let mut v = Vec::with_capacity(cap);
            for _ in 0..n {
                v.push(r.i32()?);
            }
            ColumnData::Int(v)
        }
        2 => {
            let mut v = Vec::with_capacity(cap);
            for _ in 0..n {
                v.push(r.i64()?);
            }
            ColumnData::Long(v)
        }
        3 => {
            let mut v = Vec::with_capacity(cap);
            for _ in 0..n {
                v.push(r.f32()?);
            }
            ColumnData::Float(v)
        }
        4 => {
            let mut v = Vec::with_capacity(cap);
            for _ in 0..n {
                v.push(r.f64()?);
            }
            ColumnData::Double(v)
        }
        5 => {
            let mut rows = Vec::with_capacity(cap);
            for _ in 0..n {
                let m = r.u32()? as usize;
                let mut row = Vec::with_capacity(m.min(1 << 16));
                for _ in 0..m {
                    row.push(get_value(r)?);
                }
                rows.push(row);
            }
            ColumnData::Array(rows)
        }
        tag => return Err(CodecError::BadTag { what: "column", tag }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_and_column_roundtrip_bitwise() {
        let vals = [
            Value::Bool(true),
            Value::Int(-5),
            Value::Long(i64::MAX),
            Value::Float(f32::NAN),
            Value::Double(-0.0),
            Value::Array(vec![Value::Int(1), Value::Double(2.5)]),
        ];
        let mut w = Writer::new();
        for v in &vals {
            put_value(&mut w, v);
        }
        let mut r = Reader::new(&w.buf);
        for v in &vals {
            let got = get_value(&mut r).unwrap();
            // Bitwise comparison through re-encode.
            let mut a = Writer::new();
            put_value(&mut a, v);
            let mut b = Writer::new();
            put_value(&mut b, &got);
            assert_eq!(a.buf, b.buf);
        }
        r.finish().unwrap();

        let cols = [
            ColumnData::Bool(vec![true, false]),
            ColumnData::Int(vec![1, -2]),
            ColumnData::Long(vec![i64::MIN]),
            ColumnData::Float(vec![f32::INFINITY, -0.0]),
            ColumnData::Double(vec![f64::NAN]),
            ColumnData::Array(vec![vec![Value::Int(9)], vec![]]),
        ];
        let mut w = Writer::new();
        for c in &cols {
            put_column(&mut w, c);
        }
        let mut r = Reader::new(&w.buf);
        for c in &cols {
            let got = get_column(&mut r).unwrap();
            let mut a = Writer::new();
            put_column(&mut a, c);
            let mut b = Writer::new();
            put_column(&mut b, &got);
            assert_eq!(a.buf, b.buf);
        }
        r.finish().unwrap();
    }

    #[test]
    fn type_roundtrip() {
        for t in [
            ValueType::Prim(PrimType::Bool),
            ValueType::Prim(PrimType::Double),
            ValueType::Array(PrimType::Long, 7),
        ] {
            let mut w = Writer::new();
            put_value_type(&mut w, &t);
            let mut r = Reader::new(&w.buf);
            assert_eq!(get_value_type(&mut r).unwrap(), t);
            r.finish().unwrap();
        }
    }

    #[test]
    fn file_container_detects_corruption() {
        let dir = std::env::temp_dir().join(format!("itg-snap-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.snap");
        write_file(&crate::fsutil::StdFs, &path, b"hello snapshot").unwrap();
        assert_eq!(read_file(&path).unwrap(), b"hello snapshot");

        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_file(&path), Err(SnapshotError::Corrupt(_))));

        // A length field near u64::MAX is a short file, not an overflow.
        bytes[5..13].copy_from_slice(&(u64::MAX - 5).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = read_file(&path).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(CodecError::Truncated)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
