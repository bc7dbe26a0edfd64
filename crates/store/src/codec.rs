//! Little-endian byte codec shared by the durability modules.
//!
//! The WAL ([`crate::wal`]) and snapshot ([`crate::snapshot`]) formats reuse
//! the framing discipline of the engine's transport wire codec: versioned,
//! length-prefixed, tag-dispatched little-endian records with a
//! magic/version header, and *bitwise* float encoding
//! (`to_bits`/`from_bits`) so a value that round-trips is byte-identical —
//! NaNs and signed zeros included. The store cannot depend on the engine
//! crate, so the primitive writer/reader live here; the engine's
//! `wire::{Writer, Reader}` are the same shape by design.
//!
//! The module also provides the CRC-32 (IEEE 802.3, reflected) checksum
//! that guards every WAL record and snapshot file. It is table-driven and
//! hand-rolled: the build is offline and vendors no checksum crate.

/// Decode failures for the durability byte layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value did.
    Truncated,
    /// A magic number did not match.
    BadMagic(u32),
    /// A format version byte is unsupported.
    BadVersion(u8),
    /// An unknown tag byte for the named kind.
    BadTag { what: &'static str, tag: u8 },
    /// Bytes remained after a complete payload.
    Trailing(usize),
    /// A string field was not valid UTF-8.
    Utf8,
    /// A checksum mismatch: the bytes are corrupt.
    Crc { expected: u32, actual: u32 },
    /// The named structure decoded but breaks its own invariants (offsets
    /// not monotone, ids out of range, ...): indexing by it would be unsound.
    Malformed(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "payload truncated"),
            CodecError::BadMagic(m) => write!(f, "bad magic {m:#x}"),
            CodecError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            CodecError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            CodecError::Trailing(n) => write!(f, "{n} trailing bytes after payload"),
            CodecError::Utf8 => write!(f, "invalid UTF-8 in string"),
            CodecError::Crc { expected, actual } => {
                write!(f, "CRC mismatch: stored {expected:#010x}, computed {actual:#010x}")
            }
            CodecError::Malformed(what) => write!(f, "malformed {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

pub type CodecResult<T> = Result<T, CodecError>;

// ---------------------------------------------------------------
// CRC-32 (IEEE), reflected, table-driven.
// ---------------------------------------------------------------

/// The reflected IEEE polynomial (the one used by zip/png/ethernet).
const CRC32_POLY: u32 = 0xEDB8_8320;

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { CRC32_POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE 802.3) of `bytes`.
///
/// ```
/// // The classic check value for this polynomial.
/// assert_eq!(itg_store::codec::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------
// Primitive writer/reader.
// ---------------------------------------------------------------

/// Append-only little-endian byte writer.
#[derive(Default)]
pub struct Writer {
    pub buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Writer {
        Writer::default()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i8(&mut self, v: i8) {
        self.buf.push(v as u8);
    }

    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Bitwise float encoding: exact round-trip for every bit pattern.
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Cursor over an encoded payload.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// A capacity hint for `n` decoded elements that each take at least
    /// `min_bytes` of the payload: never more than the rest of the payload
    /// could hold, so a corrupt count cannot allocate past it.
    pub fn capacity(&self, n: u64, min_bytes: usize) -> usize {
        n.min((self.remaining() / min_bytes) as u64) as usize
    }

    fn take(&mut self, n: usize) -> CodecResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn u8(&mut self) -> CodecResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn bool(&mut self) -> CodecResult<bool> {
        Ok(self.u8()? != 0)
    }

    pub fn u16(&mut self) -> CodecResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> CodecResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> CodecResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn i8(&mut self) -> CodecResult<i8> {
        Ok(self.u8()? as i8)
    }

    pub fn i32(&mut self) -> CodecResult<i32> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn i64(&mut self) -> CodecResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn f32(&mut self) -> CodecResult<f32> {
        Ok(f32::from_bits(self.u32()?))
    }

    pub fn f64(&mut self) -> CodecResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn str(&mut self) -> CodecResult<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Utf8)
    }

    /// Borrow the next `n` raw bytes (for bulk payloads like the delta
    /// codec's literal runs).
    pub fn bytes(&mut self, n: usize) -> CodecResult<&'a [u8]> {
        self.take(n)
    }

    /// Assert the payload has been fully consumed.
    pub fn finish(&self) -> CodecResult<()> {
        if self.remaining() != 0 {
            return Err(CodecError::Trailing(self.remaining()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn primitives_roundtrip() {
        let mut w = Writer::new();
        w.u8(0xAB);
        w.bool(true);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.i8(-7);
        w.i32(i32::MIN);
        w.i64(i64::MIN);
        w.f32(f32::NAN);
        w.f64(-0.0);
        w.str("δ-walk");
        let mut r = Reader::new(&w.buf);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert!(r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i8().unwrap(), -7);
        assert_eq!(r.i32().unwrap(), i32::MIN);
        assert_eq!(r.i64().unwrap(), i64::MIN);
        assert_eq!(r.f32().unwrap().to_bits(), f32::NAN.to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.str().unwrap(), "δ-walk");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error() {
        let mut w = Writer::new();
        w.u64(42);
        let mut r = Reader::new(&w.buf[..7]);
        assert_eq!(r.u64(), Err(CodecError::Truncated));
    }
}
