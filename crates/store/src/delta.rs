//! Binary delta codec for incremental snapshots (DESIGN.md §9).
//!
//! A delta snapshot stores the byte difference between the previous
//! snapshot's state image (the *base*) and the current one (the
//! *output*), so checkpoint bytes scale with the change volume rather
//! than the graph size — the DBSP "persist deltas, not images" argument
//! applied to checkpointing.
//!
//! The scheme is the rsync/librsync one, simplified for a local base we
//! can read at encode time:
//!
//! 1. Split the base into fixed-size blocks and index them by a weak
//!    rolling hash (adler-style: two u16 running sums packed in a u32).
//! 2. Slide a window over the output. On a weak-hash hit, confirm with a
//!    byte compare (no strong-hash-collision risk), then greedily extend
//!    the match forward past the block boundary.
//! 3. Emit `Copy { base_off, len }` for matches and `Literal(bytes)` for
//!    everything between them, merging adjacent copies.
//!
//! The document header pins the base and output lengths *and* CRCs, so
//! [`apply`] fails loudly when composed against the wrong base — a delta
//! chain that lost a link cannot silently produce a plausible image.
//!
//! ## Document layout (little-endian)
//!
//! ```text
//! [magic u32 = 0x17B0_DE17] [ver u8 = 1]
//! [base_len u64] [base_crc u32] [out_len u64] [out_crc u32] [n_ops u64]
//! then per op: [tag u8 = 1 Copy | 2 Literal]
//!   Copy:    [base_off u64] [len u64]
//!   Literal: [len u64] [bytes…]
//! ```

use crate::codec::{crc32, CodecError, CodecResult, Reader, Writer};
use std::collections::HashMap;

/// Delta document magic.
pub const DELTA_MAGIC: u32 = 0x17B0_DE17;
/// Delta document version; bumped on any layout change.
pub const DELTA_VERSION: u8 = 1;

const TAG_COPY: u8 = 1;
const TAG_LITERAL: u8 = 2;

/// Pick a base block size: small enough to find matches in small images,
/// large enough that the hash index stays cheap on big ones.
fn block_size(base_len: usize) -> usize {
    // Session snapshots interleave many small structures (length-prefixed
    // lists, per-partition columns of a few hundred bytes): a fine block
    // lets a structure that merely *moved* — shifted by an append earlier
    // in the image — still match its base block. The index stays bounded
    // at base_len/1024 entries once images grow past 32 KiB.
    (base_len / 1024).clamp(32, 4096)
}

/// Weak rolling hash over `block`: adler-style `(a, s2)` u16 sums packed
/// into a u32. Rollable one byte at a time (see the scan loop).
fn weak_hash(block: &[u8]) -> u32 {
    let mut a = 0u16;
    let mut s2 = 0u16;
    for &x in block {
        a = a.wrapping_add(x as u16);
        s2 = s2.wrapping_add(a);
    }
    ((s2 as u32) << 16) | a as u32
}

enum Op {
    Copy { base_off: u64, len: u64 },
    Literal { start: usize, end: usize },
}

/// Encode the byte delta that transforms `base` into `out`.
pub fn encode(base: &[u8], out: &[u8]) -> Vec<u8> {
    let b = block_size(base.len());
    // Index base blocks by weak hash. Later blocks win ties; any block
    // with the same bytes is as good as another.
    let mut index: HashMap<u32, Vec<usize>> = HashMap::new();
    if !base.is_empty() {
        let mut off = 0;
        while off + b <= base.len() {
            index.entry(weak_hash(&base[off..off + b])).or_default().push(off);
            off += b;
        }
    }

    let mut ops: Vec<Op> = Vec::new();
    let mut lit_start = 0usize; // start of the pending literal run
    let mut i = 0usize; // window start
    let mut rolling: Option<u32> = None;
    while i + b <= out.len() {
        // `rolling` is only carried across non-match steps; both exits of
        // this iteration reassign it, so no need to store the fresh hash.
        let h = match rolling {
            Some(h) => h,
            None => weak_hash(&out[i..i + b]),
        };
        let mut matched = None;
        if let Some(cands) = index.get(&h) {
            for &base_off in cands {
                if base[base_off..base_off + b] == out[i..i + b] {
                    matched = Some(base_off);
                    break;
                }
            }
        }
        if let Some(base_off) = matched {
            // Extend the confirmed block match forward greedily.
            let mut len = b;
            while base_off + len < base.len()
                && i + len < out.len()
                && base[base_off + len] == out[i + len]
            {
                len += 1;
            }
            if lit_start < i {
                ops.push(Op::Literal { start: lit_start, end: i });
            }
            // Merge with a contiguous preceding copy.
            match ops.last_mut() {
                Some(Op::Copy { base_off: po, len: pl })
                    if *po + *pl == base_off as u64 && lit_start == i =>
                {
                    *pl += len as u64;
                }
                _ => ops.push(Op::Copy {
                    base_off: base_off as u64,
                    len: len as u64,
                }),
            }
            i += len;
            lit_start = i;
            rolling = None;
        } else {
            // Roll the hash one byte forward: drop out[i], admit out[i+b].
            if i + b < out.len() {
                let x_out = out[i] as u16;
                let x_in = out[i + b] as u16;
                let a = (h & 0xFFFF) as u16;
                let s2 = (h >> 16) as u16;
                let a2 = a.wrapping_sub(x_out).wrapping_add(x_in);
                let s22 = s2.wrapping_sub((b as u16).wrapping_mul(x_out)).wrapping_add(a2);
                rolling = Some(((s22 as u32) << 16) | a2 as u32);
            } else {
                rolling = None;
            }
            i += 1;
        }
    }
    if lit_start < out.len() {
        ops.push(Op::Literal {
            start: lit_start,
            end: out.len(),
        });
    }

    let mut w = Writer::new();
    w.u32(DELTA_MAGIC);
    w.u8(DELTA_VERSION);
    w.u64(base.len() as u64);
    w.u32(crc32(base));
    w.u64(out.len() as u64);
    w.u32(crc32(out));
    w.u64(ops.len() as u64);
    for op in &ops {
        match op {
            Op::Copy { base_off, len } => {
                w.u8(TAG_COPY);
                w.u64(*base_off);
                w.u64(*len);
            }
            Op::Literal { start, end } => {
                w.u8(TAG_LITERAL);
                w.u64((end - start) as u64);
                w.buf.extend_from_slice(&out[*start..*end]);
            }
        }
    }
    w.buf
}

/// Apply a delta document to `base`, reproducing the output image
/// byte-exactly. Fails if the document is malformed or if `base` is not
/// the image the delta was encoded against (length + CRC pinned).
pub fn apply(base: &[u8], delta: &[u8]) -> CodecResult<Vec<u8>> {
    let mut r = Reader::new(delta);
    let magic = r.u32()?;
    if magic != DELTA_MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    let ver = r.u8()?;
    if ver != DELTA_VERSION {
        return Err(CodecError::BadVersion(ver));
    }
    let base_len = r.u64()? as usize;
    let base_crc = r.u32()?;
    let out_len = r.u64()? as usize;
    let out_crc = r.u32()?;
    if base_len != base.len() {
        return Err(CodecError::Truncated);
    }
    let actual = crc32(base);
    if base_crc != actual {
        return Err(CodecError::Crc {
            expected: base_crc,
            actual,
        });
    }
    let n_ops = r.u64()?;
    // `out_len` is unchecked until the end: cap the hint so a corrupt
    // header cannot choose the allocation.
    let mut out = Vec::with_capacity(out_len.min(base.len() + delta.len()));
    for _ in 0..n_ops {
        match r.u8()? {
            TAG_COPY => {
                let off = r.u64()? as usize;
                let len = r.u64()? as usize;
                let end = off.checked_add(len).ok_or(CodecError::Truncated)?;
                if end > base.len() {
                    return Err(CodecError::Truncated);
                }
                out.extend_from_slice(&base[off..end]);
            }
            TAG_LITERAL => {
                let len = r.u64()? as usize;
                out.extend_from_slice(r.bytes(len)?);
            }
            tag => return Err(CodecError::BadTag { what: "delta op", tag }),
        }
    }
    r.finish()?;
    if out.len() != out_len {
        return Err(CodecError::Truncated);
    }
    let actual = crc32(&out);
    if out_crc != actual {
        return Err(CodecError::Crc {
            expected: out_crc,
            actual,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};

    fn roundtrip(base: &[u8], out: &[u8]) -> usize {
        let d = encode(base, out);
        assert_eq!(apply(base, &d).unwrap(), out, "delta must reproduce out");
        d.len()
    }

    fn random_bytes(rng: &mut SmallRng, n: usize) -> Vec<u8> {
        (0..n).map(|_| (rng.next_u64() & 0xFF) as u8).collect()
    }

    #[test]
    fn identical_images_compress_to_one_copy() {
        let mut rng = SmallRng::seed_from_u64(1);
        let img = random_bytes(&mut rng, 50_000);
        let d = roundtrip(&img, &img);
        assert!(d < 100, "identical 50kB image became {d}B delta");
    }

    #[test]
    fn small_edit_yields_small_delta() {
        let mut rng = SmallRng::seed_from_u64(2);
        let base = random_bytes(&mut rng, 40_000);
        let mut out = base.clone();
        out[12_345] ^= 0x5A;
        out.splice(30_000..30_000, [1u8, 2, 3].iter().copied());
        let d = roundtrip(&base, &out);
        assert!(
            d < out.len() / 4,
            "3-byte insert + 1-byte flip in 40kB gave {d}B delta"
        );
    }

    #[test]
    fn disjoint_images_fall_back_to_literal() {
        let mut rng = SmallRng::seed_from_u64(3);
        let base = random_bytes(&mut rng, 5_000);
        let out = random_bytes(&mut rng, 7_000);
        let d = roundtrip(&base, &out);
        assert!(d >= out.len(), "disjoint data cannot shrink");
        assert!(d < out.len() + 256, "literal overhead must stay small");
    }

    #[test]
    fn empty_edges() {
        roundtrip(&[], &[]);
        roundtrip(&[], b"fresh");
        roundtrip(b"gone", &[]);
        roundtrip(&[0u8; 3], &[0u8; 3]); // below block size
    }

    #[test]
    fn wrong_base_is_rejected() {
        let base = vec![7u8; 10_000];
        let out = vec![9u8; 10_000];
        let d = encode(&base, &out);
        let mut wrong = base.clone();
        wrong[0] ^= 1;
        assert!(matches!(apply(&wrong, &d), Err(CodecError::Crc { .. })));
        assert_eq!(apply(&base[..999], &d), Err(CodecError::Truncated));
    }

    #[test]
    fn corrupt_document_is_rejected() {
        let base = vec![1u8; 4096];
        let out = vec![2u8; 4096];
        let mut d = encode(&base, &out);
        assert!(apply(&base, &[]).is_err());
        d[0] ^= 0xFF;
        assert!(matches!(apply(&base, &d), Err(CodecError::BadMagic(_))));
        // A huge `out_len` (after magic, version, base_len and base_crc)
        // is an error, not an allocation.
        d[0] ^= 0xFF;
        for out_len in [u64::MAX, 1 << 40] {
            d[17..25].copy_from_slice(&out_len.to_le_bytes());
            assert_eq!(apply(&base, &d), Err(CodecError::Truncated));
        }
    }

    #[test]
    fn random_mutation_histories_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(0xD17A);
        let mut img = random_bytes(&mut rng, 20_000);
        for _ in 0..16 {
            let mut next = img.clone();
            // A few scattered point edits plus one splice, like a
            // state image after a small mutation batch.
            for _ in 0..8 {
                let at = (rng.next_u64() as usize) % next.len();
                next[at] = (rng.next_u64() & 0xFF) as u8;
            }
            let at = (rng.next_u64() as usize) % next.len();
            let ins_len = (rng.next_u64() % 40) as usize;
            let ins = random_bytes(&mut rng, ins_len);
            next.splice(at..at, ins.iter().copied());
            let d = roundtrip(&img, &next);
            assert!(d < next.len(), "small edits must beat a full rewrite");
            img = next;
        }
    }
}
