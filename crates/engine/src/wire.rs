//! Versioned binary wire format for the transport layer (ROADMAP item 1).
//!
//! Every byte that crosses a partition boundary in the distributed engine
//! is a [`Payload`] encoded by this module: pre-aggregated accumulator
//! contributions, the sync rounds every cross-rank agreement goes through
//! (global-accumulator partials, convergence votes, recompute vertex
//! sets — one [`Part`] each), and commands in the WAL's own entry codec
//! (see DESIGN.md §8.1 for the byte-layout table).
//!
//! The codec is deliberately boring: little-endian, length-prefixed,
//! tag-dispatched (the primitive writer/reader and the value/column codecs
//! are `itg_store`'s, shared with the WAL and snapshot formats), with a
//! magic/version header so a coordinator and a worker built from different
//! trees fail loudly instead of mis-parsing.
//! Floating-point values are encoded *bitwise* (`to_bits`/`from_bits`),
//! matching the engine's bitwise [`Value`] equality — a payload that
//! round-trips is byte-identical, NaNs and signed zeros included.
//!
//! Frame layout on a pipe or socket:
//!
//! ```text
//! [len: u32]  [dst: u16]  [magic: u16 = 0xA17B]  [ver: u8 = 7]  [tag: u8]  [body…]
//!  ^ bytes after len        ^ payload starts here
//! ```
//!
//! `dst` is the destination machine index, [`DST_COORD`] for the
//! coordinator, or [`DST_CTRL`] for a control message addressed to the
//! receiving worker process itself.

use crate::accum::Contribution;
use itg_gsa::value::{ColumnData, Value};
use itg_gsa::VertexId;
use itg_store::codec::{Reader, Writer};
use itg_store::snapshot::{get_column, get_value, put_column, put_value};
use itg_store::wal::WalEntry;
use itg_store::IoSnapshot;
use std::io::{Read, Write};

/// Wire magic: the first two payload bytes of every frame.
pub const WIRE_MAGIC: u16 = 0xA17B;
/// Wire format version; bumped on any layout change.
pub const WIRE_VERSION: u8 = 8;
/// Frame destination: the coordinator endpoint.
pub const DST_COORD: u16 = 0xFFFF;
/// Frame destination: the receiving worker process itself (control plane).
pub const DST_CTRL: u16 = 0xFFFE;
/// Upper bound on a single frame's payload, as a corruption guard.
pub const MAX_FRAME_BYTES: u32 = 1 << 30;

/// Decode failures of the byte layer — the store codec's error type, since
/// the wire and the durability formats share one primitive codec.
/// Transport-level IO failures live in [`crate::transport::TransportError`].
pub use itg_store::codec::CodecError as WireError;

type WireResult<T> = Result<T, WireError>;

/// Encoded bytes of the smallest [`Value`]: a tag and a bool.
const MIN_VALUE: usize = 2;
/// Encoded bytes of the smallest [`Contribution`].
const MIN_CONTRIBUTION: usize = MIN_VALUE + 8 + 1 + 4;

fn put_contribution(w: &mut Writer, c: &Contribution) {
    put_value(w, &c.folded);
    w.i64(c.count);
    match &c.monoid {
        None => w.u8(0),
        Some((value, support)) => {
            w.u8(1);
            put_value(w, value);
            w.u64(*support);
        }
    }
    w.u32(c.retractions.len() as u32);
    for v in &c.retractions {
        put_value(w, v);
    }
}

fn get_contribution(r: &mut Reader<'_>) -> WireResult<Contribution> {
    let folded = get_value(r)?;
    let count = r.i64()?;
    let monoid = match r.u8()? {
        0 => None,
        1 => Some((get_value(r)?, r.u64()?)),
        tag => return Err(WireError::BadTag { what: "monoid", tag }),
    };
    let n = r.u32()?;
    let retractions = get_list(r, n.into(), MIN_VALUE, get_value)?;
    Ok(Contribution {
        folded,
        count,
        monoid,
        retractions,
    })
}

/// Decode `n` elements with `get`, each at least `min_bytes` long.
fn get_list<T>(
    r: &mut Reader<'_>,
    n: u64,
    min_bytes: usize,
    mut get: impl FnMut(&mut Reader<'_>) -> WireResult<T>,
) -> WireResult<Vec<T>> {
    let mut out = Vec::with_capacity(r.capacity(n, min_bytes));
    for _ in 0..n {
        out.push(get(r)?);
    }
    Ok(out)
}

fn put_io(w: &mut Writer, io: &IoSnapshot) {
    w.u64(io.disk_read_bytes);
    w.u64(io.disk_write_bytes);
    w.u64(io.page_reads);
    w.u64(io.page_hits);
    w.u64(io.net_bytes);
    w.u64(io.walks_enumerated);
    w.u64(io.recomputations);
}

fn get_io(r: &mut Reader<'_>) -> WireResult<IoSnapshot> {
    Ok(IoSnapshot {
        disk_read_bytes: r.u64()?,
        disk_write_bytes: r.u64()?,
        page_reads: r.u64()?,
        page_hits: r.u64()?,
        net_bytes: r.u64()?,
        walks_enumerated: r.u64()?,
        recomputations: r.u64()?,
        ..IoSnapshot::default()
    })
}

fn put_values(w: &mut Writer, values: &[Value]) {
    w.u32(values.len() as u32);
    for v in values {
        put_value(w, v);
    }
}

fn get_values(r: &mut Reader<'_>) -> WireResult<Vec<Value>> {
    let n = r.u32()?;
    get_list(r, n.into(), MIN_VALUE, get_value)
}

// ---------------------------------------------------------------
// Payload.
// ---------------------------------------------------------------

/// Per-run scalar results shipped back by a worker in
/// [`Payload::RunDone`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunDoneStats {
    pub work_units: u64,
    pub recomputed: u64,
    pub phases: u64,
    pub chunks: u64,
    pub max_worker_units: u64,
    pub min_worker_units: u64,
    pub io: IoSnapshot,
    /// Frames the worker wrote since its previous report (the `Hello`
    /// before the first), this `RunDone` included: its share of
    /// `net/messages`, which the coordinator adds to its own.
    pub frames: u64,
}

/// One rank's contribution to a sync round — what every cross-rank
/// agreement of the superstep needs from it.
#[derive(Debug, Clone, PartialEq)]
pub enum Part {
    /// The global-accumulator partials of the sender's machines, one
    /// `(machine, partials)` pair each, in machine order.
    Partials(Vec<(u32, Vec<Contribution>)>),
    /// The sender's active-vertex count: its convergence vote.
    Active(u64),
    /// The sender's per-accumulator vertex sets needing monoid
    /// recomputation, each ascending.
    Recompute(Vec<Vec<VertexId>>),
}

impl Part {
    /// A short label for error messages.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Part::Partials(_) => "Partials",
            Part::Active(_) => "Active",
            Part::Recompute(_) => "Recompute",
        }
    }
}

/// Encoded bytes of the smallest [`Part`]: a tag and an empty list.
const MIN_PART: usize = 1 + 4;

fn put_part(w: &mut Writer, part: &Part) {
    match part {
        Part::Partials(partials) => {
            w.u8(0);
            w.u32(partials.len() as u32);
            for (machine, globals) in partials {
                w.u32(*machine);
                w.u32(globals.len() as u32);
                for c in globals {
                    put_contribution(w, c);
                }
            }
        }
        Part::Active(n) => {
            w.u8(1);
            w.u64(*n);
        }
        Part::Recompute(sets) => {
            w.u8(2);
            w.u32(sets.len() as u32);
            for set in sets {
                w.u64(set.len() as u64);
                for &v in set {
                    w.u64(v);
                }
            }
        }
    }
}

fn get_part(r: &mut Reader<'_>) -> WireResult<Part> {
    let tag = r.u8()?;
    if tag == 1 {
        return Ok(Part::Active(r.u64()?));
    }
    let n = r.u32()?;
    Ok(match tag {
        0 => Part::Partials(get_list(r, n.into(), 8, |r| {
            let machine = r.u32()?;
            let n = r.u32()?;
            let globals = get_list(r, n.into(), MIN_CONTRIBUTION, get_contribution)?;
            Ok((machine, globals))
        })?),
        2 => Part::Recompute(get_list(r, n.into(), 8, |r| {
            let n = r.u64()?;
            get_list(r, n, 8, |r| r.u64())
        })?),
        tag => return Err(WireError::BadTag { what: "sync part", tag }),
    })
}

/// Everything that crosses a partition boundary, coordinator ↔ worker or
/// worker ↔ worker (relayed through the coordinator's star topology).
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Coordinator → worker: program source, graph image, and config —
    /// `replay` is the block `EngineConfig::encode_replay` writes (the same
    /// one a session snapshot carries). The recorder and transport are
    /// deliberately absent: workers run their own recorder and link.
    Bootstrap {
        rank: u32,
        workers: u32,
        source: String,
        num_vertices: u64,
        undirected: bool,
        edges: Vec<(VertexId, VertexId)>,
        replay: Vec<u8>,
    },
    /// Worker → coordinator: bootstrap complete, session built.
    Hello { rank: u32 },
    /// Coordinator → worker: execute one state-changing command — what a
    /// WAL record logs, in the WAL's own entry codec.
    Command(WalEntry),
    /// Coordinator → worker: exit cleanly.
    Shutdown,
    /// Sender machine's pre-aggregated accumulator contributions for one
    /// destination machine: `vertex[a]` lists `(target, contribution)` in
    /// the sender's deterministic pre-aggregation order.
    Contribs {
        from: u32,
        vertex: Vec<Vec<(VertexId, Contribution)>>,
    },
    /// Worker → coordinator: joined sync round `seq` with `part`; every
    /// data frame of the round has been written before it.
    Sync { from: u32, seq: u64, part: Part },
    /// Coordinator → workers: sync round `seq` is complete — every data
    /// frame of it has been delivered — and here is every rank's part, in
    /// rank order.
    Release { seq: u64, parts: Vec<Part> },
    /// Worker → coordinator at run end: one machine's final attribute
    /// columns.
    AttrImage { machine: u32, cols: Vec<ColumnData> },
    /// Worker → coordinator at run end: the run's globals, one list per
    /// executed round of the run, and scalar results.
    RunDone {
        from: u32,
        globals: Vec<Vec<Value>>,
        stats: RunDoneStats,
    },
}

impl Payload {
    fn tag(&self) -> u8 {
        match self {
            Payload::Bootstrap { .. } => 0,
            Payload::Hello { .. } => 1,
            Payload::Command(_) => 2,
            Payload::Shutdown => 3,
            Payload::Contribs { .. } => 4,
            Payload::Sync { .. } => 5,
            Payload::Release { .. } => 6,
            Payload::AttrImage { .. } => 7,
            Payload::RunDone { .. } => 8,
        }
    }

    /// A short label for tracing and error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Payload::Bootstrap { .. } => "Bootstrap",
            Payload::Hello { .. } => "Hello",
            Payload::Command(_) => "Command",
            Payload::Shutdown => "Shutdown",
            Payload::Contribs { .. } => "Contribs",
            Payload::Sync { .. } => "Sync",
            Payload::Release { .. } => "Release",
            Payload::AttrImage { .. } => "AttrImage",
            Payload::RunDone { .. } => "RunDone",
        }
    }
}

/// Encode a payload: `[magic][version][tag][body]`.
pub fn encode_payload(p: &Payload) -> Vec<u8> {
    let mut w = Writer::new();
    w.u16(WIRE_MAGIC);
    w.u8(WIRE_VERSION);
    w.u8(p.tag());
    match p {
        Payload::Bootstrap {
            rank,
            workers,
            source,
            num_vertices,
            undirected,
            edges,
            replay,
        } => {
            w.u32(*rank);
            w.u32(*workers);
            w.str(source);
            w.u64(*num_vertices);
            w.bool(*undirected);
            w.u64(edges.len() as u64);
            for &(s, d) in edges {
                w.u64(s);
                w.u64(d);
            }
            w.u32(replay.len() as u32);
            w.buf.extend_from_slice(replay);
        }
        Payload::Hello { rank } => w.u32(*rank),
        Payload::Command(entry) => {
            w.u8(entry.tag());
            entry.put_body(&mut w);
        }
        Payload::Shutdown => {}
        Payload::Contribs { from, vertex } => {
            w.u32(*from);
            w.u32(vertex.len() as u32);
            for list in vertex {
                w.u64(list.len() as u64);
                for (v, c) in list {
                    w.u64(*v);
                    put_contribution(&mut w, c);
                }
            }
        }
        Payload::Sync { from, seq, part } => {
            w.u32(*from);
            w.u64(*seq);
            put_part(&mut w, part);
        }
        Payload::Release { seq, parts } => {
            w.u64(*seq);
            w.u32(parts.len() as u32);
            for part in parts {
                put_part(&mut w, part);
            }
        }
        Payload::AttrImage { machine, cols } => {
            w.u32(*machine);
            w.u32(cols.len() as u32);
            for col in cols {
                put_column(&mut w, col);
            }
        }
        Payload::RunDone {
            from,
            globals,
            stats,
        } => {
            w.u32(*from);
            w.u32(globals.len() as u32);
            for values in globals {
                put_values(&mut w, values);
            }
            w.u64(stats.work_units);
            w.u64(stats.recomputed);
            w.u64(stats.phases);
            w.u64(stats.chunks);
            w.u64(stats.max_worker_units);
            w.u64(stats.min_worker_units);
            put_io(&mut w, &stats.io);
            w.u64(stats.frames);
        }
    }
    w.buf
}

/// Decode a payload produced by [`encode_payload`].
pub fn decode_payload(bytes: &[u8]) -> WireResult<Payload> {
    let mut r = Reader::new(bytes);
    let magic = r.u16()?;
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic(magic as u32));
    }
    let ver = r.u8()?;
    if ver != WIRE_VERSION {
        return Err(WireError::BadVersion(ver));
    }
    let tag = r.u8()?;
    let payload = match tag {
        0 => {
            let rank = r.u32()?;
            let workers = r.u32()?;
            let source = r.str()?;
            let num_vertices = r.u64()?;
            let undirected = r.bool()?;
            let n = r.u64()?;
            let edges = get_list(&mut r, n, 16, |r| Ok((r.u64()?, r.u64()?)))?;
            let replay_len = r.u32()? as usize;
            Payload::Bootstrap {
                rank,
                workers,
                source,
                num_vertices,
                undirected,
                edges,
                replay: r.bytes(replay_len)?.to_vec(),
            }
        }
        1 => Payload::Hello { rank: r.u32()? },
        2 => {
            let tag = r.u8()?;
            Payload::Command(WalEntry::read(tag, &mut r)?)
        }
        3 => Payload::Shutdown,
        4 => {
            let from = r.u32()?;
            let n = r.u32()?;
            let vertex = get_list(&mut r, n.into(), 8, |r| {
                let n = r.u64()?;
                get_list(r, n, 8 + MIN_CONTRIBUTION, |r| {
                    Ok((r.u64()?, get_contribution(r)?))
                })
            })?;
            Payload::Contribs { from, vertex }
        }
        5 => Payload::Sync {
            from: r.u32()?,
            seq: r.u64()?,
            part: get_part(&mut r)?,
        },
        6 => {
            let seq = r.u64()?;
            let n = r.u32()?;
            let parts = get_list(&mut r, n.into(), MIN_PART, get_part)?;
            Payload::Release { seq, parts }
        }
        7 => {
            let machine = r.u32()?;
            let n = r.u32()?;
            let cols = get_list(&mut r, n.into(), 9, get_column)?;
            Payload::AttrImage { machine, cols }
        }
        8 => {
            let from = r.u32()?;
            let n = r.u32()?;
            let globals = get_list(&mut r, n.into(), 4, get_values)?;
            let stats = RunDoneStats {
                work_units: r.u64()?,
                recomputed: r.u64()?,
                phases: r.u64()?,
                chunks: r.u64()?,
                max_worker_units: r.u64()?,
                min_worker_units: r.u64()?,
                io: get_io(&mut r)?,
                frames: r.u64()?,
            };
            Payload::RunDone {
                from,
                globals,
                stats,
            }
        }
        tag => return Err(WireError::BadTag { what: "payload", tag }),
    };
    r.finish()?;
    Ok(payload)
}

// ---------------------------------------------------------------
// Frame IO.
// ---------------------------------------------------------------

/// Write one frame: `[len: u32][dst: u16][payload]`.
pub fn write_frame(out: &mut impl Write, dst: u16, payload: &Payload) -> std::io::Result<()> {
    write_frame_bytes(out, dst, &encode_payload(payload))
}

/// Write one pre-encoded frame (the coordinator's relay path: no decode,
/// no re-encode).
pub fn write_frame_bytes(out: &mut impl Write, dst: u16, payload: &[u8]) -> std::io::Result<()> {
    let len = (payload.len() + 2) as u32;
    out.write_all(&len.to_le_bytes())?;
    out.write_all(&dst.to_le_bytes())?;
    out.write_all(payload)?;
    out.flush()
}

// ---------------------------------------------------------------
// Connection handshake.
// ---------------------------------------------------------------

/// Handshake magic — deliberately distinct from [`WIRE_MAGIC`] so a frame
/// from the wrong protocol phase (or a stray client dialing the listen
/// port) is rejected as `BadMagic` instead of mis-parsing as a payload.
pub const HANDSHAKE_MAGIC: u16 = 0xA17D;

/// The rank a dialing worker claims when it does not know its rank yet
/// (endpoint-mode workers, which learn their rank from the coordinator's
/// [`Handshake::Accept`]).
pub const RANK_ANY: u32 = u32::MAX;

/// The fingerprint a worker advertises before it has been bootstrapped
/// (it has no cluster identity to claim yet; the coordinator assigns one
/// in the accept frame).
pub const FINGERPRINT_ANY: u64 = 0;

/// The first exchange on every connection, before any [`Payload`]
/// flows: the worker sends `Hello`, the coordinator answers `Accept` (rank
/// assignment + the cluster fingerprint) or `Reject` (loud, with a
/// reason). Layout: `[magic: u16 = 0xA17D][version: u8][kind: u8][body]`,
/// little-endian, carried inside the standard `[len][dst]` frame envelope
/// with `dst = DST_CTRL`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Handshake {
    /// Worker → coordinator: claim a rank ([`RANK_ANY`] to have one
    /// assigned) and a cluster fingerprint ([`FINGERPRINT_ANY`] before
    /// bootstrap).
    Hello { rank: u32, fingerprint: u64 },
    /// Coordinator → worker: admission, with the (possibly assigned) rank
    /// and the cluster fingerprint the worker should claim on reconnect.
    Accept { rank: u32, fingerprint: u64 },
    /// Coordinator → worker: refusal; the worker must exit loudly.
    Reject { reason: String },
}

impl Handshake {
    fn kind_tag(&self) -> u8 {
        match self {
            Handshake::Hello { .. } => 0,
            Handshake::Accept { .. } => 1,
            Handshake::Reject { .. } => 2,
        }
    }
}

/// Encode a handshake at the build's own [`WIRE_VERSION`].
pub fn encode_handshake(h: &Handshake) -> Vec<u8> {
    encode_handshake_versioned(h, WIRE_VERSION)
}

/// Encode a handshake claiming an explicit wire version. Exists so tests
/// can impersonate a worker built from a different tree; production paths
/// use [`encode_handshake`].
pub fn encode_handshake_versioned(h: &Handshake, version: u8) -> Vec<u8> {
    let mut w = Writer::new();
    w.u16(HANDSHAKE_MAGIC);
    w.u8(version);
    w.u8(h.kind_tag());
    match h {
        Handshake::Hello { rank, fingerprint } | Handshake::Accept { rank, fingerprint } => {
            w.u32(*rank);
            w.u64(*fingerprint);
        }
        Handshake::Reject { reason } => w.str(reason),
    }
    w.buf
}

/// Decode a handshake produced by [`encode_handshake`]; wrong magic, a
/// version from another build, truncation, and trailing bytes are all
/// distinct loud errors.
pub fn decode_handshake(bytes: &[u8]) -> WireResult<Handshake> {
    let mut r = Reader::new(bytes);
    let magic = r.u16()?;
    if magic != HANDSHAKE_MAGIC {
        return Err(WireError::BadMagic(magic as u32));
    }
    let ver = r.u8()?;
    if ver != WIRE_VERSION {
        return Err(WireError::BadVersion(ver));
    }
    let h = match r.u8()? {
        0 => Handshake::Hello {
            rank: r.u32()?,
            fingerprint: r.u64()?,
        },
        1 => Handshake::Accept {
            rank: r.u32()?,
            fingerprint: r.u64()?,
        },
        2 => Handshake::Reject { reason: r.str()? },
        tag => return Err(WireError::BadTag { what: "handshake", tag }),
    };
    r.finish()?;
    Ok(h)
}

/// The cluster fingerprint a coordinator computes at fleet construction
/// and validates on every reconnecting socket: FNV-1a over the cluster
/// identity (topology, wire version, program source, graph identity). A
/// worker restarted against a different coordinator, program, or build is
/// rejected at handshake instead of corrupting the run.
pub fn cluster_fingerprint(
    machines: usize,
    workers: usize,
    source: &str,
    num_vertices: u64,
    undirected: bool,
) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(&(machines as u64).to_le_bytes());
    eat(&(workers as u64).to_le_bytes());
    eat(&[WIRE_VERSION]);
    eat(source.as_bytes());
    eat(&num_vertices.to_le_bytes());
    eat(&[undirected as u8]);
    // Reserve 0 as the "unknown" sentinel a pre-bootstrap worker sends.
    if h == FINGERPRINT_ANY {
        h = 1;
    }
    h
}

/// Read one frame; `Ok(None)` on clean EOF at a frame boundary — that is,
/// before the first byte of a length header. A stream cut anywhere inside a
/// frame, header included, is an `UnexpectedEof` error.
pub fn read_frame(input: &mut impl Read) -> std::io::Result<Option<(u16, Vec<u8>)>> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < len_buf.len() {
        match input.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if !(2..=MAX_FRAME_BYTES).contains(&len) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("bad frame length {len}"),
        ));
    }
    let mut dst_buf = [0u8; 2];
    input.read_exact(&mut dst_buf)?;
    let mut body = vec![0u8; len as usize - 2];
    input.read_exact(&mut body)?;
    Ok(Some((u16::from_le_bytes(dst_buf), body)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::{Group, Maintain, Monoid};
    use itg_store::{EdgeMutation, MutationBatch};

    fn roundtrip(p: &Payload) {
        let bytes = encode_payload(p);
        let back = decode_payload(&bytes).expect("decodes");
        assert_eq!(&back, p);
        // Re-encoding is byte-identical (the canonical-form property the
        // proptest suite checks at scale).
        assert_eq!(encode_payload(&back), bytes);
    }

    #[test]
    fn control_payloads_roundtrip() {
        roundtrip(&Payload::Command(WalEntry::OneshotRun));
        roundtrip(&Payload::Command(WalEntry::IncrementalRun));
        roundtrip(&Payload::Command(WalEntry::Compact));
        roundtrip(&Payload::Shutdown);
        roundtrip(&Payload::Hello { rank: 3 });
        roundtrip(&Payload::Release {
            seq: u64::MAX,
            parts: Vec::new(),
        });
        roundtrip(&Payload::Sync {
            from: 7,
            seq: 0,
            part: Part::Active(u64::MAX),
        });
        roundtrip(&Payload::Release {
            seq: 9,
            parts: vec![
                Part::Recompute(vec![vec![1, 4], vec![]]),
                Part::Partials(vec![(0, Vec::new()), (1, Vec::new())]),
            ],
        });
    }

    #[test]
    fn contribs_roundtrip_with_monoid_and_retractions() {
        let min = Monoid::<i64, false>::default();
        let mut c = min.identity();
        min.add(&mut c, 5, 1);
        min.add(&mut c, 9, -1);
        let sum = Group::<f64, false>::default();
        let mut s = sum.identity();
        sum.add(&mut s, -0.0, 1);
        roundtrip(&Payload::Contribs {
            from: 2,
            vertex: vec![vec![(17, min.wire(c))], vec![], vec![(u64::MAX, sum.wire(s))]],
        });
    }

    #[test]
    fn float_encoding_is_bitwise() {
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        let p = Payload::RunDone {
            from: 0,
            globals: vec![vec![
                Value::Double(nan),
                Value::Double(-0.0),
                Value::Float(f32::NAN),
            ]],
            stats: RunDoneStats {
                work_units: 0,
                recomputed: 0,
                phases: 0,
                chunks: 0,
                max_worker_units: 0,
                min_worker_units: 0,
                io: IoSnapshot::default(),
                frames: 0,
            },
        };
        let bytes = encode_payload(&p);
        let back = decode_payload(&bytes).unwrap();
        let Payload::RunDone { globals, .. } = back else {
            panic!("wrong variant");
        };
        let Value::Double(d) = globals[0][0] else { panic!() };
        assert_eq!(d.to_bits(), nan.to_bits());
        let Value::Double(z) = globals[0][1] else { panic!() };
        assert_eq!(z.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn bootstrap_roundtrip() {
        roundtrip(&Payload::Bootstrap {
            rank: 1,
            workers: 4,
            source: "Vertex (id, active, nbrs)\nInitialize (u): { }".into(),
            num_vertices: 1 << 20,
            undirected: true,
            edges: vec![(0, 1), (1, 2), (u64::MAX - 1, 3)],
            replay: vec![7; 55],
        });
    }

    #[test]
    fn mutations_and_images_roundtrip() {
        roundtrip(&Payload::Command(WalEntry::Batch(MutationBatch::new(vec![
            EdgeMutation::insert(0, 9),
            EdgeMutation::delete(4, 2),
        ]))));
        roundtrip(&Payload::AttrImage {
            machine: 3,
            cols: vec![
                ColumnData::Bool(vec![true, false]),
                ColumnData::Double(vec![0.5, -0.0]),
                ColumnData::Array(vec![vec![Value::Float(1.5)], vec![]]),
            ],
        });
    }

    #[test]
    fn frames_roundtrip_over_a_stream() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, 3, &Payload::Hello { rank: 0 }).unwrap();
        let release = Payload::Release {
            seq: 5,
            parts: vec![Part::Active(3)],
        };
        write_frame(&mut buf, DST_COORD, &release).unwrap();
        let mut cur = &buf[..];
        let (d1, b1) = read_frame(&mut cur).unwrap().unwrap();
        assert_eq!(d1, 3);
        assert_eq!(decode_payload(&b1).unwrap(), Payload::Hello { rank: 0 });
        let (d2, b2) = read_frame(&mut cur).unwrap().unwrap();
        assert_eq!(d2, DST_COORD);
        assert_eq!(decode_payload(&b2).unwrap(), release);
        assert!(read_frame(&mut cur).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn corruption_is_detected() {
        let bytes = encode_payload(&Payload::Shutdown);
        assert_eq!(
            decode_payload(&bytes[..bytes.len() - 1]).unwrap_err(),
            WireError::Truncated
        );
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            decode_payload(&bad_magic).unwrap_err(),
            WireError::BadMagic(_)
        ));
        let mut bad_ver = bytes.clone();
        bad_ver[2] = 99;
        assert_eq!(decode_payload(&bad_ver).unwrap_err(), WireError::BadVersion(99));
        let mut trailing = bytes;
        trailing.push(0);
        assert_eq!(decode_payload(&trailing).unwrap_err(), WireError::Trailing(1));
    }
}
