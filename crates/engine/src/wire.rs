//! Versioned binary wire format for the transport layer (ROADMAP item 1).
//!
//! Every byte that crosses a partition boundary in the distributed engine
//! is a [`Payload`] encoded by this module: pre-aggregated accumulator
//! contributions, global-accumulator partials, active-set frontiers
//! (convergence votes and explicit recompute vertex sets), and
//! mutation-batch shipments — exactly the traffic the simulated cluster
//! already charges as `net_bytes` (see DESIGN.md §"Distribution" for the
//! byte-layout table).
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
//! [len: u32]  [dst: u16]  [magic: u16 = 0xA17B]  [ver: u8 = 5]  [tag: u8]  [body…]
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
use itg_store::{IoSnapshot, MutationBatch};
use std::io::{Read, Write};

/// Wire magic: the first two payload bytes of every frame.
pub const WIRE_MAGIC: u16 = 0xA17B;
/// Wire format version; bumped on any layout change.
pub const WIRE_VERSION: u8 = 5;
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
    let n = r.u32()? as usize;
    let mut retractions = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        retractions.push(get_value(r)?);
    }
    Ok(Contribution {
        folded,
        count,
        monoid,
        retractions,
    })
}

fn put_io(w: &mut Writer, io: &IoSnapshot) {
    w.u64(io.disk_read_bytes);
    w.u64(io.disk_write_bytes);
    w.u64(io.page_reads);
    w.u64(io.page_hits);
    w.u64(io.net_bytes);
    w.u64(io.walks_enumerated);
    w.u64(io.recomputations);
    w.u64(io.cache_hits);
    w.u64(io.cache_misses);
    w.u64(io.cache_evictions);
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
        cache_hits: r.u64()?,
        cache_misses: r.u64()?,
        cache_evictions: r.u64()?,
    })
}

fn put_vertex_list(w: &mut Writer, vs: &[VertexId]) {
    w.u64(vs.len() as u64);
    for &v in vs {
        w.u64(v);
    }
}

fn get_vertex_list(r: &mut Reader<'_>) -> WireResult<Vec<VertexId>> {
    let n = r.u64()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        out.push(r.u64()?);
    }
    Ok(out)
}

// ---------------------------------------------------------------
// Payload.
// ---------------------------------------------------------------

/// Per-run scalar results shipped back by a worker in
/// [`Payload::RunDone`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunDoneStats {
    pub supersteps: u64,
    pub work_units: u64,
    pub recomputed: u64,
    pub phases: u64,
    pub chunks: u64,
    pub max_worker_units: u64,
    pub min_worker_units: u64,
    pub io: IoSnapshot,
}

/// Everything that crosses a partition boundary, coordinator ↔ worker or
/// worker ↔ worker (relayed through the coordinator's star topology).
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Coordinator → worker: program source, graph image, and config —
    /// `replay` is the block `EngineConfig::encode_replay` writes (the same
    /// one a session snapshot carries), `cache_bytes` the one shipped field
    /// outside it. The recorder and transport are deliberately absent:
    /// workers run their own recorder and link.
    Bootstrap {
        rank: u32,
        workers: u32,
        source: String,
        num_vertices: u64,
        undirected: bool,
        edges: Vec<(VertexId, VertexId)>,
        replay: Vec<u8>,
        cache_bytes: u64,
    },
    /// Worker → coordinator: bootstrap complete, session built.
    Hello { rank: u32 },
    /// Coordinator → worker run commands.
    RunOneshot,
    RunIncremental,
    /// Coordinator → worker: apply this mutation batch to the local graph.
    Mutations(MutationBatch),
    /// Coordinator → worker: compact edge-store segment chains.
    Compact,
    /// Coordinator → worker: exit cleanly.
    Shutdown,
    /// Sender machine's pre-aggregated accumulator contributions for one
    /// destination machine: `vertex[a]` lists `(target, contribution)` in
    /// the sender's deterministic pre-aggregation order.
    Contribs {
        from: u32,
        vertex: Vec<Vec<(VertexId, Contribution)>>,
    },
    /// Sender machine's global-accumulator partials, reduced at the
    /// coordinator in machine order.
    GlobalsPartial { from: u32, globals: Vec<Contribution> },
    /// Worker → coordinator: active-set cardinality — the convergence vote.
    Frontier {
        from: u32,
        superstep: u64,
        active: u64,
    },
    /// Coordinator → workers: the reduced active total; every worker
    /// evaluates the identical break condition on it.
    FrontierTotal { superstep: u64, active: u64 },
    /// Worker → coordinator: per-accumulator vertex sets needing monoid
    /// recomputation, in first-trigger order (the order is part of the
    /// protocol — it seeds hash-set construction on every peer).
    RecomputeSets {
        from: u32,
        sets: Vec<Vec<VertexId>>,
    },
    /// Coordinator → workers: the rank-ordered concatenation of all
    /// workers' recompute sets.
    RecomputeUnion { sets: Vec<Vec<VertexId>> },
    /// Coordinator → workers (incremental): whether monoid/retraction
    /// damage forces a full global-accumulator recompute round.
    GlobalsDecision { recompute: bool },
    /// Coordinator → workers: the superstep's final global values.
    GlobalsFinal { values: Vec<Value>, changed: bool },
    /// Worker → coordinator at run end: one machine's final attribute
    /// columns.
    AttrImage { machine: u32, cols: Vec<ColumnData> },
    /// Worker → coordinator at run end: scalar run results.
    RunDone { from: u32, stats: RunDoneStats },
    /// Worker → coordinator: entered barrier `seq`; all data frames for
    /// this round have been written.
    BarrierAck { from: u32, seq: u64 },
    /// Coordinator → workers: barrier `seq` released; all data frames for
    /// this round have been delivered.
    Barrier { seq: u64 },
}

impl Payload {
    fn tag(&self) -> u8 {
        match self {
            Payload::Bootstrap { .. } => 0,
            Payload::Hello { .. } => 1,
            Payload::RunOneshot => 2,
            Payload::RunIncremental => 3,
            Payload::Mutations(_) => 4,
            Payload::Compact => 5,
            Payload::Shutdown => 6,
            Payload::Contribs { .. } => 7,
            Payload::GlobalsPartial { .. } => 8,
            Payload::Frontier { .. } => 9,
            Payload::FrontierTotal { .. } => 10,
            Payload::RecomputeSets { .. } => 11,
            Payload::RecomputeUnion { .. } => 12,
            Payload::GlobalsDecision { .. } => 13,
            Payload::GlobalsFinal { .. } => 14,
            Payload::AttrImage { .. } => 15,
            Payload::RunDone { .. } => 16,
            Payload::BarrierAck { .. } => 17,
            Payload::Barrier { .. } => 18,
        }
    }

    /// A short label for tracing and error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Payload::Bootstrap { .. } => "Bootstrap",
            Payload::Hello { .. } => "Hello",
            Payload::RunOneshot => "RunOneshot",
            Payload::RunIncremental => "RunIncremental",
            Payload::Mutations(_) => "Mutations",
            Payload::Compact => "Compact",
            Payload::Shutdown => "Shutdown",
            Payload::Contribs { .. } => "Contribs",
            Payload::GlobalsPartial { .. } => "GlobalsPartial",
            Payload::Frontier { .. } => "Frontier",
            Payload::FrontierTotal { .. } => "FrontierTotal",
            Payload::RecomputeSets { .. } => "RecomputeSets",
            Payload::RecomputeUnion { .. } => "RecomputeUnion",
            Payload::GlobalsDecision { .. } => "GlobalsDecision",
            Payload::GlobalsFinal { .. } => "GlobalsFinal",
            Payload::AttrImage { .. } => "AttrImage",
            Payload::RunDone { .. } => "RunDone",
            Payload::BarrierAck { .. } => "BarrierAck",
            Payload::Barrier { .. } => "Barrier",
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
            cache_bytes,
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
            w.u64(*cache_bytes);
        }
        Payload::Hello { rank } => w.u32(*rank),
        Payload::RunOneshot
        | Payload::RunIncremental
        | Payload::Compact
        | Payload::Shutdown => {}
        Payload::Mutations(batch) => {
            w.u64(batch.len() as u64);
            for e in batch.edges() {
                w.u64(e.src);
                w.u64(e.dst);
                w.i8(e.mult);
            }
        }
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
        Payload::GlobalsPartial { from, globals } => {
            w.u32(*from);
            w.u32(globals.len() as u32);
            for c in globals {
                put_contribution(&mut w, c);
            }
        }
        Payload::Frontier {
            from,
            superstep,
            active,
        } => {
            w.u32(*from);
            w.u64(*superstep);
            w.u64(*active);
        }
        Payload::FrontierTotal { superstep, active } => {
            w.u64(*superstep);
            w.u64(*active);
        }
        Payload::RecomputeSets { from, sets } => {
            w.u32(*from);
            w.u32(sets.len() as u32);
            for set in sets {
                put_vertex_list(&mut w, set);
            }
        }
        Payload::RecomputeUnion { sets } => {
            w.u32(sets.len() as u32);
            for set in sets {
                put_vertex_list(&mut w, set);
            }
        }
        Payload::GlobalsDecision { recompute } => w.bool(*recompute),
        Payload::GlobalsFinal { values, changed } => {
            w.u32(values.len() as u32);
            for v in values {
                put_value(&mut w, v);
            }
            w.bool(*changed);
        }
        Payload::AttrImage { machine, cols } => {
            w.u32(*machine);
            w.u32(cols.len() as u32);
            for col in cols {
                put_column(&mut w, col);
            }
        }
        Payload::RunDone { from, stats } => {
            w.u32(*from);
            w.u64(stats.supersteps);
            w.u64(stats.work_units);
            w.u64(stats.recomputed);
            w.u64(stats.phases);
            w.u64(stats.chunks);
            w.u64(stats.max_worker_units);
            w.u64(stats.min_worker_units);
            put_io(&mut w, &stats.io);
        }
        Payload::BarrierAck { from, seq } => {
            w.u32(*from);
            w.u64(*seq);
        }
        Payload::Barrier { seq } => w.u64(*seq),
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
            let n = r.u64()? as usize;
            let mut edges = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                edges.push((r.u64()?, r.u64()?));
            }
            let replay_len = r.u32()? as usize;
            Payload::Bootstrap {
                rank,
                workers,
                source,
                num_vertices,
                undirected,
                edges,
                replay: r.bytes(replay_len)?.to_vec(),
                cache_bytes: r.u64()?,
            }
        }
        1 => Payload::Hello { rank: r.u32()? },
        2 => Payload::RunOneshot,
        3 => Payload::RunIncremental,
        4 => {
            let n = r.u64()? as usize;
            let mut edges = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                edges.push(itg_store::EdgeMutation {
                    src: r.u64()?,
                    dst: r.u64()?,
                    mult: r.i8()?,
                });
            }
            Payload::Mutations(MutationBatch::new(edges))
        }
        5 => Payload::Compact,
        6 => Payload::Shutdown,
        7 => {
            let from = r.u32()?;
            let n_accms = r.u32()? as usize;
            let mut vertex = Vec::with_capacity(n_accms.min(1 << 10));
            for _ in 0..n_accms {
                let n = r.u64()? as usize;
                let mut list = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    let v = r.u64()?;
                    list.push((v, get_contribution(&mut r)?));
                }
                vertex.push(list);
            }
            Payload::Contribs { from, vertex }
        }
        8 => {
            let from = r.u32()?;
            let n = r.u32()? as usize;
            let mut globals = Vec::with_capacity(n.min(1 << 10));
            for _ in 0..n {
                globals.push(get_contribution(&mut r)?);
            }
            Payload::GlobalsPartial { from, globals }
        }
        9 => Payload::Frontier {
            from: r.u32()?,
            superstep: r.u64()?,
            active: r.u64()?,
        },
        10 => Payload::FrontierTotal {
            superstep: r.u64()?,
            active: r.u64()?,
        },
        11 => {
            let from = r.u32()?;
            let n = r.u32()? as usize;
            let mut sets = Vec::with_capacity(n.min(1 << 10));
            for _ in 0..n {
                sets.push(get_vertex_list(&mut r)?);
            }
            Payload::RecomputeSets { from, sets }
        }
        12 => {
            let n = r.u32()? as usize;
            let mut sets = Vec::with_capacity(n.min(1 << 10));
            for _ in 0..n {
                sets.push(get_vertex_list(&mut r)?);
            }
            Payload::RecomputeUnion { sets }
        }
        13 => Payload::GlobalsDecision {
            recompute: r.bool()?,
        },
        14 => {
            let n = r.u32()? as usize;
            let mut values = Vec::with_capacity(n.min(1 << 10));
            for _ in 0..n {
                values.push(get_value(&mut r)?);
            }
            Payload::GlobalsFinal {
                values,
                changed: r.bool()?,
            }
        }
        15 => {
            let machine = r.u32()?;
            let n = r.u32()? as usize;
            let mut cols = Vec::with_capacity(n.min(1 << 10));
            for _ in 0..n {
                cols.push(get_column(&mut r)?);
            }
            Payload::AttrImage { machine, cols }
        }
        16 => Payload::RunDone {
            from: r.u32()?,
            stats: RunDoneStats {
                supersteps: r.u64()?,
                work_units: r.u64()?,
                recomputed: r.u64()?,
                phases: r.u64()?,
                chunks: r.u64()?,
                max_worker_units: r.u64()?,
                min_worker_units: r.u64()?,
                io: get_io(&mut r)?,
            },
        },
        17 => Payload::BarrierAck {
            from: r.u32()?,
            seq: r.u64()?,
        },
        18 => Payload::Barrier { seq: r.u64()? },
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
    use crate::accum::{Generic, Maintain};
    use itg_gsa::accm::AccmOp;
    use itg_gsa::value::PrimType;
    use itg_store::EdgeMutation;

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
        roundtrip(&Payload::RunOneshot);
        roundtrip(&Payload::RunIncremental);
        roundtrip(&Payload::Compact);
        roundtrip(&Payload::Shutdown);
        roundtrip(&Payload::Hello { rank: 3 });
        roundtrip(&Payload::Barrier { seq: u64::MAX });
        roundtrip(&Payload::BarrierAck { from: 7, seq: 0 });
        roundtrip(&Payload::GlobalsDecision { recompute: true });
        roundtrip(&Payload::FrontierTotal {
            superstep: 9,
            active: u64::MAX,
        });
    }

    #[test]
    fn contribs_roundtrip_with_monoid_and_retractions() {
        let generic = |op, prim| Generic {
            op,
            prim,
            cnt: true,
        };
        let min = generic(AccmOp::Min, PrimType::Long);
        let mut c = min.identity();
        min.add(&mut c, &Value::Long(5), 1);
        min.add(&mut c, &Value::Long(9), -1);
        let sum = generic(AccmOp::Sum, PrimType::Double);
        let mut s = sum.identity();
        sum.add(&mut s, &Value::Double(-0.0), 1);
        roundtrip(&Payload::Contribs {
            from: 2,
            vertex: vec![vec![(17, c)], vec![], vec![(u64::MAX, s)]],
        });
    }

    #[test]
    fn float_encoding_is_bitwise() {
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        let p = Payload::GlobalsFinal {
            values: vec![Value::Double(nan), Value::Double(-0.0), Value::Float(f32::NAN)],
            changed: false,
        };
        let bytes = encode_payload(&p);
        let back = decode_payload(&bytes).unwrap();
        let Payload::GlobalsFinal { values, .. } = back else {
            panic!("wrong variant");
        };
        let Value::Double(d) = values[0] else { panic!() };
        assert_eq!(d.to_bits(), nan.to_bits());
        let Value::Double(z) = values[1] else { panic!() };
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
            cache_bytes: 1 << 16,
        });
    }

    #[test]
    fn mutations_and_images_roundtrip() {
        roundtrip(&Payload::Mutations(MutationBatch::new(vec![
            EdgeMutation::insert(0, 9),
            EdgeMutation::delete(4, 2),
        ])));
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
        write_frame(&mut buf, DST_COORD, &Payload::Barrier { seq: 5 }).unwrap();
        let mut cur = &buf[..];
        let (d1, b1) = read_frame(&mut cur).unwrap().unwrap();
        assert_eq!(d1, 3);
        assert_eq!(decode_payload(&b1).unwrap(), Payload::Hello { rank: 0 });
        let (d2, b2) = read_frame(&mut cur).unwrap().unwrap();
        assert_eq!(d2, DST_COORD);
        assert_eq!(decode_payload(&b2).unwrap(), Payload::Barrier { seq: 5 });
        assert!(read_frame(&mut cur).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn corruption_is_detected() {
        let bytes = encode_payload(&Payload::RunOneshot);
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
