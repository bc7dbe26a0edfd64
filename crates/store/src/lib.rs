//! # itg-store — the dynamic graph store (paper §5.5)
//!
//! A delta-based store for dynamic graphs under analytics workloads:
//!
//! - [`edge_store`]: the base graph `G_0` and every mutation batch `ΔG_t`
//!   as separate CSR-like segments (insertions and deletions in separate
//!   files), lazy deletion masking, time-travel `Old`/`New` views, and
//!   reverse adjacency for backward MS-BFS.
//! - [`vertex_store`]: per-(snapshot, superstep) after-image delta chains
//!   for vertex attribute values, with the overlay invariant the engine's
//!   read path relies on.
//! - [`maintenance`]: the cost-based merge strategy (and the NoMerge /
//!   PeriodicMerge baselines of Figure 17).
//! - [`pager`]: the LRU page buffer pool; all reads are byte-accounted.
//! - [`stats`]: shared IO / network / work counters.
//! - [`mutation`]: `ΔG` batch representation.
//!
//! Durability (write-ahead logging + snapshot recovery) lives in:
//!
//! - [`codec`]: the little-endian byte codec shared by WAL records and
//!   snapshot payloads, plus the CRC-32 used to detect torn/corrupt frames.
//! - [`wal`]: the segmented write-ahead log of engine commands, one
//!   serialized, fsynced append each (`wal-<start_lsn>.log` segments,
//!   rotation + GC).
//! - [`snapshot`]: the checksummed snapshot file container and value codecs.
//!   Its atomic rename is the checkpoint commit point.
//! - [`delta`]: the rsync-style binary diff backing incremental (delta-only)
//!   snapshots.
//! - [`manifest`]: the snapshot inventory, read from file names
//!   (`snapshot-<epoch>-<wal_start>[.delta].bin`) the way WAL segments are
//!   found — a durability directory holds only segments and snapshots.
//! - [`fsutil`]: the durable-write seam ([`DurableFs`], [`StdFs`]) every
//!   WAL and snapshot write goes through, and the file-name number parser.

pub mod codec;
pub mod delta;
pub mod edge_store;
pub mod fsutil;
pub mod maintenance;
pub mod manifest;
pub mod mutation;
pub mod pager;
pub mod snapshot;
pub mod stats;
pub mod vertex_store;
pub mod wal;

pub use codec::{crc32, CodecError, CodecResult, Reader, Writer};
pub use fsutil::{DurableFs, StdFs};
pub use edge_store::{
    BatchReceipt, CsrSegment, DeltaSegment, EdgeStore, EdgeStoreDir, SortedRun, SparseSegment,
    View,
};
pub use maintenance::{ChainSummary, MaintenancePolicy};
pub use manifest::{snapshot_file_name, Manifest, SnapshotEntry, SnapshotKind};
pub use mutation::{EdgeMutation, MutationBatch};
pub use pager::{BufferPool, PageId, DEFAULT_PAGE_SIZE};
pub use snapshot::SnapshotError;
pub use stats::{IoSnapshot, IoStats};
pub use vertex_store::{AttrStore, Run};
pub use wal::{
    scan_dir, segment_file_name, SegmentInfo, Wal, WalEntry, WalError, WalOptions,
    WalRecord, WalScan, WalStats,
};
