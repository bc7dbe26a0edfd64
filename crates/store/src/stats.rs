//! Byte-accurate IO and memory accounting.
//!
//! Every disk read/write in the store and every simulated network transfer
//! in the engine increments these counters. The paper's evaluation reports
//! reductions in disk IO bytes and network transfer sizes (§6.2); these
//! counters regenerate those metrics exactly.
//!
//! When built with an enabled [`itg_obs::Recorder`] (see
//! [`IoStats::with_obs`]), each byte-accounted event additionally feeds a
//! size histogram, and the attribute-store operations record latency spans
//! — the per-distribution view behind the aggregate counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cached observability handles resolved once per `IoStats`; disabled
/// handles (the default) are single-branch no-ops on the hot path.
#[derive(Debug, Default, Clone)]
pub(crate) struct StoreObs {
    pub(crate) disk_read_bytes: itg_obs::HistHandle,
    pub(crate) disk_write_bytes: itg_obs::HistHandle,
    pub(crate) net_bytes: itg_obs::HistHandle,
    /// Aggregate counter mirror of the `net_bytes` histogram, under the
    /// transport layer's `net/` family: `profile.counter_total("net/bytes")`
    /// equals the simulated-network byte counter of a session that keeps
    /// every partition in-process (the Local plane).
    pub(crate) net_bytes_total: itg_obs::CounterHandle,
    pub(crate) attr_load_ns: itg_obs::HistHandle,
    pub(crate) attr_load: itg_obs::SpanHandle,
    pub(crate) attr_record: itg_obs::SpanHandle,
    pub(crate) merge: itg_obs::SpanHandle,
}

impl StoreObs {
    fn new(rec: &itg_obs::Recorder) -> StoreObs {
        StoreObs {
            disk_read_bytes: rec.hist("store/disk_read_bytes"),
            disk_write_bytes: rec.hist("store/disk_write_bytes"),
            net_bytes: rec.hist("store/net_bytes"),
            net_bytes_total: rec.counter("net/bytes"),
            attr_load_ns: rec.hist("store/attr_load_ns"),
            attr_load: rec.span("store/attr_load"),
            attr_record: rec.span("store/attr_record"),
            merge: rec.span("store/merge"),
        }
    }
}

/// Shared counters. Cheap to clone (an `Arc` internally).
#[derive(Debug, Default, Clone)]
pub struct IoStats {
    inner: Arc<Counters>,
    pub(crate) obs: StoreObs,
}

#[derive(Debug, Default)]
struct Counters {
    disk_read_bytes: AtomicU64,
    disk_write_bytes: AtomicU64,
    page_reads: AtomicU64,
    page_hits: AtomicU64,
    net_bytes: AtomicU64,
    walks_enumerated: AtomicU64,
    recomputations: AtomicU64,
}

/// A point-in-time snapshot of the counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    pub disk_read_bytes: u64,
    pub disk_write_bytes: u64,
    pub page_reads: u64,
    pub page_hits: u64,
    pub net_bytes: u64,
    pub walks_enumerated: u64,
    pub recomputations: u64,
    /// Always zero, as are `cache_misses` and `cache_evictions`: the vertex
    /// store has no window cache. Kept for callers that name the fields;
    /// ROADMAP item 1 (f) removes all three.
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
}

impl IoSnapshot {
    /// Counter-wise difference `self - earlier` (for per-phase accounting).
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            disk_read_bytes: self.disk_read_bytes - earlier.disk_read_bytes,
            disk_write_bytes: self.disk_write_bytes - earlier.disk_write_bytes,
            page_reads: self.page_reads - earlier.page_reads,
            page_hits: self.page_hits - earlier.page_hits,
            net_bytes: self.net_bytes - earlier.net_bytes,
            walks_enumerated: self.walks_enumerated - earlier.walks_enumerated,
            recomputations: self.recomputations - earlier.recomputations,
            ..IoSnapshot::default()
        }
    }

    pub fn total_disk_bytes(&self) -> u64 {
        self.disk_read_bytes + self.disk_write_bytes
    }
}

impl IoStats {
    /// Counters with disabled observability handles (histograms and spans
    /// are no-ops). Use [`IoStats::with_obs`] to attach a recorder.
    pub fn new() -> IoStats {
        IoStats::default()
    }

    /// Counters whose byte-accounted events additionally feed `rec`'s
    /// `store/*` histograms and spans. The handles are resolved here, once;
    /// a disabled `rec` yields the same no-op handles as [`IoStats::new`].
    pub fn with_obs(rec: &itg_obs::Recorder) -> IoStats {
        IoStats {
            inner: Arc::default(),
            obs: StoreObs::new(rec),
        }
    }

    #[inline]
    pub fn add_disk_read(&self, bytes: u64) {
        self.inner.disk_read_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.obs.disk_read_bytes.observe(bytes);
    }

    #[inline]
    pub fn add_disk_write(&self, bytes: u64) {
        self.inner.disk_write_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.obs.disk_write_bytes.observe(bytes);
    }

    #[inline]
    pub fn add_page_read(&self) {
        self.inner.page_reads.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add_page_hit(&self) {
        self.inner.page_hits.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add_net(&self, bytes: u64) {
        self.inner.net_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.obs.net_bytes.observe(bytes);
        self.obs.net_bytes_total.add(bytes);
    }

    #[inline]
    pub fn add_walks(&self, n: u64) {
        self.inner.walks_enumerated.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn add_recomputation(&self) {
        self.inner.recomputations.fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            disk_read_bytes: self.inner.disk_read_bytes.load(Ordering::Relaxed),
            disk_write_bytes: self.inner.disk_write_bytes.load(Ordering::Relaxed),
            page_reads: self.inner.page_reads.load(Ordering::Relaxed),
            page_hits: self.inner.page_hits.load(Ordering::Relaxed),
            net_bytes: self.inner.net_bytes.load(Ordering::Relaxed),
            walks_enumerated: self.inner.walks_enumerated.load(Ordering::Relaxed),
            recomputations: self.inner.recomputations.load(Ordering::Relaxed),
            ..IoSnapshot::default()
        }
    }

    pub fn reset(&self) {
        self.inner.disk_read_bytes.store(0, Ordering::Relaxed);
        self.inner.disk_write_bytes.store(0, Ordering::Relaxed);
        self.inner.page_reads.store(0, Ordering::Relaxed);
        self.inner.page_hits.store(0, Ordering::Relaxed);
        self.inner.net_bytes.store(0, Ordering::Relaxed);
        self.inner.walks_enumerated.store(0, Ordering::Relaxed);
        self.inner.recomputations.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_diff() {
        let s = IoStats::new();
        s.add_disk_read(100);
        let a = s.snapshot();
        s.add_disk_read(50);
        s.add_net(7);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.disk_read_bytes, 50);
        assert_eq!(d.net_bytes, 7);
        assert_eq!(b.total_disk_bytes(), 150);
    }

    #[test]
    fn obs_histograms_mirror_byte_counters() {
        let rec = itg_obs::Recorder::enabled();
        let s = IoStats::with_obs(&rec);
        s.add_disk_read(4096);
        s.add_disk_write(128);
        s.add_net(64);
        let p = rec.profile();
        assert_eq!(p.hist("store/disk_read_bytes").unwrap().sum, 4096);
        assert_eq!(p.hist("store/disk_write_bytes").unwrap().sum, 128);
        assert_eq!(p.hist("store/net_bytes").unwrap().sum, 64);
        assert_eq!(p.counter_total("net/bytes"), 64);
        // The aggregate counters are unaffected by observability.
        assert_eq!(s.snapshot().disk_read_bytes, 4096);
    }

    #[test]
    fn clones_share_counters() {
        let s = IoStats::new();
        let c = s.clone();
        c.add_page_hit();
        assert_eq!(s.snapshot().page_hits, 1);
        s.reset();
        assert_eq!(c.snapshot().page_hits, 0);
    }
}
