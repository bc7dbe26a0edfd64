//! The page buffer pool.
//!
//! The store keeps graph data in byte-addressed *segments* (the simulated
//! disk). All reads go through a fixed-capacity LRU buffer pool of
//! `page_size`-byte pages; a miss costs `page_size` bytes of disk read, a
//! hit is free. This reproduces the IO behaviour the paper's optimizations
//! target: repeated seeks into the same adjacency region are cheap while
//! resident, and window sizes trade capacity against re-reads.
//!
//! The pool also hosts the lazy-deletion hook (paper §5.5): edge deletions
//! are written as delete segments and the on-disk edges they retract are
//! masked only when their page is scanned, never by in-place disk writes.

use crate::stats::IoStats;
use itg_gsa::FxHashMap;
use parking_lot::Mutex;
use std::collections::VecDeque;

/// Identifies one page: a segment id plus a page index within the segment.
pub type PageId = (u32, u32);

/// Default page size (bytes).
pub const DEFAULT_PAGE_SIZE: u64 = 4096;

#[derive(Debug)]
struct PoolState {
    /// Resident pages → last-use stamp.
    resident: FxHashMap<PageId, u64>,
    /// Recency queue with lazy invalidation: entries whose stamp no longer
    /// matches `resident` are skipped at eviction time.
    queue: VecDeque<(PageId, u64)>,
    stamp: u64,
}

/// A fixed-capacity LRU page cache with shared interior mutability, so one
/// pool can serve every segment of a store partition.
#[derive(Debug)]
pub struct BufferPool {
    capacity_pages: usize,
    page_size: u64,
    state: Mutex<PoolState>,
    stats: IoStats,
}

impl BufferPool {
    pub fn new(capacity_bytes: u64, page_size: u64, stats: IoStats) -> BufferPool {
        assert!(page_size > 0);
        let capacity_pages = (capacity_bytes / page_size).max(1) as usize;
        BufferPool {
            capacity_pages,
            page_size,
            state: Mutex::new(PoolState {
                resident: FxHashMap::default(),
                queue: VecDeque::new(),
                stamp: 0,
            }),
            stats,
        }
    }

    pub fn page_size(&self) -> u64 {
        self.page_size
    }

    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Touch a single page; returns true on a cache hit.
    pub fn touch(&self, page: PageId) -> bool {
        let mut st = self.state.lock();
        st.stamp += 1;
        let stamp = st.stamp;
        let hit = st.resident.insert(page, stamp).is_some();
        st.queue.push_back((page, stamp));
        if hit {
            self.stats.add_page_hit();
        } else {
            self.stats.add_page_read();
            self.stats.add_disk_read(self.page_size);
            // Evict down to capacity, skipping stale queue entries.
            while st.resident.len() > self.capacity_pages {
                if let Some((p, s)) = st.queue.pop_front() {
                    if st.resident.get(&p) == Some(&s) {
                        st.resident.remove(&p);
                    }
                } else {
                    break;
                }
            }
        }
        // Bound queue growth from repeated hits.
        if st.queue.len() > self.capacity_pages.saturating_mul(8) + 64 {
            let resident = std::mem::take(&mut st.resident);
            let mut fresh: Vec<(PageId, u64)> = resident.iter().map(|(p, s)| (*p, *s)).collect();
            fresh.sort_by_key(|&(_, s)| s);
            st.queue = fresh.iter().copied().collect();
            st.resident = resident;
        }
        hit
    }

    /// Touch every page overlapping the byte range `[start, end)` of
    /// `segment`. Returns the number of misses.
    pub fn touch_range(&self, segment: u32, start: u64, end: u64) -> u32 {
        if end <= start {
            return 0;
        }
        let first = (start / self.page_size) as u32;
        let last = ((end - 1) / self.page_size) as u32;
        let mut misses = 0;
        for p in first..=last {
            if !self.touch((segment, p)) {
                misses += 1;
            }
        }
        misses
    }

    /// Record a sequential write of `bytes` to disk (writes are not cached;
    /// the store's write paths are append-only segment creation).
    pub fn record_write(&self, bytes: u64) {
        self.stats.add_disk_write(bytes);
    }

    /// Drop all resident pages (e.g. between experiment runs).
    pub fn clear(&self) {
        let mut st = self.state.lock();
        st.resident.clear();
        st.queue.clear();
    }

    /// Number of currently resident pages.
    pub fn resident_pages(&self) -> usize {
        self.state.lock().resident.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(cap_pages: u64) -> BufferPool {
        BufferPool::new(cap_pages * 16, 16, IoStats::new())
    }

    #[test]
    fn hits_after_first_touch() {
        let p = pool(4);
        assert!(!p.touch((0, 0)));
        assert!(p.touch((0, 0)));
        let s = p.stats().snapshot();
        assert_eq!(s.page_reads, 1);
        assert_eq!(s.page_hits, 1);
        assert_eq!(s.disk_read_bytes, 16);
    }

    #[test]
    fn lru_evicts_coldest() {
        let p = pool(2);
        p.touch((0, 0));
        p.touch((0, 1));
        p.touch((0, 0)); // refresh 0 — page 1 is now coldest
        p.touch((0, 2)); // evicts page 1
        assert!(p.touch((0, 0)), "page 0 should still be resident");
        assert!(!p.touch((0, 1)), "page 1 should have been evicted");
    }

    #[test]
    fn range_touch_counts_pages() {
        let p = pool(16);
        // Bytes [8, 40) with 16-byte pages → pages 0, 1, 2.
        let misses = p.touch_range(3, 8, 40);
        assert_eq!(misses, 3);
        assert_eq!(p.resident_pages(), 3);
        // Empty range touches nothing.
        assert_eq!(p.touch_range(3, 10, 10), 0);
    }

    #[test]
    fn capacity_bounded_under_scan() {
        let p = pool(8);
        for i in 0..10_000u32 {
            p.touch((1, i));
        }
        assert!(p.resident_pages() <= 8);
        assert_eq!(p.stats().snapshot().page_reads, 10_000);
    }
}
