//! A counting global allocator over [`System`] that tracks live bytes
//! (allocated − freed). The allocator is process-wide, so a test binary
//! installs it itself —
//! `#[global_allocator] static ALLOC: CountingAlloc = CountingAlloc;` —
//! and holds only the one test that reads it, as a delta around a call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering::Relaxed};

static LIVE: AtomicI64 = AtomicI64::new(0);

pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as i64, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as i64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(new_size as i64 - layout.size() as i64, Relaxed);
        }
        p
    }
}

/// Bytes allocated and not yet freed.
pub fn live_bytes() -> i64 {
    LIVE.load(Relaxed)
}
