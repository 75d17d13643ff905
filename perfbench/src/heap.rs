//! Peak live-heap accounting: a global allocator that forwards to the
//! system allocator and keeps the high-water mark of live bytes.
//!
//! Live heap is what the program asks for. Peak RSS adds the system
//! allocator's per-thread arenas on top, and on the multi-threaded
//! workloads that share moved by up to a fifth between identical runs.
//!
//! Counting updates two shared atomics on every allocation, which the
//! program's own binaries do not pay. So it is switched off while timed
//! batches run: the peak comes from set-up and the reference batch,
//! which does the same work as every timed batch.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

/// Whether allocations are counted. A statistic only: `Relaxed`
/// throughout.
static COUNTING: AtomicBool = AtomicBool::new(true);
/// Bytes allocated minus bytes freed while counting. Signed: a block
/// allocated while counting was off may be freed while it is on.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// Highest value `LIVE` has reached.
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// The counting allocator installed for the benchmark.
pub struct PeakHeap;

fn grow(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        let bytes = bytes as isize;
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrink(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        LIVE.fetch_sub(bytes as isize, Ordering::Relaxed);
    }
}

/// Switches counting on or off; returns whether it was on.
pub fn set_counting(on: bool) -> bool {
    COUNTING.swap(on, Ordering::Relaxed)
}

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping only touches two
// atomics and never allocates, so it cannot recurse into the allocator.
unsafe impl GlobalAlloc for PeakHeap {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s requirements.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller meets `GlobalAlloc::alloc_zeroed`'s
        // requirements.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence from `System`)
        // with `layout`, as `GlobalAlloc::dealloc` requires.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller meets `GlobalAlloc::realloc`'s requirements,
        // and `ptr` came from `System` with `layout`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new
    }
}

/// The highest live-heap size so far, MB.
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / f64::from(1u32 << 20)
}
