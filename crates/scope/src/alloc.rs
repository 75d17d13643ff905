//! The counting global allocator.
//!
//! [`StarAlloc`] wraps [`std::alloc::System`] and, when counting is
//! switched on, bumps two thread-local counters (allocation count and
//! bytes) that the span guards snapshot on entry and exit — that
//! difference, minus the children's share, is the span's exclusive
//! allocation bill. Install it at a binary's crate root:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: star_scope::StarAlloc = star_scope::StarAlloc::new();
//! ```
//!
//! Counting is off by default ([`set_alloc_counting`]): the hook then
//! costs one relaxed atomic load per allocation on top of the system
//! allocator. Binaries that never install the allocator still profile
//! spans normally — the counters just stay at zero, and the report's
//! allocation columns read 0.
//!
//! The counters are plain `Cell`s in `const`-initialized thread-local
//! storage, so the hook itself never allocates, never locks, and cannot
//! recurse. Deallocations are deliberately not tracked: the campaign
//! metric is allocations per simulated op, not live-heap size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Turns allocation counting on or off process-wide. A no-op unless a
/// binary installed [`StarAlloc`] as its `#[global_allocator]`.
pub fn set_alloc_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// This thread's running `(allocations, bytes)` totals since counting
/// was first enabled. Monotonic; span guards difference it.
pub fn thread_totals() -> (u64, u64) {
    let allocs = ALLOCS.try_with(Cell::get).unwrap_or(0);
    let bytes = BYTES.try_with(Cell::get).unwrap_or(0);
    (allocs, bytes)
}

#[inline]
fn count(bytes: usize) {
    // `try_with`: thread-local storage may already be torn down when a
    // TLS destructor allocates; losing those few counts is fine.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

/// A counting wrapper around the system allocator. See the module docs.
pub struct StarAlloc;

impl StarAlloc {
    /// The allocator value for a `#[global_allocator]` static.
    pub const fn new() -> Self {
        StarAlloc
    }
}

impl Default for StarAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// The four methods forward verbatim to `System`; the only addition is
// the counting hook, which touches no allocator state.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for StarAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            count(layout.size());
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            count(layout.size());
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            // A realloc is one allocation event; bill the growth only,
            // so a doubling Vec sums to its final size, not 2x.
            count(new_size.saturating_sub(layout.size()));
        }
        System.realloc(ptr, layout, new_size)
    }
}
