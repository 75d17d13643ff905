//! Triad's set-up stays independent of the memory size on the host.
//!
//! The simulated recovery reads every counter block, so its modeled time
//! grows with the memory; nothing on the host has to. This binary
//! installs [`star_scope::StarAlloc`] as its global allocator and counts
//! the bytes `TriadMemory::new` allocates at the 256 MB geometry of
//! `star-bench serve`: a dense tree and counter-block array there take
//! about 54 MiB, the sparse ones about 1.4 KB.

use star_core::triad::{TriadConfig, TriadMemory};

#[global_allocator]
static ALLOC: star_scope::StarAlloc = star_scope::StarAlloc::new();

/// Heap bytes `TriadMemory::new` may allocate at 256 MB.
const MAX_SETUP_BYTES: u64 = 64 << 10;

#[test]
fn triad_set_up_at_256_mb_allocates_under_64_kib() {
    let cfg = TriadConfig {
        data_lines: (256 << 20) / 64,
        ..TriadConfig::default()
    };
    // The counters are per thread, so other tests cannot leak in.
    star_scope::set_alloc_counting(true);
    let (_, before) = star_scope::alloc::thread_totals();
    let m = TriadMemory::new(cfg);
    let (_, after) = star_scope::alloc::thread_totals();
    star_scope::set_alloc_counting(false);
    assert_eq!(m.counter_blocks(), 512 << 10);
    let bytes = after - before;
    assert!(
        bytes < MAX_SETUP_BYTES,
        "TriadMemory::new at 256 MB allocated {bytes} bytes, over {MAX_SETUP_BYTES}"
    );
}
