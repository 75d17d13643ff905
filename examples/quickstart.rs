//! Quickstart: write persistent data through the STAR secure memory
//! controller, crash the machine, and recover the security metadata.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use star::core::{SchemeKind, SecureMemConfig, SecureMemory};

fn main() {
    // A memory controller with the paper's Table I configuration:
    // 16 GB PCM, 512 KB metadata cache, 9-level SGX integrity tree,
    // 16 bitmap lines in ADR, counter-MAC synergization enabled.
    // The builder validates at `build()`; inconsistent geometries come
    // back as a typed `star::core::ConfigError` instead of a panic.
    let cfg = SecureMemConfig::builder()
        .metadata_cache_bytes(512 << 10)
        .adr_bitmap_lines(16)
        .build()
        .expect("Table I configuration is consistent");
    let mut mem = SecureMemory::new(SchemeKind::Star, cfg);

    // A tiny "application": persist 10 000 updates over 1 000 lines.
    let mut expected = vec![0u64; 1_000];
    for i in 0..10_000u64 {
        let line = (i * 97) % 1_000;
        mem.write_data(line, i + 1); // store
        mem.persist_data(line); // clwb
        mem.fence(); // sfence
        expected[line as usize] = i + 1;
    }

    // Everything is readable back (decrypt + integrity verification).
    assert_eq!(mem.read_data(42), Ok(expected[42]));
    assert_eq!(mem.read_data(999), Ok(expected[999]));

    let report = mem.report();
    println!(
        "ran {} instructions at IPC {:.2}",
        report.instructions, report.ipc
    );
    println!(
        "NVM traffic: {} reads, {} writes ({} bitmap-line writes)",
        report.nvm.total_reads(),
        report.nvm.total_writes(),
        report.extra_writes(),
    );
    println!(
        "metadata cache: {}/{} lines dirty ({:.0}% stale in NVM)",
        report.dirty_metadata,
        report.cached_metadata,
        report.dirty_fraction() * 100.0
    );

    // Pull the plug. The ADR flushes the bitmap lines; caches are lost.
    let recovery = mem
        .crash_and_recover()
        .expect("attack-free recovery verifies");
    println!(
        "recovered {} stale metadata nodes in {:.3} ms (modeled), verified={}, exact={}",
        recovery.stale_count,
        recovery.recovery_time_ns as f64 / 1e6,
        recovery.verified,
        recovery.correct,
    );
    assert!(recovery.verified && recovery.correct);
}
