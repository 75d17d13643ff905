//! Mini model checking: exhaustively enumerate *every* short program over
//! a tiny geometry with a pathologically small metadata cache (2 lines!),
//! crash after every program, and require exact, verified recovery.
//!
//! The tiny cache forces constant evictions, write-back cascades and
//! bitmap churn, so this sweeps the engine's corner cases far more
//! densely than random testing.

use star::core::{SchemeKind, SecureMemConfig, SecureMemory};

fn tiny_config() -> SecureMemConfig {
    SecureMemConfig::builder()
        .data_lines(64)
        .metadata_cache_bytes(128) // two 64-byte lines
        .metadata_cache_ways(2)
        .adr_bitmap_lines(2)
        .build()
        .expect("tiny geometry is consistent")
}

/// Runs one program (a sequence of line indices, each written+persisted)
/// and returns whether recovery was exact.
fn run_program(scheme: SchemeKind, program: &[u64]) {
    let mut mem = SecureMemory::new(scheme, tiny_config());
    for (i, &line) in program.iter().enumerate() {
        mem.write_data(line, (i + 1) as u64);
        mem.persist_data(line);
    }
    mem.fence();
    let report = mem
        .crash_and_recover()
        .unwrap_or_else(|e| panic!("{scheme} {program:?}: {e}"));
    assert!(report.verified, "{scheme} {program:?}");
    assert!(
        report.correct,
        "{scheme} {program:?}: {} mismatches",
        report.mismatches
    );
}

/// Every program of length `len` over `alphabet` lines.
fn enumerate(scheme: SchemeKind, alphabet: &[u64], len: usize) {
    let n = alphabet.len();
    let total = n.pow(len as u32);
    for code in 0..total {
        let mut program = Vec::with_capacity(len);
        let mut c = code;
        for _ in 0..len {
            program.push(alphabet[c % n]);
            c /= n;
        }
        run_program(scheme, &program);
    }
}

#[test]
fn star_all_programs_len_4_over_3_far_lines() {
    // Lines in three different counter blocks → maximal metadata churn in
    // a 2-line cache.
    enumerate(SchemeKind::Star, &[0, 8, 16], 4);
}

#[test]
fn star_all_programs_len_5_over_2_lines() {
    enumerate(SchemeKind::Star, &[0, 63], 5);
}

#[test]
fn star_all_programs_len_3_over_4_lines() {
    enumerate(SchemeKind::Star, &[0, 8, 16, 24], 3);
}

#[test]
fn anubis_all_programs_len_4_over_3_far_lines() {
    enumerate(SchemeKind::Anubis, &[0, 8, 16], 4);
}

#[test]
fn strict_all_programs_len_3() {
    enumerate(SchemeKind::Strict, &[0, 8, 16], 3);
}

#[test]
fn reads_interleaved_with_every_write_pair() {
    // All (write a, read b, write c) interleavings over 3 lines: reads
    // must always return the latest value even under 2-line cache churn.
    let lines = [0u64, 8, 16];
    for &a in &lines {
        for &b in &lines {
            for &c in &lines {
                let mut mem = SecureMemory::new(SchemeKind::Star, tiny_config());
                mem.write_data(a, 1);
                mem.persist_data(a);
                let expect_b = if b == a { 1 } else { 0 };
                assert_eq!(mem.read_data(b), Ok(expect_b), "a={a} b={b}");
                mem.write_data(c, 2);
                mem.persist_data(c);
                let expect = if c == a { 2 } else { 1 };
                let _ = expect;
                assert_eq!(mem.read_data(c), Ok(2));
                let report = mem.crash_and_recover().expect("recovers");
                assert!(report.correct, "a={a} b={b} c={c}");
            }
        }
    }
}
