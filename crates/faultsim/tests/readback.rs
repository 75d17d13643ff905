//! The readback's one-line CPU hierarchy cannot change a verdict.
//!
//! [`readback_engine`](star_faultsim::case::readback_engine) boots the post-recovery engine with one cache
//! line per level instead of Table I's hierarchy. A readback reads
//! distinct committed lines into empty caches, so every read misses
//! every level either way and the verify-and-decrypt fill path runs
//! unchanged. Checked here directly: on a recovered clean image and on a
//! recovered image with a flipped data-MAC bit, reading every committed
//! line through both engines returns the same values and rejects the
//! same first line.

use star_core::{recover, SchemeKind, SecureMemory};
use star_faultsim::case::readback_engine;
use star_faultsim::{catch_quiet, CrashExplorer};
use star_nvm::LineAddr;
use star_workloads::WorkloadKind;
use std::collections::BTreeMap;

/// Reads every committed line through `engine` in line order, up to and
/// including the first one verification rejects (`None`).
fn read_all(mut engine: SecureMemory, committed: &BTreeMap<u64, u64>) -> Vec<(u64, Option<u64>)> {
    let mut out = Vec::new();
    for &line in committed.keys() {
        let got = catch_quiet(|| engine.read_data(line)).ok();
        out.push((line, got));
        if got.is_none() {
            break;
        }
    }
    out
}

#[test]
fn one_line_readback_matches_the_table_i_readback() {
    for scheme in [SchemeKind::Star, SchemeKind::Anubis, SchemeKind::Strict] {
        let explorer = CrashExplorer::new(scheme, WorkloadKind::Ycsb, 120, 3);
        let cfg = explorer.config();
        // The last point: every scheme, Strict included, recovers there.
        let last = explorer.schedule().len() as u64;
        let (_, mut points) = explorer.capture(&[last]);
        let point = points.pop().expect("the run reaches its last point");
        let committed = &point.committed;
        assert!(committed.len() >= 8, "{scheme}: {} lines", committed.len());
        let victim = *committed.keys().nth(committed.len() / 2).unwrap();
        for flip in [false, true] {
            let mut image = point.image.clone();
            if flip {
                // Bit 5 of the line's stored 64-bit MAC field.
                let addr = LineAddr::new(victim);
                let mut line = image.store.read(addr);
                line.as_bytes_mut()[56] ^= 1 << 5;
                image.store.write(addr, line);
            }
            recover(&mut image).unwrap_or_else(|e| panic!("{scheme}: {e}"));
            let table_i = read_all(
                SecureMemory::resume_from_image(&image, cfg.clone()),
                committed,
            );
            let one_line = read_all(readback_engine(&image, cfg), committed);
            assert_eq!(one_line, table_i, "{scheme}, flipped: {flip}");
            if flip {
                assert_eq!(one_line.last(), Some(&(victim, None)), "{scheme}");
            } else {
                let want: Vec<_> = committed.iter().map(|(&l, &v)| (l, Some(v))).collect();
                assert_eq!(one_line, want, "{scheme}");
            }
        }
    }
}
