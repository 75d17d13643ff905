//! Seeded random program generation.
//!
//! Each case index under a sweep seed expands deterministically into a
//! [`Program`]: a geometry drawn from a validated shape table, a mostly-
//! hot-set access pattern (so counters climb fast enough to cross
//! forced-flush boundaries) and a crash plan. Write versions are
//! globally monotone, so every stored value is unique and the harness
//! can tell exactly *which* write a read or readback returned.

use crate::program::{CrashSpec, Program};
use star_core::SecureMemConfig;
use star_mem::MemEvent;
use star_rng::SimRng;

/// Tunables for the generator. The defaults match the CI fuzz-smoke
/// budget; property tests may shrink them further.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Minimum operations per program.
    pub min_ops: usize,
    /// Maximum operations per program (exclusive).
    pub max_ops: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        Self {
            min_ops: 24,
            max_ops: 120,
        }
    }
}

/// Geometry shapes the generator draws from. Every entry validates
/// under `SecureMemConfig::builder()` and keeps runs small; tiny caches
/// and ADR budgets maximize evictions, spills and forced flushes per
/// operation.
const SHAPES: &[(u64, usize, usize, usize)] = &[
    // (data_lines, cache_bytes, cache_ways, adr_lines)
    (256, 1 << 10, 2, 2),
    (1024, 1 << 10, 4, 2),
    (1024, 4 << 10, 4, 4),
    (4096, 2 << 10, 2, 4),
];

/// Counter-LSB widths to exercise: the paper's 10 bits plus narrow
/// widths that force frequent coalescing-window overflows.
const LSB_BITS: &[u32] = &[2, 4, 10];

/// Expands `(seed, case)` into a program, deterministically.
pub fn generate(seed: u64, case: u64, cfg: &GenConfig) -> Program {
    // SplitMix-style mixing keeps neighbouring cases uncorrelated.
    let mut rng = SimRng::seed_from_u64(seed ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15));

    let (data_lines, cache_bytes, cache_ways, adr_lines) = SHAPES[rng.gen_index(SHAPES.len())];
    let lsb_bits = LSB_BITS[rng.gen_index(LSB_BITS.len())];

    // A small hot set concentrates increments on few parent nodes (the
    // forced-flush worst case); cold accesses scatter for bitmap/ADR
    // churn.
    let hot_len = [2usize, 4, 8, 16][rng.gen_index(4)];
    let mut hot: Vec<u64> = Vec::with_capacity(hot_len);
    while hot.len() < hot_len {
        let line = rng.gen_range(0..data_lines);
        if !hot.contains(&line) {
            hot.push(line);
        }
    }
    let pick_line = |rng: &mut SimRng, hot: &[u64]| -> u64 {
        if rng.gen_bool(0.75) {
            hot[rng.gen_index(hot.len())]
        } else {
            rng.gen_range(0..data_lines)
        }
    };

    let len = cfg.min_ops + rng.gen_index(cfg.max_ops.saturating_sub(cfg.min_ops).max(1));
    let mut ops = Vec::with_capacity(len);
    let mut version = 0u64;
    for _ in 0..len {
        ops.push(match rng.gen_index(20) {
            // writes: 50 %
            0..=9 => {
                version += 1;
                MemEvent::Write {
                    line: pick_line(&mut rng, &hot),
                    version,
                }
            }
            // persists: 20 %
            10..=13 => MemEvent::Clwb {
                line: pick_line(&mut rng, &hot),
            },
            // reads: 15 %
            14..=16 => MemEvent::Read {
                line: pick_line(&mut rng, &hot),
            },
            // fences: 10 %
            17 | 18 => MemEvent::Fence,
            // compute: 5 %
            _ => MemEvent::Work {
                count: rng.gen_range(1..400),
            },
        });
    }

    // 1 in 8 programs skips the mid-run crash and only exercises the
    // pure differential final-state comparison.
    let crash = if rng.gen_bool(0.125) {
        CrashSpec::None
    } else {
        CrashSpec::Frac(rng.gen_range_inclusive(0..=1000) as u32)
    };

    Program {
        cfg: SecureMemConfig::builder()
            .data_lines(data_lines)
            .metadata_cache_bytes(cache_bytes)
            .metadata_cache_ways(cache_ways)
            .adr_bitmap_lines(adr_lines)
            .counter_lsb_bits(lsb_bits)
            .build()
            .expect("every generator shape validates"),
        ops,
        crash,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        for case in 0..16 {
            assert_eq!(generate(5, case, &cfg), generate(5, case, &cfg));
        }
        assert_ne!(generate(5, 0, &cfg), generate(5, 1, &cfg));
        assert_ne!(generate(5, 0, &cfg), generate(6, 0, &cfg));
    }

    #[test]
    fn every_shape_validates() {
        for &(data_lines, bytes, ways, adr) in SHAPES {
            for &bits in LSB_BITS {
                let built = SecureMemConfig::builder()
                    .data_lines(data_lines)
                    .metadata_cache_bytes(bytes)
                    .metadata_cache_ways(ways)
                    .adr_bitmap_lines(adr)
                    .counter_lsb_bits(bits)
                    .build();
                assert!(built.is_ok(), "{data_lines}/{bits}");
            }
        }
    }

    #[test]
    fn programs_stay_in_bounds_with_monotone_versions() {
        let cfg = GenConfig::default();
        for case in 0..64 {
            let p = generate(42, case, &cfg);
            assert!(p.ops.len() >= cfg.min_ops);
            assert!(p.ops.len() < cfg.max_ops);
            let mut last_version = 0;
            for op in &p.ops {
                match *op {
                    MemEvent::Write { line, version } => {
                        assert!(line < p.cfg.data_lines);
                        assert!(version > last_version, "versions strictly increase");
                        last_version = version;
                    }
                    MemEvent::Clwb { line } | MemEvent::Read { line } => {
                        assert!(line < p.cfg.data_lines)
                    }
                    MemEvent::Fence | MemEvent::Work { .. } => {}
                }
            }
        }
    }

    #[test]
    fn both_crash_plans_appear() {
        let cfg = GenConfig::default();
        let plans: Vec<CrashSpec> = (0..64).map(|c| generate(7, c, &cfg).crash).collect();
        assert!(plans.iter().any(|p| matches!(p, CrashSpec::None)));
        assert!(plans.iter().any(|p| matches!(p, CrashSpec::Frac(_))));
    }
}
