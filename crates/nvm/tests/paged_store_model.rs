//! Model-based property test for the paged, copy-on-write [`LineStore`].
//!
//! Drives seeded random sequences of write / read / freeze / fork /
//! clone-drop operations against a fleet of store instances, each paired
//! with a naive `HashMap<u64, Line>` reference model. The store's paging
//! (64-line frames with residency bitmaps) and its two maps — a private
//! delta folded on every freeze into a base shared with older forks —
//! are implementation detail the model knows nothing about: any
//! divergence in observable behaviour fails the test, and reads must
//! never have more than the two maps to probe.

use star_nvm::{Line, LineAddr, LineStore};
use std::collections::HashMap;

/// SplitMix64: deterministic, dependency-free test RNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Address pool mixing dense low lines (many lines per page frame),
/// page-aligned strides (one line per frame), and far-apart sparse lines
/// (16 GB geometry), so both the packed and sparse paths get traffic.
fn pick_addr(rng: &mut Rng) -> LineAddr {
    let addr = match rng.below(4) {
        0 | 1 => rng.below(256),                    // dense: shared frames
        2 => rng.below(32) * 64,                    // page-aligned stride
        _ => rng.below(64) * 4_096_919 + (1 << 28), // sparse and far
    };
    LineAddr::new(addr)
}

/// One store instance plus its oracle.
struct Pair {
    store: LineStore,
    model: HashMap<u64, Line>,
    /// Writes since this instance's last freeze (bounds `delta_lines`).
    writes_since_freeze: usize,
}

impl Pair {
    fn check_against_model(&self) {
        // Footprint counts every line ever written, zero overwrites
        // included.
        assert_eq!(
            self.store.footprint_lines(),
            self.model.len(),
            "footprint must match the set of written addresses"
        );
        // Iteration yields exactly the model's content (newest wins).
        let mut seen: HashMap<u64, Line> = HashMap::new();
        for (addr, line) in self.store.iter() {
            assert!(
                seen.insert(addr.index(), line).is_none(),
                "iter yielded line {addr:x} twice"
            );
        }
        assert_eq!(seen.len(), self.model.len());
        for (&addr, line) in &self.model {
            assert_eq!(seen.get(&addr), Some(line), "iter content at {addr:#x}");
        }
    }
}

fn run_schedule(seed: u64, ops: usize) {
    let mut rng = Rng(seed);
    let mut pairs = vec![Pair {
        store: LineStore::new(),
        model: HashMap::new(),
        writes_since_freeze: 0,
    }];

    for step in 0..ops {
        let which = rng.below(pairs.len() as u64) as usize;
        match rng.below(100) {
            // Write: random content, sometimes an explicit zero line
            // (which must shadow older non-zero content).
            0..=44 => {
                let addr = pick_addr(&mut rng);
                let line = if rng.below(8) == 0 {
                    Line::ZERO
                } else {
                    Line::filled((rng.next() & 0xff) as u8)
                };
                let p = &mut pairs[which];
                p.store.write(addr, line);
                p.model.insert(addr.index(), line);
                p.writes_since_freeze += 1;
            }
            // Read: written lines return their newest value, everything
            // else reads zero.
            45..=79 => {
                let addr = pick_addr(&mut rng);
                let p = &pairs[which];
                let expect = p.model.get(&addr.index()).copied().unwrap_or(Line::ZERO);
                assert_eq!(p.store.read(addr), expect, "read {addr:#x} at step {step}");
            }
            // Freeze: empties the delta into the base, leaving at most
            // that one map for reads to probe.
            80..=91 => {
                let p = &mut pairs[which];
                p.store.freeze();
                assert_eq!(p.store.delta_lines(), 0, "freeze must empty the delta");
                assert!(
                    p.store.map_count() <= 1,
                    "a freeze leaves only the base, got {} maps",
                    p.store.map_count()
                );
                p.writes_since_freeze = 0;
            }
            // Fork: both sides end with an empty delta, share the frozen
            // footprint, and then diverge independently.
            92..=97 => {
                let p = &mut pairs[which];
                let fork = p.store.fork();
                p.writes_since_freeze = 0;
                assert_eq!(p.store.delta_lines(), 0);
                assert_eq!(fork.delta_lines(), 0);
                // Every frozen page is shared by reference, and the base
                // holds each line once.
                assert_eq!(
                    fork.shared_lines_with(&p.store),
                    p.store.footprint_lines(),
                    "a fresh fork shares its whole frozen footprint"
                );
                let model = p.model.clone();
                pairs.push(Pair {
                    store: fork,
                    model,
                    writes_since_freeze: 0,
                });
                // Keep the fleet bounded; dropping exercises Arc release.
                if pairs.len() > 6 {
                    let victim = rng.below(pairs.len() as u64) as usize;
                    pairs.swap_remove(victim);
                }
            }
            // Full sweep: footprint + iteration against the oracle, plus
            // the delta and map bounds.
            _ => {
                let p = &pairs[which];
                assert!(
                    p.store.delta_lines() <= p.writes_since_freeze,
                    "delta can never exceed writes since the last freeze"
                );
                assert!(p.store.map_count() <= 2, "reads probe at most two maps");
                p.check_against_model();
            }
        }
    }

    // Final exhaustive sweep over every surviving instance.
    for p in &pairs {
        p.check_against_model();
        for (&addr, line) in &p.model {
            assert_eq!(p.store.read(LineAddr::new(addr)), *line);
        }
    }
}

#[test]
fn random_schedules_match_hashmap_model() {
    for seed in [1, 0xDEAD_BEEF, 42_424_242] {
        run_schedule(seed, 6_000);
    }
}

#[test]
fn heavy_freeze_schedule_compacts_repeatedly() {
    // Freeze after every write, 200 times: each freeze folds into the
    // one base map, and correctness must survive every fold.
    let mut rng = Rng(7);
    let mut store = LineStore::new();
    let mut model: HashMap<u64, Line> = HashMap::new();
    for _ in 0..200 {
        let addr = pick_addr(&mut rng);
        let line = Line::filled((rng.next() & 0xff) as u8);
        store.write(addr, line);
        model.insert(addr.index(), line);
        store.freeze();
        assert!(store.map_count() <= 1);
    }
    assert_eq!(store.footprint_lines(), model.len());
    for (&addr, line) in &model {
        assert_eq!(store.read(LineAddr::new(addr)), *line);
    }
}
