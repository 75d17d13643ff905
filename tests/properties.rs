//! Randomized end-to-end tests: random program traces driven through
//! the engine, then crashed and recovered. Seeded `star-rng` loops give
//! deterministic, offline-buildable coverage.

use star::core::{SchemeKind, SecureMemConfig, SecureMemory};
use star_rng::SimRng;

/// A random program step.
#[derive(Debug, Clone)]
enum Step {
    Write { line: u64, persist: bool },
    Read { line: u64 },
    Fence,
    Work(u64),
}

/// Draws one step with the weights 4:2:1:1 (write:read:fence:work).
fn random_step(rng: &mut SimRng, lines: u64) -> Step {
    match rng.gen_index(8) {
        0..=3 => Step::Write {
            line: rng.gen_range(0..lines),
            persist: rng.gen_bool(0.5),
        },
        4 | 5 => Step::Read {
            line: rng.gen_range(0..lines),
        },
        6 => Step::Fence,
        _ => Step::Work(rng.gen_range(1..500)),
    }
}

fn random_trace(rng: &mut SimRng, lines: u64, min_len: usize, max_len: usize) -> Vec<Step> {
    let len = min_len + rng.gen_index(max_len - min_len);
    (0..len).map(|_| random_step(rng, lines)).collect()
}

fn drive(mem: &mut SecureMemory, steps: &[Step]) -> Vec<u64> {
    // Shadow model of the latest persisted-or-cached value per line.
    let mut shadow = vec![0u64; 256];
    let mut version = 0;
    for step in steps {
        match step {
            Step::Write { line, persist } => {
                version += 1;
                mem.write_data(*line, version);
                shadow[*line as usize] = version;
                if *persist {
                    mem.persist_data(*line);
                }
            }
            Step::Read { line } => {
                let got = mem.read_data(*line);
                assert_eq!(
                    got,
                    Ok(shadow[*line as usize]),
                    "read must return the last write"
                );
            }
            Step::Fence => mem.fence(),
            Step::Work(n) => mem.work(*n),
        }
    }
    shadow
}

/// Any interleaving of writes/persists/reads/fences recovers exactly
/// under STAR.
#[test]
fn star_random_traces_recover() {
    let mut rng = SimRng::seed_from_u64(0x7374_6172_2d72_6563);
    for _ in 0..24 {
        let steps = random_trace(&mut rng, 256, 1, 400);
        let mut mem = SecureMemory::new(SchemeKind::Star, SecureMemConfig::small());
        drive(&mut mem, &steps);
        assert_eq!(mem.integrity_error(), None);
        let report = mem.crash_and_recover().expect("attack-free recovery");
        assert!(report.verified);
        assert!(report.correct, "{} mismatches", report.mismatches);
    }
}

/// The same traces under Anubis also recover exactly.
#[test]
fn anubis_random_traces_recover() {
    let mut rng = SimRng::seed_from_u64(0x616e_7562_2d72_6563);
    for _ in 0..24 {
        let steps = random_trace(&mut rng, 256, 1, 300);
        let mut mem = SecureMemory::new(SchemeKind::Anubis, SecureMemConfig::small());
        drive(&mut mem, &steps);
        let report = mem.crash_and_recover().expect("recovery");
        assert!(report.correct, "{} mismatches", report.mismatches);
    }
}

/// Reads always see the program's latest value, under any scheme.
#[test]
fn reads_are_coherent_under_all_schemes() {
    let mut rng = SimRng::seed_from_u64(0x636f_6865_2d61_6c6c);
    for round in 0..24 {
        let steps = random_trace(&mut rng, 64, 1, 200);
        let scheme = SchemeKind::ALL[round % SchemeKind::ALL.len()];
        let mut mem = SecureMemory::new(scheme, SecureMemConfig::small());
        drive(&mut mem, &steps); // drive() asserts on every read
        assert_eq!(mem.integrity_error(), None);
    }
}

/// Write traffic ordering STAR <= Anubis holds for arbitrary traces.
#[test]
fn star_never_writes_more_than_anubis() {
    let mut rng = SimRng::seed_from_u64(0x7374_6172_3c61_6e75);
    for _ in 0..12 {
        let steps = random_trace(&mut rng, 128, 50, 250);
        let run = |scheme| {
            let mut mem = SecureMemory::new(scheme, SecureMemConfig::small());
            drive(&mut mem, &steps);
            mem.report().total_writes()
        };
        assert!(run(SchemeKind::Star) <= run(SchemeKind::Anubis));
    }
}
