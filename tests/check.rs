//! End-to-end exercises of the `star-check` differential checker: a
//! seeded sweep over every scheme checks clean and the JSON repro
//! pipeline round-trips. Mid-run crashes are adjudicated by faultsim's
//! one verdict (`star_faultsim::adjudicate`); that a deliberately
//! corrupted crash image comes out of it as a rejected readback rather
//! than a silent pass is checked beside the harness's crate-private
//! mapping of that verdict, by `star_check::harness`'s
//! `tampered_image_is_never_silent`.

use star_check::{
    check_program, generate, run_check, shrink_ops, CheckConfig, CrashSpec, GenConfig, Op, Program,
};

#[test]
fn generated_sweep_is_clean_for_every_scheme() {
    let cfg = CheckConfig {
        seed: 7,
        cases: 12,
        threads: 2,
        gen: GenConfig {
            min_ops: 16,
            max_ops: 64,
        },
    };
    let report = run_check(&cfg);
    assert!(report.clean(), "{}", report.summary_table());
    assert_eq!(report.cases.len(), 12);
}

#[test]
fn repro_json_round_trips_through_the_checker() {
    let program = generate(
        3,
        1,
        &GenConfig {
            min_ops: 20,
            max_ops: 40,
        },
    );
    let json = program.to_json();
    let replayed = Program::from_json(&json).expect("repro parses");
    assert_eq!(replayed, program);
    assert!(check_program(&replayed).is_empty());
}

#[test]
fn hand_written_boundary_program_checks_clean() {
    // Hammer one line past the 2^2 forced-flush boundary with narrow
    // counters and crash late in the schedule.
    let mut ops = Vec::new();
    for v in 1..=40u64 {
        ops.push(Op::Write {
            line: 5,
            version: v,
        });
        ops.push(Op::Persist { line: 5 });
    }
    let program = Program::with_config(
        &star_core::SecureMemConfig::builder()
            .data_lines(256)
            .metadata_cache_bytes(1 << 10)
            .metadata_cache_ways(2)
            .adr_bitmap_lines(2)
            .counter_lsb_bits(2)
            .build()
            .expect("valid geometry"),
        ops,
        CrashSpec::Frac(950),
    );
    let violations = check_program(&program);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn shrinker_is_deterministic_and_sound_on_a_real_predicate() {
    // "Program still writes line 9 at least 3 times" stands in for a
    // failing check: monotone under deletion of other ops, so greedy
    // shrinking must land on exactly 3 ops.
    let mut ops = Vec::new();
    for v in 1..=10u64 {
        ops.push(Op::Write {
            line: 9,
            version: v,
        });
        ops.push(Op::Write {
            line: 2,
            version: v,
        });
        ops.push(Op::Persist { line: 9 });
    }
    let program = Program::new(ops);
    let writes_line9 = |p: &Program| {
        p.ops
            .iter()
            .filter(|op| matches!(op, Op::Write { line: 9, .. }))
            .count()
            >= 3
    };
    let a = shrink_ops(&program, writes_line9);
    let b = shrink_ops(&program, writes_line9);
    assert_eq!(a, b, "shrinking must be deterministic");
    assert_eq!(a.ops.len(), 3, "minimal witness is exactly 3 writes");
    assert!(writes_line9(&a));
}
