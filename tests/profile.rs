//! Integration coverage for the star-scope host profiler (schema v7).
//!
//! * `tests/golden/perf_profile_v7.json` pins the **scrubbed**
//!   `perf-profile` document for the canonical small baseline grid:
//!   every host-measured field (nanoseconds, allocations, shares) is
//!   zeroed, while the structural fields — span paths, names, depths,
//!   call counts, ops — are exact and deterministic, so the golden is
//!   byte-identical across runs and machines. Refresh with
//!   `REGEN_GOLDEN=1 cargo test --test profile`.
//! * The determinism contract: with profiling **off**, every report the
//!   simulator emits is byte-identical to a run where profiling never
//!   existed; with profiling **on**, simulated metrics are untouched
//!   (spans read the host clock, never the simulated one).
//! * The span-tree time invariants hold on a real profiled run.
//!
//! The profiler's enable flag, registry, and allocation counters are
//! process-global, so every test here serializes on one lock and leaves
//! the profiler disabled and empty.

mod common;

use common::check_golden;
use star::core::{SchemeKind, SecureMemConfig, SecureMemory};
use star::scope::{ProfileReport, SpanTree};
use star::serve::{run_grid, standard_scenarios, ServeConfig};
use star::shard::{run_shard_grid, ShardSpec};
use star::workloads::WorkloadKind;
use star_bench::baseline::BaselineConfig;
use star_bench::run_prof_bench;
use std::collections::BTreeMap;
use std::sync::Mutex;

const GOLDEN_PROFILE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/perf_profile_v7.json"
);

/// Profiler state is process-global; serialize every test that touches
/// it (and make sure no other profiled test runs in this binary).
static PROFILER_LOCK: Mutex<()> = Mutex::new(());

fn with_profiler<R>(f: impl FnOnce() -> R) -> (R, SpanTree) {
    let _guard = PROFILER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    star::scope::reset();
    star::scope::enable();
    let r = f();
    star::scope::disable();
    let tree = star::scope::collect();
    star::scope::reset();
    (r, tree)
}

/// The canonical grid the profile golden freezes: small enough to run in
/// a debug test, large enough that every scheme's hot paths appear.
fn canonical_cfg() -> BaselineConfig {
    BaselineConfig {
        ops: 120,
        seed: 42,
        jobs: 1,
    }
}

/// The scrubbed `perf-profile` document for the canonical grid.
fn canonical_profile_json() -> String {
    let _guard = PROFILER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    run_prof_bench(&canonical_cfg(), false).report.to_json(true)
}

#[test]
fn scrubbed_profile_matches_committed_golden_bytes() {
    check_golden(GOLDEN_PROFILE, &canonical_profile_json());
}

#[test]
fn scrubbed_profile_is_identical_across_runs() {
    // The golden's premise, checked directly: two fresh profiled runs
    // disagree on timings but never on scrubbed bytes.
    assert_eq!(canonical_profile_json(), canonical_profile_json());
}

#[test]
fn profiling_off_leaves_report_bytes_identical() {
    let _guard = PROFILER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert!(!star::scope::enabled(), "tests leave the profiler off");
    let run = || {
        let mut m = SecureMemory::new(SchemeKind::Star, SecureMemConfig::small());
        for i in 0..200 {
            m.write_data(i % 11, i);
            m.persist_data(i % 11);
        }
        m.report().to_json()
    };
    let serve = || {
        let cfg = ServeConfig::quick(2);
        run_grid(&cfg, &standard_scenarios(&cfg)).to_json()
    };
    let shard = || {
        let spec = ShardSpec::new(SchemeKind::Star, WorkloadKind::Array)
            .with_lanes(2)
            .with_ops_per_lane(60)
            .with_epoch_ops(30);
        run_shard_grid(&spec, &[SchemeKind::Star]).to_json()
    };
    let (run_off, serve_off, shard_off) = (run(), serve(), shard());
    star::scope::reset();
    star::scope::enable();
    let (run_on, serve_on, shard_on) = (run(), serve(), shard());
    star::scope::disable();
    star::scope::reset();
    assert_eq!(run_off, run_on, "run-report bytes");
    assert_eq!(serve_off, serve_on, "serve report bytes");
    assert_eq!(shard_off, shard_on, "shard report bytes");
}

#[test]
fn profiled_baseline_rows_match_unprofiled() {
    let cfg = canonical_cfg();
    let plain = {
        let _guard = PROFILER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        star_bench::run_baseline(&cfg)
    };
    let profiled = {
        let _guard = PROFILER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        run_prof_bench(&cfg, false)
    };
    assert_eq!(
        plain.to_json(),
        profiled.baseline.to_json(),
        "profiling must not perturb a single simulated metric"
    );
}

#[test]
fn span_tree_time_invariants_hold_on_a_real_run() {
    let (_, tree) = with_profiler(|| {
        let mut m = SecureMemory::new(SchemeKind::Star, SecureMemConfig::small());
        for i in 0..300 {
            m.write_data(i % 17, i);
            m.persist_data(i % 17);
        }
        m.crash_and_recover().expect("recovery verifies");
    });
    let report = ProfileReport::build(&tree, 0, 300);
    assert!(
        report.rows.iter().any(|r| r.path.contains("engine/op")),
        "engine hot path recorded"
    );
    assert!(
        report
            .rows
            .iter()
            .any(|r| r.path.contains("engine/recover")),
        "recovery recorded"
    );
    let by_path: BTreeMap<&str, (u64, u64)> = report
        .rows
        .iter()
        .map(|r| (r.path.as_str(), (r.incl_ns, r.excl_ns)))
        .collect();
    for (path, (incl, excl)) in &by_path {
        assert!(excl <= incl, "{path}: exclusive {excl} > inclusive {incl}");
        let child_sum: u64 = by_path
            .iter()
            .filter(|(p, _)| {
                p.strip_prefix(path)
                    .is_some_and(|rest| rest.starts_with(';') && !rest[1..].contains(';'))
            })
            .map(|(_, (ci, _))| ci)
            .sum();
        assert!(
            child_sum <= *incl,
            "{path}: direct children sum {child_sum} > inclusive {incl}"
        );
        assert_eq!(
            *excl,
            incl - child_sum,
            "{path}: exclusive is inclusive minus direct children"
        );
    }
}

#[test]
fn profile_attributes_nearly_all_wall_clock() {
    let _guard = PROFILER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let run = run_prof_bench(&canonical_cfg(), false);
    assert!(
        run.summary.attributed_share >= 0.9,
        "attributed {:.1}% of wall clock ({:.2} ms unattributed of {:.2} ms)",
        run.summary.attributed_share * 100.0,
        run.report.unattributed_ns() as f64 / 1e6,
        run.summary.wall_ms
    );
    // The remainder is reported explicitly, not silently dropped.
    assert_eq!(
        run.report.unattributed_ns(),
        run.report.wall_ns - run.report.attributed_ns
    );
}
