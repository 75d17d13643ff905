//! End-to-end proof that the committed `bench/baseline.json` and the
//! code agree, and that its `max_allocs_per_op` ceiling is a live gate,
//! not a vacuous one.
//!
//! This binary installs [`star_scope::StarAlloc`] as its global
//! allocator (like the `star-bench` binary does), profiles the canonical
//! grid twice — once clean, once with a deliberate extra allocation
//! injected into the engine's per-op loop — and checks both runs against
//! the committed baseline through the same [`star_bench::check`] path
//! `star-bench baseline --check` uses: the clean run must pass with zero
//! regressions, the sabotaged one must fail on the ceiling.
//!
//! Profiling and allocation accounting are process-global, so the whole
//! scenario lives in one `#[test]`.

use star_bench::{check, run_prof_bench, BaselineConfig, BaselineReport};

#[global_allocator]
static ALLOC: star_scope::StarAlloc = star_scope::StarAlloc::new();

#[test]
fn committed_baseline_passes_clean_and_catches_an_injected_per_op_allocation() {
    let committed = BaselineReport::from_json(include_str!("../../../bench/baseline.json"))
        .expect("bench/baseline.json parses");
    let ceiling = committed
        .max_allocs_per_op
        .expect("bench/baseline.json pins max_allocs_per_op");
    let cfg = BaselineConfig::default();

    // Clean run: the default grid, profiled, passes the committed file.
    let clean = run_prof_bench(&cfg, true);
    let mut current = clean.baseline.clone();
    current.profile = Some(clean.summary.clone());
    let verdict = check(&current, &committed).expect("same grid as the committed baseline");
    assert!(
        verdict.regressions.is_empty(),
        "clean profiled run regressed against bench/baseline.json: {:?}",
        verdict.regressions
    );

    // Sabotaged run: one extra allocation per simulated op must push the
    // measured rate over the ceiling and fail the same gate.
    star_core::set_test_alloc_injection(true);
    let dirty = run_prof_bench(&cfg, true);
    star_core::set_test_alloc_injection(false);
    assert!(
        dirty.summary.allocs_per_op > clean.summary.allocs_per_op,
        "injection must be visible to the accounting ({:.2} -> {:.2})",
        clean.summary.allocs_per_op,
        dirty.summary.allocs_per_op
    );
    assert!(
        dirty.summary.allocs_per_op > ceiling,
        "injected rate {:.2} should exceed the ceiling {ceiling}",
        dirty.summary.allocs_per_op
    );
    current.profile = Some(dirty.summary);
    let verdict = check(&current, &committed).expect("same grid as the committed baseline");
    assert!(!verdict.passed(), "sabotaged run must fail the gate");
    assert!(
        verdict
            .regressions
            .iter()
            .any(|r| r.contains("allocs_per_op")),
        "the failure must name the allocation gate: {:?}",
        verdict.regressions
    );
}
