//! The one host-side bound on the baseline grid: span-attributed heap
//! allocations per simulated op stay at or under [`MAX_ALLOCS_PER_OP`].
//!
//! Allocation counts repeat exactly for a fixed toolchain, so the bound
//! is a fixed ceiling, not a tolerance. This binary installs
//! [`star_scope::StarAlloc`] as its global allocator (like the
//! `star-bench` binary does) and profiles the canonical grid twice:
//! once clean, once with a deliberate extra allocation injected into
//! the engine's per-op loop. The clean run must stay under the ceiling
//! and reproduce the golden baseline rows byte for byte; the injected
//! run must go over it, which proves the ceiling is a live gate.
//!
//! Profiling and allocation accounting are process-global, so the whole
//! scenario lives in one `#[test]`. Lower the ceiling with each
//! allocation win.

use star_bench::{run_prof_bench, BaselineConfig};

#[global_allocator]
static ALLOC: star_scope::StarAlloc = star_scope::StarAlloc::new();

/// Span-attributed allocations per simulated op the default grid may
/// make (it measures 0.87).
const MAX_ALLOCS_PER_OP: f64 = 1.0;

#[test]
fn clean_grid_stays_under_the_ceiling_and_an_injected_per_op_allocation_breaks_it() {
    let cfg = BaselineConfig::default();

    // Clean run: the default grid, profiled, stays under the ceiling and
    // leaves every simulated row equal to the golden's.
    let clean = run_prof_bench(&cfg, true);
    assert!(
        clean.summary.allocs_per_op <= MAX_ALLOCS_PER_OP,
        "clean grid makes {:.2} allocs/op, over the ceiling {MAX_ALLOCS_PER_OP}",
        clean.summary.allocs_per_op
    );
    assert_eq!(
        clean.baseline.to_json(),
        include_str!("../../../tests/golden/bench_baseline_v7.json"),
        "profiled baseline rows drifted from tests/golden/bench_baseline_v7.json"
    );

    // Injected run: one extra allocation per simulated op must push the
    // measured rate over the ceiling.
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
        dirty.summary.allocs_per_op > MAX_ALLOCS_PER_OP,
        "injected rate {:.2} should exceed the ceiling {MAX_ALLOCS_PER_OP}",
        dirty.summary.allocs_per_op
    );
}
