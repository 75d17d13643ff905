//! The `perf_profile` section of `BENCH_PR.json`: a host wall-clock
//! profile of the baseline grid, summarized to the top hot components
//! plus the allocation rate.
//!
//! `star-bench profile` runs the canonical grid under `star-scope` span
//! recording (and, with `--alloc`, allocation accounting), then embeds a
//! [`ProfBench`] next to the baseline rows. Timings and shares are
//! host-dependent and never gated. The allocation count per simulated
//! op repeats exactly for a fixed toolchain, so
//! `crates/bench/tests/alloc_gate.rs` bounds it with its
//! `MAX_ALLOCS_PER_OP` ceiling.

use crate::baseline::{run_baseline, BaselineConfig, BaselineReport};
use star_core::report::{json_f64, json_str};
use star_scope::ProfileReport;
use std::fmt::Write as _;
use std::time::Instant;

/// How many hot paths the summary keeps.
pub const PROF_TOP_N: usize = 8;

/// One hot span path in the summary.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfComponent {
    /// Semicolon-joined span path.
    pub path: String,
    /// Exclusive wall-clock milliseconds.
    pub excl_ms: f64,
    /// Share of span-attributed time.
    pub share: f64,
}

/// The profile summary `star-bench profile` embeds under
/// `"perf_profile"`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfBench {
    /// Simulated ops across the whole profiled grid.
    pub ops: u64,
    /// Measured wall clock around the grid, milliseconds.
    pub wall_ms: f64,
    /// Fraction of the wall clock attributed to named spans.
    pub attributed_share: f64,
    /// Span-attributed allocations per simulated op (0 when allocation
    /// accounting was off).
    pub allocs_per_op: f64,
    /// The top hot paths by exclusive time.
    pub top: Vec<ProfComponent>,
}

/// Everything a `star-bench profile` run produces: the baseline rows it
/// drove, the summary for `BENCH_PR.json`, and the full report for the
/// JSON/collapsed exports.
pub struct ProfRun {
    /// The grid rows (identical to an unprofiled `run_baseline`).
    pub baseline: BaselineReport,
    /// The embedded summary.
    pub summary: ProfBench,
    /// The full flattened profile.
    pub report: ProfileReport,
}

/// Runs the baseline grid under span recording and returns the profile.
///
/// `count_allocs` additionally turns on the `star-scope` global-allocator
/// accounting (effective only in binaries that install
/// [`star_scope::StarAlloc`]). Profiling state is process-global, so
/// callers must not run concurrent profiles.
pub fn run_prof_bench(cfg: &BaselineConfig, count_allocs: bool) -> ProfRun {
    star_scope::reset();
    star_scope::set_alloc_counting(count_allocs);
    star_scope::enable();
    let t0 = Instant::now();
    let baseline = run_baseline(cfg);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    star_scope::disable();
    star_scope::set_alloc_counting(false);
    let tree = star_scope::collect();
    star_scope::reset();
    // Each grid cell runs `cfg.ops` simulated operations.
    let ops = cfg.ops as u64 * baseline.rows.len() as u64;
    let report = ProfileReport::build(&tree, wall_ns, ops);
    let summary = summarize(&report);
    ProfRun {
        baseline,
        summary,
        report,
    }
}

/// Condenses a full [`ProfileReport`] into the embedded summary.
pub fn summarize(report: &ProfileReport) -> ProfBench {
    ProfBench {
        ops: report.ops,
        wall_ms: report.wall_ns as f64 / 1e6,
        attributed_share: report.attributed_share(),
        allocs_per_op: report.allocs_per_op(),
        top: report
            .top_components(PROF_TOP_N)
            .into_iter()
            .map(|(path, excl_ns, share)| ProfComponent {
                path,
                excl_ms: excl_ns as f64 / 1e6,
                share,
            })
            .collect(),
    }
}

impl ProfBench {
    /// The section as a JSON object (embedded in the baseline document
    /// under `"perf_profile"`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"ops\":{},\"wall_ms\":{},\"attributed_share\":{},\"allocs_per_op\":{},\"top\":[",
            self.ops,
            json_f64(self.wall_ms),
            json_f64(self.attributed_share),
            json_f64(self.allocs_per_op)
        );
        for (i, c) in self.top.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"path\":{},\"excl_ms\":{},\"share\":{}}}",
                json_str(&c.path),
                json_f64(c.excl_ms),
                json_f64(c.share)
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_scope::{SpanSample, SpanTree};

    #[test]
    fn summarize_ranks_components() {
        let mut tree = SpanTree::new();
        tree.record_path(
            &["hot"],
            SpanSample {
                count: 5,
                incl_ns: 9_000_000,
                excl_ns: 9_000_000,
                allocs: 50,
                alloc_bytes: 800,
            },
        );
        tree.record_path(
            &["cold"],
            SpanSample {
                count: 1,
                incl_ns: 1_000_000,
                excl_ns: 1_000_000,
                allocs: 0,
                alloc_bytes: 0,
            },
        );
        let report = ProfileReport::build(&tree, 10_000_000, 10);
        let s = summarize(&report);
        assert_eq!(s.top[0].path, "hot");
        assert!((s.attributed_share - 1.0).abs() < 1e-12);
        assert!((s.allocs_per_op - 5.0).abs() < 1e-12);
    }
}
