//! The `shard_scaling` wall-clock bench: the star-shard engine timed at
//! increasing shard counts over identical work.
//!
//! [`run_shard_bench`] runs one fixed star/ycsb spec — [`SHARD_BENCH_LANES`]
//! lanes, `ops_per_lane` operations each — grouped onto 1, 2, 4 and 8
//! worker shards, asserts the lane-keyed reports are **byte-identical**
//! across every grouping (the determinism contract the speedup rides
//! on, DESIGN.md §13), and records each grouping's wall clock. The
//! committed `bench/baseline.json` pins `min_speedup_2shard` /
//! `min_speedup_4shard` floors that [`check`](crate::baseline::check)
//! enforces, so losing shard-parallel scaling fails CI.
//!
//! Wall-clock speedups are machine-dependent: on a single-hardware-thread
//! host every grouping runs sequentially and the speedup hovers around
//! 1×, which is why the floors live in the committed baseline (enforced
//! on CI's multi-core runners) and not in unit tests.

use star_core::report::{json_f64, json_str};
use star_core::SchemeKind;
use star_shard::{run_sharded, ShardSpec};
use star_workloads::WorkloadKind;
use std::fmt::Write as _;
use std::time::Instant;

/// Lane count of the gated scaling run — the paper's 8-core system.
pub const SHARD_BENCH_LANES: usize = 8;

/// Default operations per lane: long enough that per-lane engine work
/// dominates thread startup.
pub const SHARD_BENCH_OPS: usize = 2_000;

/// The shard counts the scaling run times, in row order.
pub const SHARD_BENCH_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One shard count's wall-clock measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardScaleRow {
    /// Worker shards the lanes were grouped onto.
    pub shards: u64,
    /// Wall-clock milliseconds for the whole run.
    pub wall_ms: f64,
    /// One-shard wall clock over this row's (≥ 1 means it scaled).
    pub speedup: f64,
}

/// The full scaling measurement `star-bench baseline --shard-bench`
/// embeds under `"shard_scaling"`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardBench {
    /// Workload label every lane ran.
    pub workload: String,
    /// Scheme label every lane ran.
    pub scheme: String,
    /// Lane count.
    pub lanes: u64,
    /// Operations per lane.
    pub ops_per_lane: u64,
    /// One row per shard count, in [`SHARD_BENCH_COUNTS`] order.
    pub rows: Vec<ShardScaleRow>,
}

impl ShardBench {
    /// The measured speedup at `shards`, if that count was timed.
    pub fn speedup_at(&self, shards: u64) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.shards == shards)
            .map(|r| r.speedup)
    }

    /// The measurement as the byte-stable JSON object embedded under
    /// `"shard_scaling"` in a baseline report.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"workload\":{},\"scheme\":{},\"lanes\":{},\"ops_per_lane\":{},\"rows\":[",
            json_str(&self.workload),
            json_str(&self.scheme),
            self.lanes,
            self.ops_per_lane
        );
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"shards\":{},\"wall_ms\":{},\"speedup\":{}}}",
                row.shards,
                json_f64(row.wall_ms),
                json_f64(row.speedup)
            );
        }
        out.push_str("]}");
        out
    }
}

/// Times the star/ycsb sharded run at every shard count in
/// [`SHARD_BENCH_COUNTS`] and returns the scaling rows.
///
/// # Panics
///
/// Panics if any grouping's report differs byte-for-byte from the
/// one-shard run's — a speedup over *different* work is meaningless.
pub fn run_shard_bench(ops_per_lane: usize, seed: u64) -> ShardBench {
    let spec = ShardSpec::new(SchemeKind::Star, WorkloadKind::Ycsb)
        .with_lanes(SHARD_BENCH_LANES)
        .with_ops_per_lane(ops_per_lane)
        .with_seed(seed);
    // Untimed warm-up so the first timed row doesn't pay allocator and
    // page-cache warm-up that later rows get for free.
    let _ = run_sharded(&spec);
    let mut baseline_json: Option<String> = None;
    let mut base_ms = 0.0f64;
    let mut rows = Vec::new();
    for shards in SHARD_BENCH_COUNTS {
        let start = Instant::now();
        let report = run_sharded(&spec.clone().with_shards(shards));
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let json = report.to_json();
        match &baseline_json {
            None => {
                baseline_json = Some(json);
                base_ms = wall_ms;
            }
            Some(base) => assert_eq!(&json, base, "shard count {shards} changed the report bytes"),
        }
        rows.push(ShardScaleRow {
            shards: shards as u64,
            wall_ms,
            speedup: if wall_ms > 0.0 {
                base_ms / wall_ms
            } else {
                f64::INFINITY
            },
        });
    }
    ShardBench {
        workload: WorkloadKind::Ycsb.label().into(),
        scheme: SchemeKind::Star.label().into(),
        lanes: SHARD_BENCH_LANES as u64,
        ops_per_lane: ops_per_lane as u64,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_bench_measures_identical_work_at_every_count() {
        // Small enough to stay fast; the ≥2× floors run on the
        // full-size measurement in CI via `baseline --shard-bench`.
        // No speedup floor here: wall-clock scaling needs CI's
        // multi-core runners, not the test host.
        let bench = run_shard_bench(40, 7);
        assert_eq!(bench.workload, "ycsb");
        assert_eq!(bench.scheme, "star");
        assert_eq!(bench.lanes, SHARD_BENCH_LANES as u64);
        assert_eq!(bench.rows.len(), SHARD_BENCH_COUNTS.len());
        assert_eq!(bench.rows[0].speedup, 1.0, "row 0 is its own baseline");
        for row in &bench.rows {
            assert!(row.wall_ms > 0.0);
            assert!(row.speedup > 0.0);
        }
        assert_eq!(bench.speedup_at(4), Some(bench.rows[2].speedup));
        assert_eq!(bench.speedup_at(3), None);
        let json = bench.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"rows\":[{\"shards\":1,"));
    }
}
