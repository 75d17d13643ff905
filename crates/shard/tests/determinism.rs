//! The star-shard determinism contract, property-tested:
//!
//! * the whole report document — per-lane sections, epoch-merged
//!   persist log, merged totals, traces — is byte-identical at every
//!   lane-pool size;
//! * a per-lane crash leaves every surviving lane's report section
//!   byte-unchanged versus an uncrashed run.

use star_core::{SchemeKind, SCHEMA_VERSION};
use star_shard::{run_shard_grid, run_sharded, ShardSpec};
use star_trace::CatMask;
use star_workloads::WorkloadKind;

/// Small but non-trivial: 4 lanes × 240 ops in 60-op epochs drives
/// real tree updates, cache evictions and ADR traffic per lane.
fn small_spec() -> ShardSpec {
    ShardSpec::new(SchemeKind::Star, WorkloadKind::Array)
        .with_lanes(4)
        .with_ops_per_lane(240)
        .with_epoch_ops(60)
}

const GRID_SCHEMES: [SchemeKind; 2] = [SchemeKind::Star, SchemeKind::WriteBack];

#[test]
fn grid_bytes_identical_at_every_pool_size() {
    let baseline = run_shard_grid(&small_spec(), &GRID_SCHEMES).to_json();
    assert!(baseline.starts_with(&format!(
        "{{\"schema_version\":{SCHEMA_VERSION},\"kind\":\"shard\","
    )));
    for shards in [2usize, 3, 4, 8] {
        let got = run_shard_grid(&small_spec().with_shards(shards), &GRID_SCHEMES).to_json();
        assert_eq!(got, baseline, "report bytes changed at shards={shards}");
    }
}

#[test]
fn traces_identical_across_shard_counts() {
    let spec = small_spec().with_trace(CatMask::ALL);
    let serial = run_sharded(&spec);
    let trace = serial.trace_chrome_json().expect("tracing was on");
    assert!(trace.starts_with(&format!(
        "{{\"schema_version\":{SCHEMA_VERSION},\"kind\":\"trace\","
    )));
    for shards in [2usize, 4] {
        let parallel = run_sharded(&spec.clone().with_shards(shards));
        assert_eq!(
            parallel.trace_chrome_json().as_deref(),
            Some(trace.as_str()),
            "trace bytes changed at shards={shards}"
        );
    }
}

#[test]
fn epoch_log_is_key_ordered_and_complete() {
    let spec = small_spec().with_shards(4);
    let report = run_sharded(&spec);
    let epochs = spec.epochs();
    assert_eq!(report.epoch_log.len() as u64, epochs * spec.lanes as u64);
    assert!(
        report
            .epoch_log
            .windows(2)
            .all(|w| (w[0].epoch, w[0].lane) < (w[1].epoch, w[1].lane)),
        "epoch log must be strictly (epoch, lane)-ordered"
    );
    // Conservation: the log's persist points sum to the lane totals.
    let logged: u64 = report.epoch_log.iter().map(|r| r.persist_points).sum();
    let totals: u64 = report.outcomes.iter().map(|o| o.persist_points).sum();
    assert_eq!(logged, totals);
}

#[test]
fn merged_totals_equal_lane_sums() {
    let report = run_sharded(&small_spec().with_shards(2));
    assert_eq!(
        report.merged.total_writes(),
        report
            .outcomes
            .iter()
            .map(|o| o.report.total_writes())
            .sum::<u64>()
    );
    assert_eq!(
        report.merged.instructions,
        report
            .outcomes
            .iter()
            .map(|o| o.report.instructions)
            .sum::<u64>()
    );
}

#[test]
fn surviving_lanes_are_byte_unchanged_by_another_lanes_crash() {
    let clean = run_sharded(&small_spec());
    // Crash lane 1 at the end of epoch 1, with the lanes spread over
    // two workers so the crash happens concurrently with other lanes.
    let crashed = run_sharded(&small_spec().with_shards(2).with_crash(1, 1));
    for lane in [0usize, 2, 3] {
        assert_eq!(
            crashed.outcomes[lane].report.to_json(),
            clean.outcomes[lane].report.to_json(),
            "lane {lane} must not observe lane 1's crash"
        );
        assert!(crashed.outcomes[lane].recoveries.is_empty());
    }
    let victim = &crashed.outcomes[1];
    assert_eq!(victim.recoveries.len(), 1);
    assert_eq!(victim.recoveries[0].at_epoch, 1);
    assert!(victim.recoveries[0].recovery_ns > 0);
    // The victim's post-reboot segment starts cold, so its merged lane
    // report differs from the uncrashed run's.
    assert_ne!(
        victim.report.to_json(),
        clean.outcomes[1].report.to_json(),
        "the crashed lane's own section reflects the crash"
    );
}

#[test]
fn crashes_do_not_break_byte_identity_across_groupings() {
    let spec = small_spec().with_crash(2, 0).with_crash(0, 2);
    let baseline = run_sharded(&spec).to_json();
    for shards in [2usize, 3, 4] {
        assert_eq!(
            run_sharded(&spec.clone().with_shards(shards)).to_json(),
            baseline,
            "crashing runs must stay grouping-independent (shards={shards})"
        );
    }
}

#[test]
fn lanes_stream_from_unrelated_seeds() {
    let report = run_sharded(&small_spec().with_lanes(2));
    // Different lane seeds → different traffic; identical seeds would
    // make every lane's report identical.
    assert_ne!(
        report.outcomes[0].report.to_json(),
        report.outcomes[1].report.to_json(),
        "lane-derived SplitMix64 streams must differ"
    );
}
