//! A lane that fails must fail the whole run, not stall it: lanes share
//! nothing, so no other lane can be left waiting on the failed one.

use star_core::SchemeKind;
use star_shard::{run_sharded, ShardSpec};
use star_workloads::WorkloadKind;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

#[test]
fn failed_lane_recovery_panics_instead_of_hanging() {
    // WriteBack cannot recover, so only lane 1's scheduled crash fails;
    // the other worker still has lanes to run.
    let spec = ShardSpec::new(SchemeKind::WriteBack, WorkloadKind::Array)
        .with_lanes(4)
        .with_ops_per_lane(120)
        .with_epoch_ops(40)
        .with_crash(1, 0)
        .with_shards(2);
    let (done, finished) = mpsc::channel();
    let run = std::thread::spawn(move || {
        run_sharded(&spec);
        let _ = done.send(());
    });
    // A hung run never answers, and its thread is left behind.
    match finished.recv_timeout(Duration::from_secs(20)) {
        Err(RecvTimeoutError::Timeout) => panic!("run_sharded hung after lane 1 failed"),
        _ => assert!(
            run.join().is_err(),
            "a lane that cannot recover must fail the run"
        ),
    }
}
