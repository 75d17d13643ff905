//! The tentpole property: fork-based crash exploration is **byte-
//! identical** to from-scratch replay.
//!
//! [`CrashExplorer`]'s fork strategy executes the workload once and
//! seizes the crash image in-line at each chosen persist point; the
//! replay strategy (the oracle) re-runs the workload from scratch per
//! case with a crash armed and seizes the engine its panic leaves
//! behind. Both feed the same adjudication, so for every scheme, fault,
//! sampling mode and worker count the resulting [`ExploreReport`] —
//! down to its JSON bytes — must be identical.

use star_core::SchemeKind;
use star_faultsim::{CrashExplorer, ExploreStrategy, FaultKind, Outcome};
use star_workloads::WorkloadKind;

fn replay_json(explorer: &CrashExplorer) -> String {
    explorer
        .clone()
        .with_strategy(ExploreStrategy::Replay)
        .explore()
        .to_json()
}

fn assert_strategies_agree(explorer: CrashExplorer, what: &str) {
    let oracle = replay_json(&explorer);
    for threads in [1usize, 2, 4] {
        let forked = explorer
            .clone()
            .with_strategy(ExploreStrategy::Fork)
            .with_threads(threads)
            .explore()
            .to_json();
        assert_eq!(
            forked, oracle,
            "{what}: fork report at {threads} threads diverged from replay"
        );
    }
}

#[test]
fn exhaustive_sweeps_are_byte_identical_across_strategies() {
    for scheme in SchemeKind::ALL {
        assert_strategies_agree(
            CrashExplorer::new(scheme, WorkloadKind::Array, 36, 11).all_points(),
            scheme.label(),
        );
    }
}

#[test]
fn every_workload_kind_agrees_across_strategies() {
    for workload in WorkloadKind::ALL {
        assert_strategies_agree(
            CrashExplorer::new(SchemeKind::Star, workload, 24, 5).all_points(),
            workload.label(),
        );
    }
}

#[test]
fn sampled_sweeps_are_byte_identical_across_strategies() {
    // A case budget far below the schedule length forces the seeded
    // sampler; both strategies must crash on the same points and agree.
    assert_strategies_agree(
        CrashExplorer::new(SchemeKind::Star, WorkloadKind::Btree, 90, 3)
            .with_max_cases(17)
            .with_sample_seed(29),
        "sampled",
    );
}

#[test]
fn faulted_sweeps_are_byte_identical_across_strategies() {
    // Strict commits several chain-node points in one op, so each of
    // its seizures must take its own view of the write queue — the
    // writes `DropWpq` and `TornWrite` target.
    for scheme in [SchemeKind::Star, SchemeKind::Anubis, SchemeKind::Strict] {
        for fault in [
            FaultKind::DropWpq { max_entries: 4 },
            FaultKind::TornWrite,
            FaultKind::FlipMacBit { bit: 9 },
            FaultKind::FlipCounterBit { bit: 17 },
        ] {
            assert_strategies_agree(
                CrashExplorer::new(scheme, WorkloadKind::Hash, 32, 7)
                    .all_points()
                    .with_fault(fault),
                &format!("{scheme}/{}", fault.label()),
            );
        }
    }
    // The crash-sweep benchmark's Anubis sweep under a MAC flip (ycsb,
    // exhaustive, bit 5), on a shorter run.
    assert_strategies_agree(
        CrashExplorer::new(SchemeKind::Anubis, WorkloadKind::Ycsb, 60, 1)
            .all_points()
            .with_fault(FaultKind::FlipMacBit { bit: 5 }),
        "anubis/ycsb/flip-mac",
    );
}

#[test]
fn fork_sweeps_remain_silent_corruption_free() {
    // The headline claim holds under the fast strategy too, for a run
    // long enough to evict metadata and exercise recovery windows.
    let report = CrashExplorer::new(SchemeKind::Star, WorkloadKind::Ycsb, 150, 13)
        .with_max_cases(64)
        .explore();
    assert!(report.total_points > 0);
    assert_eq!(report.count(Outcome::SilentCorruption), 0);
    assert_eq!(report.count(Outcome::NotReached), 0);
}
