//! Crash-schedule sweeps: the paper's recovery claims, checked at every
//! persist point.
//!
//! The headline test is the exhaustive STAR sweep: over a 200-op array
//! run, *every* persist point — including every window between a
//! data-line commit and the later write-back of its coalesced parent
//! counter/MAC node — must recover to the exact committed state. Silent
//! corruption anywhere is a hard failure for every recoverable scheme.

use star_core::persist::PersistPointKind;
use star_core::SchemeKind;
use star_faultsim::{CrashExplorer, FaultCase, FaultKind, Outcome};
use star_workloads::WorkloadKind;

fn is_data_commit(kind: Option<PersistPointKind>) -> bool {
    matches!(kind, Some(PersistPointKind::DataLineCommit { .. }))
}

fn is_node_writeback(kind: Option<PersistPointKind>) -> bool {
    matches!(kind, Some(PersistPointKind::NodeWriteback { .. }))
}

/// Acceptance sweep: exhaustive, >= 200 ops, zero silent corruption and
/// full recovery everywhere for STAR — in particular at every point
/// where a data line is durable but its parent counter/MAC node has not
/// been written back yet (`DataLineCommit`), and at every coalesced
/// parent write-back itself (`NodeWriteback`).
#[test]
fn star_exhaustive_sweep_recovers_at_every_persist_point() {
    let report = CrashExplorer::new(SchemeKind::Star, WorkloadKind::Array, 200, 42)
        .all_points()
        .explore();

    assert!(report.exhaustive);
    assert!(
        report.total_points >= 200,
        "200 ops must commit at least 200 persist points, got {}",
        report.total_points
    );
    assert_eq!(report.cases.len() as u64, report.total_points);

    let silent = report.silent_corruptions();
    assert!(silent.is_empty(), "STAR silently corrupted at {:?}", silent);
    for case in &report.cases {
        assert_eq!(
            case.outcome,
            Outcome::Recovered,
            "STAR must recover exactly at point {} ({:?}): {}",
            case.crash_at,
            case.kind,
            case.detail
        );
    }

    // The sweep genuinely covered both sides of the data/parent window.
    let data_commits = report
        .cases
        .iter()
        .filter(|c| is_data_commit(c.kind))
        .count();
    let writebacks = report
        .cases
        .iter()
        .filter(|c| is_node_writeback(c.kind))
        .count();
    assert!(
        data_commits >= 200,
        "every op commits a data line, got {data_commits}"
    );
    assert!(
        writebacks > 0,
        "the small metadata cache must evict during the run"
    );
}

#[test]
fn anubis_exhaustive_sweep_recovers_everywhere() {
    let report = CrashExplorer::new(SchemeKind::Anubis, WorkloadKind::Array, 60, 42)
        .all_points()
        .explore();
    assert!(report.total_points >= 60);
    for case in &report.cases {
        assert_eq!(
            case.outcome,
            Outcome::Recovered,
            "Anubis must recover at point {} ({:?}): {}",
            case.crash_at,
            case.kind,
            case.detail
        );
    }
}

#[test]
fn strict_sweep_is_never_silent_and_mid_chain_crashes_are_detected() {
    let report = CrashExplorer::new(SchemeKind::Strict, WorkloadKind::Array, 60, 42)
        .all_points()
        .explore();
    assert!(
        report.clean(),
        "strict silently corrupted: {:?}",
        report.silent_corruptions()
    );
    // Strict commits per line, not per branch: crashes after a completed
    // chain recover, crashes inside one are detected on readback.
    assert!(
        report.count(Outcome::Recovered) > 0,
        "chain-complete points recover"
    );
    assert!(
        report.count(Outcome::DetectedTamper) > 0,
        "mid-chain points are detected"
    );
    let chain_nodes = report
        .cases
        .iter()
        .filter(|c| matches!(c.kind, Some(PersistPointKind::StrictChainNode { .. })))
        .count();
    assert!(
        chain_nodes > 0,
        "strict schedules contain chain-node persist points"
    );
}

#[test]
fn wb_is_unrecoverable_at_every_point() {
    let report = CrashExplorer::new(SchemeKind::WriteBack, WorkloadKind::Array, 40, 7)
        .with_max_cases(24)
        .explore();
    assert!(!report.cases.is_empty());
    for case in &report.cases {
        assert_eq!(case.outcome, Outcome::Unrecoverable);
    }
}

/// Negative control: an injected MAC bit-flip must classify as detected
/// tampering — never as a successful recovery, never silently.
#[test]
fn mac_bit_flips_are_detected_not_recovered() {
    for bit in [0, 5, 63] {
        let report = CrashExplorer::new(SchemeKind::Star, WorkloadKind::Array, 60, 42)
            .with_fault(FaultKind::FlipMacBit { bit })
            .with_max_cases(32)
            .explore();
        assert!(!report.cases.is_empty());
        for case in &report.cases {
            assert_eq!(
                case.outcome,
                Outcome::DetectedTamper,
                "flipped MAC bit {bit} at point {} must be detected: {}",
                case.crash_at,
                case.detail
            );
        }
    }
}

#[test]
fn counter_bit_flips_are_detected() {
    let report = CrashExplorer::new(SchemeKind::Star, WorkloadKind::Array, 60, 42)
        .with_fault(FaultKind::FlipCounterBit { bit: 17 })
        .with_max_cases(32)
        .explore();
    assert!(!report.cases.is_empty());
    for case in &report.cases {
        assert_eq!(
            case.outcome,
            Outcome::DetectedTamper,
            "flipped counter bit at point {} must be detected: {}",
            case.crash_at,
            case.detail
        );
    }
}

/// Sub-line faults from the write journal: a torn 64-byte line and lost
/// write-queue entries must never pass readback silently under STAR with
/// its ADR-resident bookkeeping intact.
#[test]
fn torn_and_dropped_writes_are_never_silent_under_star() {
    for fault in [FaultKind::TornWrite, FaultKind::DropWpq { max_entries: 8 }] {
        let report = CrashExplorer::new(SchemeKind::Star, WorkloadKind::Array, 60, 42)
            .with_fault(fault)
            .with_max_cases(32)
            .explore();
        assert!(
            report.clean(),
            "{fault} silently corrupted: {:?}",
            report.silent_corruptions()
        );
        assert!(
            report.count(Outcome::DetectedTamper) > 0,
            "{fault} must be detected somewhere in the sweep"
        );
    }
}

/// A torn write can bring one of Anubis's counters back below its last
/// use while every committed line still reads back: recovery re-MACs
/// whatever its shadow table holds, and nothing authenticates that
/// table. The verdict's rewind check calls those cases silent, naming
/// the node and slot. STAR, whose cache-tree root covers what it
/// restores, detects every torn write on the same traffic. This test
/// flips once recovery authenticates Anubis's shadow table (ROADMAP,
/// "Recovery treats the NVM image as untrusted input").
#[test]
fn torn_writes_rewind_anubis_counters_silently_but_never_star_ones() {
    let sweep = |scheme| {
        CrashExplorer::new(scheme, WorkloadKind::Ycsb, 150, 42)
            .with_fault(FaultKind::TornWrite)
            .all_points()
            .explore()
    };
    let anubis = sweep(SchemeKind::Anubis);
    let silent = anubis.silent_corruptions();
    assert!(!silent.is_empty(), "no rewind found");
    for case in silent {
        assert!(
            case.detail.starts_with("node ") && case.detail.contains(" slot "),
            "point {}: {}",
            case.crash_at,
            case.detail
        );
    }
    let star = sweep(SchemeKind::Star);
    assert!(star.clean(), "{:?}", star.silent_corruptions());
    assert_eq!(star.count(Outcome::DetectedTamper), star.cases.len());
}

/// Crashing exactly at a forced flush (counter-LSB window exhausted)
/// must recover: the flush is its own persist transaction.
#[test]
fn forced_flush_crash_points_recover() {
    let mut cfg = star_faultsim::faultsim_config();
    cfg.counter_lsb_bits = 2; // 3-increment window: flushes happen fast
    let explorer =
        CrashExplorer::new(SchemeKind::Star, WorkloadKind::Queue, 120, 42).with_config(cfg);
    let schedule = explorer.schedule();
    let flush_points: Vec<u64> = schedule
        .iter()
        .filter(|p| matches!(p.kind, PersistPointKind::ForcedFlush { .. }))
        .map(|p| p.seq)
        .collect();
    assert!(
        !flush_points.is_empty(),
        "a 2-bit window must force flushes"
    );
    for &seq in flush_points.iter().take(5) {
        let result = explorer.run_case(&FaultCase::crash_only(seq));
        assert_eq!(
            result.outcome,
            Outcome::Recovered,
            "forced-flush point {seq}: {}",
            result.detail
        );
    }
}

#[test]
fn exploration_is_deterministic_and_reports_are_machine_readable() {
    let explorer =
        CrashExplorer::new(SchemeKind::Star, WorkloadKind::Btree, 30, 9).with_max_cases(16);
    let a = explorer.explore();
    let b = explorer.explore();
    assert_eq!(a, b, "same plan, same report, bit for bit");

    let json = a.to_json();
    assert!(json.contains("\"scheme\":\"star\""));
    assert!(json.contains("\"workload\":\"btree\""));
    assert!(json.contains("\"silent-corruption\":0"));
    assert!(json.contains("\"cases\":["));
    assert_eq!(json.matches("\"crash_at\"").count(), a.cases.len());
}

/// The determinism contract of the parallel sweep runner, end to end:
/// the explore report — down to its JSON bytes — is a pure function of
/// the plan, regardless of how many worker threads replay the cases.
#[test]
fn parallel_exploration_is_byte_identical_across_thread_counts() {
    let explorer = CrashExplorer::new(SchemeKind::Star, WorkloadKind::Array, 60, 42).all_points();
    let serial = explorer.clone().with_threads(1).explore();
    assert!(serial.total_points > 8, "sweep must be big enough to shard");
    let serial_json = serial.to_json();
    for threads in [2, 4] {
        let parallel = explorer.clone().with_threads(threads).explore();
        assert_eq!(parallel, serial, "{threads} threads: same report");
        assert_eq!(
            parallel.to_json(),
            serial_json,
            "{threads} threads: byte-identical JSON"
        );
    }
}

/// Crashing past the end of the schedule is reported, not misclassified.
#[test]
fn crash_beyond_schedule_is_not_reached() {
    let explorer = CrashExplorer::new(SchemeKind::Star, WorkloadKind::Array, 10, 1);
    let total = explorer.schedule().len() as u64;
    let result = explorer.run_case(&FaultCase::crash_only(total + 1_000));
    assert_eq!(result.outcome, Outcome::NotReached);
}
