//! Integration tests for the extension features: multi-threaded
//! workloads, trace capture/replay, eager updates, and the Osiris /
//! Triad-NVM baselines.

use star::core::triad::{TriadConfig, TriadMemory};
use star::core::{SchemeKind, SecureMemConfig, SecureMemory};
use star::mem::{MemEvent, TraceSink, TraceStats, VecSink};
use star::workloads::{MultiThreaded, Workload, WorkloadKind};
use star_check::{CrashSpec, Program};

#[test]
fn multithreaded_runs_recover_under_star() {
    let mut mem = SecureMemory::new(SchemeKind::Star, SecureMemConfig::default());
    let mut wl = MultiThreaded::new(WorkloadKind::Ycsb, 8, 7);
    wl.run(1_600, &mut mem); // 200 ops × 8 threads
    assert_eq!(mem.integrity_error(), None);
    let report = mem.crash_and_recover().expect("clean recovery");
    assert!(
        report.verified && report.correct,
        "{} mismatches",
        report.mismatches
    );
}

#[test]
fn multithreaded_traffic_still_orders_correctly() {
    let writes = |scheme| {
        let mut mem = SecureMemory::new(scheme, SecureMemConfig::default());
        let mut wl = MultiThreaded::new(WorkloadKind::Queue, 4, 3);
        wl.run(800, &mut mem);
        mem.report().total_writes()
    };
    let star = writes(SchemeKind::Star);
    let anubis = writes(SchemeKind::Anubis);
    assert!(
        star < anubis,
        "STAR {star} < Anubis {anubis} with 4 threads too"
    );
}

#[test]
fn captured_trace_replays_identically() {
    // Capture a workload trace, save it as a check repro (the one saved
    // form of an event stream), replay both streams into two engines,
    // and require bit-identical NVM traffic counts.
    let mut sink = VecSink::new();
    let mut wl = WorkloadKind::Tpcc.instantiate(11);
    wl.run(300, &mut sink);

    let cfg = SecureMemConfig::default();
    let saved = Program::with_config(&cfg, sink.events.clone(), CrashSpec::None).to_json();
    let parsed = Program::from_json(&saved).expect("round-trips").ops;
    assert_eq!(parsed, sink.events);

    let run = |events: &[MemEvent]| {
        let mut mem = SecureMemory::new(SchemeKind::Star, cfg.clone());
        mem.on_events(events);
        let r = mem.report();
        (r.nvm.total_reads(), r.nvm.total_writes())
    };
    assert_eq!(run(&sink.events), run(&parsed));
}

#[test]
fn trace_stats_describe_locality() {
    let capture = |kind: WorkloadKind| {
        let mut sink = VecSink::new();
        kind.instantiate(5).run(500, &mut sink);
        TraceStats::compute(&sink.events)
    };
    let queue = capture(WorkloadKind::Queue);
    let array = capture(WorkloadKind::Array);
    assert!(
        queue.write_regions_32k < array.write_regions_32k,
        "queue touches fewer bitmap regions: {} vs {}",
        queue.write_regions_32k,
        array.write_regions_32k
    );
}

#[test]
fn eager_updates_cost_a_branch_of_macs() {
    let run = |eager| {
        let cfg = SecureMemConfig::builder()
            .eager_updates(eager)
            .build()
            .expect("valid config");
        let mut mem = SecureMemory::new(SchemeKind::WriteBack, cfg);
        for i in 0..500u64 {
            mem.write_data(i % 100, i + 1);
            mem.persist_data(i % 100);
        }
        mem.report().mac_computations
    };
    let lazy = run(false);
    let eager = run(true);
    // 9 in-NVM levels: eager recomputes the whole branch per write.
    assert!(eager > 8 * lazy, "eager {eager} vs lazy {lazy}");
}

#[test]
fn eager_rejects_star_and_anubis() {
    let cfg = SecureMemConfig::builder()
        .eager_updates(true)
        .build()
        .expect("eager alone is valid; the scheme pairing is checked by try_new");
    assert_eq!(
        SecureMemory::try_new(SchemeKind::Star, cfg.clone()).err(),
        Some(star::core::ConfigError::EagerUpdatesIncompatible {
            scheme: SchemeKind::Star
        })
    );
    assert_eq!(
        SecureMemory::try_new(SchemeKind::Anubis, cfg.clone()).err(),
        Some(star::core::ConfigError::EagerUpdatesIncompatible {
            scheme: SchemeKind::Anubis
        })
    );
    assert!(SecureMemory::try_new(SchemeKind::WriteBack, cfg.clone()).is_ok());
    assert!(SecureMemory::try_new(SchemeKind::Strict, cfg).is_ok());
}

#[test]
fn triad_baseline_works_on_bmt_only() {
    // The Triad-NVM baseline reproduces its paper's claims: 2-4x writes
    // and full-tree rebuild from leaves — on a Bonsai Merkle tree.
    let mut m = TriadMemory::new(TriadConfig {
        data_lines: 8_192,
        persist_levels: 2,
        ..TriadConfig::default()
    });
    for i in 0..1_000u64 {
        m.write_data((i * 13) % 8_192, i + 1);
    }
    assert_eq!(m.nvm_stats().total_writes(), 3_000, "persist_levels=2 → 3x");
    let (reads, _, verified) = m.crash_and_recover();
    assert!(verified);
    assert_eq!(
        reads as usize,
        m.counter_blocks(),
        "scan scales with memory size"
    );
}

#[test]
fn star_recovery_is_cheaper_than_triad_for_small_dirty_sets() {
    // STAR: ~10 reads per stale node. Triad: every counter block.
    let mut star = SecureMemory::new(SchemeKind::Star, SecureMemConfig::default());
    for i in 0..100u64 {
        star.write_data(i, i + 1);
        star.persist_data(i);
    }
    let star_reads = star.crash_and_recover().expect("clean").nvm_reads;

    let mut triad = TriadMemory::new(TriadConfig::default());
    for i in 0..100u64 {
        triad.write_data(i, i + 1);
    }
    let (triad_reads, _, _) = triad.crash_and_recover();
    assert!(
        star_reads < triad_reads / 10,
        "STAR {star_reads} ≪ Triad {triad_reads} for a small dirty set"
    );
}
