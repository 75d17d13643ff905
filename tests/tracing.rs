//! Integration tests for the star-trace observability layer (DESIGN.md
//! §9): recovery-phase timelines for every scheme's recovery path, the
//! zero-overhead-when-off gate, sweep determinism across host job
//! counts, and exporter well-formedness.

use star::core::recovery::recover_traced;
use star::core::triad::{TriadConfig, TriadMemory};
use star::core::{SchemeKind, SecureMemConfig, SecureMemory};
use star::crypto::mac::MacKey;
use star::metadata::{MacField, SitMac};
use star::nvm::PS_PER_NS;
use star::trace::{
    trace_to_chrome_json, trace_to_jsonl, CatMask, EventKind, TraceCategory, TraceEvent,
    TraceRecorder,
};
use star::workloads::WorkloadKind;
use star_bench::experiments::traced_sweep;
use star_bench::{run_scheme, run_scheme_traced, ExperimentConfig};

/// 100 ns per line access, the paper's recovery time model
/// (`star_core::recovery::NS_PER_LINE_ACCESS`).
const NS_PER_LINE_ACCESS: u64 = 100;

fn run_and_crash(scheme: SchemeKind) -> star::core::recovery::CrashImage {
    let mut mem = SecureMemory::new(scheme, SecureMemConfig::default());
    let mut wl = WorkloadKind::Array.instantiate(42);
    wl.run(400, &mut mem);
    mem.crash()
}

fn recovery_spans(events: &[TraceEvent]) -> Vec<(&'static str, u64, u64)> {
    events
        .iter()
        .filter(|e| e.cat == TraceCategory::Recovery && e.kind == EventKind::Span)
        .map(|e| (e.name, e.ts_ps, e.dur_ps))
        .collect()
}

/// Asserts `spans` are contiguous (each starts where the previous one
/// ended) and that their durations sum to the modeled recovery time.
fn assert_phases(spans: &[(&'static str, u64, u64)], names: &[&str], recovery_time_ns: u64) {
    let got: Vec<&str> = spans.iter().map(|&(n, _, _)| n).collect();
    assert_eq!(got, names, "phase order");
    let mut clock = spans[0].1;
    let mut total = 0u64;
    for &(name, ts, dur) in spans {
        assert_eq!(ts, clock, "phase {name} starts where its predecessor ended");
        clock += dur;
        total += dur;
    }
    assert_eq!(
        total,
        recovery_time_ns * PS_PER_NS,
        "phase durations sum to the recovery time"
    );
}

#[test]
fn star_recovery_emits_ordered_phases_summing_to_recovery_time() {
    let mut image = run_and_crash(SchemeKind::Star);
    let mut rec = TraceRecorder::off();
    rec.enable(CatMask::ALL);
    let report = recover_traced(&mut image, &mut rec).expect("clean recovery");
    assert!(report.verified && report.correct);
    let spans = recovery_spans(&rec.events());
    assert_phases(
        &spans,
        &[
            "index-walk",
            "counter-restore",
            "cache-tree-verify",
            "writeback",
        ],
        report.recovery_time_ns,
    );
    // Cross-check against the public seconds accessor too.
    let sum_s = spans.iter().map(|&(_, _, d)| d).sum::<u64>() as f64 / (PS_PER_NS as f64 * 1e9);
    assert!((sum_s - report.recovery_time_s()).abs() < 1e-12);
}

#[test]
fn anubis_recovery_emits_ordered_phases_summing_to_recovery_time() {
    let mut image = run_and_crash(SchemeKind::Anubis);
    let mut rec = TraceRecorder::off();
    rec.enable(CatMask::ALL);
    let report = recover_traced(&mut image, &mut rec).expect("clean recovery");
    assert_phases(
        &recovery_spans(&rec.events()),
        &["shadow-scan", "counter-restore", "writeback"],
        report.recovery_time_ns,
    );
}

#[test]
fn strict_recovery_emits_zero_duration_noop_phase() {
    let mut image = run_and_crash(SchemeKind::Strict);
    let mut rec = TraceRecorder::off();
    rec.enable(CatMask::ALL);
    let report = recover_traced(&mut image, &mut rec).expect("strict needs no recovery");
    assert_eq!(report.recovery_time_ns, 0);
    assert_phases(&recovery_spans(&rec.events()), &["strict-noop"], 0);
}

#[test]
fn osiris_candidate_search_is_a_span_matching_its_modeled_time() {
    use star::core::osiris::{recover_data_counter_traced, DEFAULT_STOP_LOSS};
    let mac = SitMac::new(MacKey::from_seed(77));
    let payload = [7u8; 56];
    let true_counter = 103; // 3 beyond the stale value: 4 candidates tried
    let tag = mac.data_mac(5, &payload, true_counter, 0);
    let stored = MacField::new(tag, 0);
    let mut rec = TraceRecorder::off();
    rec.enable(CatMask::ALL);
    let (found, time_ns) =
        recover_data_counter_traced(&mac, 5, &payload, stored, 100, DEFAULT_STOP_LOSS, &mut rec);
    assert_eq!(found, Some(true_counter));
    assert_eq!(time_ns, 4 * NS_PER_LINE_ACCESS);
    let spans = recovery_spans(&rec.events());
    assert_phases(&spans, &["osiris-candidate-search"], time_ns);
    assert!(rec
        .events()
        .iter()
        .any(|e| e.name == "osiris-recovered" && e.cat == TraceCategory::Recovery));
}

#[test]
fn triad_recovery_emits_scan_then_rebuild_summing_to_recovery_time() {
    let mut m = TriadMemory::new(TriadConfig {
        data_lines: 1 << 10,
        ..TriadConfig::default()
    });
    for i in 0..500u64 {
        m.write_data(i % (1 << 10), i + 1);
    }
    let mut rec = TraceRecorder::off();
    rec.enable(CatMask::ALL);
    let (_, time_ns, verified) = m.crash_and_recover_traced(&mut rec);
    assert!(verified);
    assert_phases(
        &recovery_spans(&rec.events()),
        &["counter-block-scan", "tree-rebuild"],
        time_ns,
    );
}

/// The zero-overhead gate: a run with tracing enabled must produce the
/// same report bytes as a run with the recorders left off (which is the
/// same code path a build without tracing would take) — recording can
/// never perturb the simulation.
#[test]
fn report_bytes_identical_with_tracing_off_and_on() {
    let cfg = ExperimentConfig {
        ops: 1_000,
        ..Default::default()
    };
    for scheme in SchemeKind::ALL {
        let plain = run_scheme(scheme, WorkloadKind::Ycsb, &cfg).to_json();
        let (off_report, off_trace) =
            run_scheme_traced(scheme, WorkloadKind::Ycsb, &cfg, CatMask::NONE);
        let (on_report, on_trace) =
            run_scheme_traced(scheme, WorkloadKind::Ycsb, &cfg, CatMask::ALL);
        assert_eq!(
            plain,
            off_report.to_json(),
            "{scheme:?}: disabled-trace run"
        );
        assert_eq!(plain, on_report.to_json(), "{scheme:?}: enabled-trace run");
        assert!(off_trace.events.is_empty(), "disabled recorder stays empty");
        assert!(!on_trace.events.is_empty(), "enabled recorder records");
    }
}

/// Traced sweeps merge in key order, so any host job count reproduces
/// the serial timeline — and its export bytes — exactly.
#[test]
fn traced_sweep_bytes_identical_across_host_job_counts() {
    let base = ExperimentConfig {
        ops: 300,
        ..Default::default()
    };
    let export = |jobs: usize| {
        let cfg = base.clone().with_jobs(jobs);
        let traces = traced_sweep(&cfg, CatMask::parse("persist,recovery,nvm").unwrap());
        let parts: Vec<_> = traces
            .iter()
            .enumerate()
            .map(|(i, t)| t.part(i as u64 + 1))
            .collect();
        (trace_to_chrome_json(&parts), trace_to_jsonl(&parts))
    };
    let serial = export(1);
    assert_eq!(serial, export(2), "2 jobs");
    assert_eq!(serial, export(4), "4 jobs");
}

#[test]
fn chrome_export_is_balanced_versioned_json() {
    let mut mem = SecureMemory::new(SchemeKind::Star, SecureMemConfig::default());
    mem.enable_trace(CatMask::ALL);
    let mut wl = WorkloadKind::Array.instantiate(42);
    wl.run(200, &mut mem);
    let events = mem.trace_events();
    let hists = mem.trace_histograms();
    let part = star::trace::TracePart {
        pid: 1,
        label: "array/star",
        events: &events,
        hists: Some(&hists),
    };
    let chrome = trace_to_chrome_json(&[part]);
    assert!(chrome.starts_with("{\"schema_version\":"));
    assert!(chrome.contains("\"kind\":\"trace\""));
    assert!(chrome.contains("\"traceEvents\":["));
    assert!(chrome.contains("\"histograms\":"));
    assert_eq!(chrome.matches('{').count(), chrome.matches('}').count());
    assert_eq!(chrome.matches('[').count(), chrome.matches(']').count());

    let jsonl = trace_to_jsonl(&[part]);
    let mut lines = jsonl.lines();
    assert!(lines.next().unwrap().contains("\"format\":\"jsonl\""));
    for line in lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "line: {line}");
    }
}
