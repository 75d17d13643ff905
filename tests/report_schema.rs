//! Golden-file coverage for report schema v7.
//!
//! Committed golden files pin exact report bytes — field order,
//! escaping, float formatting — so any schema drift shows up as a
//! reviewable diff instead of silently breaking downstream consumers:
//!
//! * `tests/golden/run_report_v7.json` — a canonical
//!   [`RunReport`](star::core::RunReport) (the `run-report` kind);
//! * `tests/golden/serve_report_v7.json` — a canonical star-serve grid
//!   (the `serve` kind added in schema 5);
//! * `tests/golden/shard_report_v7.json` — a canonical star-shard grid
//!   with a lane crash (the `shard` kind added in schema 6);
//! * `tests/golden/serve_shard_report_v7.json` — a canonical multi-lane
//!   star-serve grid (the same `serve` kind, with per-lane rows);
//! * `tests/golden/bench_baseline_v7.json` — the reduced scheme grid
//!   `star-bench baseline` runs by default (the `bench-baseline` kind):
//!   write traffic, IPC, energy and recovery time per cell, the numbers
//!   behind Figs. 11, 12, 13 and 14b;
//! * `tests/golden/explore_report_v7.json` — exhaustive crash sweeps
//!   (the `explore-report` kind), one report per line: every case's
//!   outcome, recovery cost and readback verdict;
//! * `tests/golden/trace_v7.json` and `tests/golden/trace_v7.jsonl` — a
//!   short traced STAR run with its crash recovery on the same timeline,
//!   in the Chrome trace-event and JSONL forms of the `trace` kind;
//! * `tests/golden/check_report_v7.json` — star-check sweeps (the
//!   `check-report` kind), one per line: a clean generated sweep, then a
//!   failing report with its shrunk repro;
//! * `tests/golden/check_repro_v7.json` — replayable programs (the
//!   `check-repro` kind), one per line, covering every op tag and crash
//!   plan;
//! * `tests/golden/scheme_sweep_v7.json` — a small `star-bench figures`
//!   grid (the `scheme-sweep` kind): every workload under every scheme.
//!
//! Refresh after an *intended* schema change (bumping `SCHEMA_VERSION`
//! where appropriate) with:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test report_schema
//! ```

mod common;

use common::check_golden;
use star::core::recovery::recover_traced;
use star::core::{
    FaultKind, Instrumented, SchemeKind, SecureMemConfig, SecureMemory, SCHEMA_VERSION,
};
use star::mem::MemEvent;
use star::serve::{run_grid, shard_scenarios, standard_scenarios, ServeConfig};
use star::shard::{run_shard_grid, ShardSpec};
use star::trace::{
    merge, trace_to_chrome_json, trace_to_jsonl, CatMask, JsonValue, TracePart, TraceRecorder,
};
use star::workloads::WorkloadKind;
use star_check::{CaseOutcome, CheckConfig, CheckReport, CrashSpec, Program, Violation};
use star_faultsim::CrashExplorer;

const GOLDEN_RUN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/run_report_v7.json"
);
const GOLDEN_SERVE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/serve_report_v7.json"
);
const GOLDEN_SHARD: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/shard_report_v7.json"
);
const GOLDEN_SERVE_SHARD: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/serve_shard_report_v7.json"
);
const GOLDEN_BASELINE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/bench_baseline_v7.json"
);
const GOLDEN_EXPLORE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/explore_report_v7.json"
);
const GOLDEN_TRACE_CHROME: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace_v7.json");
const GOLDEN_TRACE_JSONL: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace_v7.jsonl");
const GOLDEN_CHECK: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/check_report_v7.json"
);
const GOLDEN_REPRO: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/check_repro_v7.json"
);
const GOLDEN_SWEEP: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/scheme_sweep_v7.json"
);

/// The canonical deterministic run the run-report golden freezes.
fn canonical_report_json() -> String {
    let mut m = SecureMemory::new(SchemeKind::Star, SecureMemConfig::small());
    for i in 0..200 {
        m.write_data(i % 11, i);
        m.persist_data(i % 11);
    }
    m.report().to_json()
}

/// The canonical serve grid the serve golden freezes: the standard
/// scheme×scenario grid over a 10-second horizon (long enough that both
/// mid-stream power failures of every scenario fire).
fn canonical_serve_json() -> String {
    let cfg = ServeConfig::quick(10);
    run_grid(&cfg, &standard_scenarios(&cfg)).to_json()
}

/// The canonical star-shard grid the shard golden freezes: two lanes of
/// star and anubis (both recoverable — the spec's crash replays in every
/// cell) with a lane-1 crash, so the golden pins the per-lane sections,
/// the epoch-merged persist log, the recovery record shape and the
/// merged totals all at once.
fn canonical_shard_json() -> String {
    let spec = ShardSpec::new(SchemeKind::Star, WorkloadKind::Array)
        .with_lanes(2)
        .with_ops_per_lane(120)
        .with_epoch_ops(40)
        .with_crash(1, 1);
    run_shard_grid(&spec, &[SchemeKind::Star, SchemeKind::Anubis], 1).to_json()
}

/// The canonical multi-lane serve grid `serve_shard_report_v7.json`
/// freezes: the hot-shard and skew-place scenarios over two lanes.
fn canonical_serve_shard_json() -> String {
    let cfg = ServeConfig::quick(10);
    run_grid(&cfg, &shard_scenarios(&cfg, 2, 2.0)).to_json()
}

/// The crash sweeps the explore golden freezes, one report per line:
/// STAR and Anubis, each crash-only and with a flipped MAC bit, at every
/// persist point of 60 ycsb ops; then Strict crash-only at every point
/// of 20 ycsb ops, where most crashes land mid-chain and the readback
/// rejects the image.
fn canonical_explore_json() -> String {
    let explorer = |scheme, fault, ops| {
        CrashExplorer::new(scheme, WorkloadKind::Ycsb, ops, 1)
            .with_fault(fault)
            .all_points()
            .with_threads(2)
    };
    let mut sweeps = Vec::new();
    for scheme in [SchemeKind::Star, SchemeKind::Anubis] {
        for fault in [FaultKind::CrashOnly, FaultKind::FlipMacBit { bit: 5 }] {
            sweeps.push(explorer(scheme, fault, 60));
        }
    }
    sweeps.push(explorer(SchemeKind::Strict, FaultKind::CrashOnly, 20));
    sweeps
        .iter()
        .map(|e| e.explore().to_json() + "\n")
        .collect()
}

/// The timeline the trace goldens freeze, as (Chrome JSON, JSONL): six
/// array ops under STAR on the Table I geometry, then a crash whose
/// recovery phases continue the same timeline. Part 1 records every
/// category; part 2 replays the run with only `persist` and `recovery`,
/// so its histograms stay empty.
fn canonical_trace_json() -> (String, String) {
    let run = |mask: CatMask| {
        let mut mem = SecureMemory::new(SchemeKind::Star, SecureMemConfig::default());
        mem.enable_trace(mask);
        let mut wl = WorkloadKind::Array.instantiate(42);
        wl.run(6, &mut mem);
        let events = mem.trace_events();
        let hists = mem.trace_histograms();
        let mut recovery = TraceRecorder::off();
        recovery.enable(mask);
        recovery.set_now(mem.now_ps());
        let mut image = mem.crash();
        recover_traced(&mut image, &mut recovery).expect("STAR recovers");
        (merge(&[&events, &recovery.events()]), hists)
    };
    let (all, all_hists) = run(CatMask::ALL);
    let (filtered, filtered_hists) = run(CatMask::parse("persist,recovery").unwrap());
    let parts = [
        TracePart {
            pid: 1,
            label: "array/star",
            events: &all,
            hists: Some(&all_hists),
        },
        TracePart {
            pid: 2,
            label: "array/star \"persist,recovery\"",
            events: &filtered,
            hists: Some(&filtered_hists),
        },
    ];
    (trace_to_chrome_json(&parts), trace_to_jsonl(&parts))
}

/// The star-check reports the check golden freezes, one per line: six
/// generated cases of seed 1 (all clean), then a hand-built failing
/// report whose violation detail needs escaping and whose case carries
/// its shrunk repro.
fn canonical_check_json() -> String {
    let clean = star_check::run_check(&CheckConfig {
        seed: 1,
        cases: 6,
        ..Default::default()
    });
    let failing = CheckReport {
        seed: 7,
        cases: vec![
            CaseOutcome {
                case: 0,
                ops: 2,
                summary: "2 ops (1 writes), clean".into(),
                violations: Vec::new(),
                shrunk: None,
            },
            CaseOutcome {
                case: 1,
                ops: 3,
                summary: "3 ops (1 writes)".into(),
                violations: vec![Violation {
                    scheme: "star".into(),
                    invariant: "silent-corruption",
                    detail: "line 4 read \"v2\"\\ expected\tv3\n".into(),
                }],
                shrunk: Some(canonical_programs().remove(1)),
            },
        ],
    };
    format!("{}\n{}\n", clean.to_json(), failing.to_json())
}

/// Programs covering every op tag under each crash plan: none, a
/// schedule fraction, and an absolute persist point.
fn canonical_programs() -> Vec<Program> {
    let ops = vec![
        MemEvent::Write {
            line: 3,
            version: 1,
        },
        MemEvent::Clwb { line: 3 },
        MemEvent::Read { line: 3 },
        MemEvent::Fence,
        MemEvent::Work { count: 200 },
        MemEvent::Write {
            line: 9,
            version: 2,
        },
    ];
    [CrashSpec::None, CrashSpec::Frac(500), CrashSpec::At(4)]
        .into_iter()
        .map(|crash| Program::with_config(&SecureMemConfig::small(), ops.clone(), crash))
        .collect()
}

/// The check-repro documents of [`canonical_programs`], one per line.
fn canonical_repro_json() -> String {
    canonical_programs()
        .iter()
        .map(|p| p.to_json() + "\n")
        .collect()
}

/// The scheme sweep the sweep golden freezes: every workload under every
/// scheme at 60 ops.
fn canonical_sweep_json() -> String {
    let cfg = star_bench::ExperimentConfig {
        ops: 60,
        ..Default::default()
    };
    star_bench::experiments::sweep_to_json(&cfg, &star_bench::experiments::scheme_sweep(&cfg))
}

/// Sums every numeric value of the JSON object at `path`.
fn object_sum(doc: &JsonValue, path: &[&str]) -> u64 {
    let mut node = doc;
    for key in path {
        node = node.get(key).unwrap_or_else(|| panic!("missing {key:?}"));
    }
    let JsonValue::Obj(pairs) = node else {
        panic!("{path:?} is not an object");
    };
    pairs
        .iter()
        .map(|(k, v)| v.as_u64().unwrap_or_else(|| panic!("{k:?} not integral")))
        .sum()
}

#[test]
fn run_report_matches_committed_golden_bytes() {
    check_golden(GOLDEN_RUN, &canonical_report_json());
}

#[test]
fn serve_report_matches_committed_golden_bytes() {
    check_golden(GOLDEN_SERVE, &canonical_serve_json());
}

#[test]
fn shard_report_matches_committed_golden_bytes() {
    check_golden(GOLDEN_SHARD, &canonical_shard_json());
}

#[test]
fn serve_shard_report_matches_committed_golden_bytes() {
    check_golden(GOLDEN_SERVE_SHARD, &canonical_serve_shard_json());
}

#[test]
fn bench_baseline_matches_committed_golden_bytes() {
    let report = star_bench::run_baseline(&star_bench::BaselineConfig::default());
    check_golden(GOLDEN_BASELINE, &report.to_json());
}

#[test]
fn explore_reports_match_committed_golden_bytes() {
    check_golden(GOLDEN_EXPLORE, &canonical_explore_json());
}

#[test]
fn trace_exports_match_committed_golden_bytes() {
    let (chrome, jsonl) = canonical_trace_json();
    check_golden(GOLDEN_TRACE_CHROME, &chrome);
    check_golden(GOLDEN_TRACE_JSONL, &jsonl);
}

#[test]
fn check_reports_match_committed_golden_bytes() {
    check_golden(GOLDEN_CHECK, &canonical_check_json());
}

#[test]
fn check_repros_match_committed_golden_bytes() {
    let text = canonical_repro_json();
    check_golden(GOLDEN_REPRO, &text);
    for (line, program) in text.lines().zip(canonical_programs()) {
        assert_eq!(Program::from_json(line), Ok(program), "repro round-trips");
    }
}

#[test]
fn scheme_sweep_matches_committed_golden_bytes() {
    check_golden(GOLDEN_SWEEP, &canonical_sweep_json());
}

#[test]
fn golden_report_roundtrips_and_balances() {
    let text = canonical_report_json();
    let doc = JsonValue::parse(&text).expect("report parses");
    assert_eq!(
        doc.get("schema_version").and_then(JsonValue::as_u64),
        Some(u64::from(SCHEMA_VERSION))
    );
    assert_eq!(
        doc.get("kind").and_then(JsonValue::as_str),
        Some("run-report")
    );
    // The provenance matrix is an exact decomposition of the device's
    // write counter, and the energy matrix of the write energy.
    let device_writes = object_sum(&doc, &["nvm", "writes"]);
    assert!(device_writes > 0);
    assert_eq!(
        object_sum(&doc, &["prof", "writes_by_cause"]),
        device_writes
    );
    let write_pj = doc
        .get("prof")
        .and_then(|p| p.get("write_pj"))
        .and_then(JsonValue::as_u64)
        .expect("prof.write_pj");
    assert_eq!(
        object_sum(&doc, &["prof", "energy_by_cause"]),
        device_writes * write_pj
    );
}

/// The `serve` invariants on the canonical single-store grid (see
/// [`check_serve_balances`]).
#[test]
fn golden_serve_report_balances() {
    check_serve_balances(&canonical_serve_json(), 15, 1);
}

/// The same `serve` invariants on the canonical two-lane grid, where
/// every cell also carries lane rows and each tenant its lane.
#[test]
fn golden_serve_shard_report_balances() {
    check_serve_balances(&canonical_serve_shard_json(), 10, 2);
}

/// The `serve` invariants, checked on the emitted JSON rather than the
/// in-memory structs: every cell's per-tenant request counts sum to the
/// cell total, and its outage fields balance (see [`check_outages`]). A
/// multi-lane cell's lane rows balance the same way, their requests and
/// unavailability sum to the cell's, and each tenant's lane is a real
/// lane. A single-store cell carries no lane fields at all.
fn check_serve_balances(text: &str, cell_count: usize, lane_count: u64) {
    let doc = JsonValue::parse(text).expect("serve report parses");
    assert_eq!(
        doc.get("schema_version").and_then(JsonValue::as_u64),
        Some(u64::from(SCHEMA_VERSION))
    );
    assert_eq!(doc.get("kind").and_then(JsonValue::as_str), Some("serve"));
    let cells = doc.get("cells").and_then(JsonValue::as_arr).unwrap();
    assert_eq!(cells.len(), cell_count, "5 schemes x each scenario");
    for cell in cells {
        let label = format!(
            "{}/{}",
            cell.get("scheme").and_then(JsonValue::as_str).unwrap(),
            cell.get("scenario").and_then(JsonValue::as_str).unwrap()
        );
        let requests = u64_at(cell, "requests");
        let tenants = cell.get("tenants").and_then(JsonValue::as_arr).unwrap();
        let tenant_sum: u64 = tenants.iter().map(|t| u64_at(t, "requests")).sum();
        assert_eq!(tenant_sum, requests, "{label}: tenant counts sum to total");
        let unavailability = check_outages(cell, &label);
        let Some(lanes) = cell.get("lanes").and_then(JsonValue::as_arr) else {
            assert_eq!(lane_count, 1, "{label}: a multi-lane cell has lane rows");
            assert!(
                tenants.iter().all(|t| t.get("lane").is_none()),
                "{label}: a single store names no tenant lane"
            );
            continue;
        };
        assert_eq!(lanes.len() as u64, lane_count, "{label}");
        let lane_sum: u64 = lanes.iter().map(|l| u64_at(l, "requests")).sum();
        assert_eq!(lane_sum, requests, "{label}: lane counts sum to total");
        assert_eq!(
            lanes.iter().map(|l| check_outages(l, &label)).sum::<u64>(),
            unavailability,
            "{label}: unavailability is the sum of every lane's spans"
        );
        for t in tenants {
            assert!(
                u64_at(t, "lane") < lane_count,
                "{label}: tenant placement names a real lane"
            );
        }
    }
}

fn u64_at(v: &JsonValue, key: &str) -> u64 {
    v.get(key).and_then(JsonValue::as_u64).unwrap()
}

/// Checks a `serve` cell's or lane row's outage fields and returns its
/// unavailability: `crashes` counts the downtime spans,
/// `unavailability_ns` is the sum of their `total_ns`, and
/// `writes_by_cause` decomposes `nvm.writes` for every backend.
fn check_outages(v: &JsonValue, label: &str) -> u64 {
    let spans = v.get("downtime_spans").and_then(JsonValue::as_arr).unwrap();
    let span_sum: u64 = spans.iter().map(|s| u64_at(s, "total_ns")).sum();
    let unavailability = u64_at(v, "unavailability_ns");
    assert_eq!(
        unavailability, span_sum,
        "{label}: unavailability is the sum of its spans"
    );
    assert_eq!(
        u64_at(v, "crashes"),
        spans.len() as u64,
        "{label}: crash count matches the span list"
    );
    assert_eq!(
        object_sum(v, &["writes_by_cause"]),
        u64_at(v.get("nvm").unwrap(), "writes"),
        "{label}: writes_by_cause decomposes nvm.writes"
    );
    unavailability
}

/// The schema-v6 `shard` invariants, checked on the emitted JSON: every
/// cell's epoch log covers every (epoch, lane) pair in key order, its
/// logged persist points sum to the per-lane totals, each lane embeds a
/// full self-describing run-report, and the merged section's headline
/// counters are the lane sums.
#[test]
fn golden_shard_report_balances() {
    let doc = JsonValue::parse(&canonical_shard_json()).expect("shard report parses");
    assert_eq!(
        doc.get("schema_version").and_then(JsonValue::as_u64),
        Some(u64::from(SCHEMA_VERSION))
    );
    assert_eq!(doc.get("kind").and_then(JsonValue::as_str), Some("shard"));
    let lanes = doc.get("lanes").and_then(JsonValue::as_u64).unwrap();
    let ops = doc.get("ops_per_lane").and_then(JsonValue::as_u64).unwrap();
    let epoch_ops = doc.get("epoch_ops").and_then(JsonValue::as_u64).unwrap();
    let epochs = ops.div_ceil(epoch_ops);
    let JsonValue::Arr(cells) = doc.get("cells").expect("cells") else {
        panic!("cells is not an array");
    };
    assert_eq!(cells.len(), 2, "star and anubis");
    for cell in cells {
        let label = cell.get("scheme").and_then(JsonValue::as_str).unwrap();
        let JsonValue::Arr(shards) = cell.get("shards").expect("shards") else {
            panic!("shards is not an array");
        };
        assert_eq!(shards.len() as u64, lanes, "{label}: one section per lane");
        let mut lane_instructions = 0u64;
        let mut lane_points = 0u64;
        for (i, lane) in shards.iter().enumerate() {
            assert_eq!(
                lane.get("lane").and_then(JsonValue::as_u64),
                Some(i as u64),
                "{label}: lane sections are lane-ordered"
            );
            lane_points += lane
                .get("persist_points")
                .and_then(JsonValue::as_u64)
                .unwrap();
            let report = lane.get("report").expect("lane run-report");
            assert_eq!(
                report.get("kind").and_then(JsonValue::as_str),
                Some("run-report"),
                "{label}: lane sections embed self-describing run-reports"
            );
            lane_instructions += report
                .get("instructions")
                .and_then(JsonValue::as_u64)
                .unwrap();
        }
        // The crash scheduled on lane 1 recovered in every cell.
        let recoveries = shards[1]
            .get("recoveries")
            .and_then(JsonValue::as_arr)
            .unwrap();
        assert_eq!(recoveries.len(), 1, "{label}: lane 1 crashed once");
        assert!(
            recoveries[0]
                .get("recovery_ns")
                .and_then(JsonValue::as_u64)
                .unwrap()
                > 0
        );
        let JsonValue::Arr(log) = cell.get("epoch_log").expect("epoch_log") else {
            panic!("epoch_log is not an array");
        };
        assert_eq!(log.len() as u64, epochs * lanes, "{label}: full epoch log");
        let logged_points: u64 = log
            .iter()
            .map(|row| {
                let JsonValue::Arr(fields) = row else {
                    panic!("epoch_log rows are arrays");
                };
                fields[2].as_u64().unwrap()
            })
            .sum();
        assert_eq!(
            logged_points, lane_points,
            "{label}: the epoch log conserves persist points"
        );
        let merged = cell.get("merged").expect("merged totals");
        assert_eq!(
            merged.get("instructions").and_then(JsonValue::as_u64),
            Some(lane_instructions),
            "{label}: merged instructions are the lane sums"
        );
    }
}

/// The schema-v4 invariant of ISSUE 4: for every scheme with a device,
/// the per-cause provenance totals in the emitted report sum exactly to
/// the device's total write count. The four engine schemes and Triad all
/// have a timed device; Osiris exists only as pure recovery functions
/// (`star::core::osiris`) and never emits a report.
#[test]
fn prof_totals_balance_for_every_scheme_in_json() {
    for scheme in SchemeKind::ALL {
        let mut m = SecureMemory::new(scheme, SecureMemConfig::small());
        for i in 0..150 {
            m.write_data(i % 13, i);
            m.persist_data(i % 13);
        }
        let doc = JsonValue::parse(&m.report().to_json()).expect("report parses");
        assert_eq!(
            object_sum(&doc, &["prof", "writes_by_cause"]),
            object_sum(&doc, &["nvm", "writes"]),
            "{} provenance must decompose the device counter",
            scheme.label()
        );
    }
    // Triad has no RunReport; its profile and device stats balance too.
    let mut triad = star::core::triad::TriadMemory::new(star::core::triad::TriadConfig {
        data_lines: 1 << 12,
        persist_levels: 2,
        ..Default::default()
    });
    for i in 0..150u64 {
        triad.write_data(i % 64, i + 1);
    }
    assert_eq!(
        triad.prof_summary().total_writes(),
        triad.nvm_stats().total_writes()
    );
}

/// Cross-crate host-parallelism sweep: every report family that offers a
/// worker-thread knob (`--threads` / `--jobs`) must emit byte-identical
/// JSON at 1, 2 and 4 workers. This is what lets CI `cmp` artifacts
/// across runners, and what makes the hot-path optimizations of the
/// throughput campaign observationally invisible: the work may be
/// dispatched differently, but the merged bytes may not move.
#[test]
fn reports_are_byte_identical_across_worker_threads() {
    // star-bench figures grid (run-report rows) across `--jobs`.
    let bench_ref = {
        let cfg = star_bench::ExperimentConfig {
            ops: 400,
            ..Default::default()
        };
        star_bench::experiments::sweep_to_json(&cfg, &star_bench::experiments::scheme_sweep(&cfg))
    };
    // star-check fuzz sweep across `--threads`.
    let check_ref = {
        let cfg = star_check::CheckConfig {
            cases: 12,
            ..Default::default()
        };
        star_check::run_check(&cfg).to_json()
    };
    // star-serve grids across `--threads`: the single store and a
    // four-lane fleet.
    let serve_ref = {
        let cfg = ServeConfig::quick(3);
        run_grid(&cfg, &standard_scenarios(&cfg)).to_json()
    };
    let serve_lanes_ref = {
        let cfg = ServeConfig::quick(3);
        run_grid(&cfg, &shard_scenarios(&cfg, 4, 2.0)).to_json()
    };
    // star-shard grid across dispatch `--threads`.
    let shard_spec = ShardSpec::new(SchemeKind::Star, WorkloadKind::Array)
        .with_lanes(2)
        .with_ops_per_lane(80)
        .with_epoch_ops(40);
    let shard_ref =
        run_shard_grid(&shard_spec, &[SchemeKind::Star, SchemeKind::Anubis], 1).to_json();

    for workers in [2usize, 4] {
        let cfg = star_bench::ExperimentConfig {
            ops: 400,
            jobs: workers,
            ..Default::default()
        };
        assert_eq!(
            star_bench::experiments::sweep_to_json(
                &cfg,
                &star_bench::experiments::scheme_sweep(&cfg)
            ),
            bench_ref,
            "figures grid drifted at jobs={workers}"
        );
        let cfg = star_check::CheckConfig {
            cases: 12,
            threads: workers,
            ..Default::default()
        };
        assert_eq!(
            star_check::run_check(&cfg).to_json(),
            check_ref,
            "check report drifted at threads={workers}"
        );
        let mut cfg = ServeConfig::quick(3);
        cfg.threads = workers;
        assert_eq!(
            run_grid(&cfg, &standard_scenarios(&cfg)).to_json(),
            serve_ref,
            "serve report drifted at threads={workers}"
        );
        assert_eq!(
            run_grid(&cfg, &shard_scenarios(&cfg, 4, 2.0)).to_json(),
            serve_lanes_ref,
            "multi-lane serve report drifted at threads={workers}"
        );
        assert_eq!(
            run_shard_grid(
                &shard_spec,
                &[SchemeKind::Star, SchemeKind::Anubis],
                workers
            )
            .to_json(),
            shard_ref,
            "shard report drifted at threads={workers}"
        );
    }
}
