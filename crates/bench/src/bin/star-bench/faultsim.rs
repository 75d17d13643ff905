//! `star-bench faultsim` — crash-schedule exploration.
//!
//! ```text
//! star-bench faultsim [--scheme wb|strict|anubis|star] [--workload W] [--ops N]
//!     [--seed S] [--fault crash|drop-wpq|torn|flip-mac|flip-counter]
//!     [--exhaustive] [--max-cases N] [--sample-seed S] [--lsb-bits B]
//!     [--threads N] [--replay] [--json FILE] [--trace FILE]
//!     [--trace-case SEQ] [--trace-filter CATS]
//! ```
//!
//! Learns the (workload, scheme, seed) run's persist schedule, then
//! executes the run **once** more, seizing the crash image in-line at
//! each chosen persist point without stopping or cloning the machine,
//! and runs only the fault, recovery and classification per case.
//! `--replay` switches to the oracle strategy that replays the run from
//! scratch per case and crashes it there — the report is byte-identical
//! either way (CI enforces this), replay is just O(ops x cases) slower.
//! `--threads N` shards the cases across a fixed pool of N workers; the
//! report (including `--json` bytes) is identical for every thread
//! count — see `star_sweep`'s determinism contract. `--json FILE`
//! additionally writes the full machine-readable report.
//!
//! `--trace FILE` re-runs one explored case with star-trace recording on
//! and writes its timeline — pre-crash engine activity, the injected
//! crash and fault as `fault`-category instants, and the recovery phases
//! on the same simulated clock — as Chrome trace-event JSON (`.jsonl`
//! for JSONL). `--trace-case SEQ` picks the persist point (default: the
//! first explored case). `--trace-filter` narrows the categories.
//!
//! Exit status: 0 when no explored case was silently corrupted, 1
//! otherwise — so a CI smoke run is just
//! `star-bench faultsim --scheme star --workload array --ops 50 --exhaustive`.
//! A silent crash-only sweep is shrunk to a minimal `star-check`
//! program; a faulted one names its first silent case instead, since a
//! repro carries a crash-only program.
//! Arguments that would explore nothing or trace a point the run never
//! reaches (`--ops 0`, `--max-cases` below 2, `--threads 0`, a
//! `--trace-case` of 0 or past the last persist point, a `--trace` of a
//! run without one) exit 2 with one line on stderr, before the sweep.

use crate::args::{reject, write_out, write_trace, Args};
use star_core::persist::PersistPointKind;
use star_core::SchemeKind;
use star_faultsim::{faultsim_config, CrashExplorer, ExploreStrategy, FaultCase, FaultKind};
use star_trace::TracePart;
use star_workloads::WorkloadKind;

/// The `--fault` labels, and their long forms from the report.
fn parse_fault(label: &str) -> Option<FaultKind> {
    Some(match label {
        "crash" | "crash-only" => FaultKind::CrashOnly,
        "drop-wpq" => FaultKind::DropWpq { max_entries: 8 },
        "torn" | "torn-write" => FaultKind::TornWrite,
        "flip-mac" | "flip-mac-bit" => FaultKind::FlipMacBit { bit: 5 },
        "flip-counter" | "flip-counter-bit" => FaultKind::FlipCounterBit { bit: 17 },
        _ => return None,
    })
}

/// `star-bench faultsim`.
pub fn run(args: &Args) {
    let scheme = args
        .parsed("--scheme", SchemeKind::from_label)
        .unwrap_or(SchemeKind::Star);
    let workload = args
        .parsed("--workload", WorkloadKind::from_label)
        .unwrap_or(WorkloadKind::Array);
    let ops = args.at_least("--ops", 200, 1);
    let seed = args.num("--seed", 42);
    let fault = args
        .parsed("--fault", parse_fault)
        .unwrap_or(FaultKind::CrashOnly);
    // The sampler always keeps the first and last persist point.
    let max_cases = args.at_least("--max-cases", 256, 2);
    let sample_seed = args.num("--sample-seed", 1);
    let threads = args.at_least("--threads", 1, 1);
    let replay = args.switch("--replay");
    let json = args.value("--json");
    let trace = args.value("--trace");
    let trace_case: Option<u64> = args.parsed("--trace-case", |s| s.parse().ok());
    if trace_case == Some(0) {
        reject("--trace-case must be a persist point, numbered from 1");
    }
    let trace_filter = args.trace_filter();
    let mut cfg = faultsim_config();
    if let Some(bits) = args.parsed("--lsb-bits", |s| s.parse().ok()) {
        cfg.counter_lsb_bits = bits;
        cfg.validate().unwrap_or_else(|err| reject(err));
    }

    let mut explorer = CrashExplorer::new(scheme, workload, ops, seed)
        .with_config(cfg)
        .with_fault(fault)
        .with_max_cases(max_cases)
        .with_sample_seed(sample_seed)
        .with_threads(threads)
        .with_strategy(if replay {
            ExploreStrategy::Replay
        } else {
            ExploreStrategy::Fork
        });
    if args.switch("--exhaustive") {
        explorer = explorer.all_points();
    }
    // Only the schedule pre-pass knows the run's persist points.
    if trace.is_some() || trace_case.is_some() {
        let total = explorer.schedule().len() as u64;
        if let Some(seq) = trace_case.filter(|&seq| seq > total) {
            reject(format!(
                "--trace-case {seq} is past the run's last persist point ({total})"
            ));
        }
        if trace.is_some() && total == 0 {
            reject("--trace: the run has no persist point to replay");
        }
    }

    eprintln!(
        "exploring crash schedule: {workload} x {ops} ops under {scheme} (fault: {fault}, \
         {threads} threads, {} strategy)...",
        if replay { "replay" } else { "fork" }
    );
    let report = explorer.explore();
    print!("{}", report.summary_table());
    if let Some(path) = json {
        write_out(path, "JSON report", &report.to_json());
    }

    if let Some(path) = trace {
        // The sampler keeps the first persist point, so a run with one
        // explores a case.
        let seq = trace_case
            .or_else(|| report.cases.first().map(|c| c.crash_at))
            .expect("a run with a persist point explores a case");
        eprintln!("replaying case at persist point {seq} with tracing...");
        let case = FaultCase {
            crash_at: seq,
            fault,
        };
        let (result, trace) = explorer.run_case_traced(&case, trace_filter);
        eprintln!(
            "traced case outcome: {} ({})",
            result.outcome, result.detail
        );
        let label = format!("{}/{}/case-{seq}", workload.label(), scheme.label());
        let part = TracePart {
            pid: 1,
            label: &label,
            events: &trace.events,
            hists: Some(&trace.hists),
        };
        write_trace(path, &[part], trace.dropped);
    }

    if !report.clean() {
        eprintln!("FAIL: silent corruption found");
        if fault == FaultKind::CrashOnly {
            print_minimal_silent_program(&explorer, workload, ops, seed);
        } else {
            // The shrinker replays crash-only programs, so it cannot
            // reproduce what a fault caused.
            let case = report.silent_corruptions()[0];
            let kind = case.kind.map_or("?", PersistPointKind::label);
            eprintln!(
                "first silent case: point {} ({kind}): {}",
                case.crash_at, case.detail
            );
            eprintln!(
                "no minimal program: a repro carries a crash-only program, and this sweep \
                 injected {fault}"
            );
        }
        std::process::exit(1);
    }
}

/// On silent corruption, re-records the workload's event stream as a
/// `star-check` program, shrinks it to a minimal sequence that still
/// produces a silent-corruption crash point, and prints it with a
/// replayable JSON repro — so the failure travels as a few ops instead
/// of a case index into a particular workload binary.
fn print_minimal_silent_program(
    explorer: &CrashExplorer,
    workload: WorkloadKind,
    ops: usize,
    seed: u64,
) {
    use star_check::{find_silent_crash, shrink_ops, CrashSpec, Program};

    let scheme = explorer.scheme();
    let mut sink = star_mem::VecSink::new();
    workload.instantiate(seed).run(ops, &mut sink);
    let program = Program::with_config(explorer.config(), sink.events, CrashSpec::None);

    const CRASH_SCAN_CAP: usize = 64;
    let Some((seq, detail)) = find_silent_crash(&program, scheme, CRASH_SCAN_CAP) else {
        eprintln!(
            "shrink: could not reproduce silent corruption from the recorded \
             event stream (first {CRASH_SCAN_CAP} crash points scanned)"
        );
        return;
    };
    eprintln!("shrink: reproduced at persist point {seq}: {detail}");

    let minimal = shrink_ops(&program, |p| {
        find_silent_crash(p, scheme, CRASH_SCAN_CAP).is_some()
    });
    let (seq, _) = find_silent_crash(&minimal, scheme, CRASH_SCAN_CAP)
        .expect("shrink preserves the failing predicate");
    let mut repro = minimal.clone();
    repro.crash = CrashSpec::At(seq);

    println!(
        "minimal silent-corruption program ({} of {} recorded ops, crash at persist point {seq}):",
        minimal.ops.len(),
        program.ops.len()
    );
    for op in &minimal.ops {
        println!("  {op}");
    }
    println!("repro: {}", repro.to_json());
    println!("replay with: star-bench check --repro FILE");
}
