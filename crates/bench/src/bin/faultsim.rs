//! `faultsim` — crash-schedule exploration from the command line.
//!
//! ```text
//! faultsim [--scheme wb|strict|anubis|star] [--workload NAME] [--ops N]
//!          [--seed S] [--fault crash|drop-wpq|torn|flip-mac|flip-counter]
//!          [--exhaustive] [--max-cases N] [--sample-seed S]
//!          [--lsb-bits B] [--threads N] [--replay] [--json PATH]
//!          [--trace PATH] [--trace-case SEQ] [--trace-filter CATS]
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
//! count — see `star_sweep`'s determinism contract. `--json PATH`
//! additionally writes the full machine-readable report (`-` for
//! stdout).
//!
//! `--trace PATH` re-runs one explored case with star-trace recording on
//! and writes its timeline — pre-crash engine activity, the injected
//! crash and fault as `fault`-category instants, and the recovery phases
//! on the same simulated clock — as Chrome trace-event JSON (`.jsonl`
//! for JSONL). `--trace-case SEQ` picks the persist point (default: the
//! first explored case). `--trace-filter` narrows the categories.
//!
//! Exit status: 0 when no explored case was silently corrupted, 1
//! otherwise — so a CI smoke run is just
//! `faultsim --scheme star --workload array --ops 50 --exhaustive`.
//! Arguments that would explore nothing or trace a point the run never
//! reaches (`--ops 0`, `--max-cases` below 2, `--threads 0`, a
//! `--trace-case` of 0 or past the last persist point) exit 2 with one
//! line on stderr.

use star_core::report::{trace_to_chrome_json, trace_to_jsonl};
use star_core::SchemeKind;
use star_faultsim::{faultsim_config, CrashExplorer, ExploreStrategy, FaultCase, FaultKind};
use star_trace::{CatMask, TracePart};
use star_workloads::WorkloadKind;

#[derive(Debug)]
struct Options {
    scheme: SchemeKind,
    workload: WorkloadKind,
    ops: usize,
    seed: u64,
    fault: FaultKind,
    exhaustive: bool,
    max_cases: usize,
    sample_seed: u64,
    threads: usize,
    replay: bool,
    lsb_bits: Option<u32>,
    json: Option<String>,
    trace: Option<String>,
    trace_case: Option<u64>,
    trace_filter: CatMask,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            scheme: SchemeKind::Star,
            workload: WorkloadKind::Array,
            ops: 200,
            seed: 42,
            fault: FaultKind::CrashOnly,
            exhaustive: false,
            max_cases: 256,
            sample_seed: 1,
            threads: 1,
            replay: false,
            lsb_bits: None,
            json: None,
            trace: None,
            trace_case: None,
            trace_filter: CatMask::ALL,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: faultsim [--scheme wb|strict|anubis|star] [--workload NAME] [--ops N] \
         [--seed S] [--fault crash|drop-wpq|torn|flip-mac|flip-counter] [--exhaustive] \
         [--max-cases N] [--sample-seed S] [--lsb-bits B] [--threads N] [--replay] \
         [--json PATH] [--trace PATH] [--trace-case SEQ] [--trace-filter CATS]"
    );
    std::process::exit(2);
}

/// Rejects a degenerate argument: one line on stderr, exit status 2.
fn bad_args(msg: impl std::fmt::Display) -> ! {
    eprintln!("bad arguments: {msg}");
    std::process::exit(2);
}

fn parse_fault(label: &str) -> FaultKind {
    match label {
        "crash" | "crash-only" => FaultKind::CrashOnly,
        "drop-wpq" => FaultKind::DropWpq { max_entries: 8 },
        "torn" | "torn-write" => FaultKind::TornWrite,
        "flip-mac" | "flip-mac-bit" => FaultKind::FlipMacBit { bit: 5 },
        "flip-counter" | "flip-counter-bit" => FaultKind::FlipCounterBit { bit: 17 },
        _ => usage(),
    }
}

fn parse_args() -> Options {
    let mut opts = Options::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |args: &[String], i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--scheme" => {
                opts.scheme =
                    SchemeKind::from_label(&value(&args, &mut i)).unwrap_or_else(|| usage())
            }
            "--workload" => {
                opts.workload =
                    WorkloadKind::from_label(&value(&args, &mut i)).unwrap_or_else(|| usage())
            }
            "--ops" => opts.ops = value(&args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => opts.seed = value(&args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--fault" => opts.fault = parse_fault(&value(&args, &mut i)),
            "--exhaustive" => opts.exhaustive = true,
            "--max-cases" => {
                opts.max_cases = value(&args, &mut i).parse().unwrap_or_else(|_| usage())
            }
            "--sample-seed" => {
                opts.sample_seed = value(&args, &mut i).parse().unwrap_or_else(|_| usage())
            }
            "--threads" => opts.threads = value(&args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--replay" => opts.replay = true,
            "--lsb-bits" => {
                opts.lsb_bits = Some(value(&args, &mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--json" => opts.json = Some(value(&args, &mut i)),
            "--trace" => opts.trace = Some(value(&args, &mut i)),
            "--trace-case" => {
                opts.trace_case = Some(value(&args, &mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--trace-filter" => {
                opts.trace_filter = CatMask::parse(&value(&args, &mut i)).unwrap_or_else(|err| {
                    eprintln!("{err}");
                    usage()
                })
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    if opts.ops == 0 {
        bad_args("--ops must be at least 1");
    }
    if opts.max_cases < 2 {
        // The sampler always keeps the first and last persist point.
        bad_args("--max-cases must be at least 2");
    }
    if opts.threads == 0 {
        bad_args("--threads must be at least 1");
    }
    if opts.trace_case == Some(0) {
        bad_args("--trace-case must be a persist point, numbered from 1");
    }
    opts
}

fn main() {
    let opts = parse_args();
    let mut cfg = faultsim_config();
    if let Some(bits) = opts.lsb_bits {
        cfg.counter_lsb_bits = bits;
        if let Err(msg) = cfg.validate() {
            eprintln!("invalid configuration: {msg}");
            std::process::exit(2);
        }
    }
    let strategy = if opts.replay {
        ExploreStrategy::Replay
    } else {
        ExploreStrategy::Fork
    };
    let mut explorer = CrashExplorer::new(opts.scheme, opts.workload, opts.ops, opts.seed)
        .with_config(cfg)
        .with_fault(opts.fault)
        .with_max_cases(opts.max_cases)
        .with_sample_seed(opts.sample_seed)
        .with_threads(opts.threads)
        .with_strategy(strategy);
    if opts.exhaustive {
        explorer = explorer.all_points();
    }
    if let Some(seq) = opts.trace_case {
        let total = explorer.schedule().len();
        if seq > total as u64 {
            bad_args(format!(
                "--trace-case {seq} is past the run's last persist point ({total})"
            ));
        }
    }

    eprintln!(
        "exploring crash schedule: {} x {} ops under {} (fault: {}, {} threads, {} strategy)...",
        opts.workload,
        opts.ops,
        opts.scheme,
        opts.fault,
        opts.threads,
        if opts.replay { "replay" } else { "fork" }
    );
    let report = explorer.explore();
    print!("{}", report.summary_table());

    if let Some(path) = &opts.json {
        let json = report.to_json();
        if path == "-" {
            println!("{json}");
        } else if let Err(e) = std::fs::write(path, json) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        } else {
            eprintln!("wrote JSON report to {path}");
        }
    }

    if let Some(path) = &opts.trace {
        let seq = opts
            .trace_case
            .or_else(|| report.cases.first().map(|c| c.crash_at))
            .unwrap_or_else(|| {
                eprintln!("--trace: no explored case to replay");
                std::process::exit(2);
            });
        let case = FaultCase {
            crash_at: seq,
            fault: opts.fault,
        };
        eprintln!("replaying case at persist point {seq} with tracing...");
        let (result, trace) = explorer.run_case_traced(&case, opts.trace_filter);
        eprintln!(
            "traced case outcome: {} ({})",
            result.outcome, result.detail
        );
        let label = format!(
            "{}/{}/case-{seq}",
            opts.workload.label(),
            opts.scheme.label()
        );
        let part = TracePart {
            pid: 1,
            label: &label,
            events: &trace.events,
            hists: Some(&trace.hists),
        };
        let doc = if path.ends_with(".jsonl") {
            trace_to_jsonl(&[part])
        } else {
            trace_to_chrome_json(&[part])
        };
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("cannot write trace {path}: {e}");
            std::process::exit(2);
        }
        if trace.dropped > 0 {
            eprintln!(
                "trace: WARNING: {} events dropped (ring buffer full)",
                trace.dropped
            );
        }
        eprintln!("trace: {} events -> {path}", trace.events.len());
    }

    if !report.clean() {
        eprintln!("FAIL: silent corruption found");
        print_minimal_silent_program(&explorer, opts.workload, opts.ops, opts.seed);
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
    use star_check::{find_silent_crash, shrink_ops, CrashSpec, ProgramRecorder};

    let scheme = explorer.scheme();
    let mut recorder = ProgramRecorder::new();
    workload.instantiate(seed).run(ops, &mut recorder);
    let program = recorder.into_program(explorer.config(), CrashSpec::None);

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
