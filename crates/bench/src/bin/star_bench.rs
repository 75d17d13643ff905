//! `star-bench` — the benchmark-regression harness CLI.
//!
//! ```text
//! star-bench baseline [--ops N] [--seed S] [--jobs J] [--out FILE]
//!                     [--progress]
//! star-bench profile  [--ops N] [--seed S] [--alloc] [--top N]
//!                     [--json FILE] [--collapsed FILE] [--out FILE]
//! star-bench check    [--cases N] [--seed S] [--threads T] [--ops-max N]
//!                     [--json FILE] [--repro FILE]
//! star-bench serve    [--horizon-s N] [--rate R] [--seed S] [--threads T]
//!                     [--data-mb M] [--shards N] [--json FILE] [--progress]
//! star-bench shard    [--lanes L] [--shards S] [--threads T] [--ops N]
//!                     [--epoch-ops K] [--seed S] [--json FILE] [--progress]
//! ```
//!
//! `baseline` runs the canonical reduced scheme grid ((array, ycsb) ×
//! (wb, strict, anubis, star) plus the synthetic Triad cell) and writes
//! the frozen metrics to `--out` (default `BENCH_PR.json`). With the
//! default arguments the file is byte-identical to the schema-v7 golden
//! `tests/golden/bench_baseline_v7.json`; CI `cmp`s the two. Host
//! wall-clock time is not measured here; the `perfbench` package
//! measures it.
//!
//! `check` is the property-based differential checker (`star-check`):
//! `--cases N` seeded random programs run through every scheme engine
//! and Triad and are compared against the executable reference model.
//! Failures are shrunk to a minimal program and printed with a
//! replayable JSON repro; `--repro FILE` re-checks one such repro
//! (`-` reads it from stdin). Exit status 1 on any violation.
//!
//! `serve` runs the star-serve availability grid: every backend scheme
//! (the four engine schemes plus Triad) through the standard steady /
//! diurnal / burst scenarios on one store, each with two mid-stream
//! power failures, and prints per-cell p50/p99/p999 latency, goodput,
//! and unavailability. `--json FILE` writes the `serve` document (a kind
//! added in schema 5, emitted as v7). `--shards N` (2 to 8) sets the
//! lane count: the hot-shard and skew-place scenarios then run over `N`
//! independent stores, each with its own queue and crashes, and the
//! same document gains per-lane rows. `--rate` must be finite and
//! positive, and `--horizon-s` positive and within u64 nanoseconds.
//!
//! `shard` runs the star-shard engine grid: every engine scheme over
//! `--lanes` lane-partitioned metadata domains, `--ops` operations per
//! lane in `--epoch-ops` epochs, each lane one job on `--shards` worker
//! threads, with scheme cells dispatched over `--threads`. Here
//! `--shards` only sizes the worker pool: the `shard` document is
//! byte-identical at any `--shards`/`--threads` setting — CI `cmp`s a
//! 1-shard run against a 4-shard run.
//!
//! `profile` runs the same canonical grid serially under the
//! `star-scope` wall-clock profiler and prints the hottest span paths
//! with their exclusive-time shares; the measured rows are identical to
//! an unprofiled `baseline` run. `--alloc` also attributes heap
//! allocations to spans through the counting global allocator installed
//! in this binary. `--json FILE` writes the full `perf-profile`
//! document, `--collapsed FILE` writes flamegraph-compatible collapsed
//! stacks (`flamegraph.pl`, inferno, speedscope), and the summary —
//! top components, attributed share, allocs/op — lands in `--out`
//! (default `BENCH_PR.json`) under `"perf_profile"`.
//!
//! `--progress` (long-running subcommands) prints a `done/total` case
//! heartbeat to **stderr** about once a second; stdout report bytes are
//! never touched.
//!
//! Output of all subcommands is byte-identical for any `--jobs` /
//! `--threads` value, so CI can compare artifacts across runners. After
//! a change that moves the baseline rows on purpose, regenerate the
//! golden with `REGEN_GOLDEN=1 cargo test --test report_schema` and
//! commit the diff with the change that moved the numbers.

use star_bench::baseline::{run_baseline, BaselineConfig};
use star_bench::profbench::run_prof_bench;
use star_check::{run_check, CheckConfig, Program};
use star_core::report::schema_preamble;
use star_core::{SchemeKind, SecureMemConfig};
use star_serve::scenario::NS_PER_S;
use star_serve::{run_grid, shard_scenarios, standard_scenarios_at, ServeConfig};
use star_shard::{run_shard_grid, ShardSpec};
use star_workloads::WorkloadKind;
use std::io::Read as _;

/// Counting allocator wrapper: a passthrough to the system allocator
/// until `star-bench profile --alloc` flips the accounting on.
#[global_allocator]
static ALLOC: star_scope::StarAlloc = star_scope::StarAlloc::new();

fn usage() -> ! {
    eprintln!(
        "usage: star-bench baseline [--ops N] [--seed S] [--jobs J] [--out FILE] [--progress]\n\
         \x20      star-bench profile [--ops N] [--seed S] [--alloc] [--top N] [--json FILE] \
         [--collapsed FILE] [--out FILE]\n\
         \x20      star-bench check [--cases N] [--seed S] [--threads T] [--ops-max N] \
         [--json FILE] [--repro FILE]\n\
         \x20      star-bench serve [--horizon-s N] [--rate R] [--seed S] [--threads T] \
         [--data-mb M] [--shards N] [--json FILE] [--progress]\n\
         \x20      star-bench shard [--lanes L] [--shards S] [--threads T] [--ops N] \
         [--epoch-ops K] [--seed S] [--json FILE] [--progress]\n\
         serve --shards N sets the lane count (0 = one store, or 2..=8 lanes);\n\
         shard --shards S only sizes the worker pool (the report is identical at any S)"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("baseline") => baseline_cmd(&args[1..]),
        Some("profile") => profile_cmd(&args[1..]),
        Some("check") => check_cmd(&args[1..]),
        Some("serve") => serve_cmd(&args[1..]),
        Some("shard") => shard_cmd(&args[1..]),
        _ => usage(),
    }
}

fn profile_cmd(args: &[String]) {
    let mut cfg = BaselineConfig::default();
    let mut count_allocs = false;
    let mut top_n: usize = 12;
    let mut json_path: Option<String> = None;
    let mut collapsed_path: Option<String> = None;
    let mut out_path = String::from("BENCH_PR.json");
    let mut i = 0;
    let value = |args: &[String], i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--ops" => cfg.ops = value(args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => cfg.seed = value(args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--alloc" => count_allocs = true,
            "--top" => top_n = value(args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--json" => json_path = Some(value(args, &mut i)),
            "--collapsed" => collapsed_path = Some(value(args, &mut i)),
            "--out" => out_path = value(args, &mut i),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    reject_zero_ops(cfg.ops);
    // Serial on purpose: with one worker the attributed share is a
    // direct fraction of the measured wall clock (parallel jobs would
    // attribute more span-time than wall-time).
    cfg.jobs = 1;

    eprintln!(
        "profile: {} ops per cell, seed {}, alloc accounting {}...",
        cfg.ops,
        cfg.seed,
        if count_allocs { "on" } else { "off" }
    );
    let run = run_prof_bench(&cfg, count_allocs);

    print!("{}", run.report.table(top_n));
    println!(
        "attributed: {:.1}% of {:.1} ms wall clock ({:.1} ms unattributed)",
        run.summary.attributed_share * 100.0,
        run.summary.wall_ms,
        run.report.unattributed_ns() as f64 / 1e6
    );
    if count_allocs {
        println!(
            "allocations: {} ({} bytes) over {} simulated ops -> {:.2} allocs/op",
            run.report.allocs, run.report.alloc_bytes, run.summary.ops, run.summary.allocs_per_op
        );
    }

    let write_file = |text: String, path: &str, what: &str| {
        if path == "-" {
            println!("{text}");
        } else if let Err(e) = std::fs::write(path, text) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        } else {
            eprintln!("wrote {what} to {path}");
        }
    };
    if let Some(path) = &json_path {
        let doc = format!(
            "{{{}{}}}",
            schema_preamble("perf-profile"),
            run.report.json_body(false)
        );
        write_file(doc, path, "perf-profile document");
    }
    if let Some(path) = &collapsed_path {
        write_file(run.report.to_collapsed(), path, "collapsed stacks");
    }

    let mut report = run.baseline;
    report.profile = Some(run.summary);
    if let Err(err) = std::fs::write(&out_path, report.to_json()) {
        eprintln!("cannot write {out_path}: {err}");
        std::process::exit(1);
    }
    eprintln!(
        "profile: {} rows + perf_profile -> {out_path}",
        report.rows.len()
    );
}

fn shard_cmd(args: &[String]) {
    let mut spec = ShardSpec::new(SchemeKind::Star, WorkloadKind::Ycsb);
    let mut threads: usize = 1;
    let mut json_path: Option<String> = None;
    let mut i = 0;
    let value = |args: &[String], i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--lanes" => {
                spec.lanes = value(args, &mut i).parse().unwrap_or_else(|_| usage());
            }
            "--shards" => {
                spec.shards = value(args, &mut i).parse().unwrap_or_else(|_| usage());
            }
            "--threads" => threads = value(args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--ops" => {
                spec.ops_per_lane = value(args, &mut i).parse().unwrap_or_else(|_| usage());
            }
            "--epoch-ops" => {
                spec.epoch_ops = value(args, &mut i).parse().unwrap_or_else(|_| usage());
            }
            "--seed" => spec.seed = value(args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--json" => json_path = Some(value(args, &mut i)),
            "--progress" => star_sweep::set_progress(true),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    for (flag, value) in [
        ("--lanes", spec.lanes),
        ("--ops", spec.ops_per_lane),
        ("--epoch-ops", spec.epoch_ops),
    ] {
        if value == 0 {
            eprintln!("bad geometry: {flag} must be at least 1");
            std::process::exit(2);
        }
    }
    const SCHEMES: [SchemeKind; 4] = [
        SchemeKind::WriteBack,
        SchemeKind::Strict,
        SchemeKind::Anubis,
        SchemeKind::Star,
    ];
    eprintln!(
        "shard: {} lanes x {} ops (epoch {}), seed {}, {} shard(s), {} thread(s)...",
        spec.lanes, spec.ops_per_lane, spec.epoch_ops, spec.seed, spec.shards, threads
    );
    let grid = run_shard_grid(&spec, &SCHEMES, threads);
    print!("{}", grid.summary_table());
    if let Some(path) = json_path {
        let json = grid.to_json();
        if path == "-" {
            println!("{json}");
        } else if let Err(e) = std::fs::write(&path, json) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        } else {
            eprintln!("wrote JSON report to {path}");
        }
    }
}

fn serve_cmd(args: &[String]) {
    let mut horizon_s: u64 = 3600;
    let mut rate: f64 = 2.0;
    let mut seed: u64 = 42;
    let mut threads: usize = 1;
    let mut data_mb: u64 = 256;
    let mut shards: usize = 0;
    let mut json_path: Option<String> = None;
    let mut i = 0;
    let value = |args: &[String], i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--horizon-s" => horizon_s = value(args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--rate" => rate = value(args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = value(args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--threads" => threads = value(args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--data-mb" => data_mb = value(args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--shards" => shards = value(args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--json" => json_path = Some(value(args, &mut i)),
            "--progress" => star_sweep::set_progress(true),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    // `shard_scenarios` needs a lane to skew load onto and has eight
    // tenant names.
    if !matches!(shards, 0 | 2..=8) {
        eprintln!("bad geometry: --shards must be 0 (one store) or 2..=8 lanes, got {shards}");
        std::process::exit(2);
    }
    // An infinite rate emits a request every simulated ns and never
    // finishes; a NaN or negative one serves nothing.
    if !(rate.is_finite() && rate > 0.0) {
        eprintln!("bad traffic: --rate must be finite and positive, got {rate}");
        std::process::exit(2);
    }
    let horizon_ns = horizon_s
        .checked_mul(NS_PER_S)
        .filter(|&ns| ns > 0)
        .unwrap_or_else(|| {
            eprintln!(
                "bad traffic: --horizon-s must be positive and fit in u64 nanoseconds, \
                 got {horizon_s}"
            );
            std::process::exit(2);
        });
    let cfg = ServeConfig {
        horizon_ns,
        seed,
        mem: SecureMemConfig::builder()
            .data_lines((data_mb << 20) / 64)
            .build()
            .unwrap_or_else(|e| {
                eprintln!("bad geometry: {e}");
                std::process::exit(2);
            }),
        threads,
    };
    let scenarios = if shards == 0 {
        standard_scenarios_at(&cfg, rate)
    } else {
        shard_scenarios(&cfg, shards, rate)
    };
    eprintln!(
        "serve: {horizon_s} s horizon, {rate} req/s base, {data_mb} MB data per lane, \
         seed {seed}, {} lane(s), {threads} thread(s)...",
        shards.max(1)
    );
    let grid = run_grid(&cfg, &scenarios);
    print!("{}", grid.to_table());
    if let Some(path) = json_path {
        let json = grid.to_json();
        if path == "-" {
            println!("{json}");
        } else if let Err(e) = std::fs::write(&path, json) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        } else {
            eprintln!("wrote JSON report to {path}");
        }
    }
}

fn check_cmd(args: &[String]) {
    let mut cfg = CheckConfig::default();
    let mut json_path: Option<String> = None;
    let mut repro_path: Option<String> = None;
    let mut i = 0;
    let value = |args: &[String], i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--cases" => cfg.cases = value(args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => cfg.seed = value(args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--threads" => cfg.threads = value(args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--ops-max" => {
                cfg.gen.max_ops = value(args, &mut i).parse().unwrap_or_else(|_| usage());
                cfg.gen.min_ops = cfg.gen.min_ops.min(cfg.gen.max_ops.saturating_sub(1));
            }
            "--json" => json_path = Some(value(args, &mut i)),
            "--repro" => repro_path = Some(value(args, &mut i)),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    // No case, no worker, or an (exclusive) op bound below 2, which
    // leaves every program empty, would PASS while checking nothing.
    for (flag, value, min) in [
        ("--cases", cfg.cases, 1),
        ("--threads", cfg.threads as u64, 1),
        ("--ops-max", cfg.gen.max_ops as u64, 2),
    ] {
        if value < min {
            eprintln!("bad arguments: {flag} must be at least {min}, got {value}");
            std::process::exit(2);
        }
    }

    if let Some(path) = repro_path {
        let text = if path == "-" {
            let mut buf = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
                eprintln!("cannot read repro from stdin: {e}");
                std::process::exit(1);
            }
            buf
        } else {
            std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("cannot read repro {path}: {e}");
                std::process::exit(1);
            })
        };
        let program = Program::from_json(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse repro: {e}");
            std::process::exit(1);
        });
        eprintln!("replaying repro: {}", program.summary());
        let violations = star_check::check_program(&program);
        if violations.is_empty() {
            println!("repro: PASS (no violation reproduced)");
            return;
        }
        for v in &violations {
            println!("repro: {v}");
        }
        println!("repro: FAIL ({} violation(s))", violations.len());
        std::process::exit(1);
    }

    eprintln!(
        "check: {} cases, seed {}, {} thread(s)...",
        cfg.cases, cfg.seed, cfg.threads
    );
    let report = run_check(&cfg);
    print!("{}", report.summary_table());
    if let Some(path) = json_path {
        let json = report.to_json();
        if path == "-" {
            println!("{json}");
        } else if let Err(e) = std::fs::write(&path, json) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        } else {
            eprintln!("wrote JSON report to {path}");
        }
    }
    if !report.clean() {
        std::process::exit(1);
    }
}

/// A zero-op grid measures nothing: every ratio would divide by zero
/// and every row would read 0, so refuse it at the command line.
fn reject_zero_ops(ops: usize) {
    if ops == 0 {
        eprintln!("bad grid: --ops must be at least 1");
        std::process::exit(2);
    }
}

fn baseline_cmd(args: &[String]) {
    let mut cfg = BaselineConfig::default();
    let mut out_path = String::from("BENCH_PR.json");
    let mut i = 0;
    let value = |args: &[String], i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--ops" => cfg.ops = value(args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => cfg.seed = value(args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--jobs" => cfg.jobs = value(args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--out" => out_path = value(args, &mut i),
            "--progress" => star_sweep::set_progress(true),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    reject_zero_ops(cfg.ops);

    eprintln!(
        "baseline: {} ops, seed {}, {} job(s)...",
        cfg.ops, cfg.seed, cfg.jobs
    );
    let report = run_baseline(&cfg);

    println!(
        "{:<10} {:<7} {:>12} {:>7} {:>14} {:>12}",
        "workload", "scheme", "writes", "ipc", "energy_pj", "recovery_ns"
    );
    for row in &report.rows {
        println!(
            "{:<10} {:<7} {:>12} {:>7.3} {:>14} {:>12}",
            row.workload, row.scheme, row.total_writes, row.ipc, row.energy_pj, row.recovery_ns
        );
    }

    if let Err(err) = std::fs::write(&out_path, report.to_json()) {
        eprintln!("cannot write {out_path}: {err}");
        std::process::exit(1);
    }
    eprintln!("baseline: {} rows -> {out_path}", report.rows.len());
}
