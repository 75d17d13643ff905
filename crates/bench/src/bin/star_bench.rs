//! `star-bench` — the benchmark-regression harness CLI.
//!
//! ```text
//! star-bench baseline [--ops N] [--seed S] [--jobs J] [--out FILE]
//!                     [--check FILE] [--sweep-bench] [--sweep-ops N]
//!                     [--shard-bench] [--shard-ops N] [--sim-bench]
//!                     [--sim-ops N] [--profile-bench] [--progress]
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
//! the frozen metrics to `--out` (default `BENCH_PR.json`). With
//! `--check FILE` it also diffs the fresh run against a committed
//! baseline (normally `bench/baseline.json`) and exits non-zero when
//! any cell regressed beyond its threshold: +5 % write traffic or
//! energy, −5 % IPC, +10 % recovery time. `--sweep-bench` additionally
//! times an exhaustive star/ckpt crash sweep under the fork and replay
//! strategies (asserting byte-identical reports) and records the
//! speedup under `"crash_sweep_fork"`; a `min_speedup` floor pinned in
//! the committed baseline makes that measurement a gate. `--shard-bench`
//! likewise times the 8-lane star-shard run at 1/2/4/8 worker shards
//! (asserting byte-identical reports) and records the scaling rows
//! under `"shard_scaling"`, gated by the baseline's
//! `min_speedup_2shard` / `min_speedup_4shard` floors. `--sim-bench`
//! times raw array/star throughput and records it under
//! `"sim_throughput"`, gated by the baseline's pinned
//! `baseline_ops_per_sec` reference and `min_speedup` floor.
//! `--profile-bench` runs the grid under the `star-scope` profiler with
//! allocation accounting (identical simulated rows, serial jobs) so a
//! pinned `max_allocs_per_op` ceiling can be checked in the same
//! invocation.
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
//! diurnal / burst scenarios, each with two mid-stream power failures,
//! and prints per-cell p50/p99/p999 latency, goodput, and
//! unavailability. `--json FILE` writes the schema-v6 `serve` document.
//! With `--shards N` it runs the sharded backend instead: the hot-shard
//! and skew-place scenarios over `N` lanes, per-lane queues and
//! downtime ledgers, emitted as the `serve-shard` document.
//!
//! `shard` runs the star-shard engine grid: every engine scheme over
//! `--lanes` lane-partitioned metadata domains, `--ops` operations per
//! lane in `--epoch-ops` epochs, each lane one job on `--shards` worker
//! threads, with scheme cells dispatched over `--threads`. The `shard` document
//! is byte-identical at any `--shards`/`--threads` setting — CI `cmp`s
//! a 1-shard run against a 4-shard run.
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
//! `--threads` value, so CI can compare artifacts across runners. To
//! refresh the baseline after an intended change: `star-bench baseline
//! --out bench/baseline.json` and commit the diff with the PR that
//! moved the numbers.

use star_bench::baseline::{check, run_baseline, BaselineConfig, BaselineReport};
use star_bench::profbench::run_prof_bench;
use star_bench::shardbench::{run_shard_bench, SHARD_BENCH_OPS};
use star_bench::simbench::{run_sim_bench, SIM_BENCH_OPS};
use star_bench::sweepbench::{run_sweep_bench, SWEEP_BENCH_OPS};
use star_check::{run_check, CheckConfig, Program};
use star_core::report::schema_preamble;
use star_core::{SchemeKind, SecureMemConfig};
use star_serve::{run_grid, run_sharded_grid, shard_scenarios, standard_scenarios_at, ServeConfig};
use star_shard::{run_shard_grid, ShardSpec};
use star_workloads::WorkloadKind;
use std::io::Read as _;

/// Counting allocator wrapper: a passthrough to the system allocator
/// until `star-bench profile --alloc` flips the accounting on.
#[global_allocator]
static ALLOC: star_scope::StarAlloc = star_scope::StarAlloc::new();

fn usage() -> ! {
    eprintln!(
        "usage: star-bench baseline [--ops N] [--seed S] [--jobs J] [--out FILE] [--check FILE] \
         [--sweep-bench] [--sweep-ops N] [--shard-bench] [--shard-ops N] [--sim-bench] \
         [--sim-ops N] [--profile-bench] [--progress]\n\
         \x20      star-bench profile [--ops N] [--seed S] [--alloc] [--top N] [--json FILE] \
         [--collapsed FILE] [--out FILE]\n\
         \x20      star-bench check [--cases N] [--seed S] [--threads T] [--ops-max N] \
         [--json FILE] [--repro FILE]\n\
         \x20      star-bench serve [--horizon-s N] [--rate R] [--seed S] [--threads T] \
         [--data-mb M] [--shards N] [--json FILE] [--progress]\n\
         \x20      star-bench shard [--lanes L] [--shards S] [--threads T] [--ops N] \
         [--epoch-ops K] [--seed S] [--json FILE] [--progress]"
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
    let cfg = ServeConfig {
        horizon_ns: horizon_s * 1_000_000_000,
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
    let write_json = |json: String, path: String| {
        if path == "-" {
            println!("{json}");
        } else if let Err(e) = std::fs::write(&path, json) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        } else {
            eprintln!("wrote JSON report to {path}");
        }
    };
    if shards > 0 {
        let scenarios = shard_scenarios(&cfg, shards, rate);
        eprintln!(
            "serve: {horizon_s} s horizon, {rate} req/s base, {data_mb} MB data per lane, \
             seed {seed}, {shards} lane(s), {threads} thread(s)..."
        );
        let grid = run_sharded_grid(&cfg, &scenarios);
        print!("{}", grid.to_table());
        if let Some(path) = json_path {
            write_json(grid.to_json(), path);
        }
        return;
    }
    let scenarios = standard_scenarios_at(&cfg, rate);
    eprintln!(
        "serve: {horizon_s} s horizon, {rate} req/s base, {data_mb} MB data, seed {seed}, \
         {threads} thread(s)..."
    );
    let grid = run_grid(&cfg, &scenarios);
    print!("{}", grid.to_table());
    if let Some(path) = json_path {
        write_json(grid.to_json(), path);
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

fn baseline_cmd(args: &[String]) {
    let mut cfg = BaselineConfig::default();
    let mut out_path = String::from("BENCH_PR.json");
    let mut check_path: Option<String> = None;
    let mut i = 0;
    let value = |args: &[String], i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    let mut sweep_bench = false;
    let mut sweep_ops = SWEEP_BENCH_OPS;
    let mut shard_bench = false;
    let mut shard_ops = SHARD_BENCH_OPS;
    let mut sim_bench = false;
    let mut sim_ops = SIM_BENCH_OPS;
    let mut profile_bench = false;
    while i < args.len() {
        match args[i].as_str() {
            "--ops" => cfg.ops = value(args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => cfg.seed = value(args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--jobs" => cfg.jobs = value(args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--out" => out_path = value(args, &mut i),
            "--check" => check_path = Some(value(args, &mut i)),
            "--sweep-bench" => sweep_bench = true,
            "--sweep-ops" => sweep_ops = value(args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--shard-bench" => shard_bench = true,
            "--shard-ops" => shard_ops = value(args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--sim-bench" => sim_bench = true,
            "--sim-ops" => sim_ops = value(args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--profile-bench" => profile_bench = true,
            "--progress" => star_sweep::set_progress(true),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }

    eprintln!(
        "baseline: {} ops, seed {}, {} job(s)...",
        cfg.ops, cfg.seed, cfg.jobs
    );
    let mut report = if profile_bench {
        // Run the grid under span recording + allocation accounting so
        // the gate can enforce a pinned max_allocs_per_op ceiling in the
        // same invocation. Serial for attribution (see `profile_cmd`);
        // the simulated rows are identical either way.
        cfg.jobs = 1;
        let run = run_prof_bench(&cfg, true);
        println!(
            "perf_profile: {:.2} allocs/op over {} simulated ops",
            run.summary.allocs_per_op, run.summary.ops
        );
        let mut report = run.baseline;
        report.profile = Some(run.summary);
        report
    } else {
        run_baseline(&cfg)
    };

    if sim_bench {
        eprintln!("sim_throughput: timing array/star at {sim_ops} ops per rep...");
        let sim = run_sim_bench(sim_ops, cfg.seed);
        println!(
            "sim_throughput: {} x {} ops in {:.1} ms -> {:.0} ops/sec",
            sim.reps, sim.ops, sim.wall_ms, sim.ops_per_sec
        );
        report.sim = Some(sim);
    }

    if sweep_bench {
        eprintln!("crash_sweep_fork: exhaustive {sweep_ops}-op star/ckpt sweep, fork vs replay...");
        let sweep = run_sweep_bench(sweep_ops, cfg.seed);
        println!(
            "crash_sweep_fork: {} points, fork {:.1} ms, replay {:.1} ms -> {:.1}x",
            sweep.points, sweep.fork_ms, sweep.replay_ms, sweep.speedup
        );
        report.sweep = Some(sweep);
    }

    if shard_bench {
        eprintln!(
            "shard_scaling: 8-lane star/ycsb run ({shard_ops} ops per lane) at 1/2/4/8 shards..."
        );
        let shard = run_shard_bench(shard_ops, cfg.seed);
        for row in &shard.rows {
            println!(
                "shard_scaling: {} shard(s), {:.1} ms -> {:.2}x",
                row.shards, row.wall_ms, row.speedup
            );
        }
        report.shard = Some(shard);
    }

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

    let Some(check_path) = check_path else {
        return;
    };
    let text = std::fs::read_to_string(&check_path).unwrap_or_else(|err| {
        eprintln!("cannot read baseline {check_path}: {err}");
        std::process::exit(1);
    });
    let committed = BaselineReport::from_json(&text).unwrap_or_else(|err| {
        eprintln!("cannot parse baseline {check_path}: {err}");
        std::process::exit(1);
    });
    match check(&report, &committed) {
        Err(err) => {
            eprintln!("check: {err}");
            std::process::exit(1);
        }
        Ok(verdict) => {
            for line in &verdict.improvements {
                println!("check: improved: {line}");
            }
            for line in &verdict.regressions {
                println!("check: REGRESSION: {line}");
            }
            if verdict.passed() {
                println!(
                    "check: PASS ({} cells vs {check_path})",
                    committed.rows.len()
                );
            } else {
                println!(
                    "check: FAIL ({} regression(s) vs {check_path})",
                    verdict.regressions.len()
                );
                std::process::exit(1);
            }
        }
    }
}
