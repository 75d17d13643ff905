//! `star-bench` — the one command-line entry point of the reproduction.
//!
//! ```text
//! star-bench baseline [--ops N] [--seed S] [--jobs J] [--out FILE]
//! star-bench profile  [--ops N] [--seed S] [--alloc] [--top N] [--json FILE]
//!                     [--collapsed FILE] [--out FILE]
//! star-bench check    [--cases N] [--seed S] [--jobs J] [--ops-max N]
//!                     [--json FILE] [--repro FILE]
//! star-bench serve    [--horizon-s N] [--rate R] [--seed S] [--jobs J]
//!                     [--data-mb M] [--lanes L] [--json FILE]
//! star-bench shard    [--lanes L] [--jobs J] [--ops N] [--epoch-ops K]
//!                     [--seed S] [--json FILE]
//! star-bench faultsim ...   crash-schedule exploration (see `faultsim.rs`)
//! star-bench figures  ...   the paper's tables and figures (see `figures.rs`)
//! star-bench sim      ...   one simulation run (see `sim.rs`)
//! ```
//!
//! [`SUBCOMMANDS`] is the one flag table; `star-bench --help` prints it.
//! Every flag is checked before anything runs: an unknown subcommand or
//! flag, a missing value, a value that does not parse and a value the
//! run cannot honour (a zero count, an overflowing size, an empty trace
//! filter) print one line on stderr and exit 2. Every FILE flag accepts
//! `-` for stdout; a failed write exits 1.
//!
//! Each flag means one thing wherever it appears. `--jobs J` sizes the
//! host worker pool, and every report is byte-identical at any `J`, so
//! CI can compare artifacts across runners. `--threads T` is the
//! simulated thread count (`sim`, `figures`), and `--lanes L` the lane
//! count (`serve`, `shard`).
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
//! added in schema 5, emitted as v7). The default `--lanes 1` is one
//! store; `--lanes L` of 2 to 8 runs the hot-shard and skew-place
//! scenarios over `L` independent stores, each with its own queue and
//! crashes, and the same document gains per-lane rows. `--rate` must be
//! finite and positive, and `--horizon-s` positive and within u64
//! nanoseconds.
//!
//! `shard` runs the star-shard engine grid: every engine scheme over
//! `--lanes` lane-partitioned metadata domains, `--ops` operations per
//! lane in `--epoch-ops` epochs. The scheme cells run one after
//! another, and each lane is one job on the `--jobs` pool; CI `cmp`s a
//! 1-job run against a 4-job run.
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
//! After a change that moves the baseline rows on purpose, regenerate
//! the golden with `REGEN_GOLDEN=1 cargo test --test report_schema` and
//! commit the diff with the change that moved the numbers.

mod args;
mod faultsim;
mod figures;
mod sim;

use args::{reject, write_out, Args, Subcommand};
use star_bench::baseline::{run_baseline, BaselineConfig};
use star_bench::profbench::run_prof_bench;
use star_check::{run_check, CheckConfig, Program};
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

/// The flag table: each subcommand's name, entry point and usage line,
/// which [`args`] both parses against and prints as the usage text.
const SUBCOMMANDS: [Subcommand; 8] = [
    (
        "baseline",
        baseline,
        "[--ops N] [--seed S] [--jobs J] [--out FILE]",
    ),
    (
        "profile",
        profile,
        "[--ops N] [--seed S] [--alloc] [--top N] [--json FILE] [--collapsed FILE] \
         [--out FILE]",
    ),
    (
        "check",
        check,
        "[--cases N] [--seed S] [--jobs J] [--ops-max N] [--json FILE] [--repro FILE]",
    ),
    (
        "serve",
        serve,
        "[--horizon-s N] [--rate R] [--seed S] [--jobs J] [--data-mb M] [--lanes L] \
         [--json FILE]",
    ),
    (
        "shard",
        shard,
        "[--lanes L] [--jobs J] [--ops N] [--epoch-ops K] [--seed S] [--json FILE]",
    ),
    (
        "faultsim",
        faultsim::run,
        "[--scheme wb|strict|anubis|star] [--workload W] [--ops N] [--seed S] \
         [--fault crash|drop-wpq|torn|flip-mac|flip-counter] [--exhaustive] \
         [--max-cases N] [--sample-seed S] [--lsb-bits B] [--jobs J] [--replay] \
         [--json FILE] [--trace FILE] [--trace-case SEQ] [--trace-filter CATS]",
    ),
    (
        "figures",
        figures::run,
        "[EXPERIMENT] [--ops N] [--threads T] [--jobs J] [--out FILE] [--json FILE] \
         [--trace FILE] [--trace-filter CATS]",
    ),
    (
        "sim",
        sim::run,
        "[--scheme wb|strict|anubis|star] [--workload W] [--ops N] [--threads T] \
         [--cache-kb K] [--adr-lines A] [--lsb-bits B] [--seed S] [--crash] \
         [--attack tamper|replay|bitmap] [--trace FILE] [--trace-filter CATS] \
         [--prof-csv FILE]",
    ),
];

fn main() {
    let (run, args) = args::parse(std::env::args().skip(1));
    run(&args);
}

/// The grid flags `baseline` and `profile` share, on one job. A zero-op
/// grid measures nothing: every ratio would divide by zero and every
/// row would read 0.
fn grid_config(args: &Args) -> BaselineConfig {
    let cfg = BaselineConfig::default();
    BaselineConfig {
        ops: args.at_least("--ops", cfg.ops, 1),
        seed: args.num("--seed", cfg.seed),
        jobs: cfg.jobs,
    }
}

fn profile(args: &Args) {
    // Serial on purpose (`grid_config` keeps one job): with one worker
    // the attributed share is a direct fraction of the measured wall
    // clock (parallel jobs would attribute more span-time than
    // wall-time).
    let cfg = grid_config(args);
    let count_allocs = args.switch("--alloc");
    let top_n = args.num("--top", 12);
    let (json, collapsed) = (args.value("--json"), args.value("--collapsed"));
    let out_path = args.value("--out").unwrap_or("BENCH_PR.json");

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

    if let Some(path) = json {
        write_out(path, "perf-profile document", &run.report.to_json(false));
    }
    if let Some(path) = collapsed {
        write_out(path, "collapsed stacks", &run.report.to_collapsed());
    }

    let mut report = run.baseline;
    report.profile = Some(run.summary);
    write_out(out_path, "baseline rows + perf_profile", &report.to_json());
}

fn shard(args: &Args) {
    let mut spec = ShardSpec::new(SchemeKind::Star, WorkloadKind::Ycsb);
    spec.lanes = args.at_least("--lanes", spec.lanes, 1);
    spec.shards = args.at_least("--jobs", spec.shards, 1);
    spec.ops_per_lane = args.at_least("--ops", spec.ops_per_lane, 1);
    spec.epoch_ops = args.at_least("--epoch-ops", spec.epoch_ops, 1);
    spec.seed = args.num("--seed", spec.seed);
    let json = args.value("--json");

    const SCHEMES: [SchemeKind; 4] = [
        SchemeKind::WriteBack,
        SchemeKind::Strict,
        SchemeKind::Anubis,
        SchemeKind::Star,
    ];
    eprintln!(
        "shard: {} lanes x {} ops (epoch {}), seed {}, {} job(s)...",
        spec.lanes, spec.ops_per_lane, spec.epoch_ops, spec.seed, spec.shards
    );
    let grid = run_shard_grid(&spec, &SCHEMES);
    print!("{}", grid.summary_table());
    if let Some(path) = json {
        write_out(path, "JSON report", &grid.to_json());
    }
}

fn serve(args: &Args) {
    let horizon_s: u64 = args.num("--horizon-s", 3600);
    let rate: f64 = args.num("--rate", 2.0);
    let seed = args.num("--seed", 42);
    let jobs = args.at_least("--jobs", 1, 1);
    let data_mb: u64 = args.num("--data-mb", 256);
    let lanes: usize = args.num("--lanes", 1);
    let json = args.value("--json");
    // One lane is one store; `shard_scenarios` has eight tenant names.
    if !(1..=8).contains(&lanes) {
        reject(format!("--lanes must be 1 (one store) to 8, got {lanes}"));
    }
    // An infinite rate emits a request every simulated ns and never
    // finishes; a NaN or negative one serves nothing.
    if !(rate.is_finite() && rate > 0.0) {
        reject(format!("--rate must be finite and positive, got {rate}"));
    }
    let horizon_ns = horizon_s
        .checked_mul(NS_PER_S)
        .filter(|&ns| ns > 0)
        .unwrap_or_else(|| {
            reject(format!(
                "--horizon-s must be positive and fit in u64 nanoseconds, got {horizon_s}"
            ))
        });
    let data_bytes = data_mb
        .checked_mul(1 << 20)
        .unwrap_or_else(|| reject(format!("--data-mb {data_mb} overflows u64 bytes")));
    let mem = SecureMemConfig::builder()
        .data_lines(data_bytes / 64)
        .build()
        .unwrap_or_else(|err| reject(err));
    let cfg = ServeConfig {
        horizon_ns,
        seed,
        mem,
        threads: jobs,
    };
    let scenarios = if lanes == 1 {
        standard_scenarios_at(&cfg, rate)
    } else {
        shard_scenarios(&cfg, lanes, rate)
    };
    eprintln!(
        "serve: {horizon_s} s horizon, {rate} req/s base, {data_mb} MB data per lane, \
         seed {seed}, {lanes} lane(s), {jobs} job(s)..."
    );
    let grid = run_grid(&cfg, &scenarios);
    print!("{}", grid.to_table());
    if let Some(path) = json {
        write_out(path, "JSON report", &grid.to_json());
    }
}

fn check(args: &Args) {
    let mut cfg = CheckConfig::default();
    // No case, no worker, or an (exclusive) op bound below 2, which
    // leaves every program empty, would PASS while checking nothing.
    cfg.cases = args.at_least("--cases", cfg.cases, 1);
    cfg.seed = args.num("--seed", cfg.seed);
    cfg.threads = args.at_least("--jobs", cfg.threads, 1);
    cfg.gen.max_ops = args.at_least("--ops-max", cfg.gen.max_ops, 2);
    cfg.gen.min_ops = cfg.gen.min_ops.min(cfg.gen.max_ops - 1);
    let json = args.value("--json");

    if let Some(path) = args.value("--repro") {
        let text = if path == "-" {
            let mut buf = String::new();
            std::io::stdin().read_to_string(&mut buf).map(|_| buf)
        } else {
            std::fs::read_to_string(path)
        };
        let text = text.unwrap_or_else(|err| {
            eprintln!("cannot read repro {path}: {err}");
            std::process::exit(1);
        });
        let program = Program::from_json(&text).unwrap_or_else(|err| {
            eprintln!("cannot parse repro: {err}");
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
        "check: {} cases, seed {}, {} job(s)...",
        cfg.cases, cfg.seed, cfg.threads
    );
    let report = run_check(&cfg);
    print!("{}", report.summary_table());
    if let Some(path) = json {
        write_out(path, "JSON report", &report.to_json());
    }
    if !report.clean() {
        std::process::exit(1);
    }
}

fn baseline(args: &Args) {
    let mut cfg = grid_config(args);
    // A zero-job grid runs on no worker.
    cfg.jobs = args.at_least("--jobs", cfg.jobs, 1);
    let out_path = args.value("--out").unwrap_or("BENCH_PR.json");

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
    write_out(out_path, "baseline rows", &report.to_json());
}
