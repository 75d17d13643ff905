//! Bad arguments to every `star-bench` subcommand are rejected at the
//! command line, before anything runs, with a one-line message, empty
//! stdout and exit status 2: never by a library assertion's panic, a run
//! that never ends, a value that silently wraps, or a vacuous all-zero,
//! `NaN` or not-reached report.

use std::process::{Command, Output};

const STAR_BENCH: &str = env!("CARGO_BIN_EXE_star-bench");

/// Every subcommand, with one of its count flags.
const SUBCOMMANDS: [(&str, &str); 8] = [
    ("baseline", "--ops"),
    ("profile", "--ops"),
    ("check", "--cases"),
    ("serve", "--horizon-s"),
    ("shard", "--lanes"),
    ("faultsim", "--ops"),
    ("figures", "--ops"),
    ("sim", "--ops"),
];

fn star_bench(args: &[&str]) -> Output {
    Command::new(STAR_BENCH)
        .args(args)
        .output()
        .expect("binary runs")
}

/// Asserts `out` is a one-line rejection with exit status 2 that printed
/// nothing on stdout.
fn assert_rejected(out: &Output, args: &[&str]) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: stdout not empty");
}

#[test]
fn help_lists_every_subcommand_and_exits_0() {
    for flag in ["--help", "-h"] {
        let out = star_bench(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let usage = String::from_utf8_lossy(&out.stdout);
        for (sub, _) in SUBCOMMANDS {
            assert!(usage.contains(&format!("  {sub} ")), "{flag}: {sub}");
        }
    }
}

/// Each flag means one thing: `--jobs` sizes the host worker pool of
/// every subcommand that has one, `--threads` is the simulated thread
/// count and `--lanes` the lane count.
#[test]
fn help_gives_each_flag_one_meaning() {
    let usage = String::from_utf8(star_bench(&["--help"]).stdout).expect("utf-8 usage");
    // A subcommand's usage is its line plus the lines indented under it.
    let mut usage_of: Vec<(&str, String)> = Vec::new();
    for line in usage.lines() {
        if line.starts_with("   ") {
            if let Some((_, text)) = usage_of.last_mut() {
                text.push_str(line);
            }
        } else if let Some(rest) = line.strip_prefix("  ") {
            let (name, text) = rest.split_once(' ').unwrap_or((rest, ""));
            usage_of.push((name, text.to_string()));
        }
    }
    let with = |flag: &str| -> Vec<&str> {
        let group = format!("[{flag} ");
        let listing = usage_of.iter().filter(|(_, text)| text.contains(&group));
        listing.map(|&(name, _)| name).collect()
    };
    assert_eq!(
        with("--jobs"),
        ["baseline", "check", "serve", "shard", "faultsim", "figures"]
    );
    assert_eq!(with("--threads"), ["figures", "sim"]);
    assert_eq!(with("--lanes"), ["serve", "shard"]);
}

#[test]
fn malformed_command_lines_exit_2_for_every_subcommand() {
    assert_rejected(&star_bench(&[]), &[]);
    assert_rejected(&star_bench(&["bogus"]), &["bogus"]);
    for (sub, count) in SUBCOMMANDS {
        for args in [
            vec![sub, "--bogus"],
            vec![sub, count],
            vec![sub, count, "many"],
        ] {
            assert_rejected(&star_bench(&args), &args);
        }
    }
}

#[test]
fn degenerate_arguments_exit_2_without_panicking() {
    // Where a zero-op run that wrongly went ahead would write its report.
    let report = concat!(env!("CARGO_TARGET_TMPDIR"), "/zero-ops.json");
    let cases: [&[&str]; 40] = [
        &["shard", "--lanes", "0"],
        &["shard", "--ops", "0"],
        &["shard", "--epoch-ops", "0"],
        // A run on no worker thread.
        &["shard", "--ops", "1", "--jobs", "0"],
        &["serve", "--data-mb", "1", "--jobs", "0"],
        &["baseline", "--jobs", "0", "--out", report],
        &["figures", "fig11", "--ops", "1", "--jobs", "0"],
        // No lane, or more lanes than the fleet scenarios have tenants.
        &["serve", "--lanes", "0"],
        &["serve", "--lanes", "9"],
        // A retired spelling is an unknown flag.
        &["shard", "--ops", "1", "--shards", "2"],
        &["baseline", "--ops", "1", "--progress", "--out", report],
        // Traffic the simulator cannot serve: an infinite rate never
        // finishes, NaN and negative rates serve nothing while crashes
        // still fire, a zero horizon divides goodput by zero, and this
        // one overflows u64 nanoseconds.
        &["serve", "--data-mb", "1", "--rate", "inf"],
        &["serve", "--data-mb", "1", "--rate", "nan"],
        &["serve", "--data-mb", "1", "--rate", "-1"],
        &["serve", "--data-mb", "1", "--horizon-s", "0"],
        &["serve", "--data-mb", "1", "--horizon-s", "18446744074"],
        &["baseline", "--ops", "0", "--out", report],
        &["profile", "--ops", "0", "--alloc", "--out", report],
        &["figures", "fig11", "--ops", "0"],
        &["sim", "--ops", "0"],
        // A check that checks nothing: no case, no worker, or an
        // exclusive op bound that leaves every program empty.
        &["check", "--cases", "0"],
        &["check", "--jobs", "0"],
        &["check", "--ops-max", "0"],
        &["check", "--ops-max", "1"],
        // An empty sweep; a case budget the sampler cannot honour (it
        // always keeps the first and last point); no worker; and persist
        // point 0, which does not exist.
        &["faultsim", "--ops", "0"],
        &["faultsim", "--max-cases", "0"],
        &["faultsim", "--max-cases", "1"],
        &["faultsim", "--jobs", "0"],
        &["faultsim", "--trace-case", "0", "--trace", report],
        // Labels are read before the run, not after it: an unknown
        // attack, and a second experiment that would replace the first.
        &["sim", "--ops", "1", "--attack", "bogus"],
        &["figures", "fig10", "fig11", "--ops", "1"],
        // Sizes whose bytes overflow: 2^44 + 1 MB would wrap to 1 MB,
        // and 2^54 + 64 KB to 64 KB.
        &["serve", "--data-mb", "17592186044417"],
        &["sim", "--ops", "1", "--cache-kb", "18014398509482048"],
        // No simulated thread.
        &["sim", "--ops", "1", "--threads", "0"],
        &["figures", "fig11", "--ops", "1", "--threads", "0"],
        // A trace filter that names no category records nothing.
        &[
            "sim",
            "--ops",
            "1",
            "--trace-filter",
            ",",
            "--trace",
            report,
        ],
        &["figures", "fig11", "--ops", "1", "--trace-filter", ","],
        &["faultsim", "--ops", "1", "--trace-filter", " , "],
        // An unknown label.
        &["faultsim", "--ops", "1", "--fault", "bogus"],
        &["faultsim", "--ops", "1", "--workload", "bogus"],
    ];
    for args in cases {
        assert_rejected(&star_bench(args), args);
    }
}

/// Asserts `args` is rejected and writes no trace to `trace`.
fn assert_rejected_without_trace(trace: &str, args: &[&str]) {
    let _ = std::fs::remove_file(trace);
    assert_rejected(&star_bench(args), args);
    assert!(
        !std::path::Path::new(trace).exists(),
        "{args:?}: no trace may be written"
    );
}

/// A `--trace-case` past the run's last persist point is only known once
/// the schedule has run; it is still rejected before any sweep runs or
/// any trace of a not-reached case is written.
#[test]
fn trace_case_past_the_schedule_exits_2_without_a_trace() {
    let trace = concat!(env!("CARGO_TARGET_TMPDIR"), "/past-schedule.json");
    let args = [
        "faultsim",
        "--ops",
        "20",
        "--trace-case",
        "999999",
        "--trace",
        trace,
    ];
    assert_rejected_without_trace(trace, &args);
}

/// A one-op ycsb run is a read that commits no persist point, so it has
/// no case to trace; that is rejected before the sweep prints a report.
#[test]
fn trace_of_a_run_without_persist_points_exits_2_without_a_trace() {
    let trace = concat!(env!("CARGO_TARGET_TMPDIR"), "/no-points.json");
    let args = [
        "faultsim",
        "--workload",
        "ycsb",
        "--ops",
        "1",
        "--trace",
        trace,
    ];
    assert_rejected_without_trace(trace, &args);
}

/// An unknown experiment is rejected before the traced sweep runs.
#[test]
fn unknown_experiment_exits_2_without_a_trace() {
    let trace = concat!(env!("CARGO_TARGET_TMPDIR"), "/unknown-experiment.json");
    assert_rejected_without_trace(
        trace,
        &["figures", "bogus", "--ops", "300", "--trace", trace],
    );
}

/// A faulted sweep's silent cases come from the fault, which the
/// shrinker's crash-only programs cannot carry: the sweep exits 1 and
/// names its first silent case instead of attempting a shrink.
#[test]
fn faulted_silent_sweep_names_its_first_case_without_shrinking() {
    let args = [
        "faultsim",
        "--scheme",
        "anubis",
        "--workload",
        "ycsb",
        "--ops",
        "150",
        "--exhaustive",
        "--fault",
        "drop-wpq",
    ];
    let out = star_bench(&args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with("first silent case: point 1 (data-line-commit): ")),
        "{stderr}"
    );
    assert!(!stderr.contains("shrink:"), "{stderr}");
}
