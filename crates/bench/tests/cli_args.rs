//! Degenerate arguments to `star-bench`, `figures`, `faultsim` and
//! `star-sim` are rejected at the command line with a one-line message
//! and exit status 2, never by a library assertion's panic, a run that
//! never ends, or a vacuous all-zero, `NaN` or not-reached report.

use std::process::{Command, Output};

/// Asserts `out` is a one-line rejection with exit status 2.
fn assert_rejected(out: &Output, args: &[&str]) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
}

#[test]
fn degenerate_arguments_exit_2_without_panicking() {
    let star_bench = env!("CARGO_BIN_EXE_star-bench");
    // Where a zero-op run that wrongly went ahead would write its report.
    let report = concat!(env!("CARGO_TARGET_TMPDIR"), "/zero-ops.json");
    let faultsim = env!("CARGO_BIN_EXE_faultsim");
    let figures = env!("CARGO_BIN_EXE_figures");
    let cases: [(&str, &[&str]); 28] = [
        (star_bench, &["shard", "--lanes", "0"]),
        (star_bench, &["shard", "--ops", "0"]),
        (star_bench, &["shard", "--epoch-ops", "0"]),
        // A run on no worker thread.
        (star_bench, &["shard", "--ops", "1", "--shards", "0"]),
        (star_bench, &["shard", "--ops", "1", "--threads", "0"]),
        (star_bench, &["serve", "--data-mb", "1", "--threads", "0"]),
        (star_bench, &["baseline", "--jobs", "0", "--out", report]),
        (figures, &["fig11", "--ops", "1", "--jobs", "0"]),
        (star_bench, &["serve", "--shards", "1"]),
        (star_bench, &["serve", "--shards", "9"]),
        // Traffic the simulator cannot serve: an infinite rate never
        // finishes, NaN and negative rates serve nothing while crashes
        // still fire, a zero horizon divides goodput by zero, and this
        // one overflows u64 nanoseconds.
        (star_bench, &["serve", "--data-mb", "1", "--rate", "inf"]),
        (star_bench, &["serve", "--data-mb", "1", "--rate", "nan"]),
        (star_bench, &["serve", "--data-mb", "1", "--rate", "-1"]),
        (star_bench, &["serve", "--data-mb", "1", "--horizon-s", "0"]),
        (
            star_bench,
            &["serve", "--data-mb", "1", "--horizon-s", "18446744074"],
        ),
        (star_bench, &["baseline", "--ops", "0", "--out", report]),
        (
            star_bench,
            &["profile", "--ops", "0", "--alloc", "--out", report],
        ),
        (figures, &["fig11", "--ops", "0"]),
        (env!("CARGO_BIN_EXE_star-sim"), &["--ops", "0"]),
        // A check that checks nothing: no case, no worker, or an
        // exclusive op bound that leaves every program empty.
        (star_bench, &["check", "--cases", "0"]),
        (star_bench, &["check", "--threads", "0"]),
        (star_bench, &["check", "--ops-max", "0"]),
        (star_bench, &["check", "--ops-max", "1"]),
        // An empty sweep; a case budget the sampler cannot honour (it
        // always keeps the first and last point); no worker; and persist
        // point 0, which does not exist.
        (faultsim, &["--ops", "0"]),
        (faultsim, &["--max-cases", "0"]),
        (faultsim, &["--max-cases", "1"]),
        (faultsim, &["--threads", "0"]),
        (faultsim, &["--trace-case", "0", "--trace", report]),
    ];
    for (bin, args) in cases {
        let out = Command::new(bin).args(args).output().expect("binary runs");
        assert_rejected(&out, args);
    }
}

/// A `--trace-case` past the run's last persist point is only known once
/// the schedule has run; it is still rejected before any sweep runs or
/// any trace of a not-reached case is written.
#[test]
fn trace_case_past_the_schedule_exits_2_without_a_trace() {
    let trace = concat!(env!("CARGO_TARGET_TMPDIR"), "/past-schedule.json");
    let _ = std::fs::remove_file(trace);
    let args = ["--ops", "20", "--trace-case", "999999", "--trace", trace];
    let out = Command::new(env!("CARGO_BIN_EXE_faultsim"))
        .args(args)
        .output()
        .expect("binary runs");
    assert_rejected(&out, &args);
    assert!(
        !std::path::Path::new(trace).exists(),
        "no trace may be written"
    );
}
