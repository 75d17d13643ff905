//! Degenerate arguments to `star-bench` and `figures` are rejected at
//! the command line with a one-line message and exit status 2, never by
//! a library assertion's panic or a vacuous all-zero or `NaN` report.

use std::process::Command;

#[test]
fn degenerate_arguments_exit_2_without_panicking() {
    let star_bench = env!("CARGO_BIN_EXE_star-bench");
    // Where a zero-op run that wrongly went ahead would write its report.
    let report = concat!(env!("CARGO_TARGET_TMPDIR"), "/zero-ops.json");
    let cases: [(&str, &[&str]); 8] = [
        (star_bench, &["shard", "--lanes", "0"]),
        (star_bench, &["shard", "--ops", "0"]),
        (star_bench, &["shard", "--epoch-ops", "0"]),
        (star_bench, &["serve", "--shards", "1"]),
        (star_bench, &["serve", "--shards", "9"]),
        (star_bench, &["baseline", "--ops", "0", "--out", report]),
        (
            star_bench,
            &["profile", "--ops", "0", "--alloc", "--out", report],
        ),
        (env!("CARGO_BIN_EXE_figures"), &["fig11", "--ops", "0"]),
    ];
    for (bin, args) in cases {
        let out = Command::new(bin).args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    }
}
