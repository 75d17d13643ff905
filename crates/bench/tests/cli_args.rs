//! Degenerate `star-bench` arguments are rejected at the command line
//! with a one-line message and exit status 2, never by a library
//! assertion's panic.

use std::process::Command;

#[test]
fn degenerate_shard_and_serve_arguments_exit_2_without_panicking() {
    let cases: [&[&str]; 5] = [
        &["shard", "--lanes", "0"],
        &["shard", "--ops", "0"],
        &["shard", "--epoch-ops", "0"],
        &["serve", "--shards", "1"],
        &["serve", "--shards", "9"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_star-bench"))
            .args(args)
            .output()
            .expect("star-bench runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
