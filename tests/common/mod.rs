//! Helpers shared by the integration tests.

/// Byte-compares `got` with the golden file at `path`, or rewrites the
/// file when `REGEN_GOLDEN=1` is set.
pub fn check_golden(path: &str, got: &str) {
    let regen = concat!(
        "REGEN_GOLDEN=1 cargo test --test ",
        env!("CARGO_CRATE_NAME")
    );
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(path, got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("cannot read golden file {path} ({e}); create it with `{regen}`")
    });
    assert_eq!(
        got, want,
        "output drifted from {path}; if the change is intended, regenerate with \
         `{regen}` and commit the diff (a schema change also goes into the version \
         history in star_trace::json)"
    );
}
