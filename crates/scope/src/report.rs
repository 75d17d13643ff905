//! The flattened profile report and its three exports.
//!
//! [`ProfileReport::build`] turns a merged [`SpanTree`] plus the
//! runner's measured wall clock and simulated-op count into a flat row
//! list (DFS pre-order, children in name order — the same deterministic
//! structure the tree guarantees). Exports:
//!
//! * [`ProfileReport::json_body`] — the field body of the versioned
//!   `perf-profile` JSON document (the `schema_version`/`kind` preamble
//!   is added by the caller, mirroring how `star_trace` bodies are
//!   wrapped by `star_core::report`). A scrubbed mode zeroes every
//!   host-measured field so goldens can pin the structure.
//! * [`ProfileReport::to_collapsed`] — flamegraph-compatible collapsed
//!   stacks (`a;b;c <exclusive-ns>` per line), loadable by
//!   `flamegraph.pl` / `inferno-flamegraph` / speedscope.
//! * [`ProfileReport::top_components`] — the top-N paths by exclusive
//!   time with their share of attributed time, for the CLI table and
//!   `BENCH_PR.json`.

use crate::tree::SpanTree;
use star_trace::{json_f64, json_str};
use std::fmt::Write as _;

/// One aggregated span path, flattened out of the tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRow {
    /// Semicolon-joined path (`engine/write_data;nvm/write`).
    pub path: String,
    /// Last path component.
    pub name: &'static str,
    /// Nesting depth (top-level spans are 0).
    pub depth: usize,
    /// Completed invocations.
    pub count: u64,
    /// Wall-clock nanoseconds including children.
    pub incl_ns: u64,
    /// Wall-clock nanoseconds excluding direct children.
    pub excl_ns: u64,
    /// Allocations attributed exclusively to this path.
    pub allocs: u64,
    /// Allocated bytes attributed exclusively to this path.
    pub alloc_bytes: u64,
}

/// A complete profile: totals plus the flattened rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Simulated operations the profiled run executed (denominator of
    /// the per-op columns).
    pub ops: u64,
    /// Wall-clock nanoseconds the runner measured around the whole run.
    pub wall_ns: u64,
    /// Inclusive nanoseconds of the top-level spans.
    pub attributed_ns: u64,
    /// Allocations attributed to spans (sum of exclusive counts).
    pub allocs: u64,
    /// Bytes attributed to spans (sum of exclusive counts).
    pub alloc_bytes: u64,
    /// Flattened span rows, DFS pre-order with name-ordered children.
    pub rows: Vec<SpanRow>,
}

impl ProfileReport {
    /// Flattens `tree`, recording `wall_ns` (measured by the caller
    /// around the profiled region) and `ops` for the per-op columns.
    pub fn build(tree: &SpanTree, wall_ns: u64, ops: u64) -> ProfileReport {
        let mut rows = Vec::new();
        tree.for_each_path(|path, node| {
            rows.push(SpanRow {
                path: path.join(";"),
                name: node.name,
                depth: path.len() - 1,
                count: node.sample.count,
                incl_ns: node.sample.incl_ns,
                excl_ns: node.sample.excl_ns,
                allocs: node.sample.allocs,
                alloc_bytes: node.sample.alloc_bytes,
            });
        });
        ProfileReport {
            ops,
            wall_ns,
            attributed_ns: tree.attributed_ns(),
            allocs: rows.iter().map(|r| r.allocs).sum(),
            alloc_bytes: rows.iter().map(|r| r.alloc_bytes).sum(),
            rows,
        }
    }

    /// Wall-clock the profiler could not attribute to any span.
    pub fn unattributed_ns(&self) -> u64 {
        self.wall_ns.saturating_sub(self.attributed_ns)
    }

    /// Fraction of the measured wall clock attributed to named spans.
    /// Can exceed 1.0 when spans ran on parallel worker threads.
    pub fn attributed_share(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.attributed_ns as f64 / self.wall_ns as f64
        }
    }

    /// Span-attributed allocations per simulated op.
    pub fn allocs_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.allocs as f64 / self.ops as f64
        }
    }

    /// The field body of the `perf-profile` JSON document (no leading
    /// `{` preamble — the caller wraps it with `schema_version`/`kind`).
    ///
    /// With `scrub`, every host-measured field — nanoseconds,
    /// allocations, shares — is normalized to zero while the structural
    /// fields (paths, names, depths, counts, ops) stay exact: two runs
    /// of the same deterministic workload produce byte-identical
    /// scrubbed bodies, which is what the golden test pins.
    pub fn json_body(&self, scrub: bool) -> String {
        let z = |v: u64| if scrub { 0 } else { v };
        let zf = |v: f64| if scrub { 0.0 } else { v };
        let mut out = String::new();
        let _ = write!(
            out,
            "\"ops\":{},\"wall_ns\":{},\"attributed_ns\":{},\"unattributed_ns\":{},\
             \"attributed_share\":{},\"allocs\":{},\"alloc_bytes\":{},\"allocs_per_op\":{},\
             \"scrubbed\":{},\"spans\":[",
            self.ops,
            z(self.wall_ns),
            z(self.attributed_ns),
            z(self.unattributed_ns()),
            json_f64(zf(self.attributed_share())),
            z(self.allocs),
            z(self.alloc_bytes),
            json_f64(zf(self.allocs_per_op())),
            scrub
        );
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let ns_per_op = if self.ops == 0 {
                0.0
            } else {
                row.incl_ns as f64 / self.ops as f64
            };
            let _ = write!(
                out,
                "{{\"path\":{},\"name\":{},\"depth\":{},\"count\":{},\"incl_ns\":{},\
                 \"excl_ns\":{},\"ns_per_op\":{},\"allocs\":{},\"alloc_bytes\":{}}}",
                json_str(&row.path),
                json_str(row.name),
                row.depth,
                row.count,
                z(row.incl_ns),
                z(row.excl_ns),
                json_f64(zf(ns_per_op)),
                z(row.allocs),
                z(row.alloc_bytes)
            );
        }
        out.push(']');
        out
    }

    /// Flamegraph-compatible collapsed stacks: one `path value` line per
    /// span row, value = exclusive nanoseconds. Rows whose exclusive
    /// time rounded to zero are kept (value 0) so the stack structure
    /// survives even for sub-nanosecond leaves.
    pub fn to_collapsed(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            let _ = writeln!(out, "{} {}", row.path, row.excl_ns);
        }
        out
    }

    /// The `n` paths with the largest exclusive time, as
    /// `(path, exclusive ns, share of attributed ns)`, ties broken by
    /// path so the selection is deterministic for equal timings.
    pub fn top_components(&self, n: usize) -> Vec<(String, u64, f64)> {
        let mut rows: Vec<&SpanRow> = self.rows.iter().collect();
        rows.sort_by(|a, b| b.excl_ns.cmp(&a.excl_ns).then(a.path.cmp(&b.path)));
        rows.truncate(n);
        let total = self.attributed_ns.max(1) as f64;
        rows.into_iter()
            .map(|r| (r.path.clone(), r.excl_ns, r.excl_ns as f64 / total))
            .collect()
    }

    /// A human-readable top-N table (path, calls, excl ms, share).
    pub fn table(&self, n: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<44} {:>10} {:>10} {:>7}",
            "span path", "calls", "excl_ms", "share"
        );
        for (path, excl_ns, share) in self.top_components(n) {
            let count = self
                .rows
                .iter()
                .find(|r| r.path == path)
                .map_or(0, |r| r.count);
            let _ = writeln!(
                out,
                "{:<44} {:>10} {:>10.2} {:>6.1}%",
                path,
                count,
                excl_ns as f64 / 1e6,
                share * 100.0
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::SpanSample;

    fn demo_tree() -> SpanTree {
        let mut t = SpanTree::new();
        t.record_path(
            &["cell", "engine"],
            SpanSample {
                count: 10,
                incl_ns: 600,
                excl_ns: 200,
                allocs: 4,
                alloc_bytes: 64,
            },
        );
        t.record_path(
            &["cell"],
            SpanSample {
                count: 1,
                incl_ns: 1_000,
                excl_ns: 400,
                allocs: 1,
                alloc_bytes: 16,
            },
        );
        t.record_path(
            &["cell", "crypto"],
            SpanSample {
                count: 20,
                incl_ns: 300,
                excl_ns: 300,
                allocs: 0,
                alloc_bytes: 0,
            },
        );
        t
    }

    #[test]
    fn rows_flatten_dfs_with_paths() {
        let r = ProfileReport::build(&demo_tree(), 1_100, 100);
        let paths: Vec<&str> = r.rows.iter().map(|x| x.path.as_str()).collect();
        assert_eq!(paths, ["cell", "cell;crypto", "cell;engine"]);
        assert_eq!(r.attributed_ns, 1_000);
        assert_eq!(r.unattributed_ns(), 100);
        assert_eq!(r.allocs, 5);
        assert!((r.allocs_per_op() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn json_body_is_balanced_and_scrub_zeroes_timings_only() {
        let r = ProfileReport::build(&demo_tree(), 1_100, 100);
        let exact = r.json_body(false);
        assert_eq!(exact.matches('{').count(), exact.matches('}').count());
        assert!(exact.contains("\"path\":\"cell;engine\""));
        assert!(exact.contains("\"wall_ns\":1100"));
        let scrubbed = r.json_body(true);
        assert!(scrubbed.contains("\"wall_ns\":0"));
        assert!(scrubbed.contains("\"scrubbed\":true"));
        assert!(scrubbed.contains("\"count\":10"), "counts survive scrub");
        assert!(scrubbed.contains("\"ops\":100"), "ops survive scrub");
        assert!(!scrubbed.contains("600"), "no raw timing survives");
    }

    #[test]
    fn collapsed_lines_are_path_space_value() {
        let r = ProfileReport::build(&demo_tree(), 1_100, 100);
        let collapsed = r.to_collapsed();
        let lines: Vec<&str> = collapsed.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "cell 400");
        assert_eq!(lines[1], "cell;crypto 300");
        assert_eq!(lines[2], "cell;engine 200");
    }

    #[test]
    fn top_components_rank_by_exclusive_time() {
        let r = ProfileReport::build(&demo_tree(), 1_100, 100);
        let top = r.top_components(2);
        assert_eq!(top[0].0, "cell");
        assert_eq!(top[1].0, "cell;crypto");
        assert!((top[0].2 - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_report_exports_cleanly() {
        let r = ProfileReport::build(&SpanTree::new(), 0, 0);
        assert_eq!(r.attributed_share(), 0.0);
        assert_eq!(r.allocs_per_op(), 0.0);
        assert!(r.json_body(false).contains("\"spans\":[]"));
        assert!(r.to_collapsed().is_empty());
        assert!(r.top_components(5).is_empty());
    }
}
