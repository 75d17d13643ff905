//! Machine-readable exploration reports.
//!
//! JSON is emitted by hand through the shared report module
//! (`star_core::report`, which also defines the schema version and the
//! `RunReport` serialization); the schema is flat and stable:
//!
//! ```json
//! {
//!   "schema_version": 2, "kind": "explore-report",
//!   "scheme": "star", "workload": "array", "ops": 500, "seed": 42,
//!   "fault": "crash-only", "total_points": 1234, "exhaustive": true,
//!   "outcomes": { "recovered": 1230, "detected-tamper": 4,
//!                 "silent-corruption": 0, "unrecoverable": 0,
//!                 "not-reached": 0, "skipped": 0 },
//!   "cases": [ { "crash_at": 1, "kind": "data-line-commit",
//!                "outcome": "recovered", "stale": 3, "reads": 31,
//!                "writes": 3, "time_ns": 3400, "checked": 1,
//!                "detail": "..." } ]
//! }
//! ```

use crate::case::{kind_label, CaseResult, Outcome};
use crate::fault::FaultKind;
use star_core::report::{json_str, schema_preamble};
use star_core::SchemeKind;
use std::fmt::Write as _;

/// Everything one [`crate::CrashExplorer::explore`] run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreReport {
    /// Scheme under test.
    pub scheme: SchemeKind,
    /// Label of the workload that drove the engine — a
    /// [`WorkloadKind`](star_workloads::WorkloadKind) label for named
    /// workloads, or the caller-supplied (possibly runtime-built, e.g.
    /// per-shard or per-tenant) label of a factory driver.
    pub workload: String,
    /// Operations per replay.
    pub ops: usize,
    /// Workload seed.
    pub seed: u64,
    /// Fault injected at every explored point.
    pub fault: FaultKind,
    /// Length of the full persist schedule.
    pub total_points: u64,
    /// Whether every schedule point was crashed on.
    pub exhaustive: bool,
    /// One result per explored point, in schedule order.
    pub cases: Vec<CaseResult>,
}

impl ExploreReport {
    /// Number of cases with the given outcome.
    pub fn count(&self, outcome: Outcome) -> usize {
        self.cases.iter().filter(|c| c.outcome == outcome).count()
    }

    /// The cases classified as silent corruption — the ones that must
    /// not exist for recoverable schemes under the paper's fault model.
    pub fn silent_corruptions(&self) -> Vec<&CaseResult> {
        self.cases
            .iter()
            .filter(|c| c.outcome == Outcome::SilentCorruption)
            .collect()
    }

    /// `true` when no explored case was silently corrupted.
    pub fn clean(&self) -> bool {
        self.silent_corruptions().is_empty()
    }

    /// Fixed-width summary table for terminals.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fault sweep: scheme={} workload={} ops={} seed={} fault={}",
            self.scheme.label(),
            self.workload,
            self.ops,
            self.seed,
            self.fault
        );
        let _ = writeln!(
            out,
            "persist points: {} total, {} explored ({})",
            self.total_points,
            self.cases.len(),
            if self.exhaustive {
                "exhaustive"
            } else {
                "sampled"
            }
        );
        let _ = writeln!(out, "{:<20} {:>8}", "outcome", "cases");
        for outcome in Outcome::ALL {
            let n = self.count(outcome);
            if n > 0 || matches!(outcome, Outcome::Recovered | Outcome::SilentCorruption) {
                let _ = writeln!(out, "{:<20} {:>8}", outcome.label(), n);
            }
        }
        for case in self.silent_corruptions() {
            let _ = writeln!(
                out,
                "SILENT at point {} ({}): {}",
                case.crash_at,
                case.kind.map(kind_label).unwrap_or("?"),
                case.detail
            );
        }
        out
    }

    /// The full report as a JSON object (schema in the module docs).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&schema_preamble("explore-report"));
        let _ = write!(
            out,
            "\"scheme\":{},\"workload\":{},\"ops\":{},\"seed\":{},\"fault\":{},",
            json_str(self.scheme.label()),
            json_str(&self.workload),
            self.ops,
            self.seed,
            json_str(self.fault.label())
        );
        let _ = write!(
            out,
            "\"total_points\":{},\"exhaustive\":{},",
            self.total_points, self.exhaustive
        );
        out.push_str("\"outcomes\":{");
        for (i, outcome) in Outcome::ALL.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_str(outcome.label()), self.count(outcome));
        }
        out.push_str("},\"cases\":[");
        for (i, case) in self.cases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"crash_at\":{},\"kind\":{},\"fault\":{},\"outcome\":{},\"stale\":{},\
                 \"reads\":{},\"writes\":{},\"time_ns\":{},\"checked\":{},\"detail\":{}}}",
                case.crash_at,
                case.kind
                    .map_or("null".to_string(), |k| json_str(kind_label(k))),
                json_str(case.fault.label()),
                json_str(case.outcome.label()),
                case.stale_count,
                case.recovery_reads,
                case.recovery_writes,
                case.recovery_time_ns,
                case.readback_checked,
                json_str(&case.detail)
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> ExploreReport {
        ExploreReport {
            scheme: SchemeKind::Star,
            workload: "array".into(),
            ops: 10,
            seed: 1,
            fault: FaultKind::CrashOnly,
            total_points: 2,
            exhaustive: true,
            cases: vec![CaseResult {
                crash_at: 1,
                kind: Some(star_core::persist::PersistPointKind::DataLineCommit {
                    line: 0,
                    version: 1,
                }),
                fault: FaultKind::CrashOnly,
                outcome: Outcome::Recovered,
                stale_count: 1,
                recovery_reads: 11,
                recovery_writes: 1,
                recovery_time_ns: 1200,
                readback_checked: 1,
                detail: "1 committed lines verified and matched".into(),
            }],
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let j = tiny_report().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(j.contains("\"outcomes\":{\"recovered\":1"));
        assert!(j.contains("\"kind\":\"data-line-commit\""));
    }

    #[test]
    fn json_carries_schema_version_and_kind() {
        let j = tiny_report().to_json();
        assert!(j.starts_with(&format!(
            "{{\"schema_version\":{},\"kind\":\"explore-report\",",
            star_core::SCHEMA_VERSION
        )));
    }

    #[test]
    fn summary_mentions_counts() {
        let table = tiny_report().summary_table();
        assert!(table.contains("recovered"));
        assert!(table.contains("silent-corruption"));
        assert!(table.contains("exhaustive"));
    }
}
