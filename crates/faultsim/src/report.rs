//! Machine-readable exploration reports.
//!
//! JSON is written through the workspace's one codec
//! (`star_trace::json`, which also owns the schema version); the
//! `explore-report` document is flat and stable (whitespace added
//! here for reading):
//!
//! ```json
//! {
//!   "schema_version": 7, "kind": "explore-report",
//!   "scheme": "star", "workload": "ycsb", "ops": 60, "seed": 1,
//!   "fault": "crash-only", "total_points": 93, "exhaustive": true,
//!   "outcomes": { "recovered": 93, "detected-tamper": 0,
//!                 "silent-corruption": 0, "unrecoverable": 0,
//!                 "not-reached": 0, "skipped": 0 },
//!   "cases": [ { "crash_at": 1, "kind": "data-line-commit",
//!                "fault": "crash-only", "outcome": "recovered",
//!                "stale": 1, "reads": 11, "writes": 1, "time_ns": 1200,
//!                "checked": 1,
//!                "detail": "1 committed lines verified and matched" }, ...]
//! }
//! ```

use crate::case::{CaseResult, Outcome};
use crate::fault::FaultKind;
use star_core::persist::PersistPointKind;
use star_core::SchemeKind;
use star_trace::Json;
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

    /// The first case that fails the sweep ([`CaseResult::fails`]).
    pub fn first_failure(&self) -> Option<&CaseResult> {
        self.cases.iter().find(|c| c.fails(self.scheme))
    }

    /// `true` when no explored case fails the sweep
    /// ([`CaseResult::fails`]).
    pub fn clean(&self) -> bool {
        self.first_failure().is_none()
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
                case.kind.map_or("?", PersistPointKind::label),
                case.detail
            );
        }
        out
    }

    /// The full report as a JSON object (schema in the module docs).
    pub fn to_json(&self) -> String {
        let mut j = Json::doc("explore-report");
        j.str("scheme", self.scheme.label())
            .str("workload", &self.workload)
            .u64("ops", self.ops as u64)
            .u64("seed", self.seed)
            .str("fault", self.fault.label())
            .u64("total_points", self.total_points)
            .bool("exhaustive", self.exhaustive)
            .obj("outcomes", |j| {
                for outcome in Outcome::ALL {
                    j.u64(outcome.label(), self.count(outcome) as u64);
                }
            })
            .arr("cases", |j| {
                for case in &self.cases {
                    j.obj("", |j| {
                        j.u64("crash_at", case.crash_at);
                        match case.kind {
                            None => j.raw("kind", "null"),
                            Some(k) => j.str("kind", k.label()),
                        };
                        j.str("fault", case.fault.label())
                            .str("outcome", case.outcome.label())
                            .u64("stale", case.stale_count as u64)
                            .u64("reads", case.recovery_reads)
                            .u64("writes", case.recovery_writes)
                            .u64("time_ns", case.recovery_time_ns)
                            .u64("checked", case.readback_checked as u64)
                            .str("detail", &case.detail);
                    });
                }
            });
        j.finish()
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

    /// A clean STAR crash that recovery refuses fails the sweep although
    /// nothing was silently corrupted.
    #[test]
    fn a_refused_clean_crash_is_not_clean() {
        let mut report = tiny_report();
        assert!(report.clean());
        let mut refused = report.cases[0].clone();
        refused.crash_at = 2;
        refused.outcome = Outcome::DetectedTamper;
        report.cases.push(refused);
        assert!(report.silent_corruptions().is_empty());
        assert!(!report.clean());
        assert_eq!(report.first_failure().map(|c| c.crash_at), Some(2));
    }

    #[test]
    fn summary_mentions_counts() {
        let table = tiny_report().summary_table();
        assert!(table.contains("recovered"));
        assert!(table.contains("silent-corruption"));
        assert!(table.contains("exhaustive"));
    }
}
