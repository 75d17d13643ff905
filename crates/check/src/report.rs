//! Sweeping many generated cases and reporting the result.
//!
//! [`run_check`] shards the case list over `star-sweep`'s deterministic
//! pool, so the resulting [`CheckReport`] — its JSON bytes included —
//! is a pure function of `(seed, cases, generator config)`: any
//! `threads` value produces identical output. Failing cases are shrunk
//! to a minimal program inside their own job (still deterministic) and
//! carry a replayable JSON repro.

use crate::gen::{generate, GenConfig};
use crate::harness::{check_program, check_program_scheme, Violation};
use crate::program::Program;
use crate::shrink::shrink_ops;
use star_core::SchemeKind;
use star_sweep::run_merged;
use star_trace::Json;
use std::fmt::Write as _;

/// Configuration of one `check` sweep.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Sweep seed; case `i` expands deterministically from `(seed, i)`.
    pub seed: u64,
    /// Number of generated cases.
    pub cases: u64,
    /// Worker threads, `star-bench check --jobs` (output is identical
    /// for every value).
    pub threads: usize,
    /// Program-generator tunables.
    pub gen: GenConfig,
}

impl Default for CheckConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            cases: 256,
            threads: 1,
            gen: GenConfig::default(),
        }
    }
}

/// The outcome of one generated case.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseOutcome {
    /// Case index.
    pub case: u64,
    /// Operations in the generated program.
    pub ops: usize,
    /// One-line program summary.
    pub summary: String,
    /// Violations found (empty for a clean case).
    pub violations: Vec<Violation>,
    /// Minimal failing program (present only when violations exist).
    pub shrunk: Option<Program>,
}

/// A whole check sweep's result.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckReport {
    /// Sweep seed.
    pub seed: u64,
    /// Per-case outcomes, in case order.
    pub cases: Vec<CaseOutcome>,
}

impl CheckReport {
    /// Whether every case checked clean.
    pub fn clean(&self) -> bool {
        self.cases.iter().all(|c| c.violations.is_empty())
    }

    /// The failing cases.
    pub fn failures(&self) -> impl Iterator<Item = &CaseOutcome> {
        self.cases.iter().filter(|c| !c.violations.is_empty())
    }

    /// Human-readable summary: one header, one line per failure (with
    /// its shrunk program), one verdict line.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        let failed = self.failures().count();
        let _ = writeln!(
            out,
            "check: {} cases, seed {}: {} clean, {} failing",
            self.cases.len(),
            self.seed,
            self.cases.len() - failed,
            failed
        );
        for case in self.failures() {
            let _ = writeln!(out, "case {} ({}):", case.case, case.summary);
            for v in &case.violations {
                let _ = writeln!(out, "  {v}");
            }
            if let Some(shrunk) = &case.shrunk {
                let _ = writeln!(out, "  minimal program ({} ops):", shrunk.ops.len());
                for op in &shrunk.ops {
                    let _ = writeln!(out, "    {op}");
                }
                let _ = writeln!(out, "  repro: {}", shrunk.to_json());
            }
        }
        let _ = writeln!(out, "check: {}", if self.clean() { "PASS" } else { "FAIL" });
        out
    }

    /// The report as byte-stable JSON (`"kind":"check-report"`).
    pub fn to_json(&self) -> String {
        let mut j = Json::doc("check-report");
        j.u64("seed", self.seed)
            .u64("cases", self.cases.len() as u64)
            .u64("failing", self.failures().count() as u64)
            .arr("case_results", |j| {
                for c in &self.cases {
                    j.obj("", |j| {
                        j.u64("case", c.case)
                            .u64("ops", c.ops as u64)
                            .str("summary", &c.summary)
                            .arr("violations", |j| {
                                for v in &c.violations {
                                    j.obj("", |j| {
                                        j.str("scheme", &v.scheme)
                                            .str("invariant", v.invariant)
                                            .str("detail", &v.detail);
                                    });
                                }
                            });
                        match &c.shrunk {
                            None => j.raw("repro", "null"),
                            Some(p) => j.raw("repro", &p.to_json()),
                        };
                    });
                }
            });
        j.finish()
    }
}

/// Runs `cfg.cases` generated programs through the differential harness
/// on `cfg.threads` workers and returns the merged report.
pub fn run_check(cfg: &CheckConfig) -> CheckReport {
    let jobs = (0..cfg.cases).map(|case| (case, ())).collect();
    let cases = run_merged(cfg.threads, jobs, |&case, _| {
        let program = generate(cfg.seed, case, &cfg.gen);
        let violations = check_program(&program);
        let shrunk = (!violations.is_empty()).then(|| shrink_failure(&program, &violations));
        CaseOutcome {
            case,
            ops: program.ops.len(),
            summary: program.summary(),
            violations,
            shrunk,
        }
    });
    CheckReport {
        seed: cfg.seed,
        cases,
    }
}

/// Shrinks a failing program against the scheme that failed (falling
/// back to the full cross-scheme check when the failure is not
/// attributable to a single engine scheme).
fn shrink_failure(program: &Program, violations: &[Violation]) -> Program {
    let scheme = violations
        .first()
        .and_then(|v| SchemeKind::from_label(&v.scheme));
    match scheme {
        Some(scheme) => shrink_ops(program, |p| !check_program_scheme(p, scheme).is_empty()),
        None => shrink_ops(program, |p| !check_program(p).is_empty()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CheckConfig {
        CheckConfig {
            seed: 9,
            cases: 3,
            threads: 1,
            gen: GenConfig {
                min_ops: 10,
                max_ops: 24,
            },
        }
    }

    #[test]
    fn clean_sweep_reports_pass() {
        let report = run_check(&tiny());
        assert!(report.clean(), "{}", report.summary_table());
        assert_eq!(report.cases.len(), 3);
        assert!(report.summary_table().contains("PASS"));
        let json = report.to_json();
        assert!(json.contains("\"kind\":\"check-report\""));
        assert!(json.contains("\"failing\":0"));
    }

    #[test]
    fn report_bytes_are_thread_invariant() {
        let mut cfg = tiny();
        let serial = run_check(&cfg);
        cfg.threads = 3;
        let parallel = run_check(&cfg);
        assert_eq!(serial.to_json(), parallel.to_json());
        assert_eq!(serial.summary_table(), parallel.summary_table());
    }
}
