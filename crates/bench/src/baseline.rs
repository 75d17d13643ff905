//! The benchmark-regression baseline harness.
//!
//! `star-bench baseline` runs the canonical reduced scheme grid —
//! (array, ycsb) × (wb, strict, anubis, star) plus the synthetic Triad
//! cell — and freezes four headline metrics per cell: total NVM write
//! traffic, IPC, energy, and crash-recovery time. The resulting
//! [`BaselineReport`] serializes to byte-stable JSON (`BENCH_PR.json`),
//! and [`check`] diffs a fresh run against a committed
//! `bench/baseline.json` with per-metric relative thresholds, turning
//! the bench trajectory into a CI gate: more than +5 % write traffic or
//! energy, −5 % IPC, or +10 % recovery time fails the build. The one
//! host-side number it gates is the allocation rate of the op loop
//! (`perf_profile.max_allocs_per_op`), which repeats exactly for a fixed
//! toolchain; host wall-clock time is measured by the `perfbench`
//! package, never gated here.
//!
//! Everything here is a pure function of `(ops, seed)`: cells run
//! through `star_sweep::run_merged`, so the report is byte-identical
//! across `--jobs` counts and across repeated runs.

use crate::harness::{run_and_crash, run_scheme, ExperimentConfig};
use crate::profbench::ProfBench;
use star_core::report::{json_f64, json_str, schema_preamble, SCHEMA_VERSION};
use star_core::triad::{TriadConfig, TriadMemory};
use star_core::SchemeKind;
use star_prof::JsonValue;
use star_sweep::{run_merged, SweepKey};
use star_workloads::WorkloadKind;
use std::fmt::Write as _;

/// Relative write-traffic increase that counts as a regression.
pub const WRITE_TRAFFIC_TOL: f64 = 0.05;
/// Relative energy increase that counts as a regression.
pub const ENERGY_TOL: f64 = 0.05;
/// Relative IPC *decrease* that counts as a regression.
pub const IPC_TOL: f64 = 0.05;
/// Relative recovery-time increase that counts as a regression.
pub const RECOVERY_TOL: f64 = 0.10;

/// Size of the Triad cell's synthetic memory, in data lines.
const TRIAD_DATA_LINES: u64 = 4_096;

/// How a baseline sweep is configured. The defaults are the canonical
/// reduced grid that `bench/baseline.json` is committed with and that CI
/// re-runs — change them only together with a baseline refresh.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Operations per workload cell.
    pub ops: usize,
    /// Workload RNG seed.
    pub seed: u64,
    /// Host worker threads (`--jobs`); any value reproduces `jobs == 1`
    /// byte for byte.
    pub jobs: usize,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self {
            ops: 2_000,
            seed: 42,
            jobs: 1,
        }
    }
}

/// One grid cell's frozen metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineRow {
    /// Workload label (`array`, `ycsb`, or `synthetic` for Triad).
    pub workload: String,
    /// Scheme label (`wb`, `strict`, `anubis`, `star`, `triad`).
    pub scheme: String,
    /// Total NVM line writes (the Fig. 11 metric).
    pub total_writes: u64,
    /// Instructions per cycle (0 for Triad, which models no pipeline;
    /// zero-IPC rows are exempt from the IPC check).
    pub ipc: f64,
    /// Total NVM energy, picojoules.
    pub energy_pj: u64,
    /// Crash-recovery time, nanoseconds (0 for the non-recoverable WB
    /// baseline).
    pub recovery_ns: u64,
}

/// A full baseline sweep: the grid parameters plus one row per cell.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineReport {
    /// Operations per cell the sweep ran with.
    pub ops: u64,
    /// Workload seed the sweep ran with.
    pub seed: u64,
    /// Per-cell metrics, in fixed grid order.
    pub rows: Vec<BaselineRow>,
    /// The host-profile summary (`star-bench profile`), serialized under
    /// `"perf_profile"`.
    pub profile: Option<ProfBench>,
    /// Maximum span-attributed allocations per simulated op the
    /// committed baseline tolerates of a profiled run; `None` leaves the
    /// allocation rate recorded but ungated.
    pub max_allocs_per_op: Option<f64>,
}

/// The engine schemes in the grid, in row order.
const SCHEMES: [SchemeKind; 4] = [
    SchemeKind::WriteBack,
    SchemeKind::Strict,
    SchemeKind::Anubis,
    SchemeKind::Star,
];

/// The workloads in the grid, in row order.
const WORKLOADS: [WorkloadKind; 2] = [WorkloadKind::Array, WorkloadKind::Ycsb];

fn triad_row(ops: usize) -> BaselineRow {
    // Cell spans mirror the SweepKey labels, so a profile groups time
    // first by workload, then by scheme, under the sweep job.
    star_scope::span!("synthetic");
    star_scope::span!("triad");
    let mut m = TriadMemory::new(TriadConfig {
        data_lines: TRIAD_DATA_LINES,
        persist_levels: 2,
        ..TriadConfig::default()
    });
    for i in 0..ops as u64 {
        m.write_data((i * 37) % TRIAD_DATA_LINES, i + 1);
    }
    let (_, recovery_ns, verified) = m.crash_and_recover();
    assert!(verified, "attack-free Triad recovery verifies");
    BaselineRow {
        workload: "synthetic".into(),
        scheme: "triad".into(),
        total_writes: m.nvm_stats().total_writes(),
        ipc: 0.0,
        energy_pj: m.nvm_stats().energy_pj,
        recovery_ns,
    }
}

fn engine_row(scheme: SchemeKind, workload: WorkloadKind, cfg: &BaselineConfig) -> BaselineRow {
    star_scope::span!(workload.label());
    star_scope::span!(scheme.label());
    let exp = ExperimentConfig {
        ops: cfg.ops,
        seed: cfg.seed,
        ..ExperimentConfig::default()
    };
    let (report, recovery_ns) = if scheme.recoverable() {
        let out = run_and_crash(scheme, workload, &exp);
        let rec = out.recovery.expect("attack-free recovery succeeds");
        (out.report, rec.recovery_time_ns)
    } else {
        (run_scheme(scheme, workload, &exp), 0)
    };
    BaselineRow {
        workload: workload.label().into(),
        scheme: scheme.label().into(),
        total_writes: report.total_writes(),
        ipc: report.ipc,
        energy_pj: report.energy_pj(),
        recovery_ns,
    }
}

/// Runs the canonical baseline grid. Byte-identical output for any
/// `jobs` count and across repeated runs.
pub fn run_baseline(cfg: &BaselineConfig) -> BaselineReport {
    enum Cell {
        Engine(SchemeKind, WorkloadKind),
        Triad,
    }
    let mut jobs: Vec<(SweepKey, Cell)> = Vec::new();
    for (wi, workload) in WORKLOADS.into_iter().enumerate() {
        for (si, scheme) in SCHEMES.into_iter().enumerate() {
            jobs.push((
                SweepKey {
                    rank: (wi * SCHEMES.len() + si) as u64,
                    workload: workload.label(),
                    scheme: scheme.label(),
                    seed: cfg.seed,
                    case: 0,
                },
                Cell::Engine(scheme, workload),
            ));
        }
    }
    jobs.push((
        SweepKey {
            rank: (WORKLOADS.len() * SCHEMES.len()) as u64,
            workload: "synthetic",
            scheme: "triad",
            seed: cfg.seed,
            case: 0,
        },
        Cell::Triad,
    ));
    let rows = run_merged(cfg.jobs, jobs, |_, cell| match cell {
        Cell::Engine(scheme, workload) => engine_row(*scheme, *workload, cfg),
        Cell::Triad => triad_row(cfg.ops),
    });
    BaselineReport {
        ops: cfg.ops as u64,
        seed: cfg.seed,
        rows,
        profile: None,
        max_allocs_per_op: None,
    }
}

impl BaselineReport {
    /// The report as byte-stable JSON (document kind `bench-baseline`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&schema_preamble("bench-baseline"));
        let _ = write!(
            out,
            "\"ops\":{},\"seed\":{},\"rows\":[",
            self.ops, self.seed
        );
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"workload\":{},\"scheme\":{},\"total_writes\":{},\"ipc\":{},\
                 \"energy_pj\":{},\"recovery_ns\":{}}}",
                json_str(&row.workload),
                json_str(&row.scheme),
                row.total_writes,
                json_f64(row.ipc),
                row.energy_pj,
                row.recovery_ns
            );
        }
        out.push(']');
        if self.profile.is_some() || self.max_allocs_per_op.is_some() {
            out.push_str(",\"perf_profile\":{");
            let mut first = true;
            if let Some(profile) = &self.profile {
                let body = profile.to_json();
                // Splice the measured fields in without their braces.
                out.push_str(&body[1..body.len() - 1]);
                first = false;
            }
            if let Some(ceiling) = self.max_allocs_per_op {
                if !first {
                    out.push(',');
                }
                let _ = write!(out, "\"max_allocs_per_op\":{}", json_f64(ceiling));
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// Parses a report previously produced by
    /// [`to_json`](BaselineReport::to_json).
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or shape problem.
    pub fn from_json(text: &str) -> Result<BaselineReport, String> {
        let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
        let kind = doc.get("kind").and_then(JsonValue::as_str);
        if kind != Some("bench-baseline") {
            return Err(format!("not a bench-baseline document (kind {kind:?})"));
        }
        // A baseline committed under an older report schema compares
        // stale thresholds against fresh measurements; reject it loudly
        // instead of silently mixing schema generations.
        let version = doc.get("schema_version").and_then(JsonValue::as_u64);
        if version != Some(u64::from(SCHEMA_VERSION)) {
            let found = version.map_or_else(|| "missing".into(), |v| v.to_string());
            return Err(format!(
                "baseline schema_version {found} does not match the current schema \
                 {SCHEMA_VERSION} — regenerate with `star-bench baseline --out \
                 bench/baseline.json` (re-pinning its allocation ceiling) and commit the diff"
            ));
        }
        let field = |name: &str| {
            doc.get(name)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("missing integer field {name:?}"))
        };
        let ops = field("ops")?;
        let seed = field("seed")?;
        let rows_json = doc
            .get("rows")
            .and_then(JsonValue::as_arr)
            .ok_or("missing \"rows\" array")?;
        let mut rows = Vec::with_capacity(rows_json.len());
        for row in rows_json {
            let text_field = |name: &str| {
                row.get(name)
                    .and_then(JsonValue::as_str)
                    .map(String::from)
                    .ok_or_else(|| format!("row missing string field {name:?}"))
            };
            let int_field = |name: &str| {
                row.get(name)
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| format!("row missing integer field {name:?}"))
            };
            rows.push(BaselineRow {
                workload: text_field("workload")?,
                scheme: text_field("scheme")?,
                total_writes: int_field("total_writes")?,
                ipc: row
                    .get("ipc")
                    .and_then(JsonValue::as_f64)
                    .ok_or("row missing number field \"ipc\"")?,
                energy_pj: int_field("energy_pj")?,
                recovery_ns: int_field("recovery_ns")?,
            });
        }
        let mut profile = None;
        let mut max_allocs_per_op = None;
        if let Some(obj) = doc.get("perf_profile") {
            max_allocs_per_op = obj.get("max_allocs_per_op").and_then(JsonValue::as_f64);
            // The measured fields travel together; "allocs_per_op" marks
            // their presence (a committed baseline carries only the
            // ceiling).
            if obj.get("allocs_per_op").is_some() {
                profile = Some(ProfBench::from_json(obj)?);
            }
        }
        Ok(BaselineReport {
            ops,
            seed,
            rows,
            profile,
            max_allocs_per_op,
        })
    }
}

/// The verdict of one baseline comparison.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckReport {
    /// Metrics that regressed beyond their threshold (non-empty fails
    /// the gate).
    pub regressions: Vec<String>,
    /// Metrics that *improved* beyond their threshold — informational,
    /// and the cue to refresh the committed baseline.
    pub improvements: Vec<String>,
}

impl CheckReport {
    /// Whether the gate passes (no regressions).
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

fn rel_change(current: u64, base: u64) -> f64 {
    if base == 0 {
        if current == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        current as f64 / base as f64 - 1.0
    }
}

/// Diffs `current` against the committed `baseline`.
///
/// # Errors
///
/// Returns an error (distinct from a regression) when the two reports
/// did not run the same grid — different ops, seed, or row set — since
/// comparing them metric-by-metric would be meaningless, and when the
/// baseline pins `max_allocs_per_op` but `current` carries no profile.
pub fn check(current: &BaselineReport, baseline: &BaselineReport) -> Result<CheckReport, String> {
    if current.ops != baseline.ops || current.seed != baseline.seed {
        return Err(format!(
            "grid mismatch: current ran (ops {}, seed {}), baseline has (ops {}, seed {}) — \
             refresh bench/baseline.json",
            current.ops, current.seed, baseline.ops, baseline.seed
        ));
    }
    let mut out = CheckReport::default();
    for base_row in &baseline.rows {
        let cell = format!("{}/{}", base_row.workload, base_row.scheme);
        let Some(cur) = current
            .rows
            .iter()
            .find(|r| r.workload == base_row.workload && r.scheme == base_row.scheme)
        else {
            return Err(format!(
                "grid mismatch: cell {cell} missing from current run"
            ));
        };
        let mut gauge = |metric: &str, delta: f64, tol: f64| {
            let line = format!(
                "{cell} {metric}: {:+.2}% (tolerance {:.0}%)",
                delta * 100.0,
                tol * 100.0
            );
            if delta > tol {
                out.regressions.push(line);
            } else if delta < -tol {
                out.improvements.push(line);
            }
        };
        gauge(
            "write traffic",
            rel_change(cur.total_writes, base_row.total_writes),
            WRITE_TRAFFIC_TOL,
        );
        gauge(
            "energy",
            rel_change(cur.energy_pj, base_row.energy_pj),
            ENERGY_TOL,
        );
        gauge(
            "recovery time",
            rel_change(cur.recovery_ns, base_row.recovery_ns),
            RECOVERY_TOL,
        );
        // IPC regresses downward; rows without a pipeline model (Triad)
        // carry 0 and are exempt.
        if base_row.ipc > 0.0 {
            gauge("ipc", 1.0 - cur.ipc / base_row.ipc, IPC_TOL);
        }
    }
    for cur in &current.rows {
        if !baseline
            .rows
            .iter()
            .any(|r| r.workload == cur.workload && r.scheme == cur.scheme)
        {
            return Err(format!(
                "grid mismatch: cell {}/{} absent from the baseline — refresh bench/baseline.json",
                cur.workload, cur.scheme
            ));
        }
    }
    // The allocation-rate gate: allocations per simulated op are
    // deterministic for a fixed toolchain, so the committed baseline may
    // pin an absolute ceiling. A pinned ceiling makes the profile
    // measurement mandatory.
    if let Some(ceiling) = baseline.max_allocs_per_op {
        let Some(profile) = &current.profile else {
            return Err(format!(
                "baseline pins perf_profile max_allocs_per_op {ceiling}, but the current run \
                 carries no profile measurement — profile the grid with allocation \
                 counting on (`run_prof_bench(cfg, true)`)"
            ));
        };
        if profile.allocs_per_op > ceiling {
            out.regressions.push(format!(
                "perf_profile allocs_per_op: {:.2} > allowed {ceiling} \
                 (over {} simulated ops)",
                profile.allocs_per_op, profile.ops
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BaselineConfig {
        BaselineConfig {
            ops: 120,
            seed: 42,
            jobs: 1,
        }
    }

    #[test]
    fn baseline_is_byte_identical_across_jobs_and_runs() {
        let serial = run_baseline(&tiny()).to_json();
        for jobs in [1, 2, 4] {
            let par = run_baseline(&BaselineConfig { jobs, ..tiny() }).to_json();
            assert_eq!(serial, par, "jobs {jobs}");
        }
    }

    #[test]
    fn report_roundtrips_through_json() {
        let report = run_baseline(&tiny());
        let parsed = BaselineReport::from_json(&report.to_json()).expect("parses");
        assert_eq!(parsed, report);
        assert_eq!(parsed.rows.len(), 9, "2 workloads × 4 schemes + triad");
    }

    #[test]
    fn clean_self_check_passes() {
        let report = run_baseline(&tiny());
        let verdict = check(&report, &report).expect("same grid");
        assert!(verdict.passed());
        assert!(verdict.improvements.is_empty());
    }

    #[test]
    fn synthetic_regressions_fail_the_gate() {
        let baseline = run_baseline(&tiny());
        let mut bad = baseline.clone();
        bad.rows[0].total_writes = baseline.rows[0].total_writes * 11 / 10; // +10 %
        bad.rows[1].ipc = baseline.rows[1].ipc * 0.9; // −10 %
        let last = bad.rows.len() - 1;
        bad.rows[last].recovery_ns = baseline.rows[last].recovery_ns * 13 / 10; // +30 %
        let verdict = check(&bad, &baseline).expect("same grid");
        assert!(!verdict.passed());
        assert_eq!(verdict.regressions.len(), 3, "{:?}", verdict.regressions);
        assert!(verdict.regressions[0].contains("write traffic"));
    }

    #[test]
    fn improvements_do_not_fail_the_gate() {
        let baseline = run_baseline(&tiny());
        let mut better = baseline.clone();
        better.rows[0].total_writes = baseline.rows[0].total_writes * 8 / 10;
        let verdict = check(&better, &baseline).expect("same grid");
        assert!(verdict.passed());
        assert_eq!(verdict.improvements.len(), 1);
    }

    #[test]
    fn grid_mismatch_is_an_error_not_a_pass() {
        let a = run_baseline(&tiny());
        let mut b = a.clone();
        b.ops += 1;
        assert!(check(&a, &b).is_err());
        let mut c = a.clone();
        c.rows.pop();
        assert!(check(&c, &a).is_err(), "missing cell in current");
        assert!(check(&a, &c).is_err(), "extra cell vs baseline");
    }

    fn sample_profile() -> ProfBench {
        ProfBench {
            ops: 18_000,
            wall_ms: 240.0,
            attributed_share: 0.96,
            allocs_per_op: 3.5,
            top: vec![crate::profbench::ProfComponent {
                path: "sweep/job;array;star".into(),
                excl_ms: 60.0,
                share: 0.25,
            }],
        }
    }

    #[test]
    fn profile_fields_roundtrip_through_json() {
        let mut report = run_baseline(&tiny());
        report.profile = Some(sample_profile());
        report.max_allocs_per_op = Some(10.0);
        let parsed = BaselineReport::from_json(&report.to_json()).expect("parses");
        assert_eq!(parsed, report);
        // The committed-baseline shape — a ceiling with no measurement —
        // roundtrips too.
        report.profile = None;
        let parsed = BaselineReport::from_json(&report.to_json()).expect("parses");
        assert_eq!(parsed, report);
    }

    #[test]
    fn alloc_ceiling_gates_the_profile() {
        let mut baseline = run_baseline(&tiny());
        baseline.max_allocs_per_op = Some(10.0);
        // A pinned ceiling makes the measurement mandatory.
        let bare = run_baseline(&tiny());
        assert!(check(&bare, &baseline).is_err());
        let mut lean = bare.clone();
        lean.profile = Some(sample_profile());
        assert!(check(&lean, &baseline).expect("same grid").passed());
        let mut hungry = bare.clone();
        hungry.profile = Some(ProfBench {
            allocs_per_op: 25.0,
            ..sample_profile()
        });
        let verdict = check(&hungry, &baseline).expect("same grid");
        assert!(!verdict.passed());
        assert!(verdict.regressions[0].contains("allocs_per_op"));
    }

    #[test]
    fn stale_schema_versions_are_rejected() {
        let current = run_baseline(&tiny()).to_json();
        let prefix = format!("{{\"schema_version\":{SCHEMA_VERSION},");
        assert!(current.starts_with(&prefix), "preamble shape changed");
        let stale = current.replacen(
            &format!("\"schema_version\":{SCHEMA_VERSION},"),
            "\"schema_version\":6,",
            1,
        );
        let err = BaselineReport::from_json(&stale).expect_err("stale version rejected");
        assert!(err.contains("schema_version 6"), "{err}");
        assert!(err.contains("regenerate"), "{err}");
    }

    #[test]
    fn malformed_baselines_are_rejected() {
        assert!(BaselineReport::from_json("not json").is_err());
        assert!(BaselineReport::from_json("{\"kind\":\"run-report\"}").is_err());
        assert!(
            BaselineReport::from_json("{\"kind\":\"bench-baseline\",\"ops\":1}").is_err(),
            "missing fields"
        );
    }
}
