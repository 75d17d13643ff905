//! The benchmark-regression baseline harness.
//!
//! `star-bench baseline` runs the canonical reduced scheme grid —
//! (array, ycsb) × (wb, strict, anubis, star) plus the synthetic Triad
//! cell — and freezes four headline metrics per cell: total NVM write
//! traffic, IPC, energy, and crash-recovery time. The resulting
//! [`BaselineReport`] serializes to byte-stable JSON (`BENCH_PR.json`).
//! The default grid's bytes are pinned exactly by the schema-v7 golden
//! `tests/golden/bench_baseline_v7.json`, so any change to a simulated
//! row fails a tier-1 test until the golden is regenerated on purpose.
//! Host-side numbers are not pinned here: the allocation rate of the op
//! loop is bounded by `crates/bench/tests/alloc_gate.rs`, and host
//! wall-clock time is measured by the `perfbench` package.
//!
//! Everything here is a pure function of `(ops, seed)`: cells run
//! through `star_sweep::run_merged`, so the report is byte-identical
//! across `--jobs` counts and across repeated runs.

use crate::harness::{run_and_crash, run_scheme, ExperimentConfig};
use crate::profbench::ProfBench;
use star_core::triad::{TriadConfig, TriadMemory};
use star_core::SchemeKind;
use star_sweep::run_merged;
use star_trace::Json;
use star_workloads::WorkloadKind;

/// Size of the Triad cell's synthetic memory, in data lines.
const TRIAD_DATA_LINES: u64 = 4_096;

/// How a baseline sweep is configured. The defaults are the canonical
/// reduced grid that `tests/golden/bench_baseline_v7.json` pins and that
/// CI re-runs — change them only together with a golden refresh.
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
    /// Instructions per cycle (0 for Triad, which models no pipeline).
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
    // Cell spans name the workload, then the scheme, so a profile groups
    // time that way under the sweep job.
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
    let jobs = WORKLOADS
        .into_iter()
        .flat_map(|workload| SCHEMES.map(|scheme| Cell::Engine(scheme, workload)))
        .chain([Cell::Triad])
        .enumerate()
        .collect();
    let rows = run_merged(cfg.jobs, jobs, |_, cell| match cell {
        Cell::Engine(scheme, workload) => engine_row(scheme, workload, cfg),
        Cell::Triad => triad_row(cfg.ops),
    });
    BaselineReport {
        ops: cfg.ops as u64,
        seed: cfg.seed,
        rows,
        profile: None,
    }
}

impl BaselineReport {
    /// The report as byte-stable JSON (document kind `bench-baseline`).
    pub fn to_json(&self) -> String {
        let mut j = Json::doc("bench-baseline");
        j.u64("ops", self.ops)
            .u64("seed", self.seed)
            .arr("rows", |j| {
                for row in &self.rows {
                    j.obj("", |j| {
                        j.str("workload", &row.workload)
                            .str("scheme", &row.scheme)
                            .u64("total_writes", row.total_writes)
                            .f64("ipc", row.ipc)
                            .u64("energy_pj", row.energy_pj)
                            .u64("recovery_ns", row.recovery_ns);
                    });
                }
            });
        if let Some(profile) = &self.profile {
            j.obj("perf_profile", |j| profile.write_json(j));
        }
        j.finish()
    }
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
}
