//! Workload × scheme execution harness.

use star_core::{
    RecoveryError, RecoveryReport, RunReport, SchemeKind, SecureMemConfig, SecureMemory,
};
use star_trace::{CatMask, Histograms, TraceEvent, TracePart};
use star_workloads::{MultiThreaded, Workload, WorkloadKind};

/// How one experiment run is configured.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Operations per workload (split across threads).
    pub ops: usize,
    /// Workload RNG seed (fixed so every scheme sees the same trace).
    pub seed: u64,
    /// Simulated threads (the paper runs 8; 1 keeps sweeps fast and the
    /// normalized results are thread-count-insensitive).
    pub threads: usize,
    /// Host worker threads the experiment grids shard their independent
    /// cells across (`star-bench figures --jobs`). Results are merged
    /// in cell order, so any value reproduces the `jobs == 1` output
    /// exactly — see `star_sweep`'s determinism contract.
    pub jobs: usize,
    /// Engine configuration (paper Table I defaults).
    pub mem: SecureMemConfig,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            ops: 20_000,
            seed: 42,
            threads: 1,
            jobs: 1,
            mem: SecureMemConfig::default(),
        }
    }
}

impl ExperimentConfig {
    /// Sets the host worker-thread count for grid sweeps
    /// (`star-bench figures --jobs`).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Instantiates `kind` honoring the thread count.
    pub fn instantiate(&self, kind: WorkloadKind) -> Box<dyn Workload> {
        if self.threads > 1 {
            Box::new(MultiThreaded::new(kind, self.threads, self.seed))
        } else {
            kind.instantiate(self.seed)
        }
    }
}

/// A run that ended in a crash + recovery attempt.
#[derive(Debug)]
pub struct CrashOutcome {
    /// Statistics of the pre-crash run.
    pub report: RunReport,
    /// Dirty metadata fraction at crash (Fig. 14a).
    pub dirty_fraction: f64,
    /// Dirty metadata lines at crash.
    pub dirty_lines: usize,
    /// The recovery result.
    pub recovery: Result<RecoveryReport, RecoveryError>,
}

/// Runs `kind` under `scheme` and returns the run report.
pub fn run_scheme(scheme: SchemeKind, kind: WorkloadKind, cfg: &ExperimentConfig) -> RunReport {
    let mut mem = SecureMemory::new(scheme, cfg.mem.clone());
    let mut wl = cfg.instantiate(kind);
    wl.run(cfg.ops, &mut mem);
    mem.report()
}

/// The owned timeline of one traced run: the merged event stream plus
/// the device histograms, detached from the engine so sweep cells can
/// ship it across host threads.
#[derive(Debug, Clone)]
pub struct RunTrace {
    /// `workload/scheme` track label shown by the trace viewers.
    pub label: String,
    /// Merged events in stable timestamp order.
    pub events: Vec<TraceEvent>,
    /// Device latency / queue-depth histograms.
    pub hists: Histograms,
    /// Events lost to ring-buffer wrap-around across all components.
    pub dropped: u64,
}

impl RunTrace {
    /// Borrows this trace as an exporter part under process id `pid`.
    pub fn part(&self, pid: u64) -> TracePart<'_> {
        TracePart {
            pid,
            label: &self.label,
            events: &self.events,
            hists: Some(&self.hists),
        }
    }
}

/// [`run_scheme`] with tracing enabled for `mask`: returns the report
/// plus the run's owned timeline. A `mask` of [`CatMask::NONE`] still
/// returns an (empty) trace, which is how the zero-overhead gate tests
/// compare enabled/disabled report bytes through one code path.
pub fn run_scheme_traced(
    scheme: SchemeKind,
    kind: WorkloadKind,
    cfg: &ExperimentConfig,
    mask: CatMask,
) -> (RunReport, RunTrace) {
    let mut mem = SecureMemory::new(scheme, cfg.mem.clone());
    if mask != CatMask::NONE {
        mem.enable_trace(mask);
    }
    let mut wl = cfg.instantiate(kind);
    wl.run(cfg.ops, &mut mem);
    let report = mem.report();
    let trace = RunTrace {
        label: format!("{}/{}", kind.label(), scheme.label()),
        events: mem.trace_events(),
        hists: mem.trace_histograms(),
        dropped: mem.trace_dropped(),
    };
    (report, trace)
}

/// Runs `kind` under `scheme`, crashes at the end, and recovers.
pub fn run_and_crash(
    scheme: SchemeKind,
    kind: WorkloadKind,
    cfg: &ExperimentConfig,
) -> CrashOutcome {
    let mut mem = SecureMemory::new(scheme, cfg.mem.clone());
    let mut wl = cfg.instantiate(kind);
    wl.run(cfg.ops, &mut mem);
    let report = mem.report();
    let dirty_fraction = mem.dirty_metadata_fraction();
    let dirty_lines = mem.dirty_metadata_count();
    let mut image = mem.crash();
    let recovery = star_core::recover(&mut image);
    CrashOutcome {
        report,
        dirty_fraction,
        dirty_lines,
        recovery,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_trace_across_schemes() {
        let cfg = ExperimentConfig {
            ops: 300,
            ..Default::default()
        };
        let wb = run_scheme(SchemeKind::WriteBack, WorkloadKind::Queue, &cfg);
        let star = run_scheme(SchemeKind::Star, WorkloadKind::Queue, &cfg);
        assert_eq!(
            wb.instructions, star.instructions,
            "identical instruction stream"
        );
    }

    #[test]
    fn crash_outcome_recovers_for_star() {
        let cfg = ExperimentConfig {
            ops: 500,
            ..Default::default()
        };
        let out = run_and_crash(SchemeKind::Star, WorkloadKind::Array, &cfg);
        let rec = out.recovery.expect("attack-free recovery succeeds");
        assert!(rec.correct);
    }
}
