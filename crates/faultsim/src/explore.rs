//! The crash-schedule explorer.
//!
//! [`CrashExplorer`] is the one builder behind every crash sweep — the
//! faultsim CLI, the sweep tests and `star-check`'s mid-run crash probes
//! all construct the same thing. It supports two strategies with
//! byte-identical reports:
//!
//! * [`ExploreStrategy::Fork`] (the default) learns the schedule from
//!   one plain run, then executes the workload **once** more with the
//!   chosen persist points on the engine's seize list: at each one the
//!   engine takes the crash image over a frozen, shared copy of its line
//!   store, and runs on. No machine is cloned and no op re-stepped;
//!   only the fault, recovery and readback run per case.
//! * [`ExploreStrategy::Replay`] replays the run from scratch once per
//!   chosen point with the crash armed there, steps it until the crash
//!   stops the engine and seizes the stopped engine — O(ops × cases)
//!   work, kept as the oracle the fork strategy is checked against (see
//!   the `fork_equivalence` tests and the CI gate).
//!
//! Below the case budget the sweep is exhaustive — every persist point
//! is crashed on, including the windows between a data-line commit and
//! the later write-back of its parent counter/MAC node. Above the
//! budget, points are drawn by seeded random sampling (deterministic
//! per explorer), always keeping the first and last point.

use crate::case::{
    adjudicate, CaseResult, CaseTrace, FaultCase, ForkPoint, Outcome, JOURNAL_CAPACITY,
};
use crate::fault::FaultKind;
use crate::faultsim_config;
use crate::report::ExploreReport;
use star_core::persist::PersistPoint;
use star_core::{SchemeKind, SecureMemConfig, SecureMemory};
use star_rng::SimRng;
use star_sweep::SweepKey;
use star_trace::{merge, CatMask, TraceRecorder};
use star_workloads::{Workload, WorkloadKind};
use std::collections::BTreeSet;
use std::sync::Arc;

/// How the explorer reaches each crash point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExploreStrategy {
    /// Execute the workload once, seizing the crash image in-line at
    /// each chosen persist point, and run only the fault, recovery and
    /// readback per case. O(ops + cases) work in total.
    #[default]
    Fork,
    /// Replay the workload from scratch once per case: O(ops × cases).
    /// The oracle [`Fork`](ExploreStrategy::Fork) is checked against.
    Replay,
}

/// What drives the engine: a named workload from the paper's table, or
/// an arbitrary caller-supplied stream (e.g. `star-check` programs).
#[derive(Clone)]
enum Driver {
    Kind(WorkloadKind),
    Factory {
        /// Free-form report label — an owned `String`, so parameterized
        /// sweeps (per-shard, per-tenant, per-config factories) can
        /// carry labels built at runtime instead of flattening them
        /// into a lossy `&'static str`.
        label: String,
        make: Arc<dyn Fn() -> Box<dyn Workload> + Send + Sync>,
    },
}

impl core::fmt::Debug for Driver {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Driver::Kind(k) => f.debug_tuple("Kind").field(k).finish(),
            Driver::Factory { label, .. } => f.debug_tuple("Factory").field(label).finish(),
        }
    }
}

/// The unified crash-sweep builder: which run, which fault, which
/// points, how parallel, and by which strategy.
///
/// ```
/// use star_core::SchemeKind;
/// use star_faultsim::{CrashExplorer, Outcome};
/// use star_workloads::WorkloadKind;
///
/// let report = CrashExplorer::new(SchemeKind::Star, WorkloadKind::Array, 40, 7).explore();
/// assert!(report.total_points > 0);
/// assert_eq!(report.count(Outcome::SilentCorruption), 0);
/// ```
#[derive(Debug, Clone)]
pub struct CrashExplorer {
    scheme: SchemeKind,
    driver: Driver,
    ops: usize,
    seed: u64,
    cfg: SecureMemConfig,
    fault: FaultKind,
    exhaustive: bool,
    max_cases: usize,
    sample_seed: u64,
    threads: usize,
    strategy: ExploreStrategy,
}

impl CrashExplorer {
    /// An explorer over a named workload with the default faultsim
    /// configuration: clean crashes, sampled above a 256-case budget,
    /// serial, fork strategy.
    pub fn new(scheme: SchemeKind, workload: WorkloadKind, ops: usize, seed: u64) -> Self {
        Self {
            scheme,
            driver: Driver::Kind(workload),
            ops,
            seed,
            cfg: faultsim_config(),
            fault: FaultKind::CrashOnly,
            exhaustive: false,
            max_cases: 256,
            sample_seed: 1,
            threads: 1,
            strategy: ExploreStrategy::Fork,
        }
    }

    /// An explorer over a caller-supplied workload factory (`make` must
    /// return an identically-seeded fresh instance each call), driving
    /// `ops` steps under `cfg`. This is how `star-check` runs its
    /// programs through the shared crash machinery, and how the sweep
    /// bench drives workloads outside the paper's registry; `label`
    /// stands in for the workload name in reports and may be built at
    /// runtime (e.g. `format!("shard{i}")` for a parameterized sweep).
    pub fn with_workload_factory(
        scheme: SchemeKind,
        cfg: SecureMemConfig,
        label: impl Into<String>,
        ops: usize,
        make: Arc<dyn Fn() -> Box<dyn Workload> + Send + Sync>,
    ) -> Self {
        Self {
            scheme,
            driver: Driver::Factory {
                label: label.into(),
                make,
            },
            ops,
            seed: 0,
            cfg,
            fault: FaultKind::CrashOnly,
            exhaustive: false,
            max_cases: 256,
            sample_seed: 1,
            threads: 1,
            strategy: ExploreStrategy::Fork,
        }
    }

    /// Same explorer under a different engine configuration.
    pub fn with_config(mut self, cfg: SecureMemConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Same explorer with a different fault.
    pub fn with_fault(mut self, fault: FaultKind) -> Self {
        self.fault = fault;
        self
    }

    /// Same explorer, forced exhaustive (every persist point regardless
    /// of the case budget).
    pub fn all_points(mut self) -> Self {
        self.exhaustive = true;
        self
    }

    /// Same explorer with a different case budget.
    pub fn with_max_cases(mut self, max_cases: usize) -> Self {
        self.max_cases = max_cases;
        self
    }

    /// Same explorer with a different point-sampling seed (independent
    /// of the workload seed so the two can be varied separately).
    pub fn with_sample_seed(mut self, sample_seed: u64) -> Self {
        self.sample_seed = sample_seed;
        self
    }

    /// Same explorer, adjudicating cases on `threads` workers (1 =
    /// serial; any value produces a byte-identical report, see
    /// `star_sweep`'s determinism contract).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Same explorer under a different strategy.
    pub fn with_strategy(mut self, strategy: ExploreStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The engine configuration in use.
    pub fn config(&self) -> &SecureMemConfig {
        &self.cfg
    }

    /// The scheme under test.
    pub fn scheme(&self) -> SchemeKind {
        self.scheme
    }

    /// The injected fault.
    pub fn fault(&self) -> FaultKind {
        self.fault
    }

    fn instantiate(&self) -> Box<dyn Workload> {
        match &self.driver {
            Driver::Kind(kind) => kind.instantiate(self.seed),
            Driver::Factory { make, .. } => make(),
        }
    }

    fn workload_label(&self) -> &str {
        match &self.driver {
            Driver::Kind(kind) => kind.label(),
            Driver::Factory { label, .. } => label,
        }
    }

    fn key(&self, seq: u64) -> SweepKey {
        SweepKey {
            rank: seq,
            // `SweepKey.workload` is a `&'static str`; a factory's
            // dynamic label cannot live there, and does not need to —
            // `rank`/`case` already make every key unique and keys
            // never surface in reports (the report carries the real
            // label via `workload_label`).
            workload: match &self.driver {
                Driver::Kind(kind) => kind.label(),
                Driver::Factory { .. } => "factory",
            },
            scheme: self.scheme.label(),
            seed: self.seed,
            case: seq,
        }
    }

    /// Runs the workload to completion with instrumentation on and no
    /// crash armed, returning the full persist schedule.
    pub fn schedule(&self) -> Vec<PersistPoint> {
        self.schedule_by_op().0
    }

    /// [`schedule`](Self::schedule), plus the zero-based op index that
    /// committed each point (`op_of_point[seq - 1]`).
    ///
    /// # Panics
    ///
    /// Panics if the fault-free run fails verification: that is an
    /// engine bug, not a fault-injection outcome.
    pub fn schedule_by_op(&self) -> (Vec<PersistPoint>, Vec<usize>) {
        let mut engine = SecureMemory::new(self.scheme, self.cfg.clone());
        engine.enable_persist_log();
        let mut workload = self.instantiate();
        let mut op_of_point = Vec::new();
        for op in 0..self.ops {
            workload.step(&mut engine);
            op_of_point.resize(engine.persist_points() as usize, op);
        }
        if let Some(e) = engine.integrity_error() {
            panic!("fault-free schedule run failed: {e}");
        }
        (engine.persist_log().to_vec(), op_of_point)
    }

    /// Which schedule points this explorer will crash on, for a
    /// schedule of `total_points` points.
    pub fn chosen_points(&self, total_points: u64) -> Vec<u64> {
        if total_points == 0 {
            return Vec::new();
        }
        if self.exhaustive || total_points <= self.max_cases as u64 {
            return (1..=total_points).collect();
        }
        let mut picked: BTreeSet<u64> = BTreeSet::new();
        picked.insert(1);
        picked.insert(total_points);
        let mut rng = SimRng::seed_from_u64(self.sample_seed);
        while picked.len() < self.max_cases {
            picked.insert(rng.gen_range_inclusive(1..=total_points));
        }
        picked.into_iter().collect()
    }

    /// Executes the workload **once** and seizes a [`ForkPoint`] at
    /// each persist point in `wanted` (sorted ascending) as the run
    /// passes it, without stopping, forking or re-stepping anything.
    /// Returns the persist schedule of what executed — the full run, or
    /// (when every wanted point was seized early) the prefix up to the
    /// op that committed the last one — and the seized points; wanted
    /// points beyond the schedule produce no point (the run never
    /// reaches them).
    pub fn capture(&self, wanted: &[u64]) -> (Vec<PersistPoint>, Vec<ForkPoint>) {
        assert!(
            wanted.windows(2).all(|w| w[0] < w[1]),
            "wanted points must be sorted and distinct"
        );
        let mut engine = SecureMemory::new(self.scheme, self.cfg.clone());
        engine.enable_persist_log();
        // Journal on during capture so a seizure's undrained writes
        // match what a from-scratch replay would carry at the same point.
        engine.enable_write_journal(JOURNAL_CAPACITY);
        engine.seize_at(wanted);
        let mut workload = self.instantiate();
        let mut points: Vec<ForkPoint> = Vec::with_capacity(wanted.len());
        for op in 0..self.ops {
            workload.step(&mut engine);
            for seizure in engine.take_seized() {
                points.push(ForkPoint::new(seizure, engine.persist_log(), Some(op)));
            }
            // Every wanted point is seized, or a failed verification
            // halted the engine (e.g. a shrink candidate's read): the rest
            // of the run cannot add points, so don't execute it.
            if points.len() == wanted.len() || engine.integrity_error().is_some() {
                break;
            }
        }
        (engine.persist_log().to_vec(), points)
    }

    /// Replays the run with a crash armed at `case.crash_at`, applies
    /// the fault to what survives, runs recovery, and classifies the
    /// result via the readback oracle. Fully deterministic in
    /// `(self, case)`; always replay-based regardless of the strategy
    /// (single cases have nothing to amortize).
    ///
    /// # Panics
    ///
    /// Panics if the run fails verification before its crash point (an
    /// engine bug, not a fault-injection outcome).
    pub fn run_case(&self, case: &FaultCase) -> CaseResult {
        self.replay_impl(case, None).0
    }

    /// [`run_case`](Self::run_case) with tracing: the replayed engine
    /// records under `mask`, the injected crash and fault land on the
    /// timeline as `fault`-category instants (named `crash-injected`,
    /// then the fault's label, then the outcome's label), and recovery's
    /// phases continue on the same simulated clock.
    pub fn run_case_traced(&self, case: &FaultCase, mask: CatMask) -> (CaseResult, CaseTrace) {
        let (result, trace) = self.replay_impl(case, Some(mask));
        (result, trace.expect("tracing was requested"))
    }

    fn replay_impl(
        &self,
        case: &FaultCase,
        mask: Option<CatMask>,
    ) -> (CaseResult, Option<CaseTrace>) {
        let mut engine = SecureMemory::new(self.scheme, self.cfg.clone());
        if let Some(mask) = mask {
            engine.enable_trace(mask, 0);
        }
        engine.enable_persist_log();
        engine.enable_write_journal(JOURNAL_CAPACITY);
        engine.arm(case.crash_at);

        let mut workload = self.instantiate();
        for _ in 0..self.ops {
            workload.step(&mut engine);
            if engine.crashed_at().is_some() {
                break;
            }
        }
        if engine.crashed_at().is_none() {
            if let Some(e) = engine.integrity_error() {
                panic!("replay failed before persist point {}: {e}", case.crash_at);
            }
            let trace = mask.map(|_| CaseTrace {
                events: engine.trace_events(),
                hists: engine.trace_histograms().clone(),
                dropped: engine.trace_dropped(),
            });
            let result = CaseResult {
                crash_at: case.crash_at,
                kind: None,
                fault: case.fault,
                outcome: Outcome::NotReached,
                stale_count: 0,
                recovery_reads: 0,
                recovery_writes: 0,
                recovery_time_ns: 0,
                readback_checked: 0,
                detail: format!(
                    "run committed only {} persist points",
                    engine.persist_points()
                ),
            };
            return (result, trace);
        }

        // Detach the pre-crash timeline (the crash consumes the engine)
        // and seed a second recorder on the same clock for the
        // annotations and recovery phases.
        let run_events = mask.map(|_| engine.trace_events());
        let run_hists = mask.map(|_| engine.trace_histograms().clone());
        let run_dropped = engine.trace_dropped();
        let mut rec = TraceRecorder::off();
        if let Some(mask) = mask {
            rec.enable(mask, 0);
            rec.set_now(engine.now_ps());
        }

        let point = ForkPoint::seize(engine);
        let result = adjudicate(&point, case.fault, &self.cfg, &mut rec);
        let trace = mask.map(|_| CaseTrace {
            events: merge(&[run_events.as_deref().unwrap_or_default(), &rec.events()]),
            hists: run_hists.unwrap_or_default(),
            dropped: run_dropped + rec.dropped(),
        });
        (result, trace)
    }

    /// Explores the run: one crash-and-recover case per chosen persist
    /// point, classified and collected into a machine-readable report.
    ///
    /// Cases are independent, so they shard across
    /// [`with_threads`](Self::with_threads) workers (see [`star_sweep`]);
    /// results merge back in persist-point order, making the report —
    /// including its JSON bytes — identical for every thread count *and*
    /// for both strategies.
    pub fn explore(&self) -> ExploreReport {
        // A plain schedule pre-pass learns the run length, so the points
        // can be chosen before either strategy reaches them.
        let total_points = self.schedule().len() as u64;
        let points = self.chosen_points(total_points);
        let cases: Vec<CaseResult> = match self.strategy {
            ExploreStrategy::Replay => {
                let jobs: Vec<(SweepKey, FaultCase)> = points
                    .iter()
                    .map(|&seq| {
                        let case = FaultCase {
                            crash_at: seq,
                            fault: self.fault,
                        };
                        (self.key(seq), case)
                    })
                    .collect();
                star_sweep::run_merged(self.threads, jobs, |_, case| self.run_case(case))
            }
            ExploreStrategy::Fork => {
                let (_, seized) = self.capture(&points);
                let jobs: Vec<(SweepKey, ForkPoint)> = seized
                    .into_iter()
                    .map(|point| (self.key(point.crash.seq), point))
                    .collect();
                star_sweep::run_merged(self.threads, jobs, |_, point| {
                    adjudicate(point, self.fault, &self.cfg, &mut TraceRecorder::off())
                })
            }
        };
        ExploreReport {
            scheme: self.scheme,
            workload: self.workload_label().to_string(),
            ops: self.ops,
            seed: self.seed,
            fault: self.fault,
            total_points,
            exhaustive: cases.len() as u64 == total_points,
            cases,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CrashExplorer {
        CrashExplorer::new(SchemeKind::Star, WorkloadKind::Array, 24, 3)
    }

    #[test]
    fn schedule_is_deterministic() {
        let a = tiny().schedule();
        let b = tiny().schedule();
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn small_schedules_are_swept_exhaustively() {
        let points = tiny().chosen_points(40);
        assert_eq!(points, (1..=40).collect::<Vec<u64>>());
    }

    #[test]
    fn sampling_is_bounded_deterministic_and_keeps_extremes() {
        let explorer = tiny();
        let a = explorer.chosen_points(100_000);
        let b = explorer.chosen_points(100_000);
        assert_eq!(a, b);
        assert_eq!(a.len(), 256);
        assert_eq!(a.first(), Some(&1));
        assert_eq!(a.last(), Some(&100_000));
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
    }

    #[test]
    fn capture_yields_one_fork_per_wanted_point() {
        let explorer = tiny();
        let schedule = explorer.schedule();
        let total = schedule.len() as u64;
        let wanted = [1, total / 2, total];
        let (captured_schedule, forks) = explorer.capture(&wanted);
        assert_eq!(captured_schedule, schedule);
        assert_eq!(forks.len(), wanted.len());
        for (point, &seq) in forks.iter().zip(&wanted) {
            assert_eq!(point.crash.seq, seq);
            assert!(point.ops_completed.is_some());
        }
    }

    /// Factory sweeps carry runtime-built labels end to end: through
    /// `workload_label`, into the report struct, and out in the JSON —
    /// the label plumbing parameterized (per-shard, per-tenant) sweeps
    /// rely on.
    #[test]
    fn factory_sweeps_carry_dynamic_labels_into_reports() {
        let shard = 3;
        let explorer = CrashExplorer::with_workload_factory(
            SchemeKind::Star,
            faultsim_config(),
            format!("shard{shard}/array"),
            24,
            Arc::new(|| WorkloadKind::Array.instantiate(3)),
        )
        .all_points();
        let report = explorer.explore();
        assert_eq!(report.workload, "shard3/array");
        assert!(report.to_json().contains("\"workload\":\"shard3/array\""));
        assert!(report.summary_table().contains("workload=shard3/array"));
    }

    #[test]
    fn wanted_points_beyond_the_schedule_produce_no_fork() {
        let explorer = tiny();
        let total = explorer.schedule().len() as u64;
        let (_, forks) = explorer.capture(&[1, total + 500]);
        assert_eq!(forks.len(), 1);
    }
}
