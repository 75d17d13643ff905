//! The lane runner: every lane is an independent job on the star-sweep
//! pool.
//!
//! [`ShardSpec::shards`] sizes the pool. Each job builds one lane, runs
//! it through every epoch and finishes it; no lane ever waits for
//! another. An epoch is the lane's own fence-and-record quantum:
//! [`ShardSpec::epoch_ops`] operations, then a persist barrier on the
//! lane's engine and one [`EpochRecord`]. It is also the resolution at
//! which lane crashes are scheduled.
//!
//! Determinism: each lane's engine and workload are touched by exactly
//! one job, jobs share no state, and the pool returns the lanes in lane
//! order whichever worker ran them. The persist log is then interleaved
//! by `(epoch, lane)`. The output is a pure function of the
//! [`ShardSpec`] minus its `shards` field.

use crate::report::{ShardGridReport, ShardRunReport};
use crate::{LaneCrash, ShardSpec};
use star_core::recovery::recover;
use star_core::stats::merge_reports;
use star_core::{RunReport, SchemeKind, SecureMemory};
use star_rng::lane_seed;
use star_sweep::run_merged;
use star_trace::{Histograms, TraceEvent};
use star_workloads::Workload;

/// One lane's persist activity in one epoch — the unit the merged
/// `epoch_log` is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochRecord {
    /// The lane's epoch index (0-based).
    pub epoch: u64,
    /// The lane.
    pub lane: u32,
    /// Persist points the lane committed during this epoch.
    pub persist_points: u64,
    /// The lane's device clock at the epoch boundary, picoseconds.
    pub now_ps: u64,
}

/// One recovered per-lane power failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneRecovery {
    /// Epoch boundary the crash fired at.
    pub at_epoch: u64,
    /// Stale metadata nodes recovery restored.
    pub stale_nodes: u64,
    /// NVM line reads recovery performed.
    pub nvm_reads: u64,
    /// NVM line writes recovery performed.
    pub nvm_writes: u64,
    /// Modeled recovery time, nanoseconds.
    pub recovery_ns: u64,
}

/// Everything one lane produced: its (crash-segment-merged) run report,
/// persist totals, recoveries, per-epoch log and optional trace.
#[derive(Debug, Clone)]
pub struct LaneOutcome {
    /// The lane index.
    pub lane: u32,
    /// The lane's run report; for crashed lanes, the merge of every
    /// pre-crash segment with the post-recovery segment.
    pub report: RunReport,
    /// Persist points the lane committed across all segments.
    pub persist_points: u64,
    /// Recovered power failures, in epoch order.
    pub recoveries: Vec<LaneRecovery>,
    /// The lane's epoch records, in epoch order.
    pub epoch_log: Vec<EpochRecord>,
    /// Buffered trace events (empty when tracing is off), merged across
    /// crash segments by simulated timestamp.
    pub trace_events: Vec<TraceEvent>,
    /// The lane's device histograms from its final segment (None when
    /// tracing is off).
    pub trace_hists: Option<Histograms>,
}

/// One lane mid-run: engine + workload + accumulated segments.
struct LaneState {
    lane: u32,
    engine: SecureMemory,
    workload: Box<dyn Workload>,
    ops_done: usize,
    prev_points: u64,
    total_points: u64,
    segments: Vec<RunReport>,
    segment_events: Vec<Vec<TraceEvent>>,
    recoveries: Vec<LaneRecovery>,
    epoch_log: Vec<EpochRecord>,
}

impl LaneState {
    fn new(spec: &ShardSpec, lane: usize) -> Self {
        let mut engine = SecureMemory::new(spec.scheme, spec.mem.clone());
        if let Some(mask) = spec.trace {
            engine.enable_trace(mask);
        }
        Self {
            lane: lane as u32,
            engine,
            workload: spec.workload.instantiate(lane_seed(spec.seed, lane as u64)),
            ops_done: 0,
            prev_points: 0,
            total_points: 0,
            segments: Vec::new(),
            segment_events: Vec::new(),
            recoveries: Vec::new(),
            epoch_log: Vec::new(),
        }
    }

    /// Runs one epoch: the lane's slice of operations, then a fence,
    /// then the epoch record; fires the lane's scheduled crash at the
    /// boundary if one is due.
    fn run_epoch(&mut self, epoch: u64, spec: &ShardSpec) {
        let ops = spec
            .epoch_ops
            .min(spec.ops_per_lane.saturating_sub(self.ops_done));
        self.workload.run(ops, &mut self.engine);
        if let Some(e) = self.engine.integrity_error() {
            panic!("lane {} failed at epoch {epoch}: {e}", self.lane);
        }
        self.ops_done += ops;
        self.engine.fence();
        let points = self.engine.persist_points();
        self.epoch_log.push(EpochRecord {
            epoch,
            lane: self.lane,
            persist_points: points - self.prev_points,
            now_ps: self.engine.now_ps(),
        });
        self.prev_points = points;
        let due = spec.crashes.iter().any(|c| {
            *c == LaneCrash {
                lane: self.lane as usize,
                at_epoch: epoch,
            }
        });
        if due {
            self.crash_recover(epoch, spec);
        }
    }

    /// Power-fails the lane: takes its crash image (over a frozen,
    /// shared copy of the line store; nothing else is cloned), recovers
    /// it, and resumes the lane from it. The pre-crash statistics are
    /// banked as a segment; the rebooted engine starts cold.
    fn crash_recover(&mut self, epoch: u64, spec: &ShardSpec) {
        self.total_points += self.engine.persist_points();
        self.segments.push(self.engine.report());
        if spec.trace.is_some() {
            self.segment_events.push(self.engine.trace_events());
        }
        let mut image = self.engine.crash_image();
        let rec = recover(&mut image).unwrap_or_else(|e| {
            panic!(
                "lane {} failed to recover at epoch {epoch}: {e:?}",
                self.lane
            )
        });
        assert!(
            rec.verified && rec.correct,
            "lane {} recovery did not verify at epoch {epoch}",
            self.lane
        );
        self.recoveries.push(LaneRecovery {
            at_epoch: epoch,
            stale_nodes: rec.stale_count as u64,
            nvm_reads: rec.nvm_reads,
            nvm_writes: rec.nvm_writes,
            recovery_ns: rec.recovery_time_ns,
        });
        self.engine = SecureMemory::resume_from_image(&image, spec.mem.clone());
        if let Some(mask) = spec.trace {
            self.engine.enable_trace(mask);
        }
        self.prev_points = 0;
    }

    fn finish(mut self, spec: &ShardSpec) -> LaneOutcome {
        self.total_points += self.engine.persist_points();
        self.segments.push(self.engine.report());
        let (trace_events, trace_hists) = if spec.trace.is_some() {
            self.segment_events.push(self.engine.trace_events());
            let slices: Vec<&[TraceEvent]> =
                self.segment_events.iter().map(|v| v.as_slice()).collect();
            (
                star_trace::merge(&slices),
                Some(self.engine.trace_histograms()),
            )
        } else {
            (Vec::new(), None)
        };
        LaneOutcome {
            lane: self.lane,
            report: merge_reports(&self.segments),
            persist_points: self.total_points,
            recoveries: self.recoveries,
            epoch_log: self.epoch_log,
            trace_events,
            trace_hists,
        }
    }
}

/// Runs a sharded experiment and returns its lane-keyed report.
///
/// The report is a pure function of the spec's *workload-defining*
/// fields; `spec.shards` sizes the worker pool only and never changes a
/// byte of the output.
///
/// # Panics
///
/// Panics if the spec is degenerate (zero lanes or ops), if a scheduled
/// crash names a lane or epoch outside the run, or if a lane fails to
/// recover from a scheduled crash (once the other lane jobs finish).
pub fn run_sharded(spec: &ShardSpec) -> ShardRunReport {
    assert!(spec.lanes > 0, "need at least one lane");
    assert!(spec.ops_per_lane > 0, "need at least one op per lane");
    assert!(spec.epoch_ops > 0, "need a positive epoch quantum");
    let epochs = spec.epochs();
    for c in &spec.crashes {
        assert!(c.lane < spec.lanes, "crash lane {} out of range", c.lane);
        assert!(
            c.at_epoch < epochs,
            "crash epoch {} out of range",
            c.at_epoch
        );
    }
    let lanes: Vec<(usize, ())> = (0..spec.lanes).map(|lane| (lane, ())).collect();
    let outcomes: Vec<LaneOutcome> = run_merged(spec.shards, lanes, |&lane, _| {
        star_scope::span!("shard/lane");
        let mut state = LaneState::new(spec, lane);
        for epoch in 0..epochs {
            state.run_epoch(epoch, spec);
        }
        state.finish(spec)
    });

    // Lanes come back in lane order, each with one record per epoch.
    star_scope::span!("shard/merge");
    let epoch_log: Vec<EpochRecord> = (0..epochs as usize)
        .flat_map(|e| outcomes.iter().map(move |o| o.epoch_log[e]))
        .collect();
    let merged = merge_reports(
        &outcomes
            .iter()
            .map(|o| o.report.clone())
            .collect::<Vec<_>>(),
    );
    ShardRunReport {
        scheme: spec.scheme,
        workload: spec.workload.label(),
        lanes: spec.lanes as u32,
        ops_per_lane: spec.ops_per_lane as u64,
        epoch_ops: spec.epoch_ops as u64,
        seed: spec.seed,
        outcomes,
        merged,
        epoch_log,
    }
}

/// Runs one spec across `schemes` — the `star-bench shard` grid. The
/// cells run one after another, each on the spec's one lane pool
/// (`spec.shards` workers), so no pool runs inside another.
pub fn run_shard_grid(spec: &ShardSpec, schemes: &[SchemeKind]) -> ShardGridReport {
    let cells = schemes
        .iter()
        .map(|&scheme| {
            run_sharded(&ShardSpec {
                scheme,
                ..spec.clone()
            })
        })
        .collect();
    ShardGridReport {
        lanes: spec.lanes as u32,
        ops_per_lane: spec.ops_per_lane as u64,
        epoch_ops: spec.epoch_ops as u64,
        seed: spec.seed,
        cells,
    }
}
