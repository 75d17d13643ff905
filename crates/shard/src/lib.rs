//! star-shard: a sharded, concurrent secure-memory engine with
//! deterministic lane-keyed reports.
//!
//! The paper evaluates STAR on an 8-core system; this crate is the
//! reproduction's answer to that gap. The data address space is
//! partitioned into a **fixed population of lanes** — independent
//! security-metadata domains, each owning a complete
//! [`SecureMemory`](star_core::SecureMemory) engine (counter tree,
//! metadata cache, ADR bitmap quota, shadow table, NVM device) and fed
//! by its own workload generator on a lane-derived SplitMix64 stream
//! ([`star_rng::lane_seed`]). Lanes are the unit of metadata isolation,
//! crash blast radius and report structure.
//!
//! **Shards are execution containers, not domains**: each lane is one
//! job on a [`star_sweep`] pool of `min(S, lanes)` worker threads
//! ([`ShardSpec::shards`], `star-bench shard --jobs S`), run start to
//! finish with nothing to synchronize. Because every lane is a pure
//! function of `(scheme, workload, seed, lane, epoch schedule)` and the
//! report is keyed by lane — never by worker — the whole report
//! document is byte-identical at **any** pool size. That is
//! star-sweep's determinism contract (key-ordered merge of independent
//! jobs) applied to long-lived stateful engines.
//!
//! An **epoch** is a lane's fence-and-record quantum: after every
//! [`ShardSpec::epoch_ops`] operations the lane issues a persist
//! barrier (`sfence`) and appends one [`EpochRecord`]. Epochs are also
//! the resolution at which crashes are scheduled. The per-lane logs are
//! interleaved by `(epoch, lane)` into the report's `epoch_log`, a
//! stable cross-lane view of persist activity that never makes one
//! lane wait for another.
//!
//! Per-lane crash/recovery: [`ShardSpec::with_crash`] schedules a power
//! failure on one lane at an epoch boundary; the runner takes the lane's
//! crash image with
//! [`SecureMemory::crash_image`](star_core::SecureMemory::crash_image)
//! (a frozen, shared copy of its line store; no machine clone), runs
//! recovery, and resumes the lane from the recovered image. The other
//! lanes stay byte-unchanged versus an uncrashed run.
//!
//! ```
//! use star_core::SchemeKind;
//! use star_shard::{run_sharded, ShardSpec};
//! use star_workloads::WorkloadKind;
//!
//! let spec = ShardSpec::new(SchemeKind::Star, WorkloadKind::Array)
//!     .with_lanes(2)
//!     .with_ops_per_lane(120)
//!     .with_epoch_ops(40);
//! let serial = run_sharded(&spec).to_json();
//! let parallel = run_sharded(&spec.clone().with_shards(2)).to_json();
//! assert_eq!(serial, parallel, "shard count never changes the bytes");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod runner;

pub use report::{ShardGridReport, ShardRunReport};
pub use runner::{run_shard_grid, run_sharded, EpochRecord, LaneOutcome, LaneRecovery};

use star_core::{SchemeKind, SecureMemConfig};
use star_trace::CatMask;
use star_workloads::WorkloadKind;

/// Default lane count — the paper's 8-core evaluation system.
pub const DEFAULT_LANES: usize = 8;

/// Default operations per epoch: long enough that the per-epoch fence
/// and record are a rounding error, short enough that per-lane crash
/// scheduling has useful resolution.
pub const DEFAULT_EPOCH_OPS: usize = 250;

/// The per-lane engine geometry: each lane's data region covers the
/// whole 64 MB workload heap (every registry workload fits in any
/// lane), with the small faultsim-style metadata cache (4 KB, 4-way)
/// and ADR quota (4 bitmap lines) so contention-era traffic shows up
/// even in short runs.
pub fn lane_config() -> SecureMemConfig {
    SecureMemConfig::builder()
        .data_lines(star_workloads::micro::HEAP_BASE + star_workloads::micro::HEAP_LINES)
        .metadata_cache_bytes(4 << 10)
        .metadata_cache_ways(4)
        .adr_bitmap_lines(4)
        .build()
        .expect("lane geometry is consistent")
}

/// A lane-scheduled power failure: lane `lane` crashes at the end of
/// epoch `at_epoch` (after its epoch fence) and recovers before its
/// next epoch starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneCrash {
    /// The lane that loses power.
    pub lane: usize,
    /// The epoch (0-based) at whose boundary the crash fires.
    pub at_epoch: u64,
}

/// Everything that determines a sharded run — and nothing that doesn't:
/// `shards` chooses the execution grouping only and is deliberately
/// excluded from the report.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Persistence scheme every lane runs.
    pub scheme: SchemeKind,
    /// Workload kind instantiated per lane (lane-derived seeds).
    pub workload: WorkloadKind,
    /// Number of metadata domains (report sections).
    pub lanes: usize,
    /// Worker threads the lane jobs run on (capped at `lanes`;
    /// `star-bench shard --jobs`).
    pub shards: usize,
    /// Operations each lane executes.
    pub ops_per_lane: usize,
    /// Operations per epoch (each lane's fence-and-record quantum).
    pub epoch_ops: usize,
    /// Master seed; lane `l` streams from `lane_seed(seed, l)`.
    pub seed: u64,
    /// Per-lane engine configuration.
    pub mem: SecureMemConfig,
    /// Scheduled per-lane power failures.
    pub crashes: Vec<LaneCrash>,
    /// Structured-tracing categories to record per lane (None = off).
    pub trace: Option<CatMask>,
}

impl ShardSpec {
    /// A spec with the crate defaults: [`DEFAULT_LANES`] lanes on one
    /// shard, 2000 ops per lane in [`DEFAULT_EPOCH_OPS`]-op epochs,
    /// seed 42, [`lane_config`] geometry, no crashes, no tracing.
    pub fn new(scheme: SchemeKind, workload: WorkloadKind) -> Self {
        Self {
            scheme,
            workload,
            lanes: DEFAULT_LANES,
            shards: 1,
            ops_per_lane: 2000,
            epoch_ops: DEFAULT_EPOCH_OPS,
            seed: 42,
            mem: lane_config(),
            crashes: Vec::new(),
            trace: None,
        }
    }

    /// Sets the lane count.
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes;
        self
    }

    /// Sets the worker-thread count the lane jobs run on.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the operations each lane executes.
    pub fn with_ops_per_lane(mut self, ops: usize) -> Self {
        self.ops_per_lane = ops;
        self
    }

    /// Sets the epoch quantum.
    pub fn with_epoch_ops(mut self, epoch_ops: usize) -> Self {
        self.epoch_ops = epoch_ops;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Schedules a power failure on `lane` at the end of epoch
    /// `at_epoch`.
    pub fn with_crash(mut self, lane: usize, at_epoch: u64) -> Self {
        self.crashes.push(LaneCrash { lane, at_epoch });
        self
    }

    /// Enables structured tracing on every lane for the categories in
    /// `mask`.
    pub fn with_trace(mut self, mask: CatMask) -> Self {
        self.trace = Some(mask);
        self
    }

    /// Number of epochs the run executes (the last may be partial).
    pub fn epochs(&self) -> u64 {
        (self.ops_per_lane as u64).div_ceil(self.epoch_ops.max(1) as u64)
    }
}
