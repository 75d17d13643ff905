//! `shard`: [`run_sharded`] with 8 star/ycsb lanes on [`lane_config`]
//! (4 KB metadata cache) and one scheduled lane crash, at 2 worker
//! shards. The unit is one lane-op.

use crate::measure::{fnv1a, ModelValue, Scale, Tally, FNV_OFFSET};
use crate::Bench;
use star_core::{SchemeKind, SecureMemory};
use star_shard::{lane_config, run_sharded, ShardRunReport, ShardSpec};
use star_workloads::WorkloadKind;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Lanes (metadata domains): the paper's 8-core system.
pub const LANES: usize = 8;

/// Worker shards of the measured run.
pub const SHARDS: usize = 2;

/// The lane that loses power mid-run.
pub const CRASH_LANE: usize = 3;

/// Ops each lane executes.
pub fn ops_per_lane(scale: Scale) -> usize {
    match scale {
        Scale::Full => 8_000,
        Scale::Minimal => 100,
    }
}

/// The measured spec at `shards` worker shards.
pub fn spec(scale: Scale, seed: u64, shards: usize) -> ShardSpec {
    let ops = ops_per_lane(scale);
    let spec = ShardSpec::new(SchemeKind::Star, WorkloadKind::Ycsb)
        .with_lanes(LANES)
        .with_ops_per_lane(ops)
        .with_epoch_ops((ops / 8).max(1))
        .with_seed(seed);
    let mid = spec.epochs() / 2;
    spec.with_crash(CRASH_LANE, mid).with_shards(shards)
}

/// One lane's outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Lane {
    /// Recovered power failures.
    pub recoveries: usize,
    /// Report, persist points, recoveries and epoch log, as comparable
    /// bytes.
    pub bytes: String,
}

/// Runs `spec` and returns each lane's outputs, or `None` if the run
/// panicked (which is how `run_sharded` reports a failed recovery).
pub fn run_lanes(spec: &ShardSpec) -> Option<Vec<Lane>> {
    let run = catch_unwind(AssertUnwindSafe(|| run_sharded(spec))).ok()?;
    Some(lanes_of(&run))
}

fn lanes_of(run: &ShardRunReport) -> Vec<Lane> {
    run.outcomes
        .iter()
        .map(|o| Lane {
            recoveries: o.recoveries.len(),
            bytes: format!(
                "{}|{}|{:?}|{:?}",
                o.report.to_json(),
                o.persist_points,
                o.recoveries,
                o.epoch_log
            ),
        })
        .collect()
}

/// A lane passes if the run recovered every scheduled crash (a failed
/// recovery panics the run), the crashed lane logged exactly one
/// recovery, and its bytes equal the 1-shard reference.
fn check_lanes(got: Option<&[Lane]>, reference: Option<&[Lane]>, tally: &mut Tally) {
    let (Some(got), Some(reference)) = (got, reference) else {
        tally.record_n(LANES as u64, false);
        return;
    };
    for (i, lane) in got.iter().enumerate() {
        let expected = usize::from(i == CRASH_LANE);
        tally.record(lane.recoveries == expected && reference.get(i) == Some(lane));
    }
}

/// The shard workload's specs and 1-shard reference.
pub struct Shard {
    scale: Scale,
    serial: ShardSpec,
    spec: ShardSpec,
    reference: Option<Vec<Lane>>,
    digest: u64,
}

impl Shard {
    /// Runs the measured spec and checks its lanes. A lane that fails to
    /// recover panics its worker, and at 2 shards the other worker then
    /// waits at the epoch barrier forever; so the measured spec runs only
    /// once the 1-shard reference recovered, and otherwise the reference
    /// runs again (its single worker cannot wait on anyone).
    fn run_checked(&self, tally: &mut Tally) -> u64 {
        if self.reference.is_none() {
            check_lanes(run_lanes(&self.serial).as_deref(), None, tally);
            return 0;
        }
        check_lanes(
            run_lanes(&self.spec).as_deref(),
            self.reference.as_deref(),
            tally,
        );
        (LANES * ops_per_lane(self.scale)) as u64
    }
}

impl Bench for Shard {
    fn prepare(scale: Scale, seed: u64, tally: &mut Tally) -> Self {
        let serial = spec(scale, seed, 1);
        let reference = run_lanes(&serial);
        let digest = reference
            .iter()
            .flatten()
            .fold(FNV_OFFSET, |h, l| fnv1a(h, l.bytes.as_bytes()));
        let shard = Shard {
            scale,
            serial,
            spec: spec(scale, seed, SHARDS),
            reference,
            digest,
        };
        shard.run_checked(tally);
        shard
    }

    fn setup(scale: Scale, seed: u64) {
        // What run_sharded builds before its first epoch: one engine and
        // one seeded workload per lane.
        let s = spec(scale, seed, SHARDS);
        let lanes: Vec<_> = (0..LANES as u64)
            .map(|l| {
                (
                    SecureMemory::new(s.scheme, lane_config()),
                    s.workload.instantiate(star_rng::lane_seed(seed, l)),
                )
            })
            .collect();
        std::hint::black_box(lanes);
    }

    fn batch(&mut self, _traced: bool, tally: &mut Tally) -> u64 {
        self.run_checked(tally)
    }

    fn digest(&self) -> u64 {
        self.digest
    }

    fn model(&self) -> Vec<ModelValue> {
        Vec::new()
    }
}
