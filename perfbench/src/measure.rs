//! Timing, verdict counting and result types shared by every workload.

use std::time::{Duration, Instant};

/// How large a workload's inputs are. `Full` is what the benchmark
/// command measures; `Minimal` is the smallest run that still exercises
/// every check, for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// The smallest size that runs every check.
    Minimal,
}

/// Fewest set-ups a run times; `setup_s` is their median. They are
/// spread over the run between batches, because host contention comes
/// in phases of seconds and set-ups timed back to back share one phase.
pub const SETUP_REPS: usize = 21;

/// Fewest timed batches a run makes, however short `--seconds` is.
pub const MIN_BATCHES: usize = 3;

/// Counts checked units and the ones that failed a check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Units whose outputs were checked.
    pub attempted: u64,
    /// Units that failed at least one check.
    pub failed: u64,
}

impl Tally {
    /// Records one unit with its verdict.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records `n` units that share one verdict.
    pub fn record_n(&mut self, n: u64, ok: bool) {
        self.attempted += n;
        if !ok {
            self.failed += n;
        }
    }
}

/// A simulated model output printed beside the paper's value.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelValue {
    /// Per-layer metric name (`model.<name>`).
    pub name: &'static str,
    /// Unit of `value`.
    pub unit: &'static str,
    /// The simulated value; repeats exactly for a given seed.
    pub value: f64,
    /// What the paper reports for the nearest configuration, if anything.
    pub paper: Option<f64>,
    /// Where the paper value comes from and how comparable it is.
    pub note: &'static str,
}

/// What one untraced run of a workload measured and checked.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Checked units and failures (cells, cases, lanes or serve cells).
    pub tally: Tally,
    /// Workload units per host second over all timed batches.
    pub units_per_s: f64,
    /// Units per host second of every timed batch, in run order.
    pub rates: Vec<f64>,
    /// Median over at least [`SETUP_REPS`] set-ups, seconds.
    pub setup_s: f64,
    /// Peak live heap over set-up and the reference batch, MB.
    pub peak_heap_mb: f64,
    /// FNV-1a digest of the first batch's report bytes: a pure function
    /// of the seed-generated inputs.
    pub digest: u64,
    /// Simulated outputs that must repeat exactly for a given seed.
    pub model: Vec<ModelValue>,
}

/// Runs `f` once and returns its result with the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// The median of `values` (the mean of the middle two for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Set-ups to time before each batch so that a run of `seconds` whose
/// batches take about `batch_s` times at least [`SETUP_REPS`].
pub fn setups_per_batch(seconds: f64, batch_s: f64) -> usize {
    let batches = (seconds / batch_s.max(1e-9))
        .floor()
        .max(MIN_BATCHES as f64);
    (SETUP_REPS as f64 / batches).ceil() as usize
}

/// Calls `batch` until `seconds` have passed (and at least
/// [`MIN_BATCHES`] times); each call returns the units it completed.
/// Before each batch, times `setups` calls of `setup` outside the
/// batch's time. Returns `(units, seconds)` of every batch and the
/// seconds of every set-up.
pub fn repeat_batches<R>(
    seconds: f64,
    setups: usize,
    mut setup: impl FnMut() -> R,
    mut batch: impl FnMut() -> u64,
) -> (Vec<(u64, f64)>, Vec<f64>) {
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let start = Instant::now();
    let mut batches = Vec::new();
    let mut setup_s = Vec::new();
    while batches.len() < MIN_BATCHES || start.elapsed() < budget {
        for _ in 0..setups {
            let (r, s) = timed(&mut setup);
            drop(std::hint::black_box(r));
            setup_s.push(s);
        }
        batches.push(timed(&mut batch));
    }
    (batches, setup_s)
}

/// Units per second over all of `batches`. Host contention on a shared
/// machine comes in phases of seconds; the whole-run rate averages over
/// them, where a median of batch rates jumps with the phase mix.
pub fn throughput(batches: &[(u64, f64)]) -> f64 {
    let units: u64 = batches.iter().map(|b| b.0).sum();
    let secs: f64 = batches.iter().map(|b| b.1).sum();
    units as f64 / secs
}

/// FNV-1a over `bytes`, chained from `seed` (start from [`FNV_OFFSET`]).
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(seed, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tally_counts_failures() {
        let mut t = Tally::default();
        t.record(true);
        t.record(false);
        t.record_n(3, false);
        assert_eq!(
            t,
            Tally {
                attempted: 5,
                failed: 4
            }
        );
    }

    #[test]
    fn repeat_batches_runs_at_least_the_minimum() {
        let mut calls = 0;
        let mut setups = 0;
        let (batches, setup_s) = repeat_batches(
            0.0,
            2,
            || setups += 1,
            || {
                calls += 1;
                10
            },
        );
        assert_eq!(batches.len(), MIN_BATCHES);
        assert_eq!(calls, MIN_BATCHES);
        assert_eq!((setups, setup_s.len()), (2 * MIN_BATCHES, 2 * MIN_BATCHES));
        assert!(throughput(&batches) > 0.0);
    }

    #[test]
    fn set_ups_cover_the_minimum_however_long_batches_take() {
        for (seconds, batch_s) in [(20.0, 0.01), (20.0, 1.0), (20.0, 7.0), (0.0, 1.0)] {
            let per_batch = setups_per_batch(seconds, batch_s);
            let batches = ((seconds / batch_s) as usize).max(MIN_BATCHES);
            assert!(per_batch >= 1);
            assert!(
                per_batch * batches >= SETUP_REPS,
                "{seconds} s, {batch_s} s"
            );
        }
        assert_eq!(setups_per_batch(20.0, 0.01), 1);
    }
}
