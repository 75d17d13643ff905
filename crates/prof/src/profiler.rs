//! The always-on aggregator and its exportable summary.

use crate::cause::{WriteCause, CAUSE_LABELS, NUM_CAUSES};
use star_trace::{Json, Log2Hist};
use std::fmt::Write as _;

/// Highest BMT level tracked individually; deeper levels saturate into
/// the last slot (Triad-NVM evaluates levels 1–4, so this is generous).
pub const MAX_BMT_LEVEL: usize = 15;

/// Cap on the windowed time series: when the simulated clock outgrows
/// the current window grid, adjacent windows are merged pairwise and the
/// window doubles — bounded memory, still a pure function of simulated
/// time.
pub const MAX_WINDOWS: usize = 4096;

/// Always-on per-device write aggregation: per-cause counts, per-bank
/// heat, stall/WPQ histograms, and a windowed write-rate time series.
///
/// Unlike [`star_trace::TraceRecorder`] this has no off switch — its
/// counters are part of every report, so the trace-on/off byte-identity
/// invariant is unaffected by it. All inputs are simulated quantities;
/// it never reads wall-clock time.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteProfiler {
    causes: [u64; NUM_CAUSES],
    bmt_levels: [u64; MAX_BMT_LEVEL + 1],
    bank_writes: Vec<u64>,
    write_stall_ps: Log2Hist,
    wpq_depth: Log2Hist,
    window_ps: u64,
    windows: Vec<u64>,
}

impl WriteProfiler {
    /// A profiler for a device with `banks` banks, sampling the write
    /// rate every `window_us` simulated microseconds (clamped to ≥ 1).
    pub fn new(banks: usize, window_us: u64) -> Self {
        Self {
            causes: [0; NUM_CAUSES],
            bmt_levels: [0; MAX_BMT_LEVEL + 1],
            bank_writes: vec![0; banks.max(1)],
            write_stall_ps: Log2Hist::new(),
            wpq_depth: Log2Hist::new(),
            window_ps: window_us.max(1) * 1_000_000,
            windows: Vec::new(),
        }
    }

    /// Records one accepted device write: its cause, the bank it landed
    /// in, and the simulated time it was issued at (drives the windowed
    /// time series).
    pub fn record_write(&mut self, cause: WriteCause, bank: usize, now_ps: u64) {
        self.causes[cause.index()] += 1;
        if let WriteCause::BmtNode { level } = cause {
            self.bmt_levels[(level as usize).min(MAX_BMT_LEVEL)] += 1;
        }
        let slot = bank % self.bank_writes.len();
        self.bank_writes[slot] += 1;
        // Windowed time series with deterministic doubling: when the
        // clock outgrows MAX_WINDOWS, merge adjacent windows pairwise and
        // double the window until it fits. Both the trigger and the merge
        // depend only on simulated time, so the series is byte-stable.
        let mut idx = (now_ps / self.window_ps) as usize;
        while idx >= MAX_WINDOWS {
            let merged: Vec<u64> = self.windows.chunks(2).map(|c| c.iter().sum()).collect();
            self.windows = merged;
            self.window_ps *= 2;
            idx = (now_ps / self.window_ps) as usize;
        }
        if idx >= self.windows.len() {
            self.windows.resize(idx + 1, 0);
        }
        self.windows[idx] += 1;
    }

    /// Observes a write-queue admission stall (always on; a trace
    /// exports this same histogram).
    #[inline]
    pub fn observe_write_stall(&mut self, ps: u64) {
        self.write_stall_ps.observe(ps);
    }

    /// Observes a write-pending-queue depth sample (always on).
    #[inline]
    pub fn observe_wpq_depth(&mut self, depth: u64) {
        self.wpq_depth.observe(depth);
    }

    /// Write-queue admission stalls observed so far, in picoseconds.
    pub fn write_stall_ps(&self) -> &Log2Hist {
        &self.write_stall_ps
    }

    /// WPQ depths sampled after each accepted write so far.
    pub fn wpq_depth(&self) -> &Log2Hist {
        &self.wpq_depth
    }

    /// Total writes recorded, across all causes.
    pub fn total_writes(&self) -> u64 {
        self.causes.iter().sum()
    }

    /// Writes recorded for `cause` (BMT levels collapsed).
    pub fn count(&self, cause: WriteCause) -> u64 {
        self.causes[cause.index()]
    }

    /// Write counts by [`WriteCause::index`] slot.
    pub fn causes(&self) -> &[u64; NUM_CAUSES] {
        &self.causes
    }

    /// Resets every counter (paired with the device's `reset_stats`).
    pub fn reset(&mut self) {
        let banks = self.bank_writes.len();
        let window_ps = self.window_ps;
        *self = Self {
            window_ps,
            ..Self::new(banks, 1)
        };
    }

    /// Freezes the profiler into an exportable [`ProfSummary`].
    ///
    /// The caller supplies what the profiler cannot know itself: the
    /// device's per-write energy (`write_pj`) and the log2 per-line wear
    /// histogram computed from its wear tracker.
    pub fn summary(&self, write_pj: u64, line_wear_hist: Vec<(u64, u64)>) -> ProfSummary {
        ProfSummary {
            write_pj,
            causes: self.causes,
            bmt_levels: self
                .bmt_levels
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(l, &c)| (l as u8, c))
                .collect(),
            bank_writes: self.bank_writes.clone(),
            line_wear_hist,
            window_us: self.window_ps / 1_000_000,
            window_samples: self.windows.clone(),
            write_stall_hist: self.write_stall_ps.nonzero().collect(),
            wpq_depth_hist: self.wpq_depth.nonzero().collect(),
        }
    }
}

/// The frozen, exportable profile of one run: what `RunReport` carries
/// under `"prof"` (report schema v4) and what `--prof-csv` serializes.
///
/// All collections are in a deterministic order (cause/slot/bucket
/// ascending), so [`write_json`](ProfSummary::write_json) and
/// [`to_csv`](ProfSummary::to_csv) are byte-stable.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfSummary {
    /// Energy per line write in picojoules (from the device's energy
    /// model; `energy_by_cause` in the JSON is `count × write_pj`).
    pub write_pj: u64,
    /// Write counts by [`WriteCause::index`] slot.
    pub causes: [u64; NUM_CAUSES],
    /// Per-level BMT write-through counts as `(level, count)`, ascending,
    /// nonzero only (their sum equals the `bmt-node` cause slot).
    pub bmt_levels: Vec<(u8, u64)>,
    /// Writes per bank, indexed by bank id.
    pub bank_writes: Vec<u64>,
    /// Log2 histogram of per-line write counts as
    /// `(bucket_floor, lines)`, ascending.
    pub line_wear_hist: Vec<(u64, u64)>,
    /// Width of one time-series window in simulated microseconds.
    pub window_us: u64,
    /// Writes per window, from simulated time zero.
    pub window_samples: Vec<u64>,
    /// Log2 histogram of write-queue admission stalls (ps) as
    /// `(bucket_floor, writes)`.
    pub write_stall_hist: Vec<(u64, u64)>,
    /// Log2 histogram of WPQ depth after each accepted write as
    /// `(bucket_floor, samples)`.
    pub wpq_depth_hist: Vec<(u64, u64)>,
}

/// Merges sorted `(key, count)` pair lists by key, keeping ascending
/// order — the shape every histogram-ish `ProfSummary` field uses.
fn merge_pairs<K: Ord + Copy>(a: &mut Vec<(K, u64)>, b: &[(K, u64)]) {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        match (a.get(i), b.get(j)) {
            (Some(&(ka, ca)), Some(&(kb, cb))) if ka == kb => {
                out.push((ka, ca + cb));
                i += 1;
                j += 1;
            }
            (Some(&(ka, ca)), Some(&(kb, _))) if ka < kb => {
                out.push((ka, ca));
                i += 1;
            }
            (Some(_), Some(&(kb, cb))) => {
                out.push((kb, cb));
                j += 1;
            }
            (Some(&(ka, ca)), None) => {
                out.push((ka, ca));
                i += 1;
            }
            (None, Some(&(kb, cb))) => {
                out.push((kb, cb));
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    *a = out;
}

/// Halves a windowed series' resolution: adjacent windows merge pairwise,
/// exactly like [`WriteProfiler::record_write`]'s doubling step.
fn double_windows(samples: &mut Vec<u64>) {
    *samples = samples.chunks(2).map(|c| c.iter().sum()).collect();
}

impl ProfSummary {
    /// Writes recorded for `cause` (BMT levels collapsed).
    pub fn count(&self, cause: WriteCause) -> u64 {
        self.causes[cause.index()]
    }

    /// Adds `n` writes to `cause` — the hook that merges untimed
    /// recovery-restore traffic (which bypasses the device) into a
    /// summary after recovery runs.
    pub fn add_cause(&mut self, cause: WriteCause, n: u64) {
        self.causes[cause.index()] += n;
    }

    /// Total writes, across all causes.
    pub fn total_writes(&self) -> u64 {
        self.causes.iter().sum()
    }

    /// `(label, count)` pairs in stable cause order.
    pub fn by_cause(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        CAUSE_LABELS.into_iter().zip(self.causes.iter().copied())
    }

    /// Merges `other` into `self` — the cross-shard aggregation a
    /// sharded run's merged report is built from. Counts and matrices
    /// add elementwise; the windowed time series are first aligned to
    /// the coarser window width via the same pairwise doubling the
    /// profiler itself uses, so the merged series is exactly what one
    /// profiler at that width would have recorded.
    ///
    /// # Panics
    ///
    /// Panics if the two summaries disagree on `write_pj` (they came
    /// from devices with different energy models — merging their
    /// `energy_by_cause` would be meaningless) or if the window widths
    /// are not power-of-two multiples of each other (impossible for
    /// profilers that started from the same configured width).
    pub fn absorb(&mut self, other: &ProfSummary) {
        assert_eq!(
            self.write_pj, other.write_pj,
            "cannot merge profiles from devices with different energy models"
        );
        for (a, b) in self.causes.iter_mut().zip(other.causes.iter()) {
            *a += b;
        }
        merge_pairs(&mut self.bmt_levels, &other.bmt_levels);
        if self.bank_writes.len() < other.bank_writes.len() {
            self.bank_writes.resize(other.bank_writes.len(), 0);
        }
        for (a, b) in self.bank_writes.iter_mut().zip(other.bank_writes.iter()) {
            *a += b;
        }
        merge_pairs(&mut self.line_wear_hist, &other.line_wear_hist);
        let mut theirs = other.window_samples.clone();
        let mut their_us = other.window_us.max(1);
        self.window_us = self.window_us.max(1);
        while self.window_us < their_us {
            double_windows(&mut self.window_samples);
            self.window_us *= 2;
        }
        while their_us < self.window_us {
            double_windows(&mut theirs);
            their_us *= 2;
        }
        assert_eq!(
            self.window_us, their_us,
            "window widths must be power-of-two multiples of each other"
        );
        if self.window_samples.len() < theirs.len() {
            self.window_samples.resize(theirs.len(), 0);
        }
        for (a, b) in self.window_samples.iter_mut().zip(theirs.iter()) {
            *a += b;
        }
        merge_pairs(&mut self.write_stall_hist, &other.write_stall_hist);
        merge_pairs(&mut self.wpq_depth_hist, &other.wpq_depth_hist);
    }

    /// Writes the summary as the members of a report's `"prof"`
    /// object. Field and key order are fixed; see DESIGN.md §9.
    pub fn write_json(&self, j: &mut Json) {
        j.u64("write_pj", self.write_pj)
            .u64("total_writes", self.total_writes());
        for (key, pj) in [("writes_by_cause", 1), ("energy_by_cause", self.write_pj)] {
            j.obj(key, |j| {
                for (label, count) in self.by_cause() {
                    j.u64(label, count * pj);
                }
            });
        }
        let bmt = self.bmt_levels.iter().map(|&(l, c)| (u64::from(l), c));
        j.pairs("bmt_node_writes", bmt)
            .arr("bank_writes", |j| {
                for &w in &self.bank_writes {
                    j.u64("", w);
                }
            })
            .pairs("line_wear_hist", self.line_wear_hist.iter().copied())
            .u64("window_us", self.window_us)
            .arr("window_samples", |j| {
                for &w in &self.window_samples {
                    j.u64("", w);
                }
            })
            .pairs("write_stall_hist", self.write_stall_hist.iter().copied())
            .pairs("wpq_depth_hist", self.wpq_depth_hist.iter().copied());
    }

    /// The summary as `section,key,value` CSV rows (the `--prof-csv`
    /// export), header included, row order fixed.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("section,key,value\n");
        let _ = writeln!(out, "meta,write_pj,{}", self.write_pj);
        let _ = writeln!(out, "meta,total_writes,{}", self.total_writes());
        let _ = writeln!(out, "meta,window_us,{}", self.window_us);
        for (label, count) in self.by_cause() {
            let _ = writeln!(out, "cause,{label},{count}");
        }
        for (label, count) in self.by_cause() {
            let _ = writeln!(out, "energy_pj,{label},{}", count * self.write_pj);
        }
        for &(level, count) in &self.bmt_levels {
            let _ = writeln!(out, "bmt_level,{level},{count}");
        }
        for (bank, count) in self.bank_writes.iter().enumerate() {
            let _ = writeln!(out, "bank,{bank},{count}");
        }
        for &(floor, count) in &self.line_wear_hist {
            let _ = writeln!(out, "line_wear,{floor},{count}");
        }
        for (idx, count) in self.window_samples.iter().enumerate() {
            let _ = writeln!(out, "window,{idx},{count}");
        }
        for &(floor, count) in &self.write_stall_hist {
            let _ = writeln!(out, "stall_ps,{floor},{count}");
        }
        for &(floor, count) in &self.wpq_depth_hist {
            let _ = writeln!(out, "wpq_depth,{floor},{count}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json(s: &ProfSummary) -> String {
        let mut j = Json::object();
        s.write_json(&mut j);
        j.finish()
    }

    #[test]
    fn cause_counts_and_totals() {
        let mut p = WriteProfiler::new(4, 100);
        p.record_write(WriteCause::Data, 0, 0);
        p.record_write(WriteCause::Data, 1, 1_000);
        p.record_write(WriteCause::CounterBlock, 2, 2_000);
        p.record_write(WriteCause::ShadowTable, 3, 3_000);
        // Taxonomy slots no scheme emits yet still count.
        p.record_write(WriteCause::Mac, 0, 4_000);
        p.record_write(WriteCause::Journal, 1, 5_000);
        p.record_write(WriteCause::BitmapLine, 2, 6_000);
        assert_eq!(p.count(WriteCause::Data), 2);
        assert_eq!(p.count(WriteCause::Mac), 1);
        assert_eq!(p.total_writes(), 7);
        let s = p.summary(14, vec![]);
        assert_eq!(s.total_writes(), 7);
        assert_eq!(s.by_cause().map(|(_, c)| c).sum::<u64>(), 7);
    }

    #[test]
    fn bmt_levels_split_and_sum() {
        let mut p = WriteProfiler::new(1, 100);
        for _ in 0..3 {
            p.record_write(WriteCause::BmtNode { level: 2 }, 0, 0);
        }
        p.record_write(WriteCause::BmtNode { level: 3 }, 0, 0);
        let s = p.summary(1, vec![]);
        assert_eq!(s.bmt_levels, vec![(2, 3), (3, 1)]);
        assert_eq!(s.count(WriteCause::BmtNode { level: 2 }), 4);
        assert_eq!(
            s.bmt_levels.iter().map(|&(_, c)| c).sum::<u64>(),
            s.count(WriteCause::BmtNode { level: 0 })
        );
    }

    #[test]
    fn bank_heat_and_windows() {
        let mut p = WriteProfiler::new(2, 1); // 1 µs windows
        p.record_write(WriteCause::Data, 0, 0);
        p.record_write(WriteCause::Data, 0, 500_000);
        p.record_write(WriteCause::Data, 1, 2_500_000);
        let s = p.summary(1, vec![]);
        assert_eq!(s.bank_writes, vec![2, 1]);
        assert_eq!(s.window_samples, vec![2, 0, 1]);
        assert_eq!(s.window_us, 1);
    }

    #[test]
    fn window_doubling_is_deterministic_and_bounded() {
        let mut a = WriteProfiler::new(1, 1);
        let mut b = WriteProfiler::new(1, 1);
        // Far beyond MAX_WINDOWS µs: forces repeated doubling.
        for i in 0..50_000u64 {
            a.record_write(WriteCause::Data, 0, i * 1_000_000);
            b.record_write(WriteCause::Data, 0, i * 1_000_000);
        }
        let (sa, sb) = (a.summary(1, vec![]), b.summary(1, vec![]));
        assert_eq!(sa, sb);
        assert!(sa.window_samples.len() <= MAX_WINDOWS);
        assert!(sa.window_us > 1, "window doubled");
        assert_eq!(sa.window_samples.iter().sum::<u64>(), 50_000);
        assert_eq!(json(&sa), json(&sb));
    }

    #[test]
    fn stall_and_wpq_hists_are_always_on() {
        let mut p = WriteProfiler::new(1, 100);
        p.observe_write_stall(0);
        p.observe_write_stall(5_000);
        p.observe_wpq_depth(3);
        let s = p.summary(1, vec![]);
        assert_eq!(s.write_stall_hist.iter().map(|&(_, c)| c).sum::<u64>(), 2);
        assert_eq!(s.wpq_depth_hist, vec![(2, 1)]);
    }

    #[test]
    fn reset_clears_counters_but_keeps_shape() {
        let mut p = WriteProfiler::new(3, 7);
        p.record_write(WriteCause::Data, 2, 123_456_789);
        p.observe_wpq_depth(9);
        p.reset();
        let s = p.summary(1, vec![]);
        assert_eq!(s.total_writes(), 0);
        assert_eq!(s.bank_writes, vec![0, 0, 0]);
        assert!(s.window_samples.is_empty());
        assert!(s.wpq_depth_hist.is_empty());
    }

    #[test]
    fn json_and_csv_are_stable_and_complete() {
        let mut p = WriteProfiler::new(2, 10);
        p.record_write(WriteCause::Data, 0, 0);
        p.record_write(WriteCause::RaSpill, 1, 1_000_000);
        p.observe_write_stall(100);
        p.observe_wpq_depth(1);
        let s = p.summary(14, vec![(1, 2)]);
        let text = json(&s);
        assert!(text.starts_with("{\"write_pj\":14,\"total_writes\":2,"));
        assert!(text.contains("\"writes_by_cause\":{\"data\":1,\"counter-block\":0,"));
        assert!(text.contains("\"ra-spill\":1"));
        assert!(text.contains("\"energy_by_cause\":{\"data\":14,"));
        assert!(text.contains("\"line_wear_hist\":[[1,2]]"));
        assert!(text.contains("\"write_stall_hist\":[[64,1]]"));
        let csv = s.to_csv();
        assert!(csv.starts_with("section,key,value\n"));
        assert!(csv.contains("cause,ra-spill,1\n"));
        assert!(csv.contains("bank,1,1\n"));
        assert!(csv.contains("meta,total_writes,2\n"));
    }

    /// Two profilers fed disjoint streams, absorbed, must equal one
    /// profiler fed the union — including after window doubling has
    /// desynchronized the two series' widths.
    #[test]
    fn absorb_matches_single_profiler() {
        let mut a = WriteProfiler::new(2, 1);
        let mut b = WriteProfiler::new(2, 1);
        let mut whole = WriteProfiler::new(2, 1);
        for i in 0..6000u64 {
            // Far past MAX_WINDOWS µs: forces doubling in `a` (and so in
            // `whole`), while `b` stays at the original width.
            a.record_write(WriteCause::Data, (i % 2) as usize, i * 1_000_000);
            whole.record_write(WriteCause::Data, (i % 2) as usize, i * 1_000_000);
        }
        for i in 0..100u64 {
            b.record_write(WriteCause::CounterBlock, 0, i * 2_000_000);
            b.record_write(WriteCause::BmtNode { level: 3 }, 1, i * 2_000_000);
            whole.record_write(WriteCause::CounterBlock, 0, i * 2_000_000);
            whole.record_write(WriteCause::BmtNode { level: 3 }, 1, i * 2_000_000);
        }
        a.observe_write_stall(5_000);
        whole.observe_write_stall(5_000);
        b.observe_wpq_depth(3);
        whole.observe_wpq_depth(3);
        let mut merged = a.summary(14, vec![(1, 5)]);
        merged.absorb(&b.summary(14, vec![(2, 7)]));
        let mut expect = whole.summary(14, vec![(1, 5)]);
        merge_pairs(&mut expect.line_wear_hist, &[(2, 7)]);
        assert_eq!(merged, expect);
        assert_eq!(json(&merged), json(&expect));
    }

    #[test]
    #[should_panic(expected = "different energy models")]
    fn absorb_rejects_mismatched_energy() {
        let p = WriteProfiler::new(1, 1);
        let mut a = p.summary(14, vec![]);
        a.absorb(&p.summary(15, vec![]));
    }

    #[test]
    fn add_cause_merges_recovery_traffic() {
        let mut s = WriteProfiler::new(1, 100).summary(1, vec![]);
        s.add_cause(WriteCause::RecoveryRestore, 42);
        assert_eq!(s.count(WriteCause::RecoveryRestore), 42);
        assert_eq!(s.total_writes(), 42);
    }
}
