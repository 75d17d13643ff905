//! Per-line wear (write-endurance) tracking.
//!
//! PCM cells endure 10^7–10^9 writes (the paper's §I motivation for
//! minimizing write traffic). Beyond total write counts, *concentration*
//! matters: a scheme that hammers a few lines — like a shadow table
//! mirroring a cache, or an undo/redo log head — exhausts those cells
//! first. [`WearTracker`] records writes per line and summarizes the
//! distribution so schemes can be compared on endurance, not just
//! traffic.

use crate::store::{LineAddr, PageHash, PAGE_LINES, PAGE_SHIFT, SLOT_MASK};
use star_trace::Json;
use std::collections::HashMap;

/// Records how many times each line has been written.
///
/// Counters are stored in 64-line pages keyed by `addr >> PAGE_SHIFT`
/// with the store's deterministic hasher, so the per-device-write
/// `record` usually increments a slot in an already-resident page
/// instead of paying a full per-line hash probe.
#[derive(Debug, Clone, Default)]
pub struct WearTracker {
    writes: HashMap<u64, Box<[u64; PAGE_LINES]>, PageHash>,
}

/// Summary statistics of a wear distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearSummary {
    /// Lines written at least once.
    pub lines_touched: usize,
    /// Total writes.
    pub total_writes: u64,
    /// Writes to the most-written line.
    pub max_writes: u64,
    /// Mean writes per touched line.
    pub mean_writes: f64,
    /// Max/mean ratio — the wear-leveling headache factor. 1.0 is
    /// perfectly even wear; a scheme rewriting one hot line scores high.
    pub concentration: f64,
}

impl WearSummary {
    /// Writes the summary as the members of a report's `"wear"` object.
    pub fn write_json(&self, j: &mut Json) {
        j.u64("lines_touched", self.lines_touched as u64)
            .u64("total_writes", self.total_writes)
            .u64("max_writes", self.max_writes)
            .f64("mean_writes", self.mean_writes)
            .f64("concentration", self.concentration);
    }

    /// Merges `other` into `self`, treating the two distributions as
    /// covering **disjoint** line populations (true for sharded engines,
    /// where each shard owns its own device): touched lines and totals
    /// add, the max is the max of maxes, and the derived mean /
    /// concentration are recomputed over the union.
    pub fn absorb(&mut self, other: &WearSummary) {
        self.lines_touched += other.lines_touched;
        self.total_writes += other.total_writes;
        self.max_writes = self.max_writes.max(other.max_writes);
        self.mean_writes = if self.lines_touched == 0 {
            0.0
        } else {
            self.total_writes as f64 / self.lines_touched as f64
        };
        self.concentration = if self.mean_writes == 0.0 {
            0.0
        } else {
            self.max_writes as f64 / self.mean_writes
        };
    }
}

impl WearTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one write to `addr`.
    pub fn record(&mut self, addr: LineAddr) {
        let idx = addr.index() >> PAGE_SHIFT;
        let slot = (addr.index() & SLOT_MASK) as usize;
        let page = self
            .writes
            .entry(idx)
            .or_insert_with(|| Box::new([0; PAGE_LINES]));
        page[slot] += 1;
    }

    /// Writes recorded for `addr`.
    pub fn writes_to(&self, addr: LineAddr) -> u64 {
        self.writes
            .get(&(addr.index() >> PAGE_SHIFT))
            .map_or(0, |page| page[(addr.index() & SLOT_MASK) as usize])
    }

    /// Visits every written line with its count.
    fn for_each(&self, mut f: impl FnMut(LineAddr, u64)) {
        for (idx, page) in &self.writes {
            for (slot, &count) in page.iter().enumerate() {
                if count > 0 {
                    f(LineAddr::new((idx << PAGE_SHIFT) | slot as u64), count);
                }
            }
        }
    }

    /// Summarizes the whole distribution.
    pub fn summary(&self) -> WearSummary {
        self.summary_of(|_| true)
    }

    /// Summarizes the distribution over lines for which `filter` holds —
    /// e.g. only the shadow-table region, or only the recovery area.
    pub fn summary_of(&self, filter: impl Fn(LineAddr) -> bool) -> WearSummary {
        let mut lines = 0usize;
        let mut total = 0u64;
        let mut max = 0u64;
        self.for_each(|addr, count| {
            if !filter(addr) {
                return;
            }
            lines += 1;
            total += count;
            max = max.max(count);
        });
        let mean = if lines == 0 {
            0.0
        } else {
            total as f64 / lines as f64
        };
        WearSummary {
            lines_touched: lines,
            total_writes: total,
            max_writes: max,
            mean_writes: mean,
            concentration: if mean == 0.0 { 0.0 } else { max as f64 / mean },
        }
    }

    /// The per-line write-count distribution as a log2 histogram, in
    /// `(bucket_floor, lines_in_bucket)` pairs ascending — the report's
    /// wear heatmap. Histogram observation is order-independent, so the
    /// result is deterministic despite the hash-map backing.
    pub fn log2_histogram(&self) -> Vec<(u64, u64)> {
        let mut hist = star_trace::Log2Hist::new();
        self.for_each(|_, count| hist.observe(count));
        hist.nonzero().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_summarizes() {
        let mut w = WearTracker::new();
        for _ in 0..10 {
            w.record(LineAddr::new(1));
        }
        w.record(LineAddr::new(2));
        let s = w.summary();
        assert_eq!(s.lines_touched, 2);
        assert_eq!(s.total_writes, 11);
        assert_eq!(s.max_writes, 10);
        assert!((s.mean_writes - 5.5).abs() < 1e-9);
        assert!((s.concentration - 10.0 / 5.5).abs() < 1e-9);
    }

    #[test]
    fn filtered_summary_scopes_regions() {
        let mut w = WearTracker::new();
        w.record(LineAddr::new(5));
        w.record(LineAddr::new(100));
        w.record(LineAddr::new(100));
        let region = w.summary_of(|a| a.index() >= 100);
        assert_eq!(region.lines_touched, 1);
        assert_eq!(region.total_writes, 2);
    }

    #[test]
    fn empty_tracker_is_zeroed() {
        let s = WearTracker::new().summary();
        assert_eq!(s.lines_touched, 0);
        assert_eq!(s.concentration, 0.0);
    }

    #[test]
    fn log2_histogram_buckets_lines_by_write_count() {
        let mut w = WearTracker::new();
        for _ in 0..10 {
            w.record(LineAddr::new(1)); // bucket floor 8
        }
        w.record(LineAddr::new(2)); // bucket floor 1
        w.record(LineAddr::new(3)); // bucket floor 1
        assert_eq!(w.log2_histogram(), vec![(1, 2), (8, 1)]);
        assert!(WearTracker::new().log2_histogram().is_empty());
    }
}
