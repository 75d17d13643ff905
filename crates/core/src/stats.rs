//! Aggregate run statistics for the evaluation harness.

use crate::config::SchemeKind;
use crate::star::bitmap::BitmapStats;
use star_mem::hierarchy::HierarchyStats;
use star_nvm::{AccessClass, NvmDevice, NvmStats, ProfSummary, WearSummary};

/// Shared instrumentation surface of every backend memory model.
///
/// [`SecureMemory`](crate::SecureMemory) (all four persistence schemes)
/// and [`TriadMemory`](crate::triad::TriadMemory) both expose a device
/// clock and their NVM device, and through it a wear distribution and a
/// write-provenance profile; consumers like `star-serve` previously
/// reached for duplicated inherent methods on each type. This trait is
/// the single surface: write generic code against `T: Instrumented`
/// instead of matching on the backend.
pub trait Instrumented {
    /// Current simulated time in picoseconds (the device write-queue
    /// clock that journal retirement times are measured against).
    fn now_ps(&self) -> u64;

    /// The NVM device: its counters, energy model, wear tracker and
    /// write profiler.
    fn nvm(&self) -> &NvmDevice;

    /// Wear (write-endurance) distribution over all NVM lines.
    fn wear_summary(&self) -> WearSummary {
        self.nvm().wear().summary()
    }

    /// Write-provenance profile: per-cause/per-bank write matrices, wear
    /// heatmap buckets, windowed write-rate series and the always-on
    /// write-stall / WPQ-depth histograms.
    fn prof_summary(&self) -> ProfSummary {
        self.nvm().prof_summary()
    }
}

/// Everything the figures need from one workload run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Scheme that produced this run.
    pub scheme: SchemeKind,
    /// NVM device statistics (reads/writes by class, stalls, energy).
    pub nvm: NvmStats,
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles elapsed.
    pub cycles: f64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// NVM energy spent on line reads, picojoules.
    pub energy_read_pj: u64,
    /// NVM energy spent on line writes, picojoules (the Fig. 13 driver:
    /// PCM writes cost ~4× reads).
    pub energy_write_pj: u64,
    /// Wear (write-endurance) distribution over all NVM lines.
    pub wear: WearSummary,
    /// Write-provenance profile: per-cause/per-bank write matrices, wear
    /// heatmap buckets, windowed write-rate series, and the always-on
    /// write-stall / WPQ-depth histograms. Its cause totals sum exactly
    /// to `nvm.total_writes()`.
    pub prof: ProfSummary,
    /// Bitmap statistics (STAR only).
    pub bitmap: Option<BitmapStats>,
    /// Dirty metadata lines in the cache at the end of the run.
    pub dirty_metadata: usize,
    /// Resident metadata lines at the end of the run.
    pub cached_metadata: usize,
    /// Metadata cache capacity in lines.
    pub metadata_cache_capacity: usize,
    /// Forced flushes due to LSB-window exhaustion (STAR).
    pub forced_flushes: u64,
    /// Persist barriers observed.
    pub barriers: u64,
    /// MAC computations performed (the eager-vs-lazy ablation metric).
    pub mac_computations: u64,
    /// CPU cache hierarchy statistics.
    pub hierarchy: HierarchyStats,
}

impl RunReport {
    /// Total NVM energy, picojoules. Always equals the device's own
    /// accumulator ([`NvmStats::energy_pj`]); the report keeps only the
    /// read/write split and derives the total.
    pub fn energy_pj(&self) -> u64 {
        self.energy_read_pj + self.energy_write_pj
    }

    /// Total NVM write traffic in lines (the paper's Fig. 11 metric).
    pub fn total_writes(&self) -> u64 {
        self.nvm.total_writes()
    }

    /// Scheme-specific extra writes (bitmap lines, shadow table).
    pub fn extra_writes(&self) -> u64 {
        self.nvm.writes(AccessClass::BitmapLine) + self.nvm.writes(AccessClass::ShadowTable)
    }

    /// Fraction of the metadata cache dirty at the end (Fig. 14a).
    pub fn dirty_fraction(&self) -> f64 {
        if self.cached_metadata == 0 {
            0.0
        } else {
            self.dirty_metadata as f64 / self.cached_metadata as f64
        }
    }

    /// Merges `other` into `self` — the cross-shard aggregation behind a
    /// sharded run's merged totals. Counters, energy, wear, the prof
    /// matrices and cache statistics add; derived rates (IPC, wear mean /
    /// concentration) are recomputed over the union, so the merge of N
    /// per-shard reports reads exactly like one report covering all N
    /// devices.
    ///
    /// # Panics
    ///
    /// Panics if the schemes differ — a merged report must describe one
    /// scheme, not an average of different ones.
    pub fn absorb(&mut self, other: &RunReport) {
        assert_eq!(
            self.scheme, other.scheme,
            "cannot merge reports from different schemes"
        );
        self.nvm.merge(&other.nvm);
        self.instructions += other.instructions;
        self.cycles += other.cycles;
        self.ipc = if self.cycles > 0.0 {
            self.instructions as f64 / self.cycles
        } else {
            0.0
        };
        self.energy_read_pj += other.energy_read_pj;
        self.energy_write_pj += other.energy_write_pj;
        self.wear.absorb(&other.wear);
        self.prof.absorb(&other.prof);
        self.bitmap = match (self.bitmap, other.bitmap) {
            (Some(mut a), Some(b)) => {
                a.absorb(&b);
                Some(a)
            }
            (a, b) => a.or(b),
        };
        self.dirty_metadata += other.dirty_metadata;
        self.cached_metadata += other.cached_metadata;
        self.metadata_cache_capacity += other.metadata_cache_capacity;
        self.forced_flushes += other.forced_flushes;
        self.barriers += other.barriers;
        self.mac_computations += other.mac_computations;
        self.hierarchy.absorb(&other.hierarchy);
    }
}

/// Folds per-shard reports into one machine-wide report (see
/// [`RunReport::absorb`]). The fold is a left-to-right reduction over a
/// commutative merge, so the result is independent of how the shards
/// were grouped onto workers.
///
/// # Panics
///
/// Panics if `reports` is empty or mixes schemes.
pub fn merge_reports(reports: &[RunReport]) -> RunReport {
    let (first, rest) = reports
        .split_first()
        .expect("merge_reports needs at least one report");
    let mut merged = first.clone();
    for r in rest {
        merged.absorb(r);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SecureMemConfig, SecureMemory};

    #[test]
    fn derived_metrics() {
        let mut nvm = NvmStats::new();
        for _ in 0..10 {
            nvm.record_write(AccessClass::Data);
        }
        for _ in 0..5 {
            nvm.record_write(AccessClass::Metadata);
        }
        for _ in 0..2 {
            nvm.record_write(AccessClass::BitmapLine);
        }
        let r = RunReport {
            scheme: SchemeKind::Star,
            nvm,
            instructions: 100,
            cycles: 50.0,
            ipc: 2.0,
            energy_read_pj: 6,
            energy_write_pj: 34,
            wear: WearSummary {
                lines_touched: 0,
                total_writes: 0,
                max_writes: 0,
                mean_writes: 0.0,
                concentration: 0.0,
            },
            prof: ProfSummary::default(),
            bitmap: None,
            dirty_metadata: 3,
            cached_metadata: 4,
            metadata_cache_capacity: 8,
            forced_flushes: 0,
            barriers: 0,
            mac_computations: 0,
            hierarchy: HierarchyStats::default(),
        };
        assert_eq!(r.energy_pj(), 40);
        assert_eq!(r.total_writes(), 17);
        assert_eq!(r.extra_writes(), 2);
        assert!((r.dirty_fraction() - 0.75).abs() < 1e-9);
    }

    /// `count` independent STAR engines; engine `e` takes every
    /// `count`-th op of a write+persist stream over lines `i * stride`.
    fn engine_reports(count: u64, ops: u64, stride: u64) -> Vec<RunReport> {
        (0..count)
            .map(|e| {
                let mut m = SecureMemory::new(SchemeKind::Star, SecureMemConfig::small());
                let lines = m.config().data_lines;
                for i in (e..ops).step_by(count as usize) {
                    m.write_data((i * stride) % lines, i);
                    m.persist_data((i * stride) % lines);
                }
                m.fence();
                m.report()
            })
            .collect()
    }

    #[test]
    fn merged_report_sums_shard_traffic() {
        let per = engine_reports(4, 400, 37);
        let merged = merge_reports(&per);
        assert_eq!(
            merged.total_writes(),
            per.iter().map(|r| r.total_writes()).sum::<u64>()
        );
        assert_eq!(
            merged.instructions,
            per.iter().map(|r| r.instructions).sum::<u64>()
        );
        assert_eq!(
            merged.energy_pj(),
            per.iter().map(|r| r.energy_pj()).sum::<u64>()
        );
    }

    /// Merging is grouping-independent: fold all four at once, or fold
    /// two pairs and then the pair of pairs — same bytes.
    #[test]
    fn merge_is_associative_over_groupings() {
        let r = engine_reports(4, 500, 101);
        let flat = merge_reports(&r);
        let paired = merge_reports(&[merge_reports(&r[..2]), merge_reports(&r[2..])]);
        assert_eq!(flat.to_json(), paired.to_json());
    }
}
