//! Access statistics, split by traffic class.

use star_trace::Json;

/// What kind of line an NVM access touches.
///
/// The paper's figures separate ordinary memory writes (user data),
/// security-metadata writes (counter blocks / SIT nodes), STAR's bitmap
/// lines and Anubis's shadow-table blocks; strict persistence adds
/// write-through tree traffic, which is classed as metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AccessClass {
    /// User data lines (with their Synergy-style co-located MAC).
    Data,
    /// Security metadata: counter blocks and SIT nodes.
    Metadata,
    /// STAR bitmap lines spilled to / fetched from the recovery area.
    BitmapLine,
    /// Anubis shadow-table blocks.
    ShadowTable,
}

impl AccessClass {
    /// All classes, for iteration and table printing.
    pub const ALL: [AccessClass; 4] = [
        AccessClass::Data,
        AccessClass::Metadata,
        AccessClass::BitmapLine,
        AccessClass::ShadowTable,
    ];

    fn idx(self) -> usize {
        match self {
            AccessClass::Data => 0,
            AccessClass::Metadata => 1,
            AccessClass::BitmapLine => 2,
            AccessClass::ShadowTable => 3,
        }
    }

    /// The traffic class a write of the given provenance lands in.
    ///
    /// [`crate::NvmDevice::write`] takes a [`star_prof::WriteCause`] and derives its
    /// class here, so the coarse per-class counters are always a
    /// consistent coarsening of the fine per-cause matrix.
    pub fn from_cause(cause: star_prof::WriteCause) -> AccessClass {
        use star_prof::WriteCause as C;
        match cause {
            C::Data => AccessClass::Data,
            C::CounterBlock | C::BmtNode { .. } | C::Mac | C::Journal | C::RecoveryRestore => {
                AccessClass::Metadata
            }
            C::BitmapLine | C::RaSpill => AccessClass::BitmapLine,
            C::ShadowTable => AccessClass::ShadowTable,
        }
    }
}

impl core::fmt::Display for AccessClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            AccessClass::Data => "data",
            AccessClass::Metadata => "metadata",
            AccessClass::BitmapLine => "bitmap-line",
            AccessClass::ShadowTable => "shadow-table",
        };
        f.write_str(s)
    }
}

/// Counters accumulated by an [`crate::NvmDevice`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NvmStats {
    reads: [u64; 4],
    writes: [u64; 4],
    /// Total picoseconds the issuing core was stalled because the write
    /// queue was full.
    pub write_stall_ps: u64,
    /// Total picoseconds of read latency beyond the idle-bank minimum
    /// (queueing + bank conflicts + tWTR turnaround).
    pub read_queue_ps: u64,
    /// Total energy consumed, picojoules.
    pub energy_pj: u64,
}

impl NvmStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the counters as the members of a report's `"nvm"` object:
    /// per-class `"reads"` and `"writes"` in [`AccessClass::ALL`] order,
    /// then the stall and read-queue totals.
    pub fn write_json(&self, j: &mut Json) {
        for (key, counts) in [("reads", &self.reads), ("writes", &self.writes)] {
            j.obj(key, |j| {
                for class in AccessClass::ALL {
                    j.u64(&class.to_string(), counts[class.idx()]);
                }
            });
        }
        j.u64("write_stall_ps", self.write_stall_ps)
            .u64("read_queue_ps", self.read_queue_ps);
    }

    /// Records a read of class `class`.
    pub fn record_read(&mut self, class: AccessClass) {
        self.reads[class.idx()] += 1;
    }

    /// Records a write of class `class`.
    pub fn record_write(&mut self, class: AccessClass) {
        self.writes[class.idx()] += 1;
    }

    /// Reads of one class.
    pub fn reads(&self, class: AccessClass) -> u64 {
        self.reads[class.idx()]
    }

    /// Writes of one class.
    pub fn writes(&self, class: AccessClass) -> u64 {
        self.writes[class.idx()]
    }

    /// Total reads across classes.
    pub fn total_reads(&self) -> u64 {
        self.reads.iter().sum()
    }

    /// Total writes across classes.
    pub fn total_writes(&self) -> u64 {
        self.writes.iter().sum()
    }

    /// Merges `other` into `self` (for aggregating per-thread devices).
    pub fn merge(&mut self, other: &NvmStats) {
        for i in 0..4 {
            self.reads[i] += other.reads[i];
            self.writes[i] += other.writes[i];
        }
        self.write_stall_ps += other.write_stall_ps;
        self.read_queue_ps += other.read_queue_ps;
        self.energy_pj += other.energy_pj;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_class_counting() {
        let mut s = NvmStats::new();
        s.record_read(AccessClass::Data);
        s.record_write(AccessClass::Metadata);
        s.record_write(AccessClass::Metadata);
        s.record_write(AccessClass::BitmapLine);
        assert_eq!(s.reads(AccessClass::Data), 1);
        assert_eq!(s.writes(AccessClass::Metadata), 2);
        assert_eq!(s.writes(AccessClass::BitmapLine), 1);
        assert_eq!(s.writes(AccessClass::ShadowTable), 0);
        assert_eq!(s.total_writes(), 3);
        assert_eq!(s.total_reads(), 1);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = NvmStats::new();
        a.record_write(AccessClass::Data);
        a.energy_pj = 10;
        let mut b = NvmStats::new();
        b.record_write(AccessClass::Data);
        b.record_read(AccessClass::ShadowTable);
        b.energy_pj = 5;
        b.write_stall_ps = 7;
        a.merge(&b);
        assert_eq!(a.writes(AccessClass::Data), 2);
        assert_eq!(a.reads(AccessClass::ShadowTable), 1);
        assert_eq!(a.energy_pj, 15);
        assert_eq!(a.write_stall_ps, 7);
    }

    #[test]
    fn display_names_are_stable() {
        let names: Vec<String> = AccessClass::ALL.iter().map(|c| c.to_string()).collect();
        assert_eq!(names, ["data", "metadata", "bitmap-line", "shadow-table"]);
    }

    #[test]
    fn every_cause_coarsens_to_a_class() {
        use star_prof::WriteCause as C;
        let cases = [
            (C::Data, AccessClass::Data),
            (C::CounterBlock, AccessClass::Metadata),
            (C::BmtNode { level: 2 }, AccessClass::Metadata),
            (C::Mac, AccessClass::Metadata),
            (C::BitmapLine, AccessClass::BitmapLine),
            (C::RaSpill, AccessClass::BitmapLine),
            (C::Journal, AccessClass::Metadata),
            (C::ShadowTable, AccessClass::ShadowTable),
            (C::RecoveryRestore, AccessClass::Metadata),
        ];
        for (cause, class) in cases {
            assert_eq!(AccessClass::from_cause(cause), class, "{cause}");
        }
    }
}
