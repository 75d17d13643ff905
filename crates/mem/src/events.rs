//! Memory-reference trace events.
//!
//! Workloads speak this vocabulary; the cache hierarchy and the secure
//! memory controller consume it, and star-check's programs are lists of
//! it. Addresses are **line indices** (byte address / 64) in the
//! user-data region of the simulated physical space. [`VecSink`]
//! records a stream and [`TraceStats`] summarizes one.

use std::collections::HashMap;

/// One event in a memory-reference trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemEvent {
    /// A load from data line `line`.
    Read {
        /// Line index of the access.
        line: u64,
    },
    /// A store to data line `line` (new content summarized by `version`,
    /// which the engine turns into distinct line bytes).
    Write {
        /// Line index of the access.
        line: u64,
        /// Monotonic content version, so repeated writes differ.
        version: u64,
    },
    /// A `clwb`/`clflushopt`-style persist of line `line`: the line is
    /// written back to memory (if dirty) but may stay cached.
    Clwb {
        /// Line index to persist.
        line: u64,
    },
    /// An `sfence` persist barrier: orders preceding persists.
    Fence,
    /// `count` instructions of pure compute between memory references.
    Work {
        /// Number of non-memory instructions executed.
        count: u64,
    },
}

/// The checker's listing form: `write(3, v1)`, `persist(3)`,
/// `read(3)`, `fence`, `work(120)`.
impl core::fmt::Display for MemEvent {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MemEvent::Write { line, version } => write!(f, "write({line}, v{version})"),
            MemEvent::Clwb { line } => write!(f, "persist({line})"),
            MemEvent::Read { line } => write!(f, "read({line})"),
            MemEvent::Fence => f.write_str("fence"),
            MemEvent::Work { count } => write!(f, "work({count})"),
        }
    }
}

/// A consumer of trace events.
///
/// Implemented by the secure memory engine; [`VecSink`] records events for
/// testing and offline analysis.
pub trait TraceSink {
    /// Consumes one event.
    fn on_event(&mut self, event: MemEvent);

    /// Consumes a batch of events (default: one at a time).
    fn on_events(&mut self, events: &[MemEvent]) {
        for &e in events {
            self.on_event(e);
        }
    }
}

/// A [`TraceSink`] that records every event.
#[derive(Debug, Default, Clone)]
pub struct VecSink {
    /// The recorded events, in arrival order.
    pub events: Vec<MemEvent>,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of [`MemEvent::Write`] events recorded.
    pub fn write_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, MemEvent::Write { .. }))
            .count()
    }

    /// Number of [`MemEvent::Clwb`] events recorded.
    pub fn clwb_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, MemEvent::Clwb { .. }))
            .count()
    }

    /// Number of [`MemEvent::Read`] events recorded.
    pub fn read_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, MemEvent::Read { .. }))
            .count()
    }
}

impl TraceSink for VecSink {
    fn on_event(&mut self, event: MemEvent) {
        self.events.push(event);
    }
}

/// Locality and volume statistics of a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceStats {
    /// Loads.
    pub reads: u64,
    /// Stores.
    pub writes: u64,
    /// `clwb`s.
    pub persists: u64,
    /// `sfence`s.
    pub fences: u64,
    /// Compute instructions.
    pub instructions: u64,
    /// Distinct lines touched.
    pub unique_lines: usize,
    /// Distinct 32 KB regions *written* — each is one L1 bitmap line in
    /// STAR, so this is the trace's bitmap working set.
    pub write_regions_32k: usize,
    /// Mean stores per written line (temporal write locality).
    pub mean_writes_per_line: f64,
}

impl TraceStats {
    /// Computes statistics over `events`.
    pub fn compute(events: &[MemEvent]) -> Self {
        let mut stats = TraceStats::default();
        let mut lines: HashMap<u64, u64> = HashMap::new();
        let mut regions: HashMap<u64, ()> = HashMap::new();
        let mut touched: HashMap<u64, ()> = HashMap::new();
        for e in events {
            match e {
                MemEvent::Read { line } => {
                    stats.reads += 1;
                    touched.insert(*line, ());
                }
                MemEvent::Write { line, .. } => {
                    stats.writes += 1;
                    touched.insert(*line, ());
                    *lines.entry(*line).or_default() += 1;
                    // 512 metadata lines per bitmap line, 8 data lines per
                    // counter block → 4096 data lines per 32 KB region.
                    regions.insert(line / 4_096, ());
                }
                MemEvent::Clwb { .. } => stats.persists += 1,
                MemEvent::Fence => stats.fences += 1,
                MemEvent::Work { count } => stats.instructions += *count,
            }
        }
        stats.unique_lines = touched.len();
        stats.write_regions_32k = regions.len();
        stats.mean_writes_per_line = if lines.is_empty() {
            0.0
        } else {
            stats.writes as f64 / lines.len() as f64
        };
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<MemEvent> {
        vec![
            MemEvent::Work { count: 10 },
            MemEvent::Read { line: 5 },
            MemEvent::Write {
                line: 5,
                version: 1,
            },
            MemEvent::Clwb { line: 5 },
            MemEvent::Fence,
            MemEvent::Write {
                line: 9_000,
                version: 2,
            },
        ]
    }

    #[test]
    fn display_names_every_kind() {
        let shown: Vec<String> = [
            MemEvent::Write {
                line: 3,
                version: 1,
            },
            MemEvent::Clwb { line: 3 },
            MemEvent::Read { line: 3 },
            MemEvent::Fence,
            MemEvent::Work { count: 120 },
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        assert_eq!(
            shown,
            [
                "write(3, v1)",
                "persist(3)",
                "read(3)",
                "fence",
                "work(120)"
            ]
        );
    }

    #[test]
    fn vec_sink_records_in_order() {
        let mut sink = VecSink::new();
        sink.on_event(MemEvent::Read { line: 1 });
        sink.on_events(&[
            MemEvent::Write {
                line: 2,
                version: 0,
            },
            MemEvent::Fence,
        ]);
        assert_eq!(sink.events.len(), 3);
        assert_eq!(sink.events[2], MemEvent::Fence);
        assert_eq!(sink.read_count(), 1);
        assert_eq!(sink.write_count(), 1);
        assert_eq!(sink.clwb_count(), 0);
    }

    #[test]
    fn stats_count_correctly() {
        let stats = TraceStats::compute(&sample());
        assert_eq!(stats.reads, 1);
        assert_eq!(stats.writes, 2);
        assert_eq!(stats.persists, 1);
        assert_eq!(stats.fences, 1);
        assert_eq!(stats.instructions, 10);
        assert_eq!(stats.unique_lines, 2);
        assert_eq!(
            stats.write_regions_32k, 2,
            "lines 5 and 9000 are in different regions"
        );
        assert!((stats.mean_writes_per_line - 1.0).abs() < 1e-9);
    }
}
