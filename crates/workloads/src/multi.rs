//! Multi-threaded workload composition.
//!
//! The paper runs every benchmark with 8 threads. The model is
//! single-stream, so threading is represented the way a trace-driven
//! memory study sees it: `t` independent instances of the workload, each
//! in its own heap partition, with their reference streams interleaved
//! round-robin in small bursts. That reproduces the property that matters
//! to the memory system — concurrent working sets from multiple heaps
//! hitting the shared metadata cache and bitmap lines.

use crate::micro::HEAP_LINES;
use crate::{Workload, WorkloadKind};
use star_mem::{MemEvent, TraceSink, VecSink};

/// A sink adapter that relocates line addresses by a fixed offset,
/// placing each thread's heap in its own partition.
struct OffsetSink<'a> {
    base: u64,
    inner: &'a mut dyn TraceSink,
}

impl TraceSink for OffsetSink<'_> {
    fn on_event(&mut self, event: MemEvent) {
        let shifted = match event {
            MemEvent::Read { line } => MemEvent::Read {
                line: line + self.base,
            },
            MemEvent::Write { line, version } => MemEvent::Write {
                line: line + self.base,
                version,
            },
            MemEvent::Clwb { line } => MemEvent::Clwb {
                line: line + self.base,
            },
            other => other,
        };
        self.inner.on_event(shifted);
    }
}

/// `threads` interleaved instances of one workload.
///
/// ```
/// use star_workloads::{MultiThreaded, Workload, WorkloadKind};
/// use star_mem::VecSink;
/// let mut wl = MultiThreaded::new(WorkloadKind::Queue, 8, 42);
/// let mut sink = VecSink::new();
/// wl.run(80, &mut sink); // 10 operations per thread
/// assert!(sink.write_count() > 0);
/// ```
pub struct MultiThreaded {
    kind: WorkloadKind,
    instances: Vec<Box<dyn Workload>>,
    /// Operations executed per burst before rotating to the next thread.
    burst: usize,
    /// Next thread to take a single [`Workload::step`] (step-wise
    /// round-robin cursor; `run` uses its own burst schedule instead).
    cursor: usize,
}

impl core::fmt::Debug for MultiThreaded {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MultiThreaded")
            .field("kind", &self.kind)
            .field("threads", &self.instances.len())
            .field("burst", &self.burst)
            .finish()
    }
}

impl MultiThreaded {
    /// Creates `threads` instances of `kind`, seeded distinctly from
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(kind: WorkloadKind, threads: usize, seed: u64) -> Self {
        assert!(threads > 0, "need at least one thread");
        Self {
            kind,
            instances: (0..threads)
                .map(|t| kind.instantiate(seed.wrapping_add(t as u64 * 0x9e37)))
                .collect(),
            burst: 4,
            cursor: 0,
        }
    }

    /// Number of threads.
    pub fn threads(&self) -> usize {
        self.instances.len()
    }

    /// Heap partition base line for thread `t`.
    pub fn partition_base(t: usize) -> u64 {
        t as u64 * HEAP_LINES
    }
}

impl Workload for MultiThreaded {
    fn name(&self) -> &'static str {
        self.kind.label()
    }

    /// One operation from the next thread in rotation.
    ///
    /// Note the divergence from [`run`](Workload::run), which keeps its
    /// burst-of-4 schedule *dependent on the total op count* (each
    /// thread runs `ops/threads` operations): `MultiThreaded` is a bench
    /// composition, not a crash-exploration workload, so `run` is NOT a
    /// loop of `step` here.
    fn step(&mut self, sink: &mut dyn TraceSink) {
        let t = self.cursor;
        self.cursor = (self.cursor + 1) % self.instances.len();
        let mut buffer = VecSink::new();
        self.instances[t].step(&mut buffer);
        let mut shifted = OffsetSink {
            base: Self::partition_base(t),
            inner: sink,
        };
        shifted.on_events(&buffer.events);
    }

    fn run(&mut self, ops: usize, sink: &mut dyn TraceSink) {
        // Round-robin in bursts until every thread has run `ops/threads`
        // operations (±1 burst).
        let threads = self.instances.len();
        let per_thread = ops.div_ceil(threads);
        let mut done = vec![0usize; threads];
        let mut buffer = VecSink::new();
        loop {
            let mut progressed = false;
            for (t, wl) in self.instances.iter_mut().enumerate() {
                if done[t] >= per_thread {
                    continue;
                }
                let n = self.burst.min(per_thread - done[t]);
                buffer.events.clear();
                wl.run(n, &mut buffer);
                let mut shifted = OffsetSink {
                    base: Self::partition_base(t),
                    inner: sink,
                };
                shifted.on_events(&buffer.events);
                done[t] += n;
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_do_not_overlap() {
        let mut wl = MultiThreaded::new(WorkloadKind::Array, 4, 9);
        let mut sink = VecSink::new();
        wl.run(200, &mut sink);
        let mut seen_partitions = std::collections::HashSet::new();
        for e in &sink.events {
            if let MemEvent::Write { line, .. } = e {
                seen_partitions.insert(line / HEAP_LINES);
            }
        }
        assert_eq!(
            seen_partitions.len(),
            4,
            "every thread writes its own partition"
        );
    }

    #[test]
    fn interleaving_rotates_threads() {
        let mut wl = MultiThreaded::new(WorkloadKind::Queue, 2, 9);
        let mut sink = VecSink::new();
        wl.run(40, &mut sink);
        // Both partitions appear in the first half of the trace.
        let half = &sink.events[..sink.events.len() / 2];
        let parts: std::collections::HashSet<u64> = half
            .iter()
            .filter_map(|e| match e {
                MemEvent::Write { line, .. } => Some(line / HEAP_LINES),
                _ => None,
            })
            .collect();
        assert_eq!(parts.len(), 2, "bursts interleave rather than serialize");
    }

    #[test]
    fn total_ops_are_split() {
        let mut a = MultiThreaded::new(WorkloadKind::Array, 8, 3);
        let mut sink_a = VecSink::new();
        a.run(80, &mut sink_a);
        // 8 threads × 10 array ops → 80 persists.
        assert_eq!(sink_a.clwb_count(), 80);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        MultiThreaded::new(WorkloadKind::Array, 0, 0);
    }
}
