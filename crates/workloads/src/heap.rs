//! The simulated persistent heap.
//!
//! Workload data structures allocate 64-byte lines from a bump allocator
//! over the user-data region and talk to the memory system through
//! [`Pmem`], which wraps a [`TraceSink`] with store/load/persist helpers
//! and stamps every store with a fresh content version (the simulation's
//! stand-in for actual bytes).

use star_mem::{MemEvent, TraceSink};
use star_rng::SimRng;

/// Persistent-heap access helper.
///
/// Tracks the bump allocator and the global store-version counter.
#[derive(Debug, Clone)]
pub struct Pmem {
    next_line: u64,
    limit: u64,
    version: u64,
}

impl Pmem {
    /// A heap over data lines `[base, base + capacity_lines)`.
    ///
    /// # Panics
    ///
    /// Panics if the region is empty.
    pub fn new(base: u64, capacity_lines: u64) -> Self {
        assert!(capacity_lines > 0, "heap must have capacity");
        Self {
            next_line: base,
            limit: base + capacity_lines,
            version: 0,
        }
    }

    /// Allocates `n` consecutive lines, returning the first line index.
    ///
    /// # Panics
    ///
    /// Panics when the heap is exhausted — size workloads to their heap.
    pub fn alloc(&mut self, n: u64) -> u64 {
        let first = self.next_line;
        assert!(
            first + n <= self.limit,
            "persistent heap exhausted ({} + {n} > {})",
            first,
            self.limit
        );
        self.next_line += n;
        first
    }

    /// Emits a load of `line`.
    pub fn load(&self, sink: &mut dyn TraceSink, line: u64) {
        sink.on_event(MemEvent::Read { line });
    }

    /// Emits a store to `line` with a fresh content version.
    pub fn store(&mut self, sink: &mut dyn TraceSink, line: u64) {
        self.version += 1;
        sink.on_event(MemEvent::Write {
            line,
            version: self.version,
        });
    }

    /// Emits a `clwb` of `line`.
    pub fn persist(&self, sink: &mut dyn TraceSink, line: u64) {
        sink.on_event(MemEvent::Clwb { line });
    }

    /// Emits an `sfence`.
    pub fn fence(&self, sink: &mut dyn TraceSink) {
        sink.on_event(MemEvent::Fence);
    }

    /// Emits `count` instructions of compute.
    pub fn work(&self, sink: &mut dyn TraceSink, count: u64) {
        sink.on_event(MemEvent::Work { count });
    }

    /// Store + `clwb` of one line (the common persist idiom).
    pub fn store_persist(&mut self, sink: &mut dyn TraceSink, line: u64) {
        self.store(sink, line);
        self.persist(sink, line);
    }
}

/// A volatile (non-persisted) working set.
///
/// The paper evaluates on a machine whose *entire* main memory is PCM, so
/// the applications' ordinary heaps, stacks and lookup structures also
/// generate NVM traffic — mostly reads, plus cache-eviction write-backs
/// that are never `clwb`ed. Each workload owns one of these and churns it
/// every operation; without it the trace would be persist-only and far
/// more write-heavy than anything the paper measured.
#[derive(Debug, Clone)]
pub struct VolatileSet {
    base: u64,
    lines: u64,
}

impl VolatileSet {
    /// Carves `lines` lines out of `pmem` for the volatile set.
    pub fn new(pmem: &mut Pmem, lines: u64) -> Self {
        Self {
            base: pmem.alloc(lines),
            lines,
        }
    }

    /// Issues `reads` random loads into the set; each has a 5% chance of
    /// also storing (without persisting — eviction write-backs only).
    pub fn churn(&self, pmem: &mut Pmem, sink: &mut dyn TraceSink, rng: &mut SimRng, reads: usize) {
        for _ in 0..reads {
            let line = self.base + rng.gen_range(0..self.lines);
            pmem.load(sink, line);
            if rng.gen_bool(0.05) {
                pmem.store(sink, line);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_mem::VecSink;

    #[test]
    fn alloc_is_sequential_and_bounded() {
        let mut h = Pmem::new(100, 10);
        assert_eq!(h.alloc(3), 100);
        assert_eq!(h.alloc(7), 103);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn overflow_panics() {
        let mut h = Pmem::new(0, 2);
        h.alloc(3);
    }

    #[test]
    fn store_versions_are_monotonic() {
        let mut h = Pmem::new(0, 4);
        let mut sink = VecSink::new();
        h.store(&mut sink, 0);
        h.store(&mut sink, 1);
        let versions: Vec<u64> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                MemEvent::Write { version, .. } => Some(*version),
                _ => None,
            })
            .collect();
        assert_eq!(versions, vec![1, 2]);
    }

    #[test]
    fn store_persist_emits_both() {
        let mut h = Pmem::new(0, 4);
        let mut sink = VecSink::new();
        h.store_persist(&mut sink, 2);
        assert_eq!(sink.write_count(), 1);
        assert_eq!(sink.clwb_count(), 1);
    }
}
