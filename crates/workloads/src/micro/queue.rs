//! `queue`: a persistent ring buffer.
//!
//! Enqueues append sequentially; dequeues advance the head. Each
//! operation persists the entry line and the head/tail metadata line —
//! the *best* spatial locality of the micro set (consecutive entries
//! share bitmap lines, so STAR's ADR almost never spills).

use crate::heap::{Pmem, VolatileSet};
use crate::micro::{HEAP_BASE, HEAP_LINES};
use crate::Workload;
use star_mem::TraceSink;
use star_rng::SimRng;

/// A persistent single-producer queue workload (70% enqueue, 30%
/// dequeue).
#[derive(Debug, Clone)]
pub struct QueueWorkload {
    pmem: Pmem,
    meta_line: u64,
    ring_base: u64,
    ring_lines: u64,
    head: u64,
    tail: u64,
    volatile: VolatileSet,
    rng: SimRng,
}

impl QueueWorkload {
    /// A ring sized to most of the workload heap.
    pub fn new(seed: u64) -> Self {
        let mut pmem = Pmem::new(HEAP_BASE, HEAP_LINES);
        let meta_line = pmem.alloc(1);
        let ring_lines = HEAP_LINES - (8 << 20) / 64 - 8;
        let ring_base = pmem.alloc(ring_lines);
        let volatile = VolatileSet::new(&mut pmem, (8 << 20) / 64);
        Self {
            pmem,
            meta_line,
            ring_base,
            ring_lines,
            head: 0,
            tail: 0,
            volatile,
            rng: SimRng::seed_from_u64(seed),
        }
    }

    /// Entries currently queued.
    pub fn len(&self) -> u64 {
        self.tail - self.head
    }

    /// True when the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    fn enqueue(&mut self, sink: &mut dyn TraceSink) {
        let slot = self.ring_base + self.tail % self.ring_lines;
        // Write the entry, persist it, then persist the new tail pointer
        // (the standard two-step durable-queue protocol).
        self.pmem.store_persist(sink, slot);
        self.pmem.fence(sink);
        self.tail += 1;
        self.pmem.store_persist(sink, self.meta_line);
        self.pmem.fence(sink);
    }

    fn dequeue(&mut self, sink: &mut dyn TraceSink) {
        if self.is_empty() {
            return;
        }
        let slot = self.ring_base + self.head % self.ring_lines;
        self.pmem.load(sink, slot);
        self.head += 1;
        self.pmem.store_persist(sink, self.meta_line);
        self.pmem.fence(sink);
    }
}

impl Workload for QueueWorkload {
    fn name(&self) -> &'static str {
        "queue"
    }

    fn step(&mut self, sink: &mut dyn TraceSink) {
        self.pmem.work(sink, 300);
        self.volatile.churn(&mut self.pmem, sink, &mut self.rng, 3);
        if self.rng.gen_bool(0.7) || self.is_empty() {
            self.enqueue(sink);
        } else {
            self.dequeue(sink);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_mem::{MemEvent, VecSink};

    #[test]
    fn entries_are_sequential() {
        let mut wl = QueueWorkload::new(1);
        let mut sink = VecSink::new();
        wl.run(50, &mut sink);
        let entry_lines: Vec<u64> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                MemEvent::Write { line, .. }
                    if *line >= wl.ring_base && *line < wl.ring_base + wl.ring_lines =>
                {
                    Some(*line)
                }
                _ => None,
            })
            .collect();
        for pair in entry_lines.windows(2) {
            assert_eq!(pair[1], pair[0] + 1, "enqueues append sequentially");
        }
        assert!(!entry_lines.is_empty());
    }

    #[test]
    fn queue_never_underflows() {
        let mut wl = QueueWorkload::new(2);
        let mut sink = VecSink::new();
        wl.run(500, &mut sink);
        assert!(wl.len() <= 500);
    }
}
