//! `array`: random in-place updates of a persistent array.
//!
//! The classic SWAP/array kernel: pick a random slot, read it, write a
//! new value, `clwb` + `sfence`. Uniformly random addressing gives the
//! *worst* spatial locality of the micro set — the paper observes STAR's
//! bitmap lines thrash most on array and hash.

use crate::heap::{Pmem, VolatileSet};
use crate::micro::{HEAP_BASE, HEAP_LINES};
use crate::Workload;
use star_mem::TraceSink;
use star_rng::SimRng;

/// Configuration and state of the array workload.
#[derive(Debug, Clone)]
pub struct ArrayWorkload {
    pmem: Pmem,
    base: u64,
    lines: u64,
    volatile: VolatileSet,
    rng: SimRng,
}

impl ArrayWorkload {
    /// The default array: a 4 MB hot set — the size the paper's array
    /// kernel implies (its STAR traffic and Table II hit ratios bound the
    /// footprint to a few MB).
    pub fn new(seed: u64) -> Self {
        Self::with_bytes(seed, 4 << 20)
    }

    /// An array over a hot set of `bytes` bytes (used by the Fig. 14b
    /// cache-size sweep, which needs enough distinct counter blocks to
    /// fill a 4 MB metadata cache).
    ///
    /// # Panics
    ///
    /// Panics if the hot set plus the volatile set exceed the heap.
    pub fn with_bytes(seed: u64, bytes: u64) -> Self {
        let mut pmem = Pmem::new(HEAP_BASE, HEAP_LINES);
        let lines = bytes / 64;
        let base = pmem.alloc(lines);
        let volatile = VolatileSet::new(&mut pmem, (8 << 20) / 64);
        Self {
            pmem,
            base,
            lines,
            volatile,
            rng: SimRng::seed_from_u64(seed),
        }
    }

    /// Number of array lines.
    pub fn lines(&self) -> u64 {
        self.lines
    }
}

impl Workload for ArrayWorkload {
    fn name(&self) -> &'static str {
        "array"
    }

    fn step(&mut self, sink: &mut dyn TraceSink) {
        let idx = self.rng.gen_range(0..self.lines);
        let line = self.base + idx;
        self.pmem.work(sink, 800);
        self.volatile.churn(&mut self.pmem, sink, &mut self.rng, 8);
        self.pmem.load(sink, line);
        self.pmem.store_persist(sink, line);
        self.pmem.fence(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_mem::VecSink;

    #[test]
    fn one_persist_per_op() {
        let mut wl = ArrayWorkload::new(1);
        let mut sink = VecSink::new();
        wl.run(100, &mut sink);
        assert_eq!(sink.clwb_count(), 100, "one persist per op");
        assert!(
            sink.write_count() >= 100,
            "persisted stores plus volatile churn"
        );
    }

    #[test]
    fn updates_are_spread_out() {
        let mut wl = ArrayWorkload::new(2);
        let mut sink = VecSink::new();
        wl.run(200, &mut sink);
        let distinct: std::collections::HashSet<_> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                star_mem::MemEvent::Write { line, .. } => Some(*line),
                _ => None,
            })
            .collect();
        assert!(distinct.len() > 150, "random updates rarely collide");
    }
}
