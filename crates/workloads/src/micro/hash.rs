//! `hash`: a persistent open-chaining hash table.
//!
//! Keys hash uniformly over a large bucket array; each insert/update
//! reads the bucket line, writes it (or an allocated overflow line) and
//! persists. Like `array`, addressing is effectively random — the
//! paper's worst case for STAR's bitmap locality — but with extra reads
//! along collision chains.

use crate::heap::{Pmem, VolatileSet};
use crate::micro::{HEAP_BASE, HEAP_LINES};
use crate::Workload;
use star_mem::TraceSink;
use star_rng::SimRng;
use std::collections::HashMap;

/// Entries per 64-byte bucket line before it overflows.
const SLOTS_PER_BUCKET: u32 = 7;

/// A persistent hash-table workload (inserts and updates of random keys).
#[derive(Debug, Clone)]
pub struct HashWorkload {
    pmem: Pmem,
    bucket_base: u64,
    buckets: u64,
    /// Model state: entries per bucket and overflow chain lines.
    fill: HashMap<u64, u32>,
    chains: HashMap<u64, Vec<u64>>,
    volatile: VolatileSet,
    rng: SimRng,
}

impl HashWorkload {
    /// A table whose bucket array spans half the heap; the rest feeds
    /// overflow-chain allocation.
    pub fn new(seed: u64) -> Self {
        let mut pmem = Pmem::new(HEAP_BASE, HEAP_LINES);
        // 5 MB bucket array: slightly larger / less local than `array`,
        // matching the paper's ordering (hash is its worst case).
        let buckets = (5 << 20) / 64;
        let bucket_base = pmem.alloc(buckets);
        let volatile = VolatileSet::new(&mut pmem, (8 << 20) / 64);
        Self {
            pmem,
            bucket_base,
            buckets,
            fill: HashMap::new(),
            chains: HashMap::new(),
            volatile,
            rng: SimRng::seed_from_u64(seed),
        }
    }

    /// Number of bucket lines.
    pub fn buckets(&self) -> u64 {
        self.buckets
    }
}

impl Workload for HashWorkload {
    fn name(&self) -> &'static str {
        "hash"
    }

    fn step(&mut self, sink: &mut dyn TraceSink) {
        let key: u64 = self.rng.gen_u64();
        let b = key % self.buckets;
        let bucket_line = self.bucket_base + b;
        self.pmem.work(sink, 1000);
        self.volatile.churn(&mut self.pmem, sink, &mut self.rng, 8);
        // Probe: read the bucket and walk any overflow chain.
        self.pmem.load(sink, bucket_line);
        if let Some(chain) = self.chains.get(&b) {
            for &line in chain {
                self.pmem.load(sink, line);
            }
        }
        let count = self.fill.entry(b).or_insert(0);
        if *count < SLOTS_PER_BUCKET {
            *count += 1;
            self.pmem.store_persist(sink, bucket_line);
        } else {
            // Overflow: allocate (or reuse the newest) chain line and
            // link it from the bucket header.
            let needs_new = self
                .chains
                .get(&b)
                .is_none_or(|c| c.len() as u32 * SLOTS_PER_BUCKET < *count - SLOTS_PER_BUCKET + 1);
            let line = if needs_new {
                let line = self.pmem.alloc(1);
                self.chains.entry(b).or_default().push(line);
                line
            } else {
                *self.chains[&b].last().expect("chain exists")
            };
            *self.fill.get_mut(&b).expect("present") += 1;
            self.pmem.store_persist(sink, line);
            self.pmem.fence(sink);
            self.pmem.store_persist(sink, bucket_line);
        }
        self.pmem.fence(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_mem::VecSink;

    #[test]
    fn every_op_persists() {
        let mut wl = HashWorkload::new(1);
        let mut sink = VecSink::new();
        wl.run(200, &mut sink);
        assert!(sink.clwb_count() >= 200);
        assert!(sink.read_count() >= 200, "probes read the bucket");
    }

    #[test]
    fn buckets_are_uniformly_scattered() {
        let mut wl = HashWorkload::new(2);
        let mut sink = VecSink::new();
        wl.run(300, &mut sink);
        let regions: std::collections::HashSet<u64> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                star_mem::MemEvent::Write { line, .. } => Some(line / 512),
                _ => None,
            })
            .collect();
        assert!(
            regions.len() > 100,
            "writes span many 32KB regions: {}",
            regions.len()
        );
    }
}
