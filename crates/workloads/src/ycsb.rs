//! `ycsb`: a WHISPER-style YCSB key-value kernel.
//!
//! A persistent hash-indexed KV store driven by a Zipfian key
//! distribution (theta 0.99, the YCSB default) with a 50/50 read/update
//! mix (workload A). Updates write the value line and append to a redo
//! log, persisting both; reads probe the index and load the value. The
//! Zipfian skew concentrates writes on hot keys — high temporal locality,
//! the favourable end of the spectrum for STAR's bitmap lines.

use crate::heap::{Pmem, VolatileSet};
use crate::micro::{HEAP_BASE, HEAP_LINES};
use crate::zipf::Zipfian;
use crate::Workload;
use star_mem::TraceSink;
use star_rng::SimRng;
use std::sync::OnceLock;

/// Number of keys in the store.
const KEYS: u64 = 1 << 16;
/// Key-popularity skew (the YCSB default).
const THETA: f64 = 0.99;
/// Lines reserved for the redo log.
const LOG_LINES: u64 = 1 << 18;

/// The key distribution every instance draws from. It is a function of
/// [`KEYS`] and [`THETA`] alone, so the process builds it once: its
/// zeta sum over 64 Ki keys would otherwise cost each instance about a
/// millisecond, and crash sweeps and sharded runs build many instances.
fn key_distribution() -> &'static Zipfian {
    static KEY_DIST: OnceLock<Zipfian> = OnceLock::new();
    KEY_DIST.get_or_init(|| Zipfian::new(KEYS, THETA))
}

/// The YCSB-A-like workload.
#[derive(Debug, Clone)]
pub struct YcsbWorkload {
    pmem: Pmem,
    index_base: u64,
    value_base: u64,
    log_base: u64,
    log_head: u64,
    volatile: VolatileSet,
    zipf: &'static Zipfian,
    rng: SimRng,
}

impl YcsbWorkload {
    /// Builds the store (index, values, log) in the workload heap.
    pub fn new(seed: u64) -> Self {
        let mut pmem = Pmem::new(HEAP_BASE, HEAP_LINES);
        let index_base = pmem.alloc(KEYS / 8); // 8 index entries per line
        let value_base = pmem.alloc(KEYS);
        let log_base = pmem.alloc(LOG_LINES);
        let volatile = VolatileSet::new(&mut pmem, (8 << 20) / 64);
        Self {
            pmem,
            index_base,
            value_base,
            log_base,
            log_head: 0,
            volatile,
            zipf: key_distribution(),
            rng: SimRng::seed_from_u64(seed),
        }
    }

    fn read_op(&mut self, sink: &mut dyn TraceSink, key: u64) {
        self.pmem.work(sink, 600);
        self.volatile.churn(&mut self.pmem, sink, &mut self.rng, 3);
        self.pmem.load(sink, self.index_base + key / 8);
        self.pmem.load(sink, self.value_base + key);
    }

    fn update_op(&mut self, sink: &mut dyn TraceSink, key: u64) {
        self.pmem.work(sink, 800);
        self.volatile.churn(&mut self.pmem, sink, &mut self.rng, 3);
        self.pmem.load(sink, self.index_base + key / 8);
        // Redo-log the update, then write the value in place.
        let log_line = self.log_base + self.log_head % LOG_LINES;
        self.log_head += 1;
        self.pmem.store_persist(sink, log_line);
        self.pmem.fence(sink);
        self.pmem.store_persist(sink, self.value_base + key);
        self.pmem.fence(sink);
    }
}

impl Workload for YcsbWorkload {
    fn name(&self) -> &'static str {
        "ycsb"
    }

    fn step(&mut self, sink: &mut dyn TraceSink) {
        let key = self.zipf.sample(&mut self.rng);
        // Scramble so hot keys are not physically adjacent (YCSB
        // hashes keys), while staying deterministic.
        let key = key.wrapping_mul(0x9e37_79b9_7f4a_7c15) % KEYS;
        if self.rng.gen_bool(0.5) {
            self.read_op(sink, key);
        } else {
            self.update_op(sink, key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_mem::{MemEvent, VecSink};

    #[test]
    fn mixes_reads_and_updates() {
        let mut wl = YcsbWorkload::new(1);
        let mut sink = VecSink::new();
        wl.run(400, &mut sink);
        assert!(sink.read_count() > 100);
        assert!(sink.write_count() > 100);
        assert!(
            sink.clwb_count() <= sink.write_count(),
            "volatile stores are never persisted"
        );
        assert!(sink.clwb_count() > 100, "updates persist");
    }

    #[test]
    fn shared_key_distribution_is_the_direct_sum() {
        let fresh = Zipfian::new(1 << 16, 0.99);
        assert_eq!(key_distribution().bits(), fresh.bits());
        // Instances share it, and one seed still means one event stream.
        let stream = |seed| {
            let mut wl = crate::WorkloadKind::Ycsb.instantiate(seed);
            let mut sink = VecSink::new();
            wl.run(2_000, &mut sink);
            sink.events
        };
        assert_eq!(stream(9), stream(9));
        assert_ne!(stream(9), stream(10));
    }

    #[test]
    fn hot_keys_repeat() {
        let mut wl = YcsbWorkload::new(2);
        let mut sink = VecSink::new();
        wl.run(1_000, &mut sink);
        let mut counts = std::collections::HashMap::new();
        for e in &sink.events {
            if let MemEvent::Write { line, .. } = e {
                if *line >= wl.value_base && *line < wl.value_base + KEYS {
                    *counts.entry(*line).or_insert(0u32) += 1;
                }
            }
        }
        let max = counts.values().copied().max().unwrap_or(0);
        assert!(max >= 5, "zipfian updates revisit hot keys (max {max})");
    }
}
