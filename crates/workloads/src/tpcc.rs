//! `tpcc`: a WHISPER-style TPC-C kernel.
//!
//! Models the persistent-memory behaviour of the WHISPER `tpcc` trace:
//! transactions update a handful of warehouse/district/customer records
//! in place, append order lines to per-district order tables, and write a
//! redo-log record, persisting at each durability point. The mix is 90%
//! NEW-ORDER (log append + ~10 order-line writes + district counter
//! update) and 10% PAYMENT (log append + 3 record updates), giving a
//! write stream that blends a sequential log with scattered record
//! updates — mid-pack locality, as the paper's macro results show.

use crate::heap::{Pmem, VolatileSet};
use crate::micro::{HEAP_BASE, HEAP_LINES};
use crate::Workload;
use star_mem::TraceSink;
use star_rng::SimRng;

/// Districts (order tables) in the modeled warehouse set.
const DISTRICTS: u64 = 16;
/// Customer record lines.
const CUSTOMERS: u64 = 1 << 14;
/// Lines reserved for the redo log.
const LOG_LINES: u64 = 1 << 17;
/// Lines per district order table.
const ORDERS_PER_DISTRICT: u64 = 1 << 13;

/// The TPC-C-like workload.
#[derive(Debug, Clone)]
pub struct TpccWorkload {
    pmem: Pmem,
    log_base: u64,
    log_head: u64,
    district_meta: u64,
    customer_base: u64,
    order_base: u64,
    order_heads: Vec<u64>,
    volatile: VolatileSet,
    rng: SimRng,
}

impl TpccWorkload {
    /// Lays the tables out in the workload heap.
    pub fn new(seed: u64) -> Self {
        let mut pmem = Pmem::new(HEAP_BASE, HEAP_LINES);
        let log_base = pmem.alloc(LOG_LINES);
        let district_meta = pmem.alloc(DISTRICTS);
        let customer_base = pmem.alloc(CUSTOMERS);
        let order_base = pmem.alloc(DISTRICTS * ORDERS_PER_DISTRICT);
        let volatile = VolatileSet::new(&mut pmem, (8 << 20) / 64);
        Self {
            pmem,
            log_base,
            log_head: 0,
            district_meta,
            customer_base,
            order_base,
            order_heads: vec![0; DISTRICTS as usize],
            volatile,
            rng: SimRng::seed_from_u64(seed),
        }
    }

    fn log_append(&mut self, sink: &mut dyn TraceSink, lines: u64) {
        for _ in 0..lines {
            let line = self.log_base + self.log_head % LOG_LINES;
            self.log_head += 1;
            self.pmem.store_persist(sink, line);
        }
        self.pmem.fence(sink);
    }

    fn new_order(&mut self, sink: &mut dyn TraceSink) {
        let d = self.rng.gen_range(0..DISTRICTS);
        let items = self.rng.gen_range_inclusive(5..=15);
        self.pmem.work(sink, 2500);
        self.volatile.churn(&mut self.pmem, sink, &mut self.rng, 14);
        // Read the district record and the customer.
        self.pmem.load(sink, self.district_meta + d);
        let c = self.rng.gen_range(0..CUSTOMERS);
        self.pmem.load(sink, self.customer_base + c);
        // Redo-log the transaction (1 line per ~4 items).
        self.log_append(sink, 1 + items / 4);
        // Append order lines sequentially in the district's table.
        let head = &mut self.order_heads[d as usize];
        for _ in 0..items {
            let line = self.order_base + d * ORDERS_PER_DISTRICT + (*head % ORDERS_PER_DISTRICT);
            *head += 1;
            self.pmem.store_persist(sink, line);
        }
        self.pmem.fence(sink);
        // Bump the district's next-order counter.
        self.pmem.store_persist(sink, self.district_meta + d);
        self.pmem.fence(sink);
    }

    fn payment(&mut self, sink: &mut dyn TraceSink) {
        let d = self.rng.gen_range(0..DISTRICTS);
        let c = self.rng.gen_range(0..CUSTOMERS);
        self.pmem.work(sink, 1500);
        self.volatile.churn(&mut self.pmem, sink, &mut self.rng, 6);
        self.log_append(sink, 1);
        self.pmem.load(sink, self.customer_base + c);
        self.pmem.store_persist(sink, self.customer_base + c);
        self.pmem.store_persist(sink, self.district_meta + d);
        self.pmem.fence(sink);
    }
}

impl Workload for TpccWorkload {
    fn name(&self) -> &'static str {
        "tpcc"
    }

    fn step(&mut self, sink: &mut dyn TraceSink) {
        if self.rng.gen_bool(0.9) {
            self.new_order(sink);
        } else {
            self.payment(sink);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_mem::{MemEvent, VecSink};

    #[test]
    fn transactions_persist_and_fence() {
        let mut wl = TpccWorkload::new(1);
        let mut sink = VecSink::new();
        wl.run(50, &mut sink);
        assert!(sink.clwb_count() > 50 * 5, "new-order writes many lines");
        let fences = sink
            .events
            .iter()
            .filter(|e| matches!(e, MemEvent::Fence))
            .count();
        assert!(fences >= 50 * 2, "durability points fence");
    }

    #[test]
    fn log_is_sequential() {
        let mut wl = TpccWorkload::new(2);
        let mut sink = VecSink::new();
        wl.run(100, &mut sink);
        let log_writes: Vec<u64> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                MemEvent::Write { line, .. }
                    if *line < wl.log_base + LOG_LINES && *line >= wl.log_base =>
                {
                    Some(*line)
                }
                _ => None,
            })
            .collect();
        assert!(log_writes
            .windows(2)
            .all(|w| w[1] == w[0] + 1 || w[1] == wl.log_base));
    }
}
