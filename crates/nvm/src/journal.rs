//! A bounded journal of device writes, for deterministic fault injection.
//!
//! When enabled (it is off by default and costs nothing when off), the
//! device records every accepted write together with the line's
//! **pre-image** and the write's queue **retirement time**. A fault
//! injector can then reconstruct what a crash at time *t* could have done
//! to the medium:
//!
//! * writes with `complete_at_ps > t` were still in the write-pending
//!   queue — on a platform whose WPQ is *not* ADR-protected they may be
//!   lost (restore the pre-image) or torn (splice pre- and post-image
//!   halves);
//! * everything older has retired to the PCM array and survives.
//!
//! The journal is a bounded ring: once `capacity` records are held, the
//! oldest is dropped (and counted). Faults only ever target recent,
//! undrained writes, so a few thousand records is plenty.

use crate::stats::AccessClass;
use crate::store::{Line, LineAddr};
use std::collections::VecDeque;

/// One journaled device write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteRecord {
    /// Global write sequence number (1-based, monotonically increasing).
    pub seq: u64,
    /// Target line.
    pub addr: LineAddr,
    /// Traffic class of the write.
    pub class: AccessClass,
    /// Line content before this write.
    pub pre_image: Line,
    /// Line content this write stored.
    pub new_line: Line,
    /// Absolute time the write retires from the write queue, ps.
    pub complete_at_ps: u64,
}

/// Bounded ring of [`WriteRecord`]s.
#[derive(Debug, Clone, Default)]
pub struct WriteJournal {
    capacity: usize,
    next_seq: u64,
    dropped: u64,
    records: VecDeque<WriteRecord>,
}

impl WriteJournal {
    /// Creates a journal holding at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "journal capacity must be positive");
        Self {
            capacity,
            next_seq: 0,
            dropped: 0,
            records: VecDeque::with_capacity(capacity),
        }
    }

    /// Appends a record, evicting the oldest when full. Returns the
    /// assigned sequence number.
    pub fn record(
        &mut self,
        addr: LineAddr,
        class: AccessClass,
        pre_image: Line,
        new_line: Line,
        complete_at_ps: u64,
    ) -> u64 {
        self.next_seq += 1;
        if self.records.len() >= self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(WriteRecord {
            seq: self.next_seq,
            addr,
            class,
            pre_image,
            new_line,
            complete_at_ps,
        });
        self.next_seq
    }

    /// Total writes journaled (including dropped ones).
    pub fn total_writes(&self) -> u64 {
        self.next_seq
    }

    /// Records evicted from the ring because of the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &WriteRecord> {
        self.records.iter()
    }

    /// Records still occupying write-queue slots at time `now_ps`
    /// (retirement strictly in the future), oldest first.
    pub fn undrained_at(&self, now_ps: u64) -> Vec<WriteRecord> {
        self.records
            .iter()
            .filter(|r| r.complete_at_ps > now_ps)
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(j: &mut WriteJournal, addr: u64, fill: u8, complete: u64) -> u64 {
        j.record(
            LineAddr::new(addr),
            AccessClass::Data,
            Line::ZERO,
            Line::filled(fill),
            complete,
        )
    }

    #[test]
    fn sequence_numbers_are_monotonic() {
        let mut j = WriteJournal::new(8);
        assert_eq!(rec(&mut j, 1, 1, 100), 1);
        assert_eq!(rec(&mut j, 2, 2, 200), 2);
        assert_eq!(j.total_writes(), 2);
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn ring_drops_oldest_past_capacity() {
        let mut j = WriteJournal::new(2);
        rec(&mut j, 1, 1, 100);
        rec(&mut j, 2, 2, 200);
        rec(&mut j, 3, 3, 300);
        assert_eq!(j.dropped(), 1);
        let seqs: Vec<u64> = j.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3]);
        assert_eq!(j.total_writes(), 3);
    }

    #[test]
    fn undrained_filters_by_completion_time() {
        let mut j = WriteJournal::new(8);
        rec(&mut j, 1, 1, 100);
        rec(&mut j, 2, 2, 5_000);
        rec(&mut j, 3, 3, 9_000);
        let pending = j.undrained_at(4_000);
        assert_eq!(pending.len(), 2);
        assert_eq!(pending[0].addr, LineAddr::new(2));
    }
}
