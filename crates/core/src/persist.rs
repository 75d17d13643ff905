//! Persist-point instrumentation of the engine's durable transitions.
//!
//! The controller performs each durable state change as a small
//! *transaction*: the NVM line write together with the on-controller
//! bookkeeping that the paper's ADR/WPQ assumptions make atomic with it
//! (counter bump in the metadata cache, bitmap-bit set in ADR, shadow-
//! table write entering the WPQ). A **persist point** is the commit
//! boundary of one such transaction — the only instants a power failure
//! can actually observe, because writes accepted into the ADR-protected
//! write-pending queue are durable by assumption.
//!
//! [`SecureMemory`](crate::SecureMemory) numbers these points with a
//! monotonically increasing sequence and can
//!
//! * log them ([`enable_persist_log`](crate::SecureMemory::enable_persist_log))
//!   so a schedule explorer learns the schedule of a
//!   (workload, scheme, seed) run,
//! * seize what a crash at each of a list of points would leave behind
//!   ([`seize_at`](crate::SecureMemory::seize_at), or at every point with
//!   [`seize_all`](crate::SecureMemory::seize_all), drained with
//!   [`take_seized`](crate::SecureMemory::take_seized)) while the run
//!   goes on: one [`Seizure`] per point, built by the same code as
//!   [`crash`](crate::SecureMemory::crash) over a frozen, shared copy of
//!   the line store, and
//! * crash at point *k* ([`arm`](crate::SecureMemory::arm)): the engine
//!   stops there, latches the point
//!   ([`crashed_at`](crate::SecureMemory::crashed_at)) and ignores every
//!   later event, so the caller that stepped the run to the point calls
//!   [`crash`](crate::SecureMemory::crash) on the stopped engine for the
//!   [`CrashImage`].
//!
//! All are off by default: the hot path pays a branch or two per commit
//! and the timing model is untouched, so figures regenerated with hooks
//! disabled are identical to the seed's.
//!
//! Faults *below* the commit granularity (a torn 64-byte line, writes
//! dropped from a non-ADR write queue) are modeled in `star-nvm`'s
//! [`WriteJournal`](star_nvm::WriteJournal), which records pre-images and
//! queue-retirement times for every device write.

use crate::recovery::CrashImage;
use star_nvm::WriteRecord;

/// What kind of durable transition a persist point commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistPointKind {
    /// A user-data line write committed, together with its parent-counter
    /// bump and the scheme's dirty-tracking hook (STAR bitmap bit /
    /// Anubis shadow-table entry).
    DataLineCommit {
        /// User-data line index.
        line: u64,
        /// Program-visible version stored by this write.
        version: u64,
    },
    /// An evicted dirty metadata node was persisted (lazy write-back).
    NodeWriteback {
        /// Flat metadata index of the written node.
        flat: u64,
    },
    /// A node whose counter-LSB window was exhausted was flushed in
    /// place (STAR's forced flush, paper §III-B).
    ForcedFlush {
        /// Flat metadata index of the flushed node.
        flat: u64,
    },
    /// One node of a strict write-through persist chain was written.
    /// Strict commits per line, not per branch, so a crash between two
    /// chain nodes is observable (and must never be *silent*).
    StrictChainNode {
        /// Flat metadata index of the written node.
        flat: u64,
    },
}

impl PersistPointKind {
    /// The kind's label in traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            PersistPointKind::DataLineCommit { .. } => "data-line-commit",
            PersistPointKind::NodeWriteback { .. } => "node-writeback",
            PersistPointKind::ForcedFlush { .. } => "forced-flush",
            PersistPointKind::StrictChainNode { .. } => "strict-chain-node",
        }
    }
}

/// A numbered persist point (sequence numbers start at 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistPoint {
    /// Position in the run's persist schedule.
    pub seq: u64,
    /// The committed transition.
    pub kind: PersistPointKind,
}

/// What a crash at one persist point leaves behind, taken in-line by an
/// engine armed with [`seize_at`](crate::SecureMemory::seize_at) or
/// [`seize_all`](crate::SecureMemory::seize_all) while its run goes on.
///
/// It holds exactly what [`crash`](crate::SecureMemory::crash) would
/// return at that instant, plus the two volatile facts a fault driver
/// needs and the image cannot carry: the simulated clock and the write
/// journal's view of the writes still in the queue.
#[derive(Debug, Clone)]
pub struct Seizure {
    /// The point seized: its sequence number and what it committed.
    pub crash: PersistPoint,
    /// Simulated clock at the point.
    pub now_ps: u64,
    /// The write journal's undrained records at the point, oldest first
    /// (empty when the journal is off) — the targets of sub-line faults.
    pub undrained: Vec<WriteRecord>,
    /// The post-ADR-flush image over a frozen copy of the line store.
    pub image: CrashImage,
}

/// The fault injected together with a crash — what the failure does to
/// the medium beyond losing volatile state.
///
/// This is pure data the engine never sees: `star-faultsim` applies it
/// to the [`CrashImage`] *after* the ADR battery flush, i.e. to what
/// physically remains in NVM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A clean power failure under the paper's fault model: the ADR
    /// domain (write-pending queue + bitmap lines) is flushed, nothing
    /// else is damaged. Every recoverable scheme must turn every such
    /// case into a recovered state or at worst a *detected* loss
    /// (Strict mid-chain).
    CrashOnly,
    /// Platform **without** ADR: up to `max_entries` of the newest writes
    /// still occupying write-queue slots at crash time are lost (their
    /// pre-images reappear). This deliberately violates the assumption
    /// STAR builds on; losing a *consistent suffix* of writes rolls the
    /// world back undetectably, so silent-corruption outcomes here
    /// demonstrate why ADR is load-bearing rather than indicating a
    /// scheme bug.
    DropWpq {
        /// Maximum undrained entries to drop (newest first).
        max_entries: usize,
    },
    /// The most recent in-flight write tears: the first 32 bytes of the
    /// new content land, the last 32 bytes (which hold the MAC field)
    /// keep their pre-image. Must never be silent.
    TornWrite,
    /// Flip bit `bit % 64` of the stored MAC field of the most recently
    /// committed data line — straight tampering; must be detected.
    FlipMacBit {
        /// Which MAC-field bit to flip.
        bit: u32,
    },
    /// Flip bit `bit % 448` in the stored counter block covering the most
    /// recently committed data line (its parent node's NVM copy) — the
    /// counters recovery consumes; must be detected.
    FlipCounterBit {
        /// Which counter-region bit to flip.
        bit: u32,
    },
}

impl FaultKind {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::CrashOnly => "crash-only",
            FaultKind::DropWpq { .. } => "drop-wpq",
            FaultKind::TornWrite => "torn-write",
            FaultKind::FlipMacBit { .. } => "flip-mac-bit",
            FaultKind::FlipCounterBit { .. } => "flip-counter-bit",
        }
    }
}

impl core::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Traces and explore reports carry these labels; a rename moves
    /// their bytes.
    #[test]
    fn persist_point_labels_are_pinned() {
        let labels = [
            PersistPointKind::DataLineCommit {
                line: 1,
                version: 2,
            },
            PersistPointKind::NodeWriteback { flat: 3 },
            PersistPointKind::ForcedFlush { flat: 4 },
            PersistPointKind::StrictChainNode { flat: 5 },
        ]
        .map(PersistPointKind::label);
        assert_eq!(
            labels,
            [
                "data-line-commit",
                "node-writeback",
                "forced-flush",
                "strict-chain-node"
            ]
        );
    }
}
