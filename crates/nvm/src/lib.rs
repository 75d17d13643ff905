//! An event-driven PCM main-memory model.
//!
//! This crate stands in for NVMain in the paper's Gem5+NVMain evaluation
//! stack. It models what the paper's metrics actually depend on:
//!
//! * a **sparse 64-byte line store** over a 16 GB physical address space
//!   ([`store::LineStore`]) — untouched lines are not materialized;
//! * **DDR-PCM timing** with the paper's Table I latencies
//!   ([`timings::PcmTimings`]), per-bank occupancy, a bounded write queue
//!   with read-priority (writes stall the core only when the queue fills),
//!   a four-activation window (tFAW) and write-to-read turnaround (tWTR)
//!   ([`device::NvmDevice`]);
//! * **asymmetric read/write energy** accounting ([`energy::EnergyModel`]);
//! * always-on **write provenance**: every write is tagged with a
//!   [`WriteCause`] at its origin and aggregated per cause, per bank and
//!   per time window by the embedded [`star_prof::WriteProfiler`];
//! * an **ADR region** — the battery-backed staging area in the memory
//!   controller that survives a crash ([`adr::AdrRegion`]);
//! * access **statistics by traffic class** ([`stats::NvmStats`]) so the
//!   harness can split data, metadata, bitmap-line and shadow-table
//!   traffic exactly as the paper's figures do.
//!
//! Time is in integer **picoseconds** so event ordering is exact.
//!
//! ```
//! use star_nvm::{NvmDevice, NvmConfig, AccessClass, Line, LineAddr, WriteCause};
//!
//! let mut nvm = NvmDevice::new(NvmConfig::default());
//! let addr = LineAddr::new(42);
//! nvm.write(addr, Line::filled(7), WriteCause::Data, 0);
//! let read = nvm.read(addr, AccessClass::Data, 1_000_000);
//! assert_eq!(read.data, Line::filled(7));
//! assert_eq!(nvm.stats().writes(AccessClass::Data), 1);
//! assert_eq!(nvm.prof_summary().count(WriteCause::Data), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adr;
pub mod device;
pub mod energy;
pub mod journal;
pub mod stats;
pub mod store;
pub mod timings;
pub mod wear;

pub use adr::AdrRegion;
pub use device::{NvmConfig, NvmDevice, ReadOutcome, WriteOutcome};
pub use energy::EnergyModel;
pub use journal::{WriteJournal, WriteRecord};
pub use star_prof::{ProfSummary, WriteCause, WriteProfiler};
pub use stats::{AccessClass, NvmStats};
pub use store::{Line, LineAddr, LineStore, PageHash, PageHasher};
pub use timings::PcmTimings;
pub use wear::{WearSummary, WearTracker};

/// Size of a memory line / cache block in bytes (paper: 64 B everywhere).
pub const LINE_BYTES: usize = 64;

/// Picoseconds per nanosecond, for timing conversions.
pub const PS_PER_NS: u64 = 1_000;
