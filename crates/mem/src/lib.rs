//! Trace-driven memory hierarchy and analytic core model.
//!
//! This crate stands in for Gem5's CPU and cache models. It provides:
//!
//! * [`events`] — the memory-reference trace vocabulary emitted by the
//!   workloads: reads, writes, `clwb` persists, fences and instruction
//!   batches ([`MemEvent`]), with a recording sink ([`VecSink`]) and
//!   locality statistics ([`TraceStats`]). A recorded stream is saved
//!   as a star-check repro, the one saved form of an event stream.
//! * [`cache`] — a generic set-associative, write-back, LRU cache
//!   ([`cache::SetAssocCache`]) used both for the CPU cache levels and for
//!   the security-metadata cache in the memory controller.
//! * [`hierarchy`] — a three-level inclusive hierarchy that filters the
//!   trace down to the memory-side operations (fills and write-backs) that
//!   actually reach the memory controller.
//! * [`core_model`] — [`core_model::SimpleCore`], an analytic timing model
//!   that converts instruction counts, blocking read latencies and
//!   write-queue stalls into cycles and IPC.
//!
//! The paper evaluates 8-core runs but reports only *relative* IPC
//! (normalized to the write-back baseline); the analytic single-stream
//! model preserves those ratios because every scheme sees the same
//! instruction stream and differs only in memory stalls.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod core_model;
pub mod events;
pub mod hierarchy;

pub use cache::{Evicted, InsertOutcome, SetAssocCache};
pub use core_model::{CoreConfig, SimpleCore};
pub use events::{MemEvent, TraceSink, TraceStats, VecSink};
pub use hierarchy::{CacheHierarchy, HierarchyConfig, MemSideOp};
