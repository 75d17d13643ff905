//! Deterministic structured tracing and metrics for the STAR stack.
//!
//! The simulation's headline claims — write-traffic reduction, ~0.03 s
//! recovery, counter-MAC synergization hiding parent persists — are
//! *temporal* claims, but the end-of-run aggregates in
//! `star_core::stats` / `star_nvm::stats` flatten them away. This crate
//! is the shared observability layer underneath every runtime crate:
//!
//! * [`event`] — the typed event vocabulary (persist points, metadata
//!   cache traffic, NVM device reads/writes and WPQ depth, bitmap ADR
//!   hits/spills, CPU cache hierarchy traffic, recovery phases,
//!   injected faults) and the per-category enable mask.
//! * [`record`] — [`TraceRecorder`], a preallocated ring buffer behind
//!   a single mask branch, plus the NVM read-latency histogram, and
//!   [`Histograms`], the exported set (the device adds the write-stall
//!   and WPQ-depth histograms its always-on profiler records). A
//!   disabled recorder costs one predictable, always-false branch per
//!   emission site and allocates nothing.
//! * [`hist`] — [`Log2Hist`], the power-of-two bucket histogram.
//! * [`export`] — key-ordered merge of per-component buffers and the
//!   versioned JSONL / Chrome trace-event (Perfetto-loadable) documents.
//! * [`json`] — the workspace's one JSON codec: the [`Json`] writer
//!   every report and trace goes through, the [`JsonValue`] parser that
//!   reads them back, and [`SCHEMA_VERSION`] with its history.
//!
//! # Determinism contract
//!
//! Events are stamped with **simulated picoseconds only** — never wall
//! clock, never host thread identity. Buffers merge in a fixed
//! component order with a stable sort on the timestamp, so a trace is a
//! pure function of (scheme, workload, seed, config): byte-identical
//! across consecutive runs and across any host-parallelism level of the
//! sweep runners (see `star_sweep`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod hist;
pub mod json;
pub mod record;

pub use event::{CatMask, EventKind, ParseCatError, TraceCategory, TraceEvent};
pub use export::{merge, trace_to_chrome_json, trace_to_jsonl, TracePart};
pub use hist::Log2Hist;
pub use json::{Json, JsonParseError, JsonValue, SCHEMA_VERSION};
pub use record::{Histograms, TraceRecorder};
