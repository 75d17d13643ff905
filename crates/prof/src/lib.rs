//! Always-on write-provenance profiling.
//!
//! Where [`star_trace`] records *timelines* (and costs nothing only while
//! switched off), this crate *aggregates* at the same emission sites and
//! is always on: every NVM write is tagged at its origin with a
//! [`WriteCause`] and folded into fixed-size counters — per-cause totals,
//! per-bank heat, log2 wear buckets, and a windowed time series over
//! simulated time. The result ([`ProfSummary`]) is a pure function of the
//! simulated run, so its JSON/CSV exports are byte-identical across
//! repeated runs and any `--jobs` count.
//!
//! The cause taxonomy mirrors the paper's write-breakdown arguments
//! (Fig. 11/12): STAR wins *because* it eliminates specific categories of
//! traffic — extra counter-block persists (Strict), shadow-table writes
//! (Anubis), BMT level write-through (Triad-NVM) — and the per-cause
//! matrix is what lets a report say which category moved.
//!
//! The crate is dependency-free (only `star-trace`, itself
//! dependency-free, for the shared [`star_trace::Log2Hist`] and JSON encoders) and
//! also hosts the minimal JSON *parser* ([`jsonv::JsonValue`]) that
//! star-check's repro loader and the schema tests read reports with.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cause;
pub mod jsonv;
pub mod profiler;

pub use cause::WriteCause;
pub use jsonv::{JsonParseError, JsonValue};
pub use profiler::{ProfSummary, WriteProfiler};
