//! Executable reference model and property-based differential checker.
//!
//! The repo's four engine schemes (WB / Strict / Anubis / STAR) plus
//! Triad all claim the same thing about the security-metadata state
//! machine: whatever the program did, the post-crash recovered state
//! verifies and equals exactly what was durably committed. This crate
//! turns that claim into a property checked against an executable
//! specification:
//!
//! * [`RefModel`] — an idealized, always-instantly-persisted model of
//!   the data state machine, small enough to be obviously correct. It
//!   pins exact fault-free semantics (reads, final state) and bounds
//!   everything cache-dependent (durable versions, L0 counters).
//! * [`Program`] — the checker's input in the engine's own types: a
//!   [`star_core::SecureMemConfig`], a [`star_mem::MemEvent`] stream
//!   and a [`CrashSpec`]. Its JSON repro ([`Program::to_json`] /
//!   [`Program::from_json`]) is the one saved form of an event stream.
//! * [`generate`] — a seeded generator expanding `(seed, case)` into a
//!   randomized write/persist/read/fence/crash [`Program`] over a
//!   table of small validated geometries.
//! * [`check_program`] — the differential harness: each program runs
//!   through every scheme engine (non-read events through the engine's
//!   `on_event`, as any workload drives it) and Triad; post-recovery
//!   verified state, stale-set coverage and the invariant set
//!   (per-cause write sums, monotone counters, no silent corruption)
//!   are compared against the model and the persist-point log oracle.
//! * [`shrink_ops`] — greedy delta-debugging to a minimal failing
//!   program; every failure carries a replayable JSON repro.
//!
//! The CLI lives in `star-bench` (`star-bench check --seed S --cases N
//! --jobs J`); the report is byte-identical for every pool size via
//! `star-sweep`'s deterministic merge.
//!
//! ```
//! use star_check::{check_program, generate, GenConfig};
//!
//! let program = generate(1, 0, &GenConfig { min_ops: 8, max_ops: 16 });
//! assert!(check_program(&program).is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod harness;
pub mod model;
pub mod program;
pub mod report;
pub mod shrink;

pub use gen::{generate, GenConfig};
pub use harness::{check_program, check_program_scheme, check_triad, find_silent_crash, Violation};
pub use model::{LineModel, RefModel};
pub use program::{CrashSpec, Program, ProgramWorkload};
pub use report::{run_check, CaseOutcome, CheckConfig, CheckReport};
pub use shrink::shrink_ops;
