//! The STAR secure memory controller and its baselines.
//!
//! This crate implements the paper's contribution: a memory controller
//! that encrypts user data with counter-mode encryption, protects
//! integrity with an SGX integrity tree (SIT, lazy update), and keeps the
//! security metadata **recoverable** after a crash. Four persistence
//! schemes are provided behind one engine ([`SecureMemory`]):
//!
//! * [`SchemeKind::WriteBack`] — the non-recoverable write-back baseline
//!   (the paper's *WB*);
//! * [`SchemeKind::Strict`] — write-through persistence of every changed
//!   node up to the root (no recovery needed, huge write amplification);
//! * [`SchemeKind::Anubis`] — a shadow table mirroring the metadata cache,
//!   one extra NVM write per memory write (the paper's state of the art);
//! * [`SchemeKind::Star`] — the paper's scheme: counter-MAC synergization
//!   (the 10 parent-counter LSBs ride in the spare bits of the persisted
//!   child's MAC field), bitmap lines in ADR with a multi-layer index for
//!   locating stale metadata, and a cache-tree for verifying recovery.
//!
//! Crash/recovery is modeled by consuming the engine into a
//! [`recovery::CrashImage`] (ADR flush included), optionally tampering
//! with it, and running [`recovery::recover`], which reproduces the
//! paper's recovery process and its 100 ns-per-line time model.
//!
//! ```
//! use star_core::{SecureMemory, SecureMemConfig, SchemeKind};
//!
//! let mut mem = SecureMemory::new(SchemeKind::Star, SecureMemConfig::small());
//! for i in 0..200 {
//!     mem.write_data(i % 50, i);
//!     mem.persist_data(i % 50);
//! }
//! let report = mem.crash_and_recover().expect("clean recovery");
//! assert!(report.verified && report.correct);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anubis;
pub mod config;
pub mod engine;
pub mod osiris;
pub mod persist;
pub mod recovery;
pub mod report;
pub mod star;
pub mod stats;
pub mod triad;

pub use config::{ConfigError, SchemeKind, SecureMemConfig, SecureMemConfigBuilder};
pub use engine::{set_test_alloc_injection, IntegrityError, SecureMemory};
pub use persist::{FaultKind, PersistPoint, PersistPointKind, Seizure};
pub use recovery::{
    recover, recover_traced, Attack, CrashImage, DowntimeLedger, DowntimeSpan, RecoveryError,
    RecoveryReport, NS_PER_LINE_ACCESS,
};
pub use star_trace::SCHEMA_VERSION;
pub use stats::Instrumented;
pub use stats::RunReport;
