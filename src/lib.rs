//! # STAR: write-friendly, fast-recovery security metadata for NVM
//!
//! This is the facade crate of a reproduction of *"A Write-Friendly and
//! Fast-Recovery Scheme for Security Metadata in Non-Volatile Memories"*
//! (Huang & Hua, HPCA 2021). It re-exports the whole workspace:
//!
//! * [`crypto`] — AES-128 CTR one-time pads, SHA-256, SipHash-2-4 and the
//!   54-bit truncated MACs used throughout the secure-memory model.
//! * [`nvm`] — an event-driven PCM device model (banks, queues, timing,
//!   energy) with a sparse 16 GB line store and an ADR region.
//! * [`mem`] — a trace-driven cache hierarchy and a simple analytic core
//!   model that turns memory stalls into IPC.
//! * [`metadata`] — 64-byte security-metadata node formats, the SGX
//!   integrity tree (SIT) geometry and engines, and a Bonsai Merkle tree.
//! * [`core`] — the secure memory controller with four persistence schemes
//!   (write-back, strict, Anubis, STAR), crash snapshots and recovery.
//! * [`workloads`] — the five persistent micro-benchmarks and two WHISPER
//!   style macro-benchmarks used by the paper's evaluation.
//! * [`trace`] — deterministic structured tracing and metrics: typed
//!   simulated-time events, preallocated ring-buffer recorders that cost
//!   one branch when off, and JSONL / Chrome trace-event exporters
//!   (DESIGN.md §9).
//! * [`prof`] — always-on write-provenance accounting: every NVM write is
//!   tagged with a [`prof::WriteCause`] at its origin, aggregated into
//!   per-cause/per-bank matrices, wear and write-rate histograms, and the
//!   report's `"prof"` object (DESIGN.md §9).
//! * [`serve`] — an open-loop discrete-event secure-KV service simulator:
//!   multi-tenant zipfian traffic with diurnal/burst load shapes on one
//!   store or a fleet of lanes (a single store is the one-lane case),
//!   crash plans that turn recovery time into user-visible
//!   unavailability, and `serve` reports (a kind added in schema 5,
//!   emitted as v7) with p50/p99/p999 latency per scheme, tenant and,
//!   for a fleet, lane (DESIGN.md §11, §13).
//! * [`scope`] — a host wall-clock profiler: RAII spans
//!   aggregated into a deterministic path-keyed tree (inclusive/exclusive
//!   time, call counts, per-span allocation accounting through an opt-in
//!   counting global allocator), merged key-ordered across worker
//!   threads, exported as the schema-v7 `perf-profile` document and
//!   flamegraph-compatible collapsed stacks (DESIGN.md §14).
//! * [`shard`] — a sharded concurrent secure-memory engine: a fixed
//!   population of lane-partitioned metadata domains on lane-derived
//!   SplitMix64 streams, each lane run to completion as one job on one
//!   worker pool (`star-bench shard --jobs J`), with key-ordered merges
//!   that keep the whole `shard` report (added in schema 6, emitted as
//!   v7) byte-identical at any pool size (DESIGN.md §13).
//!
//! # Quickstart
//!
//! ```
//! use star::core::{SecureMemory, SecureMemConfig, SchemeKind};
//! use star::workloads::{Workload, WorkloadKind};
//!
//! let cfg = SecureMemConfig::default();
//! let mut mem = SecureMemory::new(SchemeKind::Star, cfg);
//! let mut wl = WorkloadKind::Array.instantiate(42);
//! wl.run(1_000, &mut mem);
//! let report = mem.crash_and_recover().expect("recovery verifies");
//! assert!(report.verified);
//! ```

pub use star_core as core;
pub use star_crypto as crypto;
pub use star_mem as mem;
pub use star_metadata as metadata;
pub use star_nvm as nvm;
pub use star_prof as prof;
pub use star_scope as scope;
pub use star_serve as serve;
pub use star_shard as shard;
pub use star_trace as trace;
pub use star_workloads as workloads;
