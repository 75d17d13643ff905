//! The evaluation harness: runs workloads under every scheme and
//! reproduces the paper's tables and figures.
//!
//! The `figures` binary drives [`experiments`]; each experiment returns a
//! structured result the binary renders as the paper's rows and records
//! into `EXPERIMENTS.md` alongside the published values
//! ([`paper`] holds those constants).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod experiments;
pub mod harness;
pub mod paper;
pub mod profbench;

pub use baseline::{run_baseline, BaselineConfig, BaselineReport};
pub use harness::{run_scheme, run_scheme_traced, CrashOutcome, ExperimentConfig, RunTrace};
pub use profbench::{run_prof_bench, ProfBench, ProfComponent, ProfRun, PROF_TOP_N};
