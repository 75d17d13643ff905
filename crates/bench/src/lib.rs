//! The evaluation harness: runs workloads under every scheme and
//! reproduces the paper's tables and figures.
//!
//! The package's one binary, `star-bench`, is the command line for all of
//! it: its `figures` subcommand drives [`experiments`], each of which
//! returns a structured result that `figures` renders as the paper's
//! rows and records into `EXPERIMENTS.md` alongside the published values
//! ([`paper`] holds those constants). Its other subcommands run one
//! simulation (`sim`), a crash-schedule sweep (`faultsim`), the
//! [`baseline`] grid, the [`profbench`] profile, the differential
//! checker (`check`), the service grid (`serve`) and the sharded-engine
//! grid (`shard`).

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
