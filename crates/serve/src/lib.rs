//! star-serve: a long-running secure-KV service simulation.
//!
//! The paper evaluates STAR on fixed-length kernels, but its headline
//! claim — fast recovery with few extra writes — only matters in a
//! *service* context where recovery time is user-visible downtime. This
//! crate promotes the KV-store example into an open-loop, discrete-event
//! service simulator:
//!
//! * **Tenants** ([`scenario`]) offer zipfian GET/PUT mixes at
//!   individually shaped rates — diurnal sinusoids, burst storms — via
//!   the nonhomogeneous Poisson arrival streams of
//!   [`star_workloads::arrival`].
//! * **The front-end** ([`kv`]) serves each request against a secure
//!   memory backend (the four engine schemes, or Triad-NVM) on simulated
//!   time: a request's service time is the backend's modeled clock delta,
//!   and a single-server FIFO queue turns service time plus load into a
//!   real per-request latency distribution.
//! * **The crash plan** injects power failures mid-stream; each failure
//!   runs the scheme's `recover()` on the same clock, and the resulting
//!   dead time lands in a [`star_core::DowntimeLedger`] as user-visible
//!   unavailability. Requests arriving during an outage queue up behind
//!   it, so schemes with slow recovery pay twice: in downtime seconds
//!   *and* in post-recovery tail latency.
//! * **The report** ([`report`]) emits the `serve` document (a kind
//!   added in schema 5, emitted as v7) — per-scheme/per-tenant
//!   p50/p99/p999 latency (via the shared
//!   [`star_trace::Log2Hist`] quantiles), goodput, unavailability, the
//!   recovery-time breakdown of every outage, and wear/energy over the
//!   whole horizon — with scheme×scenario grids dispatched over
//!   [`star_sweep`], so report bytes are identical at any thread count.
//! * **The sharded backend** ([`shard`]) partitions the store into
//!   lanes (independent security-metadata domains, star-shard's unit of
//!   crash blast radius): tenants are placed on lanes, each lane runs
//!   its own queue and its own crash/recover, and the `serve-shard`
//!   document (added in schema 6, emitted as v7) carries per-lane
//!   request and downtime ledgers — hot-shard and skewed-placement
//!   scenarios included.
//!
//! ```
//! use star_serve::{simulate, standard_scenarios, ServeConfig, ServeScheme};
//!
//! let cfg = ServeConfig::quick(5); // 5 simulated seconds
//! let scenario = &standard_scenarios(&cfg)[0];
//! let out = simulate(ServeScheme::Star, scenario, &cfg);
//! assert_eq!(out.requests, out.tenants.iter().map(|t| t.requests).sum());
//! assert_eq!(out.unavailability_ns(), out.downtime.total_ns());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kv;
pub mod report;
pub mod scenario;
pub mod shard;
pub mod sim;

pub use kv::{HorizonTotals, SecureKv};
pub use report::{run_grid, ServeGridReport};
pub use scenario::{
    standard_scenarios, standard_scenarios_at, Scenario, ServeConfig, ServeScheme, TenantSpec,
};
pub use shard::{
    run_sharded_grid, shard_scenarios, simulate_sharded, LaneServeStats, ShardScenario,
    ShardServeGridReport, ShardServeOutcome,
};
pub use sim::{simulate, ServeOutcome, TenantStats};
