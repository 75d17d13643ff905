//! Deterministic fault injection and crash-schedule exploration.
//!
//! The paper's recovery argument is a claim about *every* crash point,
//! not just the ones a demo happens to exercise: whichever persist point
//! a power failure lands on — including between a data-line write and
//! the later write-back of its (coalesced) parent counter/MAC node —
//! recovery must either restore the exact pre-crash state or *detect*
//! that it cannot. This crate turns that claim into a checkable,
//! machine-readable property:
//!
//! 1. **Persist points** — `star-core` numbers every durable transition
//!    (see `star_core::persist`); a dry run under a (workload, scheme,
//!    seed) triple yields the complete persist schedule.
//! 2. **Fault plans** — [`FaultKind`] describes what the failure does on
//!    top of the crash: nothing ([`FaultKind::CrashOnly`], the paper's
//!    ADR fault model), losing undrained write-queue entries
//!    ([`FaultKind::DropWpq`], the model *without* ADR), tearing a 64-byte
//!    line mid-write ([`FaultKind::TornWrite`]), or flipping stored
//!    MAC/counter bits ([`FaultKind::FlipMacBit`],
//!    [`FaultKind::FlipCounterBit`]).
//! 3. **Exploration** — [`CrashExplorer`] executes the run **once**,
//!    seizing the crash image in-line at each chosen schedule point
//!    (exhaustively below a case budget, seeded-random sampling above)
//!    without stopping or cloning the machine, runs the scheme's
//!    recovery on each [`ForkPoint`], and classifies each case as
//!    [`Outcome::Recovered`], [`Outcome::DetectedTamper`] or
//!    [`Outcome::SilentCorruption`] — the last being a test failure for
//!    every recoverable scheme under the paper's fault model. The
//!    O(ops × cases) replay strategy ([`ExploreStrategy::Replay`]), which
//!    reaches each point by crashing a fresh run there, is kept as the
//!    oracle the fork strategy is byte-identical to.
//!
//! Classification is grounded in a **readback oracle**: the persist log
//! tells us exactly which data version was durable at the crash point,
//! so after recovery a fresh engine ([`case::readback_engine`]) boots
//! from the image and reads every committed line back through the full
//! verify-and-decrypt path. A wrong value that *verifies* is silent
//! corruption; a read that returns an
//! [`IntegrityError`](star_core::IntegrityError) is a detected one.
//!
//! ```
//! use star_core::SchemeKind;
//! use star_faultsim::{CrashExplorer, FaultKind, Outcome};
//! use star_workloads::WorkloadKind;
//!
//! let report = CrashExplorer::new(SchemeKind::Star, WorkloadKind::Array, 40, 7).explore();
//! assert!(report.total_points > 0);
//! assert_eq!(report.count(Outcome::SilentCorruption), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod case;
pub mod explore;
pub mod fault;
pub mod report;

pub use case::{committed_versions, CaseResult, CaseTrace, FaultCase, ForkPoint, Outcome};
pub use explore::{CrashExplorer, ExploreStrategy};
pub use fault::FaultKind;
pub use report::ExploreReport;

use star_core::SecureMemConfig;

/// The engine configuration exploration uses: the data region covers
/// the whole 64 MB workload heap, while the metadata cache is kept
/// small (4 KB) so even short runs produce evictions — and therefore
/// `NodeWriteback` persist points — worth crashing on.
pub fn faultsim_config() -> SecureMemConfig {
    SecureMemConfig::builder()
        .data_lines(star_workloads::micro::HEAP_BASE + star_workloads::micro::HEAP_LINES)
        .metadata_cache_bytes(4 << 10)
        .metadata_cache_ways(4)
        .adr_bitmap_lines(4)
        .build()
        .expect("faultsim geometry is consistent")
}
