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
//! corruption; an integrity panic is a detected one.
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

use star_core::persist::CrashRequested;
use star_core::SecureMemConfig;
use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

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

static INSTALL_FILTER: Once = Once::new();

thread_local! {
    static QUIET_PANICS: Cell<u32> = const { Cell::new(0) };
}

/// Installs (once, process-wide) a panic hook that stays silent for the
/// panics fault injection provokes on purpose: [`CrashRequested`]
/// payloads, and anything raised while a `catch_quiet` scope is active
/// on the current thread. All other panics print as usual.
pub fn install_panic_filter() {
    INSTALL_FILTER.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().is::<CrashRequested>() || QUIET_PANICS.with(|q| q.get()) > 0 {
                return;
            }
            prev(info);
        }));
    });
}

/// `catch_unwind` with panic printing suppressed for the duration (used
/// for readback probes, where an integrity panic is an *expected*
/// classification signal, not a bug to report on stderr). Public so the
/// differential checker (`star-check`) can probe readbacks the same way.
pub fn catch_quiet<R>(f: impl FnOnce() -> R) -> Result<R, Box<dyn Any + Send>> {
    install_panic_filter();
    QUIET_PANICS.with(|q| q.set(q.get() + 1));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    QUIET_PANICS.with(|q| q.set(q.get() - 1));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catch_quiet_catches_and_stays_balanced() {
        let r = catch_quiet(|| panic!("expected"));
        assert!(r.is_err());
        QUIET_PANICS.with(|q| assert_eq!(q.get(), 0));
        assert_eq!(catch_quiet(|| 7).unwrap(), 7);
    }
}
