//! star-scope — wall-clock hot-path profiling for the STAR stack.
//!
//! Every other observability layer in this workspace measures *modeled*
//! quantities: star-trace stamps simulated picoseconds, star-prof counts
//! modeled NVM writes. Neither can answer "which component burns host
//! CPU and allocations per simulated op" — the question the
//! simulator-throughput campaign needs answered before attacking the
//! hot path. This crate is that missing instrument:
//!
//! * [`span!`] / [`SpanGuard`] — RAII scopes over [`std::time::Instant`]
//!   pushed onto a thread-local span stack. Each scope records inclusive
//!   and exclusive nanoseconds plus a call count into a **path-keyed**
//!   [`SpanTree`] (the path is the stack of span names, so `nvm/write`
//!   under `engine/persist` and under `engine/write_data` are distinct
//!   rows).
//! * [`StarAlloc`] — a `#[global_allocator]` wrapper around the system
//!   allocator that, when counting is switched on
//!   ([`set_alloc_counting`]), attributes allocation count and bytes to
//!   the active span through the same thread-local stack.
//! * [`ProfileReport`] — the path-keyed aggregate flattened into rows
//!   (DFS pre-order, children in name order) with three exports: a JSON
//!   body for the schema-versioned `perf-profile` report kind, a
//!   flamegraph-compatible collapsed-stack text file, and a top-N
//!   component table.
//!
//! # Cost model
//!
//! Profiling is **always compiled and cheap when off**: a disabled
//! [`SpanGuard::enter`] is one relaxed atomic load and returns an inert
//! guard; a disabled allocator hook is one relaxed atomic load on top of
//! the system allocator. No feature flags, so the instrumented hot paths
//! are the ones that actually ship.
//!
//! # Determinism contract
//!
//! The report **structure** — span paths, nesting, call counts — is a
//! pure function of the simulated work, because the simulator itself is
//! deterministic and span names are static. Timings and allocation
//! figures are host measurements and vary run to run. Downstream
//! consumers therefore compare structure (see
//! `ProfileReport::to_json` in scrubbed mode and
//! `scripts/validate_report.py`), never bytes of the timed fields.
//! Per-thread trees merge **key-ordered** (children sorted by name, and
//! merging is keyed addition), so the merged tree is independent of
//! worker-thread count and finish order: merge is commutative and
//! associative on the keyed values.
//!
//! # Example
//!
//! ```
//! star_scope::reset();
//! star_scope::enable();
//! {
//!     star_scope::span!("outer");
//!     star_scope::span!("inner");
//!     std::hint::black_box(1 + 1);
//! }
//! star_scope::disable();
//! let tree = star_scope::collect();
//! let report = star_scope::ProfileReport::build(&tree, tree.attributed_ns(), 1);
//! assert_eq!(report.rows[0].path, "outer");
//! assert_eq!(report.rows[1].path, "outer;inner");
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod report;
pub mod span;
pub mod tree;

pub use alloc::{alloc_counting, set_alloc_counting, StarAlloc};
pub use report::{ProfileReport, SpanRow};
pub use span::{collect, disable, enable, enabled, reset, SpanGuard};
pub use tree::{SpanSample, SpanTree};

/// Opens a profiling span that closes at the end of the enclosing scope.
///
/// The argument must be a `&'static str` span name. When profiling is
/// disabled ([`enabled`] is false) the expansion costs one relaxed
/// atomic load. Expansions are hygienic: two `span!` calls in one scope
/// do not collide, and the later one nests inside the earlier one for
/// the rest of the scope.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        let _star_scope_span = $crate::SpanGuard::enter($name);
    };
}
