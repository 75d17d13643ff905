//! The paper's evaluation workloads.
//!
//! Five persistent micro-benchmarks — **array**, **btree**, **hash**,
//! **queue**, **rbtree** — widely used across the persistent-memory
//! literature the paper cites, plus two WHISPER-style macro-benchmarks —
//! **tpcc** and **ycsb**. Each is a *real* Rust data structure operating
//! on a simulated persistent heap: every operation emits the
//! load/store/`clwb`/`sfence` reference stream a persistent-memory
//! program would issue, which is all the secure memory controller
//! observes.
//!
//! The workloads differ exactly where the paper's figures need them to:
//! the queue and log-structured macros have high spatial locality (STAR's
//! bitmap lines rarely spill), while array and hash scatter writes across
//! the heap (the paper's two worst cases for STAR's extra traffic).
//!
//! ```
//! use star_workloads::{Workload, WorkloadKind};
//! use star_mem::VecSink;
//!
//! let mut wl = WorkloadKind::Queue.instantiate(7);
//! let mut sink = VecSink::new();
//! wl.run(100, &mut sink);
//! assert!(sink.clwb_count() > 0, "persistent workloads persist");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod heap;
pub mod kind;
pub mod micro;
pub mod multi;
pub mod tpcc;
pub mod ycsb;
pub mod zipf;

pub use arrival::{LoadShape, OpenLoopArrivals};
pub use heap::{Pmem, VolatileSet};
pub use kind::WorkloadKind;
pub use multi::MultiThreaded;
pub use zipf::Zipfian;

use star_mem::TraceSink;

/// A benchmark that drives a [`TraceSink`] (usually the secure memory
/// engine) with its reference stream.
///
/// `Send` is a supertrait so a boxed workload can move into a worker
/// thread of the parallel sweep runner (`star-sweep`) together with the
/// engine it drives.
///
/// The unit of progress is one [`step`](Workload::step);
/// [`run`](Workload::run) is `ops` steps by definition (the provided
/// method). Crash-schedule exploration relies on this: its capture run
/// steps the workload op by op and stamps each seized crash point with
/// the number of steps completed before it, which only matches a replay
/// of `run` because `run` cannot do anything a sequence of `step`s
/// would not. Exploration also instantiates a workload afresh for every
/// run it makes, so a workload must be a deterministic function of its
/// construction.
pub trait Workload: Send {
    /// Short name, as the paper's figures label it.
    fn name(&self) -> &'static str;

    /// Executes one operation against `sink`.
    fn step(&mut self, sink: &mut dyn TraceSink);

    /// Executes `ops` operations against `sink`.
    fn run(&mut self, ops: usize, sink: &mut dyn TraceSink) {
        for _ in 0..ops {
            self.step(sink);
        }
    }
}
