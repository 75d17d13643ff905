//! The preallocated ring-buffer recorder.

use crate::event::{CatMask, EventKind, TraceCategory, TraceEvent};
use crate::hist::Log2Hist;

/// The fixed set of log2 histograms a trace exports beside its events.
///
/// The NVM device builds it on demand (`NvmDevice::trace_histograms`):
/// the recorder's read latency, plus the write-stall and WPQ-depth
/// histograms of the device's always-on profiler when the
/// [`TraceCategory::Nvm`] category is traced, so each write observes
/// each histogram once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histograms {
    /// NVM read latency per device read, in picoseconds.
    pub read_latency_ps: Log2Hist,
    /// Write-queue admission stall per device write, in picoseconds.
    pub write_stall_ps: Log2Hist,
    /// Write-pending-queue depth sampled after each accepted write.
    pub wpq_depth: Log2Hist,
}

impl Histograms {
    /// Empty histograms.
    pub const fn new() -> Self {
        Self {
            read_latency_ps: Log2Hist::new(),
            write_stall_ps: Log2Hist::new(),
            wpq_depth: Log2Hist::new(),
        }
    }

    /// The histograms as `(name, hist)` pairs in export order.
    pub fn named(&self) -> [(&'static str, &Log2Hist); 3] {
        [
            ("read_latency_ps", &self.read_latency_ps),
            ("write_stall_ps", &self.write_stall_ps),
            ("wpq_depth", &self.wpq_depth),
        ]
    }
}

impl Default for Histograms {
    fn default() -> Self {
        Self::new()
    }
}

/// A preallocated ring-buffer event recorder behind a per-category
/// enable mask.
///
/// # Overhead guarantee
///
/// A disabled recorder ([`TraceRecorder::off`], the default embedded in
/// every component) has `mask == 0` and an empty, never-growing buffer.
/// Every emission helper first tests `mask & category` — one load, one
/// AND, one always-false predictable branch — and returns before
/// constructing the event, so tracing compiled in but switched off
/// perturbs neither timing counters nor any report byte.
///
/// # Determinism
///
/// The recorder never reads wall-clock time: callers stamp it with
/// simulated picoseconds via [`set_now`](TraceRecorder::set_now) or
/// pass explicit timestamps. When the ring wraps, the oldest events are
/// overwritten and counted in [`dropped`](TraceRecorder::dropped) —
/// also a pure function of the simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecorder {
    mask: u32,
    now_ps: u64,
    head: usize,
    dropped: u64,
    events: Vec<TraceEvent>,
    read_latency_ps: Log2Hist,
}

/// Ring capacity of an enabled recorder (events; 64 bytes each, so a
/// few MB per component).
pub const CAPACITY: usize = 1 << 16;

impl TraceRecorder {
    /// A disabled recorder: no categories, no buffer. This is `const`
    /// so components can embed it at zero initialization cost.
    pub const fn off() -> Self {
        Self {
            mask: 0,
            now_ps: 0,
            head: 0,
            dropped: 0,
            events: Vec::new(),
            read_latency_ps: Log2Hist::new(),
        }
    }

    /// Enables the categories in `mask` with a ring of [`CAPACITY`]
    /// events (preallocated here, never grown afterwards).
    pub fn enable(&mut self, mask: CatMask) {
        self.mask = mask.0;
        self.events = Vec::with_capacity(CAPACITY);
        self.head = 0;
        self.dropped = 0;
    }

    /// Whether any category is enabled.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.mask != 0
    }

    /// Whether `cat` is enabled.
    #[inline]
    pub fn enabled(&self, cat: TraceCategory) -> bool {
        self.mask & cat.bit() != 0
    }

    /// Sets the simulated clock used by the emission helpers.
    #[inline]
    pub fn set_now(&mut self, ps: u64) {
        self.now_ps = ps;
    }

    /// The simulated clock.
    #[inline]
    pub fn now_ps(&self) -> u64 {
        self.now_ps
    }

    #[inline]
    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() < CAPACITY {
            self.events.push(ev);
        } else {
            self.events[self.head] = ev;
            self.head = (self.head + 1) % CAPACITY;
            self.dropped += 1;
        }
    }

    /// Records an instant at the current clock.
    #[inline]
    pub fn instant(&mut self, cat: TraceCategory, name: &'static str, arg0: (&'static str, u64)) {
        if self.mask & cat.bit() == 0 {
            return;
        }
        self.push(TraceEvent {
            ts_ps: self.now_ps,
            dur_ps: 0,
            kind: EventKind::Instant,
            cat,
            name,
            arg0,
            arg1: ("", 0),
        });
    }

    /// Records an instant at the current clock with two payload args.
    #[inline]
    pub fn instant2(
        &mut self,
        cat: TraceCategory,
        name: &'static str,
        arg0: (&'static str, u64),
        arg1: (&'static str, u64),
    ) {
        if self.mask & cat.bit() == 0 {
            return;
        }
        self.push(TraceEvent {
            ts_ps: self.now_ps,
            dur_ps: 0,
            kind: EventKind::Instant,
            cat,
            name,
            arg0,
            arg1,
        });
    }

    /// Records a span `[start_ps, start_ps + dur_ps)`.
    #[inline]
    pub fn span(
        &mut self,
        cat: TraceCategory,
        name: &'static str,
        start_ps: u64,
        dur_ps: u64,
        arg0: (&'static str, u64),
        arg1: (&'static str, u64),
    ) {
        if self.mask & cat.bit() == 0 {
            return;
        }
        self.push(TraceEvent {
            ts_ps: start_ps,
            dur_ps,
            kind: EventKind::Span,
            cat,
            name,
            arg0,
            arg1,
        });
    }

    /// Records a counter sample at the current clock.
    #[inline]
    pub fn counter(&mut self, cat: TraceCategory, name: &'static str, value: u64) {
        if self.mask & cat.bit() == 0 {
            return;
        }
        self.push(TraceEvent {
            ts_ps: self.now_ps,
            dur_ps: 0,
            kind: EventKind::Counter,
            cat,
            name,
            arg0: (name, value),
            arg1: ("", 0),
        });
    }

    /// Observes an NVM read latency (gated on the `nvm` category).
    #[inline]
    pub fn observe_read_latency(&mut self, ps: u64) {
        if self.mask & TraceCategory::Nvm.bit() != 0 {
            self.read_latency_ps.observe(ps);
        }
    }

    /// The NVM read latencies observed while `nvm` was traced, in
    /// picoseconds.
    pub fn read_latency_ps(&self) -> &Log2Hist {
        &self.read_latency_ps
    }

    /// Events overwritten after the ring filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The buffered events in record order (accounting for ring wrap:
    /// oldest surviving event first).
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.events.len());
        out.extend_from_slice(&self.events[self.head..]);
        out.extend_from_slice(&self.events[..self.head]);
        out
    }
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_recorder_records_nothing() {
        let mut r = TraceRecorder::off();
        assert!(!r.is_on());
        r.set_now(10);
        r.instant(TraceCategory::Nvm, "x", ("a", 1));
        r.span(TraceCategory::Persist, "y", 0, 5, ("", 0), ("", 0));
        r.counter(TraceCategory::Nvm, "d", 3);
        r.observe_read_latency(100);
        assert!(r.is_empty());
        assert_eq!(r.read_latency_ps().count(), 0);
        assert_eq!(r.events.capacity(), 0, "off recorder never allocates");
    }

    #[test]
    fn mask_filters_categories() {
        let mut r = TraceRecorder::off();
        r.enable(CatMask::parse("nvm").unwrap());
        r.instant(TraceCategory::Nvm, "kept", ("", 0));
        r.instant(TraceCategory::Persist, "filtered", ("", 0));
        let evs = r.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].name, "kept");
    }

    #[test]
    fn ring_wraps_oldest_first() {
        let mut r = TraceRecorder::off();
        r.enable(CatMask::ALL);
        let n = CAPACITY as u64 + 2;
        for i in 0..n {
            r.set_now(i);
            r.counter(TraceCategory::Nvm, "c", i);
        }
        assert_eq!(r.dropped(), 2);
        let ts: Vec<u64> = r.events().iter().map(|e| e.ts_ps).collect();
        assert_eq!(
            ts,
            (2..n).collect::<Vec<u64>>(),
            "oldest surviving event first"
        );
    }

    #[test]
    fn read_latency_gates_on_nvm_bit() {
        let mut r = TraceRecorder::off();
        r.enable(CatMask::parse("persist").unwrap());
        r.observe_read_latency(7);
        assert_eq!(r.read_latency_ps().count(), 0);
        r.enable(CatMask::parse("nvm").unwrap());
        r.observe_read_latency(7);
        assert_eq!(r.read_latency_ps().count(), 1);
        assert_eq!(r.read_latency_ps().max(), 7);
    }
}
