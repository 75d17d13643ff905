//! The PCM device: banks, write queue, scheduling and the line store.
//!
//! The model is event-driven at request granularity. The caller supplies
//! the current core time with every request; the device returns completion
//! (for reads) or acceptance (for writes) times and accumulates stall and
//! energy statistics. Scheduling policy:
//!
//! * **Reads have priority.** A read is serviced as soon as its bank is
//!   free; pending queued writes to other banks do not delay it.
//! * **Writes are posted.** A write enters the bounded write queue and
//!   retires in the background (bank occupancy [`PcmTimings::write_occupancy_ps`]).
//!   The core only stalls when the queue is full — the classic
//!   write-queue-pressure mechanism by which extra metadata writes
//!   (Anubis's shadow table, strict persistence) degrade IPC.
//! * **tWTR** is charged when a read follows a write on the same bank, and
//!   **tFAW** limits activation bursts device-wide.

use crate::energy::EnergyModel;
use crate::journal::WriteJournal;
use crate::stats::{AccessClass, NvmStats};
use crate::store::{Line, LineAddr, LineStore};
use crate::timings::PcmTimings;
use crate::wear::WearTracker;
use star_prof::{ProfSummary, WriteCause, WriteProfiler};
use star_trace::{Histograms, TraceCategory, TraceRecorder};
use std::collections::VecDeque;

/// Configuration of an [`NvmDevice`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NvmConfig {
    /// Timing parameters (paper Table I defaults).
    pub timings: PcmTimings,
    /// Energy parameters.
    pub energy: EnergyModel,
    /// Number of banks (address-interleaved at line granularity).
    pub banks: usize,
    /// Write-queue capacity; the core stalls when it is full.
    pub write_queue_capacity: usize,
    /// Width of the write-provenance profiler's time-series window in
    /// simulated microseconds (see [`star_prof::WriteProfiler`]).
    pub prof_window_us: u64,
}

impl Default for NvmConfig {
    fn default() -> Self {
        Self {
            timings: PcmTimings::default(),
            energy: EnergyModel::default(),
            banks: 32,
            write_queue_capacity: 64,
            prof_window_us: 100,
        }
    }
}

/// Per-bank scheduling state.
#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    /// Time at which the bank finishes its current operation.
    free_at_ps: u64,
    /// Completion time of the last *write* on this bank (for tWTR).
    last_write_end_ps: u64,
}

/// Result of a read request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadOutcome {
    /// The line content.
    pub data: Line,
    /// Absolute time the data is available, ps.
    pub complete_at_ps: u64,
    /// Latency seen by the requester, ps.
    pub latency_ps: u64,
}

/// Result of a write request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Time the write was accepted into the queue (equals the request time
    /// unless the queue was full), ps.
    pub accepted_at_ps: u64,
    /// How long the requester stalled waiting for a queue slot, ps.
    pub stall_ps: u64,
}

/// The PCM device model.
#[derive(Debug, Clone)]
pub struct NvmDevice {
    cfg: NvmConfig,
    store: LineStore,
    banks: Vec<Bank>,
    /// Completion times of writes currently occupying queue slots, sorted
    /// ascending (VecDeque front = earliest retirement).
    inflight_writes: VecDeque<u64>,
    /// Recent activation start times for the tFAW window.
    recent_activations: VecDeque<u64>,
    stats: NvmStats,
    wear: WearTracker,
    /// Always-on write-provenance aggregation (per-cause, per-bank,
    /// windowed time series; see [`star_prof`]).
    prof: WriteProfiler,
    /// Optional write journal for fault injection; `None` (free) by default.
    journal: Option<WriteJournal>,
    /// Structured event recorder; disabled (one dead branch per request)
    /// by default. Bitmap code records its ADR/RA events here too.
    trace: TraceRecorder,
}

impl NvmDevice {
    /// Creates a device with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `banks` or `write_queue_capacity` is zero.
    pub fn new(cfg: NvmConfig) -> Self {
        assert!(cfg.banks > 0, "device needs at least one bank");
        assert!(cfg.write_queue_capacity > 0, "write queue cannot be empty");
        Self {
            banks: vec![Bank::default(); cfg.banks],
            cfg,
            store: LineStore::new(),
            inflight_writes: VecDeque::new(),
            recent_activations: VecDeque::new(),
            stats: NvmStats::new(),
            wear: WearTracker::new(),
            prof: WriteProfiler::new(cfg.banks, cfg.prof_window_us),
            journal: None,
            trace: TraceRecorder::off(),
        }
    }

    /// Starts journaling writes (pre-image + retirement time) into a
    /// bounded ring of `capacity` records. See [`WriteJournal`].
    pub fn enable_journal(&mut self, capacity: usize) {
        self.journal = Some(WriteJournal::new(capacity));
    }

    /// The write journal, if enabled.
    pub fn journal(&self) -> Option<&WriteJournal> {
        self.journal.as_ref()
    }

    /// The configuration this device was built with.
    pub fn config(&self) -> &NvmConfig {
        &self.cfg
    }

    /// The event recorder (disabled by default).
    pub fn trace(&self) -> &TraceRecorder {
        &self.trace
    }

    /// Mutable access to the event recorder, e.g. to
    /// [`enable`](TraceRecorder::enable) it or for the bitmap layer to
    /// record its ADR events on the device timeline.
    pub fn trace_mut(&mut self) -> &mut TraceRecorder {
        &mut self.trace
    }

    /// The trace's histograms, built on demand: the recorder's read
    /// latency plus, when the `nvm` category is traced, the profiler's
    /// write-stall and WPQ-depth histograms. Tracing is enabled before
    /// a traced device's first write, so those two cover exactly the
    /// traced writes.
    pub fn trace_histograms(&self) -> Histograms {
        let mut hists = Histograms::new();
        hists.read_latency_ps = self.trace.read_latency_ps().clone();
        if self.trace.enabled(TraceCategory::Nvm) {
            hists.write_stall_ps = self.prof.write_stall_ps().clone();
            hists.wpq_depth = self.prof.wpq_depth().clone();
        }
        hists
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NvmStats {
        &self.stats
    }

    /// Per-line wear (endurance) statistics.
    pub fn wear(&self) -> &WearTracker {
        &self.wear
    }

    /// The always-on write-provenance profiler.
    pub fn prof(&self) -> &WriteProfiler {
        &self.prof
    }

    /// Freezes the profiler into an exportable summary, filling in the
    /// per-write energy and the log2 per-line wear histogram that only
    /// the device knows. The summary's cause totals equal
    /// [`NvmStats::total_writes`] by construction: both count exactly
    /// the writes accepted by [`write`](NvmDevice::write).
    pub fn prof_summary(&self) -> ProfSummary {
        self.prof
            .summary(self.cfg.energy.write_pj, self.wear.log2_histogram())
    }

    /// Resets statistics (e.g. after warm-up) without touching contents.
    /// The provenance profiler resets with them so cause totals keep
    /// summing to [`NvmStats::total_writes`].
    pub fn reset_stats(&mut self) {
        self.stats = NvmStats::new();
        self.prof = WriteProfiler::new(self.cfg.banks, self.cfg.prof_window_us);
    }

    /// Direct access to the backing store, bypassing timing — used by the
    /// recovery engine (which uses the paper's fixed 100 ns/line model) and
    /// by tests.
    pub fn store(&self) -> &LineStore {
        &self.store
    }

    /// Mutable direct access to the backing store (crash injection,
    /// attacks, ADR flush).
    pub fn store_mut(&mut self) -> &mut LineStore {
        &mut self.store
    }

    /// Returns an independent copy-on-write fork of the device.
    ///
    /// The backing [`LineStore`] is frozen and its base shared by
    /// reference (see [`LineStore::freeze`]): no line is copied, only
    /// the dirty pages fold into the base. Every other field — bank
    /// state, write queue, stats, wear, profiler, journal, trace buffer —
    /// is small and cloned outright.
    pub fn fork(&mut self) -> Self {
        star_scope::span!("nvm/fork");
        self.store.freeze();
        self.clone()
    }

    #[inline]
    fn bank_of(&self, addr: LineAddr) -> usize {
        let banks = self.cfg.banks as u64;
        if banks.is_power_of_two() {
            // The default geometries interleave over a power-of-two bank
            // count; a mask avoids a hardware divide on every access.
            (addr.index() & (banks - 1)) as usize
        } else {
            (addr.index() % banks) as usize
        }
    }

    /// Pops retired writes from the queue as of `now`.
    fn drain_retired(&mut self, now_ps: u64) {
        while matches!(self.inflight_writes.front(), Some(&t) if t <= now_ps) {
            self.inflight_writes.pop_front();
        }
    }

    /// Enforces the four-activation window; returns the earliest allowed
    /// activation start at or after `t`.
    fn faw_constrain(&mut self, t: u64) -> u64 {
        let faw = self.cfg.timings.t_faw_ps;
        while matches!(self.recent_activations.front(), Some(&a) if a + faw <= t) {
            self.recent_activations.pop_front();
        }
        let start = if self.recent_activations.len() >= 4 {
            t.max(self.recent_activations[self.recent_activations.len() - 4] + faw)
        } else {
            t
        };
        self.recent_activations.push_back(start);
        if self.recent_activations.len() > 8 {
            self.recent_activations.pop_front();
        }
        start
    }

    /// Issues a timed read.
    pub fn read(&mut self, addr: LineAddr, class: AccessClass, now_ps: u64) -> ReadOutcome {
        star_scope::span!("nvm/read");
        self.drain_retired(now_ps);
        let t = self.cfg.timings;
        let b = self.bank_of(addr);
        let mut ready = now_ps.max(self.banks[b].free_at_ps);
        // Write-to-read turnaround if the previous op on this bank wrote.
        if self.banks[b].last_write_end_ps > 0 {
            ready = ready.max(self.banks[b].last_write_end_ps + t.t_wtr_ps);
        }
        let start = self.faw_constrain(ready);
        let complete = start + t.read_latency_ps();
        self.banks[b].free_at_ps = start + t.read_occupancy_ps();
        self.stats.record_read(class);
        self.stats.energy_pj += self.cfg.energy.read_pj;
        self.stats.read_queue_ps += start - now_ps;
        self.trace.span(
            TraceCategory::Nvm,
            "nvm-read",
            now_ps,
            complete - now_ps,
            ("addr", addr.index()),
            ("class", class as u64),
        );
        self.trace.observe_read_latency(complete - now_ps);
        ReadOutcome {
            data: self.store.read(addr),
            complete_at_ps: complete,
            latency_ps: complete - now_ps,
        }
    }

    /// Issues a timed (posted) write, tagged with its provenance.
    ///
    /// The traffic-class statistics bucket is derived from `cause` (see
    /// [`AccessClass::from_cause`]), so the per-cause provenance matrix
    /// and the per-class counters can never disagree.
    pub fn write(
        &mut self,
        addr: LineAddr,
        line: Line,
        cause: WriteCause,
        now_ps: u64,
    ) -> WriteOutcome {
        star_scope::span!("nvm/write");
        let class = AccessClass::from_cause(cause);
        self.drain_retired(now_ps);
        // Stall until a queue slot frees up.
        let mut accepted = now_ps;
        if self.inflight_writes.len() >= self.cfg.write_queue_capacity {
            accepted =
                self.inflight_writes[self.inflight_writes.len() - self.cfg.write_queue_capacity];
            self.drain_retired(accepted);
        }
        let t = self.cfg.timings;
        let b = self.bank_of(addr);
        let start = accepted.max(self.banks[b].free_at_ps);
        let start = self.faw_constrain(start);
        let end = start + t.write_occupancy_ps();
        self.banks[b].free_at_ps = end;
        self.banks[b].last_write_end_ps = end;
        // Keep the retirement queue sorted: writes to different banks can
        // complete out of order relative to enqueue order.
        let pos = self.inflight_writes.partition_point(|&e| e <= end);
        self.inflight_writes.insert(pos, end);

        if let Some(journal) = self.journal.as_mut() {
            let dropped_before = journal.dropped();
            journal.record(addr, class, self.store.read(addr), line, end);
            if journal.dropped() > dropped_before {
                self.trace.set_now(now_ps);
                self.trace
                    .instant(TraceCategory::Nvm, "journal-drop", ("addr", addr.index()));
            }
        }
        self.store.write(addr, line);
        self.wear.record(addr);
        self.stats.record_write(class);
        self.prof.record_write(cause, b, now_ps);
        self.stats.energy_pj += self.cfg.energy.write_pj;
        let stall = accepted - now_ps;
        self.stats.write_stall_ps += stall;
        self.trace.span(
            TraceCategory::Nvm,
            "nvm-write",
            now_ps,
            stall,
            ("addr", addr.index()),
            ("class", class as u64),
        );
        self.trace.set_now(accepted);
        self.trace.counter(
            TraceCategory::Nvm,
            "wpq-depth",
            self.inflight_writes.len() as u64,
        );
        self.prof.observe_write_stall(stall);
        self.prof
            .observe_wpq_depth(self.inflight_writes.len() as u64);
        WriteOutcome {
            accepted_at_ps: accepted,
            stall_ps: stall,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> NvmDevice {
        NvmDevice::new(NvmConfig::default())
    }

    #[test]
    fn read_returns_written_data() {
        let mut d = device();
        d.write(LineAddr::new(9), Line::filled(0x42), WriteCause::Data, 0);
        let r = d.read(LineAddr::new(9), AccessClass::Data, 1_000_000);
        assert_eq!(r.data, Line::filled(0x42));
    }

    #[test]
    fn idle_read_latency_is_the_minimum() {
        let mut d = device();
        let r = d.read(LineAddr::new(3), AccessClass::Data, 0);
        assert_eq!(r.latency_ps, d.config().timings.read_latency_ps());
    }

    #[test]
    fn read_after_write_same_bank_pays_turnaround() {
        let mut d = device();
        let banks = d.config().banks as u64;
        d.write(LineAddr::new(banks), Line::ZERO, WriteCause::Data, 0);
        // Same bank (addr % banks equal), read right away.
        let r = d.read(LineAddr::new(2 * banks), AccessClass::Data, 0);
        let t = d.config().timings;
        assert!(
            r.latency_ps >= t.write_occupancy_ps() + t.t_wtr_ps,
            "read must wait for write recovery + tWTR, got {}",
            r.latency_ps
        );
    }

    #[test]
    fn read_to_other_bank_is_not_delayed_by_write() {
        let mut d = device();
        d.write(LineAddr::new(0), Line::ZERO, WriteCause::Data, 0);
        let r = d.read(LineAddr::new(1), AccessClass::Data, 0);
        // Different bank: only tFAW could interfere, which is tiny.
        assert!(r.latency_ps <= d.config().timings.read_latency_ps() + d.config().timings.t_faw_ps);
    }

    #[test]
    fn full_write_queue_stalls() {
        let mut d = NvmDevice::new(NvmConfig {
            write_queue_capacity: 2,
            banks: 1,
            ..NvmConfig::default()
        });
        let w0 = d.write(LineAddr::new(0), Line::ZERO, WriteCause::Data, 0);
        let w1 = d.write(LineAddr::new(1), Line::ZERO, WriteCause::Data, 0);
        assert_eq!(w0.stall_ps, 0);
        assert_eq!(w1.stall_ps, 0);
        let w2 = d.write(LineAddr::new(2), Line::ZERO, WriteCause::Data, 0);
        assert!(
            w2.stall_ps > 0,
            "third write into a 2-deep queue must stall"
        );
        assert_eq!(d.stats().write_stall_ps, w2.stall_ps);
    }

    #[test]
    fn queue_drains_with_time() {
        let mut d = NvmDevice::new(NvmConfig {
            write_queue_capacity: 1,
            banks: 1,
            ..NvmConfig::default()
        });
        d.write(LineAddr::new(0), Line::ZERO, WriteCause::Data, 0);
        // Far in the future the first write has retired: no stall.
        let w = d.write(LineAddr::new(1), Line::ZERO, WriteCause::Data, 10_000_000);
        assert_eq!(w.stall_ps, 0);
    }

    #[test]
    fn energy_accumulates_asymmetrically() {
        let mut d = device();
        d.read(LineAddr::new(0), AccessClass::Data, 0);
        let after_read = d.stats().energy_pj;
        d.write(LineAddr::new(0), Line::ZERO, WriteCause::Data, 0);
        let after_write = d.stats().energy_pj - after_read;
        assert!(after_write > after_read);
    }

    #[test]
    fn prof_counts_match_class_stats() {
        let mut d = device();
        d.write(LineAddr::new(0), Line::ZERO, WriteCause::Data, 0);
        d.write(LineAddr::new(1), Line::ZERO, WriteCause::CounterBlock, 0);
        d.write(LineAddr::new(2), Line::ZERO, WriteCause::ShadowTable, 0);
        d.write(LineAddr::new(33), Line::ZERO, WriteCause::RaSpill, 0);
        let s = d.prof_summary();
        assert_eq!(s.total_writes(), d.stats().total_writes());
        assert_eq!(
            s.count(WriteCause::Data),
            d.stats().writes(AccessClass::Data)
        );
        assert_eq!(
            s.count(WriteCause::ShadowTable),
            d.stats().writes(AccessClass::ShadowTable)
        );
        // Bank heat is addr % banks: 1 and 33 share bank 1 of 32.
        assert_eq!(s.bank_writes[0], 1);
        assert_eq!(s.bank_writes[1], 2);
        // Always-on histograms record even with tracing off.
        assert!(!d.trace().is_on());
        assert_eq!(s.wpq_depth_hist.iter().map(|&(_, c)| c).sum::<u64>(), 4);
        assert_eq!(s.write_stall_hist.iter().map(|&(_, c)| c).sum::<u64>(), 4);
        assert_eq!(s.line_wear_hist.iter().map(|&(_, c)| c).sum::<u64>(), 4);
        assert_eq!(s.write_pj, d.config().energy.write_pj);
        // reset_stats keeps the cause-sum invariant.
        d.reset_stats();
        assert_eq!(d.prof_summary().total_writes(), d.stats().total_writes());
    }

    #[test]
    fn faw_limits_activation_bursts() {
        let mut d = device();
        // Five back-to-back reads to five different banks at t=0; the fifth
        // activation must start at least tFAW after the first.
        let mut latencies = Vec::new();
        for i in 0..5 {
            latencies.push(d.read(LineAddr::new(i), AccessClass::Data, 0).latency_ps);
        }
        let t = d.config().timings;
        assert!(
            latencies[4] >= t.read_latency_ps() + t.t_faw_ps - t.read_latency_ps().min(t.t_faw_ps)
        );
        assert!(latencies[4] > latencies[0]);
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_rejected() {
        NvmDevice::new(NvmConfig {
            banks: 0,
            ..NvmConfig::default()
        });
    }
}
