//! Opt-in stderr progress heartbeat for long sweeps.
//!
//! Disabled by default; CLIs turn it on with `--progress` via
//! [`set_progress`]. The heartbeat writes **only to stderr** — report
//! bytes on stdout are part of the determinism contract and must never
//! see a progress line.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

static PROGRESS: AtomicBool = AtomicBool::new(false);

/// Turns the stderr heartbeat on or off (process-wide).
pub fn set_progress(on: bool) {
    PROGRESS.store(on, Ordering::Relaxed);
}

/// Whether the heartbeat is currently on.
pub fn progress_enabled() -> bool {
    PROGRESS.load(Ordering::Relaxed)
}

/// Per-sweep completion counter that prints `done/submitted` to stderr
/// at most once a second, from whichever worker happens to finish a job
/// when a beat is due, plus once when the sweep ends.
pub(crate) struct Meter {
    submitted: AtomicUsize,
    done: AtomicUsize,
    start: Instant,
    /// Milliseconds since `start` at the last printed beat.
    last_beat_ms: AtomicU64,
}

impl Meter {
    const CADENCE_MS: u64 = 1_000;

    pub(crate) fn new(submitted: usize) -> Self {
        Self {
            submitted: AtomicUsize::new(submitted),
            done: AtomicUsize::new(0),
            start: Instant::now(),
            last_beat_ms: AtomicU64::new(0),
        }
    }

    /// Records one submitted job.
    pub(crate) fn add(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one finished job and prints a beat if one is due.
    pub(crate) fn tick(&self) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if !progress_enabled() {
            return;
        }
        let elapsed_ms = self.start.elapsed().as_millis() as u64;
        let last = self.last_beat_ms.load(Ordering::Relaxed);
        if elapsed_ms.saturating_sub(last) < Self::CADENCE_MS {
            return;
        }
        // One winner per beat: losers saw a concurrent update and skip.
        if self
            .last_beat_ms
            .compare_exchange(last, elapsed_ms, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            self.print(done, elapsed_ms);
        }
    }

    /// The final beat: it always prints, so short sweeps still get one
    /// line.
    pub(crate) fn finish(&self) {
        if progress_enabled() {
            let elapsed_ms = self.start.elapsed().as_millis() as u64;
            self.print(self.done.load(Ordering::Relaxed), elapsed_ms);
        }
    }

    fn print(&self, done: usize, elapsed_ms: u64) {
        eprintln!(
            "[sweep] {done}/{} cases, {:.1}s elapsed",
            self.submitted.load(Ordering::Relaxed),
            elapsed_ms as f64 / 1000.0
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_counts_without_progress_enabled() {
        let m = Meter::new(0);
        for _ in 0..3 {
            m.add();
            m.tick();
        }
        m.finish();
        assert_eq!(m.submitted.load(Ordering::Relaxed), 3);
        assert_eq!(m.done.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn toggle_round_trips() {
        set_progress(true);
        assert!(progress_enabled());
        set_progress(false);
        assert!(!progress_enabled());
    }
}
