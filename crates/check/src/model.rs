//! The executable reference model: an idealized, always-instantly-
//! persisted view of the data state machine.
//!
//! The model deliberately knows nothing about caches, counters, MACs or
//! trees — it tracks, per data line, only what the ISA-level program
//! semantics pin down:
//!
//! * `last_written` — the version the program stored last (what a read
//!   or a post-run readback must return),
//! * `history` — every version ever stored (a durable value can only
//!   ever be one of these, or zero for a never-written-back line),
//! * `committed_floor` — the newest version an executed `persist`
//!   guaranteed durable (a post-crash value may be *newer* — cache
//!   evictions write back early — but never older),
//! * `commit_floor_count` / `write_count` — bounds on how many times
//!   the line can have been written back to NVM, which bound the line's
//!   L0 parent counter from below and above.
//!
//! Everything cache-dependent (which evictions happened, hence the
//! exact counter values and the exact mid-run durable versions) is
//! intentionally *not* modeled: for those the harness uses the persist-
//! point log as the exact oracle and checks it **against** these model
//! bounds, so a bug in the instrumentation and a bug in the engine both
//! surface as a disagreement.

use star_mem::MemEvent;
use std::collections::{BTreeMap, BTreeSet};

/// Per-line model state; see the module docs for the invariants each
/// field pins.
#[derive(Debug, Clone, Default)]
pub struct LineModel {
    /// The version the program stored last.
    pub last_written: u64,
    /// Every version ever stored to this line.
    pub history: BTreeSet<u64>,
    /// Newest version an executed persist guaranteed durable (`None`
    /// until the first effective persist).
    pub committed_floor: Option<u64>,
    /// Number of persists that committed a not-yet-persisted version —
    /// a lower bound on the line's NVM writebacks (and so on its L0
    /// parent counter).
    pub commit_floor_count: u64,
    /// Number of stores — an upper bound on the line's NVM writebacks.
    pub write_count: u64,
    /// Model-dirty: written since the last effective persist.
    dirty: bool,
}

/// The reference model over a whole program run.
#[derive(Debug, Clone, Default)]
pub struct RefModel {
    lines: BTreeMap<u64, LineModel>,
}

impl RefModel {
    /// An empty model (all lines zero, clean, never written).
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies one event.
    pub fn apply(&mut self, event: &MemEvent) {
        match *event {
            MemEvent::Write { line, version } => {
                let l = self.lines.entry(line).or_default();
                l.last_written = version;
                l.history.insert(version);
                l.write_count += 1;
                l.dirty = true;
            }
            MemEvent::Clwb { line } => {
                if let Some(l) = self.lines.get_mut(&line) {
                    if l.dirty {
                        l.committed_floor = Some(l.last_written);
                        l.commit_floor_count += 1;
                        l.dirty = false;
                    }
                }
            }
            // Fences order persists the model already treats as
            // instant; reads and compute do not change data state.
            MemEvent::Read { .. } | MemEvent::Fence | MemEvent::Work { .. } => {}
        }
    }

    /// The per-line state, if the line was ever written.
    pub fn line(&self, line: u64) -> Option<&LineModel> {
        self.lines.get(&line)
    }

    /// Every written line with its model state, in line order.
    pub fn lines(&self) -> impl Iterator<Item = (u64, &LineModel)> {
        self.lines.iter().map(|(&l, m)| (l, m))
    }

    /// The value a fault-free read must return right now: the last
    /// written version, or zero for a never-written line.
    pub fn expected_read(&self, line: u64) -> u64 {
        self.lines.get(&line).map_or(0, |l| l.last_written)
    }

    /// Whether `value` is an admissible *durable* value for `line`
    /// after a crash: some version actually written at or after the
    /// newest persist-guaranteed one, or zero if nothing was ever
    /// guaranteed durable.
    pub fn durable_value_allowed(&self, line: u64, value: u64) -> bool {
        match self.lines.get(&line) {
            None => value == 0,
            Some(l) => match l.committed_floor {
                None => value == 0 || l.history.contains(&value),
                Some(floor) => value >= floor && l.history.contains(&value),
            },
        }
    }

    /// Whether `counter` is an admissible L0 parent-counter value for
    /// `line`: at least one writeback per guaranteed commit, at most
    /// one per store.
    pub fn counter_allowed(&self, line: u64, counter: u64) -> bool {
        match self.lines.get(&line) {
            None => counter == 0,
            Some(l) => (l.commit_floor_count..=l.write_count).contains(&counter),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(line: u64, version: u64) -> MemEvent {
        MemEvent::Write { line, version }
    }

    #[test]
    fn persist_sets_the_floor() {
        let mut m = RefModel::new();
        m.apply(&w(4, 1));
        m.apply(&w(4, 2));
        assert!(m.durable_value_allowed(4, 0), "nothing persisted yet");
        m.apply(&MemEvent::Clwb { line: 4 });
        assert!(!m.durable_value_allowed(4, 0));
        assert!(!m.durable_value_allowed(4, 1), "older than the floor");
        assert!(m.durable_value_allowed(4, 2));
        m.apply(&w(4, 3));
        assert!(m.durable_value_allowed(4, 3), "evictions may commit early");
        assert!(!m.durable_value_allowed(4, 7), "never written");
    }

    #[test]
    fn unwritten_lines_read_zero() {
        let m = RefModel::new();
        assert_eq!(m.expected_read(9), 0);
        assert!(m.durable_value_allowed(9, 0));
        assert!(!m.durable_value_allowed(9, 1));
        assert!(m.counter_allowed(9, 0));
        assert!(!m.counter_allowed(9, 1));
    }

    #[test]
    fn counter_bounds_track_commits_and_writes() {
        let mut m = RefModel::new();
        m.apply(&w(2, 1));
        m.apply(&MemEvent::Clwb { line: 2 });
        m.apply(&MemEvent::Clwb { line: 2 }); // clean: no new commitment
        m.apply(&w(2, 2));
        m.apply(&w(2, 3));
        m.apply(&MemEvent::Clwb { line: 2 });
        let l = m.line(2).unwrap();
        assert_eq!(l.commit_floor_count, 2);
        assert_eq!(l.write_count, 3);
        assert!(m.counter_allowed(2, 2));
        assert!(m.counter_allowed(2, 3));
        assert!(!m.counter_allowed(2, 1));
        assert!(!m.counter_allowed(2, 4));
    }

    #[test]
    fn persist_of_unwritten_line_is_a_noop() {
        let mut m = RefModel::new();
        m.apply(&MemEvent::Clwb { line: 11 });
        assert!(m.line(11).is_none());
    }

    #[test]
    fn expected_read_follows_last_write() {
        let mut m = RefModel::new();
        m.apply(&w(1, 5));
        m.apply(&w(1, 6));
        assert_eq!(m.expected_read(1), 6);
    }
}
