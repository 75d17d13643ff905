//! An Osiris-style counter-recovery baseline (Ye et al., MICRO'18), and a
//! demonstration of *why it cannot recover an SGX integrity tree* —
//! the motivating argument of the paper's §II-E.
//!
//! Osiris relaxes counter-block persistence: a block is written to NVM
//! only every `stop_loss` increments. After a crash, the true counter of
//! a data line is recovered by *trying* candidates `stale..=stale +
//! stop_loss` and checking each against redundancy stored with the data
//! (ECC in the original; the co-located data MAC here, which plays the
//! same role of a counter-keyed checksum).
//!
//! That trial-and-check works for **counter blocks** because the child
//! (user data) is persisted and its MAC binds the counter. It does not
//! extend to **SIT nodes**: an intermediate node's MAC takes the *parent*
//! counter as an input, so after a crash — when parents are themselves
//! stale — there is no trusted value to check candidates against, and
//! with the lazy update scheme the root does not reflect recent writes
//! either. [`sit_candidate_ambiguity`] quantifies the resulting
//! ambiguity; the unit tests exercise both sides of the argument.

use crate::recovery::NS_PER_LINE_ACCESS;
use crate::star::restore::restore_counter;
use star_metadata::SitMac;
use star_nvm::PS_PER_NS;
use star_trace::{TraceCategory, TraceRecorder};

/// The Osiris stop-loss parameter: a counter block is force-persisted
/// after this many un-persisted increments (the original paper uses 4).
pub const DEFAULT_STOP_LOSS: u64 = 4;

/// Recovers a data line's counter Osiris-style: try candidates from the
/// stale value upward and accept the first whose MAC matches.
///
/// Returns `None` when no candidate in the window verifies (data loss or
/// tampering).
pub fn recover_data_counter(
    mac: &SitMac,
    line_addr: u64,
    payload: &[u8; 56],
    stored: star_metadata::MacField,
    stale_counter: u64,
    stop_loss: u64,
) -> Option<u64> {
    recover_data_counter_traced(
        mac,
        line_addr,
        payload,
        stored,
        stale_counter,
        stop_loss,
        &mut TraceRecorder::off(),
    )
    .0
}

/// [`recover_data_counter`] with phase tracing: records the candidate
/// search as one [`TraceCategory::Recovery`] span (each candidate check
/// re-MACs the line, modeled at the same 100 ns as a line access) plus
/// an `osiris-recovered` / `osiris-failed` instant, and returns the
/// modeled search time in nanoseconds alongside the result.
pub fn recover_data_counter_traced(
    mac: &SitMac,
    line_addr: u64,
    payload: &[u8; 56],
    stored: star_metadata::MacField,
    stale_counter: u64,
    stop_loss: u64,
    trace: &mut TraceRecorder,
) -> (Option<u64>, u64) {
    let mut tried = 0u64;
    let found = (stale_counter..=stale_counter + stop_loss).find(|&candidate| {
        tried += 1;
        mac.verify_data(line_addr, payload, candidate, stored)
    });
    let time_ns = tried * NS_PER_LINE_ACCESS;
    let t0 = trace.now_ps();
    trace.span(
        TraceCategory::Recovery,
        "osiris-candidate-search",
        t0,
        time_ns * PS_PER_NS,
        ("line", line_addr),
        ("candidates", tried),
    );
    trace.set_now(t0 + time_ns * PS_PER_NS);
    match found {
        Some(counter) => trace.instant(
            TraceCategory::Recovery,
            "osiris-recovered",
            ("counter", counter),
        ),
        None => trace.instant(
            TraceCategory::Recovery,
            "osiris-failed",
            ("line", line_addr),
        ),
    }
    (found, time_ns)
}

/// The number of *indistinguishable* candidate counter vectors when one
/// tries to "Osiris-recover" an SIT node whose parent is also stale.
///
/// A node's stored MAC verifies only against the right `(counters,
/// parent_counter)` pair — but after a crash the parent counter is
/// unknown within its own stop-loss window, so every `(candidate child
/// counter, candidate parent counter)` combination must be tried, and
/// *none of them can be authenticated*: an attacker-chosen stale tuple
/// also verifies against its matching stale parent. This returns the size
/// of the search space for one counter slot; the point is that
/// verification carries no authority, not that the search is expensive.
pub fn sit_candidate_ambiguity(stop_loss: u64) -> u64 {
    (stop_loss + 1) * (stop_loss + 1)
}

/// Restore a counter from STAR's synergized LSBs, for comparison in the
/// docs and tests: one deterministic reconstruction, no search.
pub fn star_equivalent(stale: u64, lsb: u16, lsb_bits: u32) -> u64 {
    restore_counter(stale, lsb, lsb_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_crypto::mac::MacKey;
    use star_metadata::{MacField, Node64, SitMac};

    fn mac() -> SitMac {
        SitMac::new(MacKey::from_seed(77))
    }

    #[test]
    fn osiris_recovers_counters_within_stop_loss() {
        let m = mac();
        let payload = [7u8; 56];
        for delta in 0..=DEFAULT_STOP_LOSS {
            let true_counter = 100 + delta;
            let tag = m.data_mac(5, &payload, true_counter, 0);
            let stored = MacField::new(tag, 0);
            assert_eq!(
                recover_data_counter(&m, 5, &payload, stored, 100, DEFAULT_STOP_LOSS),
                Some(true_counter),
                "delta {delta}"
            );
        }
    }

    #[test]
    fn osiris_fails_beyond_stop_loss() {
        let m = mac();
        let payload = [7u8; 56];
        let tag = m.data_mac(5, &payload, 100 + DEFAULT_STOP_LOSS + 1, 0);
        let stored = MacField::new(tag, 0);
        assert_eq!(
            recover_data_counter(&m, 5, &payload, stored, 100, DEFAULT_STOP_LOSS),
            None
        );
    }

    /// The §II-E argument, concretely: an SIT node's MAC verifies against
    /// *multiple* (counters, parent counter) combinations once the parent
    /// is allowed to be stale — including a fully stale replayed tuple —
    /// so trial-and-check cannot pick the true state, and nothing detects
    /// a wrong pick.
    #[test]
    fn sit_nodes_cannot_be_recovered_by_search() {
        let m = mac();
        let addr = 1_000u64;

        // True pre-crash state: counters bumped to (8, ...), parent at 3.
        let mut node = Node64::zeroed();
        node.set_counter(0, 8);
        let true_field = m.seal(addr, node.counters(), 3, 0);

        // Older persisted state: counters (7, ...), parent at 2 — exactly
        // what an attacker can replay from NVM history.
        let mut old = Node64::zeroed();
        old.set_counter(0, 7);
        let old_field = m.seal(addr, old.counters(), 2, 0);

        // Both tuples self-verify; a searcher that does not *already know*
        // the parent counter accepts either.
        old.set_mac_field(old_field);
        node.set_mac_field(true_field);
        assert!(m.verify_node(addr, &node, 3));
        assert!(m.verify_node(addr, &old, 2), "stale tuple verifies too");
        // And with the *wrong* pairing neither verifies, so the search
        // space is the full cross product:
        assert!(!m.verify_node(addr, &node, 2));
        assert!(!m.verify_node(addr, &old, 3));
        assert_eq!(sit_candidate_ambiguity(DEFAULT_STOP_LOSS), 25);
    }

    /// STAR resolves the same situation deterministically: the persisted
    /// child carries the parent counter's LSBs, no search, no ambiguity.
    #[test]
    fn star_restores_deterministically_where_osiris_searches() {
        let stale = 100u64;
        let truth = 103u64;
        assert_eq!(star_equivalent(stale, (truth & 0x3ff) as u16, 10), truth);
    }
}
