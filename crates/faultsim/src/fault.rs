//! What the failure does to the medium, beyond losing volatile state.
//!
//! Faults are applied to the [`CrashImage`] *after* the ADR battery
//! flush, i.e. to what physically remains in NVM. The write journal
//! (pre-images + write-queue retirement times, recorded by `star-nvm`)
//! tells us which writes a crash at time *t* could still have affected.

use star_core::CrashImage;
use star_nvm::{AccessClass, Line, LineAddr, WriteRecord};
use std::collections::BTreeMap;

/// The fault vocabulary is defined in `star-core`, next to the persist
/// points it accompanies; this crate owns its *semantics*
/// ([`apply_fault`](self)).
pub use star_core::FaultKind;

/// Queue entries the ADR assumption protects: bitmap lines live *in* the
/// ADR domain proper and survive even on the platforms `DropWpq` models,
/// so only data/metadata/shadow-table writes are fair game.
fn droppable(record: &WriteRecord) -> bool {
    record.class != AccessClass::BitmapLine
}

/// Applies `fault` to the crash image. Returns `false` when the fault
/// has no target in this case (e.g. no write was in flight), in which
/// case the case is reported as [`Skipped`](crate::Outcome::Skipped).
///
/// `committed` maps data lines to their last durable version (the
/// readback oracle), `undrained` is the journal's view of the write
/// queue at crash time (oldest first).
pub(crate) fn apply_fault(
    image: &mut CrashImage,
    fault: &FaultKind,
    committed: &BTreeMap<u64, u64>,
    undrained: &[WriteRecord],
    last_committed_line: Option<u64>,
) -> bool {
    match fault {
        FaultKind::CrashOnly => true,
        FaultKind::DropWpq { max_entries } => {
            let victims: Vec<&WriteRecord> = undrained.iter().filter(|r| droppable(r)).collect();
            if victims.is_empty() || *max_entries == 0 {
                return false;
            }
            let start = victims.len().saturating_sub(*max_entries);
            // Newest-to-oldest, so when several dropped writes hit the
            // same line the oldest pre-image (the state before all of
            // them) is what remains.
            for r in victims[start..].iter().rev() {
                image.store.write(r.addr, r.pre_image);
            }
            true
        }
        FaultKind::TornWrite => {
            // Tear the newest write still in flight at the crash moment.
            let Some(r) = undrained.iter().rfind(|r| droppable(r)) else {
                return false;
            };
            let mut torn = r.new_line;
            torn.as_bytes_mut()[32..].copy_from_slice(&r.pre_image.as_bytes()[32..]);
            image.store.write(r.addr, torn);
            true
        }
        FaultKind::FlipMacBit { bit } => {
            let Some(line) = last_committed_line.or(committed.keys().next_back().copied()) else {
                return false;
            };
            flip_bit(image, LineAddr::new(line), 56 * 8 + (bit % 64) as usize)
        }
        FaultKind::FlipCounterBit { bit } => {
            let Some(line) = last_committed_line.or(committed.keys().next_back().copied()) else {
                return false;
            };
            let (parent, _) = image.geometry().parent_of_data(line);
            let addr = image.geometry().line_of(parent);
            flip_bit(image, addr, (bit % 448) as usize)
        }
    }
}

/// Flips one bit of a stored line. Refuses to turn a non-zero line into
/// the all-zero "never written" convention (that would be erasure, not
/// tampering) by flipping a second, adjacent bit — still a fault, still
/// non-zero.
fn flip_bit(image: &mut CrashImage, addr: LineAddr, bit: usize) -> bool {
    let mut line = image.store.read(addr);
    line.as_bytes_mut()[bit / 8] ^= 1 << (bit % 8);
    if line.is_zero() {
        line.as_bytes_mut()[(bit / 8 + 1) % 64] ^= 0x80;
    }
    image.store.write(addr, line);
    true
}

/// Convenience: a torn copy of `record`'s write, as `TornWrite` lands it.
pub fn torn_line(record: &WriteRecord) -> Line {
    let mut torn = record.new_line;
    torn.as_bytes_mut()[32..].copy_from_slice(&record.pre_image.as_bytes()[32..]);
    torn
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(FaultKind::CrashOnly.label(), "crash-only");
        assert_eq!(FaultKind::DropWpq { max_entries: 4 }.label(), "drop-wpq");
        assert_eq!(FaultKind::TornWrite.label(), "torn-write");
        assert_eq!(FaultKind::FlipMacBit { bit: 3 }.label(), "flip-mac-bit");
        assert_eq!(
            FaultKind::FlipCounterBit { bit: 3 }.label(),
            "flip-counter-bit"
        );
    }

    #[test]
    fn torn_line_splices_halves() {
        let r = WriteRecord {
            seq: 1,
            addr: LineAddr::new(9),
            class: AccessClass::Data,
            pre_image: Line::filled(0xaa),
            new_line: Line::filled(0x55),
            complete_at_ps: 100,
        };
        let t = torn_line(&r);
        assert!(t.as_bytes()[..32].iter().all(|b| *b == 0x55));
        assert!(t.as_bytes()[32..].iter().all(|b| *b == 0xaa));
    }
}
