//! The sparse paged 64-byte line store and line/address types.

use crate::LINE_BYTES;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::Arc;

/// A 64-byte memory line — the granularity of every access in the model
/// (user data, counter blocks, SIT nodes, bitmap lines are all one line).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Line([u8; LINE_BYTES]);

impl Line {
    /// A line of all zero bytes (the initial content of NVM in the model).
    pub const ZERO: Line = Line([0; LINE_BYTES]);

    /// Creates a line with every byte set to `byte`.
    pub fn filled(byte: u8) -> Self {
        Line([byte; LINE_BYTES])
    }

    /// Borrows the raw bytes.
    pub fn as_bytes(&self) -> &[u8; LINE_BYTES] {
        &self.0
    }

    /// Mutably borrows the raw bytes.
    pub fn as_bytes_mut(&mut self) -> &mut [u8; LINE_BYTES] {
        &mut self.0
    }

    /// True if every byte is zero.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&b| b == 0)
    }
}

impl Default for Line {
    fn default() -> Self {
        Line::ZERO
    }
}

impl From<[u8; LINE_BYTES]> for Line {
    fn from(bytes: [u8; LINE_BYTES]) -> Self {
        Line(bytes)
    }
}

impl From<Line> for [u8; LINE_BYTES] {
    fn from(line: Line) -> Self {
        line.0
    }
}

impl AsRef<[u8]> for Line {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl core::fmt::Debug for Line {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_zero() {
            write!(f, "Line(ZERO)")
        } else {
            write!(
                f,
                "Line({:02x}{:02x}{:02x}{:02x}..)",
                self.0[0], self.0[1], self.0[2], self.0[3]
            )
        }
    }
}

/// The index of a 64-byte line in the simulated physical address space.
///
/// Multiplying by [`LINE_BYTES`] gives the byte address. A newtype keeps
/// line indices from being confused with byte addresses or node indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Wraps a raw line index.
    pub const fn new(index: u64) -> Self {
        LineAddr(index)
    }

    /// The raw line index.
    pub const fn index(self) -> u64 {
        self.0
    }

    /// The byte address of the first byte of the line.
    pub const fn byte_addr(self) -> u64 {
        self.0 * LINE_BYTES as u64
    }

    /// The line containing byte address `byte`.
    pub const fn containing(byte: u64) -> Self {
        LineAddr(byte / LINE_BYTES as u64)
    }
}

impl core::fmt::LowerHex for LineAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        core::fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for LineAddr {
    fn from(index: u64) -> Self {
        LineAddr(index)
    }
}

/// Lines per page: the store maps `addr >> PAGE_SHIFT` to a fixed 64-line
/// frame and indexes the low bits directly, so the hot read/write path
/// pays one hash probe per *page* touch instead of one per line.
pub(crate) const PAGE_SHIFT: u32 = 6;

/// Number of lines in one page frame — the unit a freeze copies and a
/// fork shares.
pub const PAGE_LINES: usize = 1 << PAGE_SHIFT;

/// Mask extracting the in-page slot from a line index.
pub(crate) const SLOT_MASK: u64 = PAGE_LINES as u64 - 1;

/// Splits a line address into its page index and in-page slot.
#[inline]
fn split(addr: LineAddr) -> (u64, usize) {
    (
        addr.index() >> PAGE_SHIFT,
        (addr.index() & SLOT_MASK) as usize,
    )
}

/// A fixed frame of [`PAGE_LINES`] lines plus a residency bitmap.
///
/// Bit `s` of `resident` says whether slot `s` holds a written line;
/// non-resident slots fall through to the frozen base (or read as zero), so
/// a page never claims lines it was not explicitly given — an explicit
/// zero write sets its bit and shadows older content, exactly like the
/// per-line map it replaces.
#[derive(Clone)]
struct Page {
    resident: u64,
    lines: [Line; PAGE_LINES],
}

impl Page {
    fn new() -> Self {
        Page {
            resident: 0,
            lines: [Line::ZERO; PAGE_LINES],
        }
    }

    #[inline]
    fn get(&self, slot: usize) -> Option<Line> {
        if self.resident >> slot & 1 == 1 {
            Some(self.lines[slot])
        } else {
            None
        }
    }

    #[inline]
    fn set(&mut self, slot: usize, line: Line) {
        self.resident |= 1 << slot;
        self.lines[slot] = line;
    }

    /// [`set`](Self::set) for every slot in `slots` (non-empty).
    fn fill(&mut self, slots: Range<usize>, line: Line) {
        self.resident |= (u64::MAX >> (PAGE_LINES - slots.len())) << slots.start;
        self.lines[slots].fill(line);
    }

    /// The resident lines among the slots set in `mask`, lowest slot
    /// first.
    fn lines_in(&self, mask: u64) -> impl Iterator<Item = (usize, Line)> + '_ {
        let mut bits = self.resident & mask;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                (slot, self.lines[slot])
            })
        })
    }
}

impl core::fmt::Debug for Page {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Page({} resident)", self.resident.count_ones())
    }
}

/// Deterministic multiply–xor hasher for page indices.
///
/// Page indices are small and dense, so the default `RandomState`
/// (SipHash with per-process random keys) is both slower than needed on
/// the hot path and non-reproducible across runs, which would let map
/// iteration order leak into reports. One odd-constant multiply with a
/// high-bit fold is plenty for `u64` keys and makes iteration order a
/// pure function of the insert sequence. Other small dense `u64` keys
/// (the sparse Bonsai Merkle tree's chunk indices) use it through
/// [`PageHash`].
#[derive(Default)]
pub struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        // Multiplication pushes entropy toward the high bits; fold them
        // down for the table's low-bit bucket index.
        self.0 ^ (self.0 >> 31)
    }
}

/// The `BuildHasher` for maps keyed by [`PageHasher`]'s `u64` indices.
pub type PageHash = BuildHasherDefault<PageHasher>;

/// A map from page index to reference-counted page frame.
type PageMap = HashMap<u64, Arc<Page>, PageHash>;

/// A sparse, copy-on-write store of 64-byte lines.
///
/// NVM starts zeroed; only written pages consume host memory, which lets
/// the model keep the full 16 GB geometry of the paper's system.
///
/// Internally the store is two maps from page index
/// (`addr >> PAGE_SHIFT`) to reference-counted 64-line frames with
/// residency bitmaps: a frozen *base*, shared by `Arc` with every fork
/// and crash image taken from it, and a private *delta* of the writes
/// since the last freeze, so a read makes at most two hash lookups.
/// [`LineStore::freeze`] folds the delta into the base, copying the
/// page-pointer map only while an older fork shares it and a frame only
/// when another store holds it: `O(dirty pages)` otherwise, and never a
/// copy of an untouched line. That makes crash images cheap enough to
/// take at every persist point during crash-schedule exploration.
#[derive(Debug, Default, Clone)]
pub struct LineStore {
    /// Frozen pages, shared with every fork taken since they froze.
    base: Arc<PageMap>,
    /// Private pages written since the last freeze; they shadow `base`.
    delta: PageMap,
}

impl LineStore {
    /// Creates an empty (all-zero) store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the line at `addr` (zero if never written).
    pub fn read(&self, addr: LineAddr) -> Line {
        let (idx, slot) = split(addr);
        let probe = |map: &PageMap| map.get(&idx).and_then(|page| page.get(slot));
        probe(&self.delta)
            .or_else(|| probe(&self.base))
            .unwrap_or(Line::ZERO)
    }

    /// Writes `line` at `addr`.
    pub fn write(&mut self, addr: LineAddr, line: Line) {
        // Writing an explicit zero line still has to be remembered — the
        // previous content may have been non-zero.
        let (idx, slot) = split(addr);
        let page = self
            .delta
            .entry(idx)
            .or_insert_with(|| Arc::new(Page::new()));
        Arc::make_mut(page).set(slot, line);
    }

    /// Writes `line` at every address in `lines`: the contents and
    /// residency of one [`write`](Self::write) per address, for one map
    /// probe and at most one frame copy per page touched.
    pub fn fill(&mut self, lines: Range<u64>, line: Line) {
        let mut at = lines.start;
        while at < lines.end {
            let (idx, slot) = split(LineAddr::new(at));
            let n = (lines.end - at).min((PAGE_LINES - slot) as u64) as usize;
            let page = self
                .delta
                .entry(idx)
                .or_insert_with(|| Arc::new(Page::new()));
            Arc::make_mut(page).fill(slot..slot + n, line);
            at += n as u64;
        }
    }

    /// Folds the private delta into the frozen base, so a subsequent
    /// `Clone` shares every page.
    pub fn freeze(&mut self) {
        if self.delta.is_empty() {
            return;
        }
        let base = Arc::make_mut(&mut self.base);
        for (idx, page) in std::mem::take(&mut self.delta) {
            match base.entry(idx) {
                Entry::Vacant(v) => {
                    v.insert(page);
                }
                Entry::Occupied(mut o) => {
                    let dst = Arc::make_mut(o.get_mut());
                    for (slot, line) in page.lines_in(u64::MAX) {
                        dst.set(slot, line);
                    }
                }
            }
        }
    }

    /// Freezes the delta and returns an independent copy-on-write fork.
    ///
    /// The fork and `self` share the frozen base by reference; only
    /// lines written after the fork diverge.
    pub fn fork(&mut self) -> Self {
        self.freeze();
        self.clone()
    }

    /// Number of distinct lines that have ever been written.
    pub fn footprint_lines(&self) -> usize {
        self.iter().count()
    }

    /// Iterates over all written lines (newest version of each).
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, Line)> + '_ {
        let delta = self.delta.iter().map(|(&idx, page)| (idx, page, u64::MAX));
        let base = self.base.iter().map(|(&idx, page)| {
            let shadowed = self.delta.get(&idx).map_or(0, |d| d.resident);
            (idx, page, !shadowed)
        });
        delta.chain(base).flat_map(|(idx, page, mask)| {
            page.lines_in(mask)
                .map(move |(slot, line)| (LineAddr::new((idx << PAGE_SHIFT) | slot as u64), line))
        })
    }

    /// Number of lines in the private mutable delta (the only part of
    /// the store a freeze folds page by page). Right after
    /// [`LineStore::fork`] this is zero on both sides.
    pub fn delta_lines(&self) -> usize {
        self.delta
            .values()
            .map(|p| p.resident.count_ones() as usize)
            .sum()
    }

    /// Number of non-empty page maps a read may probe: the delta and the
    /// frozen base, so never more than two (one right after a freeze).
    pub fn map_count(&self) -> usize {
        usize::from(!self.delta.is_empty()) + usize::from(!self.base.is_empty())
    }

    /// Number of frozen lines held in the same page allocation as
    /// `other`'s frozen page at that index. Used to prove that forking
    /// shares rather than copies the footprint.
    pub fn shared_lines_with(&self, other: &Self) -> usize {
        self.base
            .iter()
            .filter(|&(idx, page)| other.base.get(idx).is_some_and(|o| Arc::ptr_eq(page, o)))
            .map(|(_, page)| page.resident.count_ones() as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_lines_read_zero() {
        let store = LineStore::new();
        assert_eq!(store.read(LineAddr::new(123)), Line::ZERO);
        assert_eq!(store.footprint_lines(), 0);
    }

    #[test]
    fn write_then_read() {
        let mut store = LineStore::new();
        store.write(LineAddr::new(5), Line::filled(0xab));
        assert_eq!(store.read(LineAddr::new(5)), Line::filled(0xab));
        assert_eq!(store.read(LineAddr::new(6)), Line::ZERO);
        assert_eq!(store.footprint_lines(), 1);
    }

    #[test]
    fn overwriting_with_zero_is_remembered() {
        let mut store = LineStore::new();
        store.write(LineAddr::new(1), Line::filled(1));
        store.write(LineAddr::new(1), Line::ZERO);
        assert_eq!(store.read(LineAddr::new(1)), Line::ZERO);
        assert_eq!(store.footprint_lines(), 1);
    }

    #[test]
    fn zero_write_in_delta_shadows_frozen_content() {
        // The residency bitmap, not the line value, decides whether a
        // page slot shadows the frozen base.
        let mut store = LineStore::new();
        store.write(LineAddr::new(9), Line::filled(9));
        store.freeze();
        store.write(LineAddr::new(9), Line::ZERO);
        assert_eq!(store.read(LineAddr::new(9)), Line::ZERO);
        assert_eq!(store.footprint_lines(), 1);
    }

    #[test]
    fn line_addr_byte_conversions() {
        let a = LineAddr::containing(130);
        assert_eq!(a.index(), 2);
        assert_eq!(a.byte_addr(), 128);
    }

    #[test]
    fn line_debug_is_never_empty() {
        assert!(!format!("{:?}", Line::ZERO).is_empty());
        assert!(!format!("{:?}", Line::filled(3)).is_empty());
    }

    #[test]
    fn fork_shares_frozen_lines_and_diverges_on_write() {
        let mut store = LineStore::new();
        for i in 0..1000 {
            store.write(LineAddr::new(i), Line::filled((i % 251) as u8));
        }
        let mut fork = store.fork();
        // The frozen footprint is shared by reference, not copied.
        assert_eq!(store.delta_lines(), 0);
        assert_eq!(fork.delta_lines(), 0);
        assert_eq!(fork.shared_lines_with(&store), 1000);
        // Writes after the fork are private to each side.
        fork.write(LineAddr::new(3), Line::filled(0xee));
        store.write(LineAddr::new(4), Line::filled(0xdd));
        assert_eq!(fork.read(LineAddr::new(3)), Line::filled(0xee));
        assert_eq!(store.read(LineAddr::new(3)), Line::filled(3));
        assert_eq!(store.read(LineAddr::new(4)), Line::filled(0xdd));
        assert_eq!(fork.read(LineAddr::new(4)), Line::filled(4));
        // Fork cost is the dirty delta, not the footprint.
        assert_eq!(fork.delta_lines(), 1);
        assert_eq!(store.delta_lines(), 1);
        assert_eq!(store.footprint_lines(), 1000);
        assert_eq!(fork.footprint_lines(), 1000);
        // A freeze copies only the page it folds into: every other page
        // is still the allocation the fork holds.
        store.freeze();
        assert_eq!(store.shared_lines_with(&fork), 1000 - PAGE_LINES);
    }

    #[test]
    fn layered_reads_are_newest_wins() {
        let mut store = LineStore::new();
        store.write(LineAddr::new(7), Line::filled(1));
        store.freeze();
        store.write(LineAddr::new(7), Line::filled(2));
        store.freeze();
        store.write(LineAddr::new(7), Line::filled(3));
        assert_eq!(store.read(LineAddr::new(7)), Line::filled(3));
        assert_eq!(store.footprint_lines(), 1);
        let collected: Vec<_> = store.iter().collect();
        assert_eq!(collected, vec![(LineAddr::new(7), Line::filled(3))]);
    }

    #[test]
    fn repeated_freezes_compact_and_stay_correct() {
        // Every freeze folds into the one base map, so reads probe at
        // most two maps however many freezes (and forks sharing older
        // bases) came before.
        let mut store = LineStore::new();
        let mut forks = Vec::new();
        for round in 0..84u64 {
            store.write(LineAddr::new(round % 10), Line::filled((round + 1) as u8));
            assert!(store.map_count() <= 2);
            store.freeze();
            assert_eq!(store.map_count(), 1, "a freeze leaves only the base");
            if round % 7 == 0 {
                forks.push((round, store.fork()));
            }
        }
        assert_eq!(store.footprint_lines(), 10);
        // Line 3 was last written on round 83 (83 % 10 == 3) with fill 84.
        assert_eq!(store.read(LineAddr::new(3)), Line::filled(84));
        // Each fork still sees its own generation: folding later deltas
        // into a shared base never reaches an older fork's pages.
        for (round, fork) in &forks {
            let want = match round.checked_sub(3) {
                Some(since) => Line::filled((round - since % 10 + 1) as u8),
                None => Line::ZERO,
            };
            assert_eq!(fork.read(LineAddr::new(3)), want, "fork of round {round}");
        }
    }

    #[test]
    fn empty_freeze_adds_no_layer() {
        let mut store = LineStore::new();
        store.freeze();
        assert_eq!(store.map_count(), 0);
        let fork = store.fork();
        assert_eq!(fork.map_count(), 0);
    }

    #[test]
    fn far_apart_addresses_stay_sparse() {
        // The 16 GB geometry maps to line indices up to 2^28; pages must
        // not allocate anything between two distant touches.
        let mut store = LineStore::new();
        store.write(LineAddr::new(0), Line::filled(1));
        store.write(
            LineAddr::new((16 << 30) / LINE_BYTES as u64 - 1),
            Line::filled(2),
        );
        assert_eq!(store.footprint_lines(), 2);
        assert_eq!(store.read(LineAddr::new(0)), Line::filled(1));
        assert_eq!(
            store.read(LineAddr::new((16 << 30) / LINE_BYTES as u64 - 1)),
            Line::filled(2)
        );
    }

    #[test]
    fn fill_matches_one_write_per_line() {
        // Written lines on seven pages, frozen into a base a fork shares,
        // and one line of private delta on top.
        let mut store = LineStore::new();
        for i in (0..400).step_by(3) {
            store.write(LineAddr::new(i), Line::filled((i % 251 + 1) as u8));
        }
        let fork = store.fork();
        store.write(LineAddr::new(130), Line::filled(0xcc));
        let sorted = |s: &LineStore| {
            let mut lines: Vec<_> = s.iter().collect();
            lines.sort_by_key(|(addr, _)| addr.index());
            lines
        };
        let ranges = [
            0..0,
            5..6,
            10..50,
            60..70,
            64..128,
            3..200,
            129..131,
            390..1000,
        ];
        for (range, line) in ranges
            .iter()
            .flat_map(|r| [(r, Line::ZERO), (r, Line::filled(9))])
        {
            let mut filled = store.clone();
            filled.fill(range.clone(), line);
            let mut written = store.clone();
            for i in range.clone() {
                written.write(LineAddr::new(i), line);
            }
            for i in 0..1100 {
                let addr = LineAddr::new(i);
                assert_eq!(filled.read(addr), written.read(addr), "{range:?}, line {i}");
            }
            assert_eq!(sorted(&filled), sorted(&written), "{range:?}");
            assert_eq!(
                filled.footprint_lines(),
                written.footprint_lines(),
                "{range:?}"
            );
        }
        // Filling a clone copies the pages it shares; it never writes
        // through to the original or to the frozen base.
        assert_eq!(store.read(LineAddr::new(130)), Line::filled(0xcc));
        assert_eq!(store.read(LineAddr::new(3)), Line::filled(4));
        assert_eq!(fork.read(LineAddr::new(130)), Line::ZERO);
        assert_eq!(fork.shared_lines_with(&store), fork.footprint_lines());
    }

    #[test]
    fn writes_within_one_page_share_a_frame() {
        let mut store = LineStore::new();
        for slot in 0..PAGE_LINES as u64 {
            store.write(LineAddr::new(slot), Line::filled(slot as u8));
        }
        assert_eq!(store.delta.len(), 1, "one page frame holds all 64 lines");
        assert_eq!(store.delta_lines(), PAGE_LINES);
        assert_eq!(store.footprint_lines(), PAGE_LINES);
    }
}
