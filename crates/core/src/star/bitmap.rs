//! Bitmap lines and the multi-layer index (paper §III-C/D).
//!
//! One bit per security-metadata line records whether the NVM copy is
//! stale (the cached copy is dirty). A 64-byte bitmap line covers 512
//! metadata lines (32 KB). A bounded number of bitmap lines (default 16)
//! live in the battery-backed ADR region of the memory controller; on an
//! ADR miss the LRU line is spilled to the Recovery Area (RA) in NVM and
//! the needed line is fetched — those are STAR's only extra memory
//! accesses at run time.
//!
//! Layer `k+1` lines have one bit per layer-`k` line, set iff that line is
//! non-zero, so recovery reads only non-zero lines. The highest layer is a
//! single line kept in an on-chip non-volatile register (never spilled).

use star_nvm::{AccessClass, AdrRegion, Line, LineAddr, LineStore, NvmDevice, WriteCause};
use star_trace::TraceCategory;

/// Bits in one bitmap line.
const BITS_PER_LINE: u64 = 512;

/// Returns bit `idx` of `line`.
fn get_bit(line: &Line, idx: u64) -> bool {
    let b = line.as_bytes()[(idx / 8) as usize];
    (b >> (idx % 8)) & 1 == 1
}

/// Sets bit `idx` of `line` to `value`.
fn put_bit(line: &mut Line, idx: u64, value: bool) {
    let byte = &mut line.as_bytes_mut()[(idx / 8) as usize];
    if value {
        *byte |= 1 << (idx % 8);
    } else {
        *byte &= !(1 << (idx % 8));
    }
}

/// Iterates over the indices of set bits in `line`, ascending, one
/// 64-bit word at a time (bit `j` of byte `i` is index `8i + j`, so a
/// little-endian word `w` holds indices `64w..64w + 64`).
fn set_bits(line: &Line) -> impl Iterator<Item = u64> {
    let bytes = line.as_bytes();
    let words: [u64; 8] = core::array::from_fn(|w| {
        u64::from_le_bytes(bytes[8 * w..8 * w + 8].try_into().expect("8 bytes"))
    });
    words
        .into_iter()
        .zip((0..).step_by(64))
        .flat_map(|(mut bits, base)| {
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let bit = bits.trailing_zeros();
                    bits &= bits - 1;
                    base + u64::from(bit)
                })
            })
        })
}

/// The static layout of the multi-layer index in the Recovery Area.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitmapLayout {
    /// Number of metadata lines covered by layer 0.
    pub total_meta_lines: u64,
    /// First NVM line of the RA.
    pub ra_base: u64,
    /// Lines per layer, lowest first; the last layer is the single
    /// on-chip line.
    pub layer_counts: Vec<u64>,
    /// RA offsets of each spilled layer (the on-chip top is not in RA).
    pub layer_offsets: Vec<u64>,
}

impl BitmapLayout {
    /// Computes the layout for `total_meta_lines` metadata lines, placing
    /// the RA at NVM line `ra_base`.
    ///
    /// # Panics
    ///
    /// Panics if `total_meta_lines` is zero.
    pub fn new(total_meta_lines: u64, ra_base: u64) -> Self {
        assert!(total_meta_lines > 0, "no metadata to track");
        let mut layer_counts = Vec::new();
        let mut count = total_meta_lines.div_ceil(BITS_PER_LINE);
        loop {
            layer_counts.push(count);
            if count == 1 {
                break;
            }
            count = count.div_ceil(BITS_PER_LINE);
        }
        let mut layer_offsets = Vec::new();
        let mut acc = 0;
        for &c in layer_counts.iter().take(layer_counts.len() - 1) {
            layer_offsets.push(acc);
            acc += c;
        }
        Self {
            total_meta_lines,
            ra_base,
            layer_counts,
            layer_offsets,
        }
    }

    /// Number of layers, the on-chip top included.
    pub fn layers(&self) -> usize {
        self.layer_counts.len()
    }

    /// Index of the on-chip top layer.
    pub fn top_layer(&self) -> usize {
        self.layer_counts.len() - 1
    }

    /// RA size in lines (all layers except the on-chip top).
    pub fn ra_lines(&self) -> u64 {
        self.layer_counts[..self.layer_counts.len() - 1]
            .iter()
            .sum()
    }

    /// NVM address of line `line_no` of spilled layer `layer`.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is the on-chip top layer or out of range.
    pub fn ra_addr(&self, layer: usize, line_no: u64) -> LineAddr {
        assert!(layer < self.top_layer(), "top layer lives on chip");
        debug_assert!(line_no < self.layer_counts[layer]);
        LineAddr::new(self.ra_base + self.layer_offsets[layer] + line_no)
    }

    /// Recovery-side walk: starting from the on-chip `top` line, reads
    /// only the non-zero bitmap lines out of `store` and returns the flat
    /// indices of all stale metadata lines. Increments `reads` once per
    /// RA line fetched (for the 100 ns/line recovery-time model).
    pub fn collect_stale(&self, top: &Line, store: &LineStore, reads: &mut u64) -> Vec<u64> {
        let top_layer = self.top_layer();
        let mut frontier: Vec<u64> = set_bits(top).collect();
        for layer in (0..top_layer).rev() {
            let mut next = Vec::new();
            for &line_no in &frontier {
                if line_no >= self.layer_counts[layer] {
                    continue; // bits past the ragged end are never set
                }
                *reads += 1;
                let line = store.read(self.ra_addr(layer, line_no));
                next.extend(set_bits(&line).map(|b| line_no * BITS_PER_LINE + b));
            }
            frontier = next;
        }
        frontier.retain(|&idx| idx < self.total_meta_lines);
        frontier
    }
}

/// Runtime statistics of the bitmap machinery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BitmapStats {
    /// Bitmap-line accesses (one per dirty-state change, per layer
    /// touched).
    pub accesses: u64,
    /// Accesses that hit a line resident in ADR.
    pub adr_hits: u64,
    /// Accesses that had to fetch the line from the RA.
    pub adr_misses: u64,
    /// Bitmap lines written to the RA (LRU spills).
    pub ra_writes: u64,
    /// Bitmap lines read from the RA.
    pub ra_reads: u64,
}

impl BitmapStats {
    /// Merges `other`'s counters into `self` (cross-shard aggregation of
    /// per-shard bitmaps).
    pub fn absorb(&mut self, other: &BitmapStats) {
        self.accesses += other.accesses;
        self.adr_hits += other.adr_hits;
        self.adr_misses += other.adr_misses;
        self.ra_writes += other.ra_writes;
        self.ra_reads += other.ra_reads;
    }

    /// The ADR hit ratio (paper Table II).
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.adr_hits as f64 / self.accesses as f64
        }
    }
}

/// The live multi-layer bitmap: ADR-resident lines plus the on-chip top.
#[derive(Debug, Clone)]
pub struct MultiLayerBitmap {
    layout: BitmapLayout,
    adr: AdrRegion,
    top: Line,
    stats: BitmapStats,
}

impl MultiLayerBitmap {
    /// Creates the bitmap with `adr_capacity` lines of ADR.
    pub fn new(layout: BitmapLayout, adr_capacity: usize) -> Self {
        Self {
            layout,
            adr: AdrRegion::new(adr_capacity),
            top: Line::ZERO,
            stats: BitmapStats::default(),
        }
    }

    /// The static layout (shared with recovery).
    pub fn layout(&self) -> &BitmapLayout {
        &self.layout
    }

    /// The on-chip top-layer line.
    pub fn top_line(&self) -> Line {
        self.top
    }

    /// Runtime statistics.
    pub fn stats(&self) -> BitmapStats {
        self.stats
    }

    /// Marks metadata line `meta_idx` stale. Returns core stall time (ps)
    /// incurred by ADR misses. Timed NVM traffic goes through `nvm`.
    pub fn set(&mut self, meta_idx: u64, nvm: &mut NvmDevice, now_ps: u64) -> u64 {
        star_scope::span!("star/bitmap");
        debug_assert!(meta_idx < self.layout.total_meta_lines);
        let mut stall = 0;
        self.update_bit(0, meta_idx, true, nvm, now_ps, &mut stall);
        stall
    }

    /// Marks metadata line `meta_idx` no longer stale.
    pub fn clear(&mut self, meta_idx: u64, nvm: &mut NvmDevice, now_ps: u64) -> u64 {
        star_scope::span!("star/bitmap");
        debug_assert!(meta_idx < self.layout.total_meta_lines);
        let mut stall = 0;
        self.update_bit(0, meta_idx, false, nvm, now_ps, &mut stall);
        stall
    }

    fn update_bit(
        &mut self,
        layer: usize,
        bit_idx: u64,
        value: bool,
        nvm: &mut NvmDevice,
        now_ps: u64,
        stall: &mut u64,
    ) {
        if layer == self.layout.top_layer() {
            put_bit(&mut self.top, bit_idx, value);
            return;
        }
        let line_no = bit_idx / BITS_PER_LINE;
        let bit = bit_idx % BITS_PER_LINE;
        let addr = self.layout.ra_addr(layer, line_no);

        self.stats.accesses += 1;
        if !self.adr.contains(addr) {
            self.stats.adr_misses += 1;
            nvm.trace_mut().set_now(now_ps);
            nvm.trace_mut()
                .instant(TraceCategory::Bitmap, "adr-miss", ("ra_addr", addr.index()));
            // Fetch from the RA. The bit update orders only against a
            // future crash, not the program, so the fetch is off the
            // core's critical path (paper: ADR bookkeeping "doesn't
            // impact the performance"); only queue pressure is charged.
            let read = nvm.read(addr, AccessClass::BitmapLine, now_ps);
            self.stats.ra_reads += 1;
            nvm.trace_mut().span(
                TraceCategory::Bitmap,
                "ra-fetch",
                now_ps,
                read.latency_ps,
                ("ra_addr", addr.index()),
                ("layer", layer as u64),
            );
            if let Some((ev_addr, ev_line)) = self.adr.insert(addr, read.data) {
                // LRU spill to the RA (posted write).
                let w = nvm.write(ev_addr, ev_line, WriteCause::RaSpill, now_ps);
                self.stats.ra_writes += 1;
                *stall += w.stall_ps;
                nvm.trace_mut().span(
                    TraceCategory::Bitmap,
                    "ra-spill",
                    now_ps,
                    w.stall_ps,
                    ("ra_addr", ev_addr.index()),
                    ("layer", layer as u64),
                );
            }
        } else {
            self.stats.adr_hits += 1;
            nvm.trace_mut().set_now(now_ps);
            nvm.trace_mut()
                .instant(TraceCategory::Bitmap, "adr-hit", ("ra_addr", addr.index()));
        }

        let line = self.adr.get_mut(addr).expect("resident after ensure");
        let was_zero = line.is_zero();
        if get_bit(line, bit) == value {
            return; // no change, no propagation
        }
        put_bit(line, bit, value);
        let now_zero = line.is_zero();
        if was_zero && !now_zero {
            self.update_bit(layer + 1, line_no, true, nvm, now_ps, stall);
        } else if !was_zero && now_zero {
            self.update_bit(layer + 1, line_no, false, nvm, now_ps, stall);
        }
    }

    /// The bitmap lines currently resident in ADR, as `(RA home address,
    /// line)` pairs in LRU-to-MRU order.
    ///
    /// The resident copies are the authoritative ones: an RA home may
    /// still hold an older spilled copy, which
    /// [`crash_flush`](Self::crash_flush) overwrites. Exposed so tests and recovery
    /// audits can verify that resident and spilled lines partition the
    /// tracked stale set.
    pub fn adr_resident(&self) -> impl Iterator<Item = (LineAddr, &Line)> {
        self.adr.iter()
    }

    /// The battery-backed flush at crash time: every ADR-resident bitmap
    /// line goes to its RA home. The on-chip top survives by itself.
    pub fn crash_flush(&self, store: &mut LineStore) {
        self.adr.flush_on_crash(store);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_nvm::NvmConfig;

    fn setup(total_meta: u64, adr_cap: usize) -> (MultiLayerBitmap, NvmDevice) {
        let layout = BitmapLayout::new(total_meta, 1_000_000);
        (
            MultiLayerBitmap::new(layout, adr_cap),
            NvmDevice::new(NvmConfig::default()),
        )
    }

    /// Exhaustive model check against a reference HashSet.
    fn check_roundtrip(bitmap: &mut MultiLayerBitmap, nvm: &mut NvmDevice, expect: &[u64]) {
        let mut store = nvm.store().clone();
        bitmap.crash_flush(&mut store);
        let mut reads = 0;
        let mut got = bitmap
            .layout()
            .collect_stale(&bitmap.top_line(), &store, &mut reads);
        got.sort_unstable();
        let mut want = expect.to_vec();
        want.sort_unstable();
        want.dedup();
        assert_eq!(got, want);
    }

    #[test]
    fn set_bits_lists_every_set_bit_in_ascending_order() {
        let mut rng = star_rng::SimRng::seed_from_u64(5);
        let mut lines = vec![Line::ZERO, Line::filled(0xff), Line::filled(0x81)];
        for _ in 0..64 {
            let mut line = Line::ZERO;
            for _ in 0..rng.gen_range_inclusive(1..=40) {
                put_bit(&mut line, rng.gen_range_inclusive(0..=511), true);
            }
            lines.push(line);
        }
        for line in &lines {
            let want: Vec<u64> = (0..BITS_PER_LINE).filter(|&i| get_bit(line, i)).collect();
            assert_eq!(set_bits(line).collect::<Vec<u64>>(), want, "{line:?}");
        }
    }

    #[test]
    fn paper_16gb_layout_is_3_layers() {
        // ~38.3 M metadata lines → L1 ≈ 74 899 lines, L2 = 147, L3 = 1.
        let meta = 38_347_922u64;
        let l = BitmapLayout::new(meta, 0);
        assert_eq!(l.layers(), 3);
        assert_eq!(l.layer_counts[0], meta.div_ceil(512));
        assert_eq!(l.layer_counts[2], 1);
        // RA ≈ 4.6 MB, the paper's "4 MB multi-layer index" ballpark.
        let ra_bytes = l.ra_lines() * 64;
        assert!(ra_bytes > 4 << 20 && ra_bytes < 6 << 20, "{ra_bytes}");
    }

    #[test]
    fn single_layer_layout_for_tiny_memory() {
        let l = BitmapLayout::new(100, 0);
        assert_eq!(l.layers(), 1);
        assert_eq!(l.ra_lines(), 0, "everything fits in the on-chip line");
    }

    #[test]
    fn set_then_collect_tiny() {
        let (mut b, mut nvm) = setup(100, 4);
        b.set(3, &mut nvm, 0);
        b.set(97, &mut nvm, 0);
        check_roundtrip(&mut b, &mut nvm, &[3, 97]);
    }

    #[test]
    fn clear_removes_bits() {
        let (mut b, mut nvm) = setup(100, 4);
        b.set(3, &mut nvm, 0);
        b.set(4, &mut nvm, 0);
        b.clear(3, &mut nvm, 0);
        check_roundtrip(&mut b, &mut nvm, &[4]);
    }

    #[test]
    fn multi_layer_spill_and_refetch() {
        // 4096 meta lines → 8 L1 lines + 1 top; ADR of 2 forces spills.
        let (mut b, mut nvm) = setup(4096, 2);
        let bits: Vec<u64> = (0..8).map(|i| i * 512 + 7).collect();
        for &m in &bits {
            b.set(m, &mut nvm, 0);
        }
        assert!(b.stats().ra_writes > 0, "LRU must have spilled");
        check_roundtrip(&mut b, &mut nvm, &bits);
    }

    #[test]
    fn redundant_set_does_not_propagate() {
        let (mut b, mut nvm) = setup(4096, 4);
        b.set(10, &mut nvm, 0);
        let accesses = b.stats().accesses;
        b.set(10, &mut nvm, 0); // same bit again
                                // Only the L1 access happens; no upper-layer propagation.
        assert_eq!(b.stats().accesses, accesses + 1);
        check_roundtrip(&mut b, &mut nvm, &[10]);
    }

    #[test]
    fn hit_ratio_improves_with_more_adr_lines() {
        // Access pattern striding over many bitmap lines.
        let run = |cap: usize| {
            let (mut b, mut nvm) = setup(1 << 20, cap);
            for i in 0..2000u64 {
                let idx = (i * 7919) % (1 << 20);
                b.set(idx, &mut nvm, 0);
            }
            b.stats().hit_ratio()
        };
        let small = run(2);
        let large = run(32);
        assert!(
            large > small,
            "more ADR lines must raise hit ratio: {small} vs {large}"
        );
    }

    #[test]
    fn three_layer_collect_reads_only_nonzero_lines() {
        // 1 << 20 meta lines → L1 = 2048, L2 = 4, top = 1.
        let (mut b, mut nvm) = setup(1 << 20, 8);
        assert_eq!(b.layout().layers(), 3);
        b.set(0, &mut nvm, 0);
        b.set(1_000_000, &mut nvm, 0);
        let mut store = nvm.store().clone();
        b.crash_flush(&mut store);
        let mut reads = 0;
        let got = b.layout().collect_stale(&b.top_line(), &store, &mut reads);
        assert_eq!(got.len(), 2);
        // 2 L2 lines? both stale bits fall in different L2 lines: bit 0 →
        // L1 line 0 → L2 line 0; bit 1_000_000 → L1 line 1953 → L2 line 3.
        // So: 2 L2 reads + 2 L1 reads = 4, far below the 2052-line RA.
        assert_eq!(reads, 4);
    }

    /// Partition property under random touch sequences: at any moment,
    /// the stale bits held by ADR-resident layer-0 lines and the stale
    /// bits in the RA copies of the *non-resident* layer-0 lines are
    /// disjoint and together equal a reference `HashSet` model — no bit
    /// is lost to a spill or double-tracked after a refetch.
    #[test]
    fn lru_spill_refetch_partitions_stale_set() {
        use star_rng::SimRng;
        use std::collections::HashSet;

        // 8192 meta lines → 16 L1 lines + on-chip top; ADR of 3 lines
        // forces constant LRU spill/refetch traffic.
        const TOTAL_META: u64 = 8192;
        let (mut b, mut nvm) = setup(TOTAL_META, 3);
        assert!(b.layout().layers() >= 2, "need a spillable layer");

        let mut rng = SimRng::seed_from_u64(0x6269_746d_6170_2d70);
        let mut reference: HashSet<u64> = HashSet::new();
        for step in 0..4000u64 {
            let idx = rng.gen_range(0..TOTAL_META);
            if rng.gen_bool(0.7) {
                b.set(idx, &mut nvm, step);
                reference.insert(idx);
            } else {
                b.clear(idx, &mut nvm, step);
                reference.remove(&idx);
            }
            if step % 97 != 0 {
                continue;
            }

            // Split layer 0 into the ADR-resident view and the RA view
            // of everything not resident.
            let layout = b.layout().clone();
            let resident: HashSet<LineAddr> = b.adr_resident().map(|(addr, _)| addr).collect();
            let mut from_adr: HashSet<u64> = HashSet::new();
            for (addr, line) in b.adr_resident() {
                let line_no = addr.index() - layout.ra_addr(0, 0).index();
                if line_no >= layout.layer_counts[0] {
                    continue; // a resident upper-layer line
                }
                from_adr.extend(set_bits(line).map(|bit| line_no * BITS_PER_LINE + bit));
            }
            let mut from_ra: HashSet<u64> = HashSet::new();
            for line_no in 0..layout.layer_counts[0] {
                let addr = layout.ra_addr(0, line_no);
                if resident.contains(&addr) {
                    continue;
                }
                let line = nvm.store().read(addr);
                from_ra.extend(set_bits(&line).map(|bit| line_no * BITS_PER_LINE + bit));
            }

            assert!(
                from_adr.is_disjoint(&from_ra),
                "step {step}: a stale bit is tracked both in ADR and RA"
            );
            let union: HashSet<u64> = from_adr.union(&from_ra).copied().collect();
            assert_eq!(union, reference, "step {step}: stale set diverged");

            // Stats invariants ride along: every access either hit or
            // missed, and every miss fetched exactly one RA line.
            let s = b.stats();
            assert_eq!(s.adr_hits + s.adr_misses, s.accesses);
            assert_eq!(s.ra_reads, s.adr_misses);
        }
        assert!(b.stats().ra_writes > 0, "ADR of 3 over 16 lines must spill");

        // And the crash-time view still collects exactly the reference.
        let mut expect: Vec<u64> = reference.into_iter().collect();
        expect.sort_unstable();
        check_roundtrip(&mut b, &mut nvm, &expect);
    }

    #[test]
    fn crash_flush_preserves_unspilled_lines() {
        let (mut b, mut nvm) = setup(4096, 16);
        for i in 0..8u64 {
            b.set(i * 512, &mut nvm, 0);
        }
        assert_eq!(b.stats().ra_writes, 0, "capacity 16 never spills 8 lines");
        check_roundtrip(
            &mut b,
            &mut nvm,
            &(0..8).map(|i| i * 512).collect::<Vec<_>>(),
        );
    }
}
