//! A Triad-NVM-style baseline (Awad et al., ISCA'19) on a Bonsai Merkle
//! tree — the "build the baseline too" half of the paper's §II-E.
//!
//! Triad-NVM persists, with every user-data write, the counter block and
//! the `persist_levels` lowest levels of the integrity tree
//! (write-through), and reconstructs the whole tree from those persisted
//! levels after a crash. That *works* on a Bonsai Merkle tree, whose
//! nodes are hashes of their children — and this module demonstrates it
//! working — but it costs 2–4× write traffic, and it is impossible on an
//! SGX integrity tree, whose node MACs need *parent* counters as inputs
//! (see [`crate::osiris`] for that argument).
//!
//! The model: counter blocks share [`Node64`]'s layout; BMT hash nodes
//! are SHA-256 digests. A sparse tree lives in controller memory (it is
//! derived state), beside the counter blocks written so far; NVM holds
//! the counter blocks and the persisted low levels. Recovery reads every
//! counter block, rebuilds bottom-up, and compares against the on-chip
//! root — recovery time is proportional to the *memory* size, not the
//! dirty set, which is exactly the scaling the paper's Fig. 14 argument
//! holds against it. The host's cost is not: set-up, memory and the
//! rebuild's hashing follow the written blocks (see
//! [`TriadMemory::crash_and_recover_traced`]).

use crate::engine::IntegrityError;
use crate::stats::Instrumented;
use star_metadata::bmt::BonsaiMerkleTree;
use star_metadata::{MacField, Node64, SitMac, TREE_ARITY};
use star_nvm::{
    AccessClass, Line, LineAddr, NvmConfig, NvmDevice, PageHash, WriteCause, PS_PER_NS,
};
use star_trace::{TraceCategory, TraceRecorder};
use std::collections::HashMap;

/// Configuration of the Triad-NVM baseline.
#[derive(Debug, Clone)]
pub struct TriadConfig {
    /// User-data lines covered.
    pub data_lines: u64,
    /// How many tree levels (counting the counter blocks as level 1) are
    /// persisted write-through with every write. Triad-NVM evaluates 1–4.
    pub persist_levels: usize,
    /// NVM device parameters.
    pub nvm: NvmConfig,
    /// Key seed for the data MACs.
    pub key_seed: u64,
}

impl Default for TriadConfig {
    fn default() -> Self {
        Self {
            data_lines: (1 << 26) / 64, // 64 MB: tests and demos
            persist_levels: 2,
            nvm: NvmConfig::default(),
            key_seed: 0x7472_6961_6400, // "triad"
        }
    }
}

/// A secure memory protected by a Bonsai Merkle tree with Triad-NVM
/// persistence.
#[derive(Debug, Clone)]
pub struct TriadMemory {
    cfg: TriadConfig,
    nvm: NvmDevice,
    mac: SitMac,
    /// The counter blocks (leaves) written so far, by index, kept current
    /// in controller state and persisted write-through. An absent block
    /// is [`Node64::zeroed`].
    counter_blocks: HashMap<u64, Node64, PageHash>,
    /// The Merkle tree over the counter blocks; `tree.root()` mirrors the
    /// on-chip root register.
    tree: BonsaiMerkleTree,
    /// Line index where counter blocks start in NVM.
    cb_base: u64,
    /// Line index where each persisted hash level starts: entry 0 is
    /// level 2, up to level `persist_levels`.
    level_bases: Vec<u64>,
    now_ps: u64,
    /// Persist points committed so far (one per durable write-through).
    persist_seq: u64,
}

impl TriadMemory {
    /// Builds the memory.
    ///
    /// # Panics
    ///
    /// Panics if `data_lines` is zero or `persist_levels` is zero.
    pub fn new(cfg: TriadConfig) -> Self {
        assert!(cfg.data_lines > 0, "memory must have data lines");
        assert!(
            cfg.persist_levels >= 1,
            "Triad persists at least the counter blocks"
        );
        let cb_count = cfg.data_lines.div_ceil(TREE_ARITY as u64);
        let tree = BonsaiMerkleTree::new(cb_count as usize);
        // Hash levels follow the counter blocks, each level's nodes
        // packed after the previous level's.
        let mut level_bases = Vec::with_capacity(cfg.persist_levels - 1);
        let (mut base, mut count) = (cfg.data_lines + cb_count, cb_count);
        for _ in 2..=cfg.persist_levels {
            level_bases.push(base);
            count = count.div_ceil(TREE_ARITY as u64);
            base += count;
        }
        Self {
            nvm: NvmDevice::new(cfg.nvm),
            mac: SitMac::from_seed(cfg.key_seed),
            counter_blocks: HashMap::default(),
            cb_base: cfg.data_lines,
            level_bases,
            tree,
            cfg,
            now_ps: 0,
            persist_seq: 0,
        }
    }

    /// Number of counter blocks (tree leaves).
    pub fn counter_blocks(&self) -> usize {
        self.tree.leaf_count()
    }

    /// The on-chip BMT root.
    pub fn root(&self) -> [u8; 32] {
        self.tree.root()
    }

    /// NVM statistics.
    pub fn nvm_stats(&self) -> &star_nvm::NvmStats {
        self.nvm.stats()
    }

    /// Persist points (durable write-throughs, one per
    /// [`write_data`](Self::write_data)) committed so far.
    pub fn persist_points(&self) -> u64 {
        self.persist_seq
    }

    /// Writes (and persists) `version` into data line `line`.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    pub fn write_data(&mut self, line: u64, version: u64) {
        star_scope::span!("triad/write");
        assert!(line < self.cfg.data_lines, "data line out of range");
        let cb_idx = line / TREE_ARITY as u64;
        let slot = (line % TREE_ARITY as u64) as usize;
        let block = self
            .counter_blocks
            .entry(cb_idx)
            .or_insert_with(Node64::zeroed);
        let counter = block.increment_counter(slot);
        let cb_line = block.to_line();

        // Data line: payload versioned, MAC bound to the counter.
        let mut dl = star_metadata::DataLine::from_version(version);
        let tag = self.mac.data_mac(line, dl.payload(), counter, 0);
        dl.set_mac_field(MacField::new(tag, 0));
        self.now_ps += 1_000;
        self.nvm.write(
            LineAddr::new(line),
            dl.to_line(),
            WriteCause::Data,
            self.now_ps,
        );

        // Write-through the counter block…
        self.nvm.write(
            LineAddr::new(self.cb_base + cb_idx),
            cb_line,
            WriteCause::CounterBlock,
            self.now_ps,
        );
        // …update the tree…
        self.tree.update_leaf(cb_idx as usize, cb_line.as_bytes());
        // …and write-through the live tree's node on each additional
        // persisted level (level 2 is the first hash level, tree level 1).
        // A memory too small to have a level persists the root there.
        let top = self.tree.height() - 1;
        let mut index = cb_idx as usize / TREE_ARITY;
        for (level, &base) in (2..).zip(&self.level_bases) {
            let mut bytes = [0u8; 64];
            bytes[..32].copy_from_slice(&self.tree.node((level - 1).min(top), index));
            self.nvm.write(
                LineAddr::new(base + index as u64),
                Line::from(bytes),
                WriteCause::BmtNode { level: level as u8 },
                self.now_ps,
            );
            index /= TREE_ARITY;
        }

        // One write-through transaction committed: the only instant a
        // power failure can observe under Triad's write-through model.
        self.persist_seq += 1;
    }

    /// Program load of data line `line`: reads it from NVM, verifies the
    /// stored MAC against the live counter, and returns the content
    /// version (0 for a never-written line). The front-end counterpart of
    /// [`write_data`](Self::write_data) for the service simulator.
    ///
    /// # Errors
    ///
    /// Returns [`IntegrityError::DataMac`] when the stored MAC fails
    /// against the live counter. An all-zero line whose counter shows it
    /// was written fails the MAC check like any other tampered line.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    pub fn read_data(&mut self, line: u64) -> Result<u64, IntegrityError> {
        assert!(line < self.cfg.data_lines, "data line out of range");
        let read = self
            .nvm
            .read(LineAddr::new(line), AccessClass::Data, self.now_ps);
        self.now_ps += read.latency_ps;
        let slot = (line % TREE_ARITY as u64) as usize;
        let counter = self
            .counter_blocks
            .get(&(line / TREE_ARITY as u64))
            .map_or(0, |b| b.counter(slot));
        if read.data.is_zero() && counter == 0 {
            return Ok(0);
        }
        let dl = star_metadata::DataLine::from_line(&read.data);
        if !self
            .mac
            .verify_data(line, dl.payload(), counter, dl.mac_field())
        {
            return Err(IntegrityError::DataMac { line });
        }
        Ok(u64::from_le_bytes(
            dl.payload()[..8].try_into().expect("8 bytes"),
        ))
    }

    /// Crashes the machine and recovers Triad-style: read every persisted
    /// counter block, rebuild the tree bottom-up, and compare roots.
    ///
    /// Returns `(nvm_line_reads, recovery_time_ns, verified)` using the
    /// same 100 ns/line model as the main engine.
    pub fn crash_and_recover(&self) -> (u64, u64, bool) {
        self.crash_and_recover_traced(&mut TraceRecorder::off())
    }

    /// [`crash_and_recover`](TriadMemory::crash_and_recover) with phase
    /// tracing: the full counter-block scan and the in-controller tree
    /// rebuild become [`TraceCategory::Recovery`] spans starting at the
    /// recorder's current clock; their durations sum exactly to the
    /// returned recovery time.
    ///
    /// Every leaf comes from the NVM store and only the root from the
    /// live tree. A line the store never held reads as zero, the tree's
    /// empty leaf, so the host rebuilds a fresh sparse tree from the
    /// store's resident non-zero counter-block lines alone, in one bulk
    /// update. The modeled scan still reads every counter block.
    pub fn crash_and_recover_traced(&self, trace: &mut TraceRecorder) -> (u64, u64, bool) {
        star_scope::span!("triad/recover");
        let reads = self.counter_blocks() as u64;
        let region = self.cb_base..self.cb_base + reads;
        // A written block is never all-zero because one of its counters is
        // at least 1, so a zero line is an empty leaf, which the fresh
        // tree already holds.
        let mut rebuilt = BonsaiMerkleTree::new(reads as usize);
        rebuilt.update_leaves(
            self.nvm
                .store()
                .iter()
                .filter(|(addr, line)| region.contains(&addr.index()) && !line.is_zero())
                .map(|(addr, line)| ((addr.index() - self.cb_base) as usize, line)),
        );
        let verified = rebuilt.root() == self.tree.root();
        let time_ns = reads * crate::recovery::NS_PER_LINE_ACCESS;
        let t0 = trace.now_ps();
        trace.span(
            TraceCategory::Recovery,
            "counter-block-scan",
            t0,
            time_ns * PS_PER_NS,
            ("line_accesses", reads),
            ("", 0),
        );
        // The bottom-up rebuild is controller-side hashing: zero modeled
        // NVM time, recorded for phase ordering.
        trace.span(
            TraceCategory::Recovery,
            "tree-rebuild",
            t0 + time_ns * PS_PER_NS,
            0,
            ("leaves", reads),
            ("verified", verified as u64),
        );
        (reads, time_ns, verified)
    }

    /// Tamper a persisted counter block in NVM (attack model hook).
    pub fn tamper_counter_block(&mut self, cb_idx: u64) {
        let addr = LineAddr::new(self.cb_base + cb_idx);
        let mut line = self.nvm.store().read(addr);
        line.as_bytes_mut()[0] ^= 0xff;
        self.nvm.store_mut().write(addr, line);
    }
}

impl Instrumented for TriadMemory {
    /// The controller clock, ps (advances with modeled NVM accesses).
    fn now_ps(&self) -> u64 {
        self.now_ps
    }

    /// The device; its write profile attributes the 2–4× amplification
    /// to data, counter-block and per-level BMT write-through traffic.
    fn nvm(&self) -> &NvmDevice {
        &self.nvm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_metadata::bmt::RootBuilder;

    fn small() -> TriadMemory {
        TriadMemory::new(TriadConfig {
            data_lines: 4_096,
            persist_levels: 2,
            ..TriadConfig::default()
        })
    }

    /// The reference recovery verdict: stream every counter-block line of
    /// the store, written or not, through a [`RootBuilder`] and compare
    /// with the live root.
    fn scan_verdict(m: &TriadMemory) -> bool {
        let mut rebuilt = RootBuilder::default();
        for i in 0..m.counter_blocks() as u64 {
            let block = m.nvm.store().read(LineAddr::new(m.cb_base + i));
            rebuilt.push_leaf(if block.is_zero() {
                &[]
            } else {
                block.as_bytes()
            });
        }
        rebuilt.finish() == m.tree.root()
    }

    /// At serve's 256 MB geometry (512 Ki leaves, whose top chunk holds
    /// two digests) the sparse rebuild's verdict equals the full scan's:
    /// before any write, after writes, and under three tampers of the
    /// counter-block region.
    #[test]
    fn sparse_recovery_agrees_with_a_full_scan_at_256_mb() {
        let fresh = TriadMemory::new(TriadConfig {
            data_lines: (256 << 20) / 64,
            ..TriadConfig::default()
        });
        assert_eq!(fresh.counter_blocks(), 512 << 10);
        let mut m = fresh.clone();
        for i in 0..3_000u64 {
            m.write_data(i.wrapping_mul(0x9e37_79b9) % m.cfg.data_lines, i + 1);
        }
        let written = m.counter_blocks.keys().copied().min().expect("a write");
        let never = (0..m.counter_blocks() as u64)
            .rev()
            .find(|cb| !m.counter_blocks.contains_key(cb))
            .expect("a never-written block");
        let flipped = |cb: u64| {
            let mut t = m.clone();
            t.tamper_counter_block(cb);
            t
        };
        let mut zeroed = m.clone();
        zeroed
            .nvm
            .store_mut()
            .write(LineAddr::new(m.cb_base + written), Line::ZERO);
        let cases = [
            ("never written", fresh, true),
            ("clean", m.clone(), true),
            ("flipped written block", flipped(written), false),
            ("forged never-written block", flipped(never), false),
            ("written block zeroed", zeroed, false),
        ];
        for (what, mem, want) in cases {
            let (reads, _, verified) = mem.crash_and_recover();
            assert_eq!(reads, 512 << 10, "{what}: reads every counter block");
            assert_eq!(verified, scan_verdict(&mem), "{what}: verdict");
            assert_eq!(verified, want, "{what}");
        }
    }

    #[test]
    fn bmt_rebuilds_from_leaves_and_verifies() {
        let mut m = small();
        for i in 0..2_000u64 {
            m.write_data((i * 37) % 4_096, i + 1);
        }
        let (reads, time_ns, verified) = m.crash_and_recover();
        assert!(
            verified,
            "attack-free Triad recovery verifies against the root"
        );
        assert_eq!(
            reads,
            m.counter_blocks() as u64,
            "reads every counter block"
        );
        assert!(time_ns > 0);
    }

    #[test]
    fn read_data_roundtrips_and_advances_the_clock() {
        let mut m = small();
        for i in 0..200u64 {
            m.write_data((i * 13) % 4_096, i + 1);
        }
        let t0 = m.now_ps();
        assert_eq!(m.read_data(199 * 13), Ok(200));
        assert!(m.now_ps() > t0, "reads cost modeled time");
        assert_eq!(m.read_data(4_000), Ok(0), "never-written lines read as 0");
        assert_eq!(
            m.nvm_stats().reads(AccessClass::Data),
            2,
            "both loads hit the device"
        );
    }

    #[test]
    fn tampered_data_line_fails_the_read_mac() {
        let mut m = small();
        m.write_data(17, 99);
        // Flip a payload byte of the stored data line directly.
        let addr = LineAddr::new(17);
        let mut line = m.nvm.store().read(addr);
        line.as_bytes_mut()[3] ^= 0x40;
        m.nvm.store_mut().write(addr, line);
        assert_eq!(m.read_data(17), Err(IntegrityError::DataMac { line: 17 }));
    }

    #[test]
    fn erased_written_data_line_fails_the_read() {
        let mut m = small();
        m.write_data(17, 99);
        // Zero the stored line: it must not read back as never-written.
        m.nvm.store_mut().write(LineAddr::new(17), Line::ZERO);
        assert_eq!(m.read_data(17), Err(IntegrityError::DataMac { line: 17 }));
    }

    #[test]
    fn tampered_counter_block_is_detected_by_the_root() {
        let mut m = small();
        for i in 0..500u64 {
            m.write_data(i, i + 1);
        }
        m.tamper_counter_block(3);
        let (_, _, verified) = m.crash_and_recover();
        assert!(!verified, "BMT root catches tampered leaves");
    }

    #[test]
    fn tampered_never_written_block_in_an_empty_run_is_detected() {
        let mut m = small();
        m.write_data(0, 1);
        m.write_data(4_095, 2);
        assert!(m.crash_and_recover().2, "untampered recovery verifies");
        // Counter blocks 1..511 were never written; corrupt one mid-run.
        m.tamper_counter_block(300);
        let (_, _, verified) = m.crash_and_recover();
        assert!(
            !verified,
            "a forged block among empty leaves changes the root"
        );
    }

    #[test]
    fn persisted_levels_hold_the_live_tree_nodes() {
        let mut m = TriadMemory::new(TriadConfig {
            data_lines: 4_096,
            persist_levels: 3,
            ..TriadConfig::default()
        });
        // Lines 8 and 4_000 leave never-written blocks in their groups.
        for (i, line) in [8u64, 4_000, 8, 100].into_iter().enumerate() {
            m.write_data(line, i as u64 + 1);
        }
        for line in [8u64, 100, 4_000] {
            let cb_idx = (line / TREE_ARITY as u64) as usize;
            for (level, &base) in (2..).zip(&m.level_bases) {
                let index = cb_idx / TREE_ARITY.pow(level as u32 - 1);
                let stored = m.nvm.store().read(LineAddr::new(base + index as u64));
                assert_eq!(
                    stored.as_bytes()[..32],
                    m.tree.node(level - 1, index),
                    "line {line} level {level}"
                );
                assert!(stored.as_bytes()[32..].iter().all(|&b| b == 0));
            }
        }
    }

    #[test]
    fn write_amplification_is_two_to_four_x() {
        // persist_levels 1..=3 → 2x, 3x, 4x data writes (paper: "2-4
        // times memory writes"), also on a memory whose one-leaf tree has
        // fewer levels than are persisted (those persist the root).
        for data_lines in [8u64, 4_096] {
            for (levels, expect) in [(1usize, 2u64), (2, 3), (3, 4)] {
                let mut m = TriadMemory::new(TriadConfig {
                    data_lines,
                    persist_levels: levels,
                    ..TriadConfig::default()
                });
                for i in 0..300u64 {
                    m.write_data(i % data_lines.min(64), i + 1);
                }
                let total = m.nvm_stats().total_writes();
                assert_eq!(total, 300 * expect, "{data_lines} lines, {levels} levels");
                assert!(m.crash_and_recover().2);
            }
        }
    }

    #[test]
    fn provenance_attributes_the_amplification() {
        let mut m = TriadMemory::new(TriadConfig {
            data_lines: 4_096,
            persist_levels: 3,
            ..TriadConfig::default()
        });
        for i in 0..300u64 {
            m.write_data(i % 64, i + 1);
        }
        let p = m.prof_summary();
        assert_eq!(p.count(WriteCause::Data), 300);
        assert_eq!(p.count(WriteCause::CounterBlock), 300);
        assert_eq!(p.bmt_levels, vec![(2, 300), (3, 300)]);
        assert_eq!(p.total_writes(), m.nvm_stats().total_writes());
    }

    #[test]
    fn recovery_cost_scales_with_memory_not_dirty_set() {
        // One write or a thousand: Triad recovery reads the same number
        // of lines (every counter block) — unlike STAR.
        let mut a = small();
        a.write_data(0, 1);
        let mut b = small();
        for i in 0..1_000u64 {
            b.write_data(i % 4_096, i + 1);
        }
        assert_eq!(a.crash_and_recover().0, b.crash_and_recover().0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_write_panics() {
        small().write_data(4_096, 1);
    }
}
