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
//! are SHA-256 digests. The full tree lives in controller memory (it is
//! derived state); NVM holds the counter blocks and the persisted low
//! levels. Recovery reads every counter block, rebuilds bottom-up, and
//! compares against the on-chip root — recovery time is proportional to
//! the *memory* size, not the dirty set, which is exactly the scaling the
//! paper's Fig. 14 argument holds against it.

use crate::persist::{CrashPlan, CrashRequested, PersistPointKind};
use crate::stats::Instrumented;
use star_metadata::bmt::{BonsaiMerkleTree, RootBuilder};
use star_metadata::{MacField, Node64, SitMac, TREE_ARITY};
use star_nvm::{AccessClass, Line, LineAddr, NvmConfig, NvmDevice, WriteCause, PS_PER_NS};
use star_trace::{TraceCategory, TraceRecorder};

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
    /// Counter blocks (leaves), kept current in controller state and
    /// persisted write-through.
    counter_blocks: Vec<Node64>,
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
    /// Armed crash plan, if any (see [`TriadMemory::arm`]).
    crash_plan: Option<CrashPlan>,
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
            counter_blocks: vec![Node64::zeroed(); cb_count as usize],
            cb_base: cfg.data_lines,
            level_bases,
            tree,
            cfg,
            now_ps: 0,
            persist_seq: 0,
            crash_plan: None,
        }
    }

    /// Number of counter blocks (tree leaves).
    pub fn counter_blocks(&self) -> usize {
        self.counter_blocks.len()
    }

    /// The on-chip BMT root.
    pub fn root(&self) -> [u8; 32] {
        self.tree.root()
    }

    /// NVM statistics.
    pub fn nvm_stats(&self) -> &star_nvm::NvmStats {
        self.nvm.stats()
    }

    /// Arms a typed [`CrashPlan`], exactly as
    /// [`SecureMemory::arm`](crate::SecureMemory::arm) does: Triad's
    /// persist points are its write-throughs — one per
    /// [`write_data`](Self::write_data) — and reaching point `plan.at`
    /// raises a [`CrashRequested`] panic for a `catch_unwind` driver.
    pub fn arm(&mut self, plan: CrashPlan) {
        self.crash_plan = Some(plan);
    }

    /// Disarms a previously armed crash plan.
    pub fn disarm_crash(&mut self) {
        self.crash_plan = None;
    }

    /// Persist points (durable write-throughs) committed so far.
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
        let cb_idx = (line / TREE_ARITY as u64) as usize;
        let slot = (line % TREE_ARITY as u64) as usize;
        let counter = self.counter_blocks[cb_idx].increment_counter(slot);

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
        let cb_line = self.counter_blocks[cb_idx].to_line();
        self.nvm.write(
            LineAddr::new(self.cb_base + cb_idx as u64),
            cb_line,
            WriteCause::CounterBlock,
            self.now_ps,
        );
        // …update the tree…
        self.tree.update_leaf(cb_idx, cb_line.as_bytes());
        // …and write-through the live tree's node on each additional
        // persisted level (level 2 is the first hash level, tree level 1).
        // A memory too small to have a level persists the root there.
        let top = self.tree.height() - 1;
        let mut index = cb_idx / TREE_ARITY;
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
        if self.crash_plan.map(|p| p.at) == Some(self.persist_seq) {
            std::panic::panic_any(CrashRequested {
                seq: self.persist_seq,
                kind: PersistPointKind::DataLineCommit { line, version },
            });
        }
    }

    /// Program load of data line `line`: reads it from NVM, verifies the
    /// stored MAC against the live counter, and returns the content
    /// version (0 for a never-written line). The front-end counterpart of
    /// [`write_data`](Self::write_data) for the service simulator.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range or the MAC check fails
    /// (integrity violation). An all-zero line whose counter shows it was
    /// written fails the MAC check like any other tampered line.
    pub fn read_data(&mut self, line: u64) -> u64 {
        assert!(line < self.cfg.data_lines, "data line out of range");
        let read = self
            .nvm
            .read(LineAddr::new(line), AccessClass::Data, self.now_ps);
        self.now_ps += read.latency_ps;
        let cb_idx = (line / TREE_ARITY as u64) as usize;
        let slot = (line % TREE_ARITY as u64) as usize;
        let counter = self.counter_blocks[cb_idx].counter(slot);
        if read.data.is_zero() && counter == 0 {
            return 0;
        }
        let dl = star_metadata::DataLine::from_line(&read.data);
        assert!(
            self.mac
                .verify_data(line, dl.payload(), counter, dl.mac_field()),
            "integrity violation reading data line {line}"
        );
        u64::from_le_bytes(dl.payload()[..8].try_into().expect("8 bytes"))
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
    pub fn crash_and_recover_traced(&self, trace: &mut TraceRecorder) -> (u64, u64, bool) {
        star_scope::span!("triad/recover");
        let store = self.nvm.store();
        let reads = self.counter_blocks.len() as u64;
        let mut rebuilt = RootBuilder::default();
        for i in 0..reads {
            // Never-written counter blocks read as zero lines and
            // correspond to the tree's untouched (empty) leaves; a
            // *written* block is never all-zero because one of its
            // counters is at least 1.
            let block = store.read(LineAddr::new(self.cb_base + i));
            rebuilt.push_leaf(if block.is_zero() {
                &[]
            } else {
                block.as_bytes()
            });
        }
        let verified = rebuilt.finish() == self.tree.root();
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
            ("leaves", self.counter_blocks.len() as u64),
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

    /// Per-line wear summary of the whole device.
    fn wear_summary(&self) -> star_nvm::WearSummary {
        self.nvm.wear().summary()
    }

    /// Write-provenance summary: data vs counter-block vs per-level BMT
    /// write-through traffic (the 2–4× amplification, attributed).
    fn prof_summary(&self) -> star_nvm::ProfSummary {
        self.nvm.prof_summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TriadMemory {
        TriadMemory::new(TriadConfig {
            data_lines: 4_096,
            persist_levels: 2,
            ..TriadConfig::default()
        })
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
        assert_eq!(m.read_data(199 * 13), 200);
        assert!(m.now_ps() > t0, "reads cost modeled time");
        assert_eq!(m.read_data(4_000), 0, "never-written lines read as 0");
        assert_eq!(
            m.nvm_stats().reads(AccessClass::Data),
            2,
            "both loads hit the device"
        );
    }

    #[test]
    #[should_panic(expected = "integrity violation")]
    fn tampered_data_line_fails_the_read_mac() {
        let mut m = small();
        m.write_data(17, 99);
        // Flip a payload byte of the stored data line directly.
        let addr = LineAddr::new(17);
        let mut line = m.nvm.store().read(addr);
        line.as_bytes_mut()[3] ^= 0x40;
        m.nvm.store_mut().write(addr, line);
        m.read_data(17);
    }

    #[test]
    #[should_panic(expected = "integrity violation")]
    fn erased_written_data_line_fails_the_read() {
        let mut m = small();
        m.write_data(17, 99);
        // Zero the stored line: it must not read back as never-written.
        m.nvm.store_mut().write(LineAddr::new(17), Line::ZERO);
        m.read_data(17);
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

    #[test]
    fn armed_crash_plan_fires_at_the_requested_write_through() {
        let mut m = small();
        m.arm(CrashPlan::at(3));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for i in 0..10u64 {
                m.write_data(i, i + 1);
            }
        }))
        .expect_err("armed plan must fire");
        let crash = err
            .downcast_ref::<CrashRequested>()
            .expect("typed crash payload");
        assert_eq!(crash.seq, 3);
        assert!(matches!(
            crash.kind,
            PersistPointKind::DataLineCommit {
                line: 2,
                version: 3
            }
        ));
        m.disarm_crash();
        assert_eq!(m.persist_points(), 3);
        // The machine is still coherent: recovery verifies.
        assert!(m.crash_and_recover().2);
    }
}
