//! Crash images, attacks, and the recovery process (paper §III-F).
//!
//! A [`CrashImage`] is what physically survives a crash: the NVM contents
//! (with the battery-flushed ADR lines), plus the on-chip non-volatile
//! registers — the SIT root, the bitmap top layer and the cache-tree
//! root. Everything volatile (metadata cache, CPU caches, core state) is
//! gone; the image also carries a *ground truth* snapshot of the dirty
//! metadata, used only as a simulation oracle to check that recovery
//! reproduced the pre-crash state exactly.
//!
//! [`recover`] implements each scheme's recovery:
//!
//! * **STAR** walks the multi-layer index to find the stale nodes, reads
//!   each stale node's NVM copy (counter MSBs), its 8 children (counter
//!   LSBs from their MAC fields) and its parent (MAC recomputation) — 10
//!   line reads per stale node — then rebuilds the cache-tree and compares
//!   roots to detect tampering/replay during recovery.
//! * **Anubis** scans the whole shadow-table region and rewrites every
//!   recorded node, each counter the maximum of its entries and NVM.
//! * **Strict** has nothing stale; **WB** is not recoverable.
//!
//! STAR and Anubis differ only in how they restore counters. Both then
//! run one tail: reseal every restored node, check STAR's cache-tree
//! root, write the nodes back and count the oracle's mismatches. A node
//! is sealed by [`SitMac::seal`] under the counter `covering_counter`
//! finds, the same rule the engine seals with and the crash-time
//! cache-tree root is built from.
//!
//! Recovery time uses the paper's model: 100 ns per 64-byte NVM access.

use crate::anubis::StEntry;
use crate::config::SchemeKind;
use crate::star::bitmap::BitmapLayout;
use crate::star::cache_tree::{self, CacheTreeRoot};
use crate::star::restore::restore_counter;
use star_metadata::{DataLine, MacField, Node64, NodeChild, NodeId, SitGeometry, SitMac};
use star_nvm::{Line, LineAddr, LineStore, PS_PER_NS};
use star_trace::{TraceCategory, TraceRecorder};
use std::collections::HashMap;

/// Paper's recovery cost model: fetching or updating one 64-byte line
/// takes 100 ns.
pub const NS_PER_LINE_ACCESS: u64 = 100;

/// What survives a crash.
#[derive(Debug, Clone)]
pub struct CrashImage {
    scheme: SchemeKind,
    /// NVM contents after the ADR battery flush.
    pub store: LineStore,
    geometry: SitGeometry,
    mac: SitMac,
    /// Counter LSBs a MAC field carries (0 unless STAR).
    lsb_bits: u32,
    /// The on-chip SIT root register.
    pub root_register: Node64,
    bitmap_layout: Option<BitmapLayout>,
    bitmap_top: Line,
    cache_tree_root: Option<CacheTreeRoot>,
    num_cache_sets: usize,
    st_base: u64,
    st_lines: usize,
    /// Oracle: dirty nodes' counters at crash time.
    ground_truth: HashMap<u64, [u64; 8]>,
}

impl CrashImage {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        scheme: SchemeKind,
        store: LineStore,
        geometry: SitGeometry,
        mac: SitMac,
        lsb_bits: u32,
        root_register: Node64,
        bitmap_layout: Option<BitmapLayout>,
        bitmap_top: Line,
        num_cache_sets: usize,
        st_base: u64,
        st_lines: usize,
        ground_truth: HashMap<u64, [u64; 8]>,
    ) -> Self {
        Self {
            scheme,
            store,
            geometry,
            mac,
            lsb_bits,
            root_register,
            bitmap_layout,
            bitmap_top,
            cache_tree_root: None,
            num_cache_sets,
            st_base,
            st_lines,
            ground_truth,
        }
    }

    /// The scheme that was running.
    pub fn scheme(&self) -> SchemeKind {
        self.scheme
    }

    /// The tree geometry (for address math in tests and attacks).
    pub fn geometry(&self) -> &SitGeometry {
        &self.geometry
    }

    /// The NVM line range of the bitmap recovery area (scheme scratch
    /// state, reinitialized on reboot).
    pub fn recovery_area(&self) -> core::ops::Range<u64> {
        self.geometry.meta_end()..self.st_base
    }

    /// The NVM line range of the Anubis shadow table (empty-by-convention
    /// zero lines under other schemes).
    pub fn shadow_table(&self) -> core::ops::Range<u64> {
        self.st_base..self.st_base + self.st_lines as u64
    }

    /// Number of dirty (stale-in-NVM) metadata nodes at crash time.
    pub fn stale_node_count(&self) -> usize {
        self.ground_truth.len()
    }

    /// Flat indices of the stale metadata nodes (simulation oracle; a
    /// sorted copy so tests and demos can pick recovery-relevant targets).
    pub fn stale_nodes(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.ground_truth.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// The lowest (flat node index, slot) whose counter in NVM sits below
    /// its pre-crash value (simulation oracle). Before recovery every
    /// stale node qualifies; after it, `Some` means a counter came back
    /// rewound, so the next write to that slot would reuse a one-time pad.
    pub fn rewound_counter(&self) -> Option<(u64, usize)> {
        self.ground_truth
            .iter()
            .filter_map(|(&flat, before)| {
                let node = self.geometry.node_at_flat(flat).expect("metadata");
                let stored = Node64::from_line(&self.store.read(self.geometry.line_of(node)));
                (0..8)
                    .find(|&slot| stored.counter(slot) < before[slot])
                    .map(|slot| (flat, slot))
            })
            .min()
    }

    /// The counter covering `node`, which its MAC binds (paper §III-B):
    /// the root register's for a top-level node, else the counter in the
    /// parent's live copy if `live` (flat index → node) holds one — at a
    /// crash the metadata cache, then the pending write-backs; during
    /// recovery the restored set — else in the parent's NVM copy.
    pub(crate) fn covering_counter<'a>(
        &self,
        node: NodeId,
        live: impl Fn(u64) -> Option<&'a Node64>,
    ) -> u64 {
        let Some(parent) = self.geometry.parent(node) else {
            return self.root_register.counter(node.index as usize);
        };
        let slot = self.geometry.parent_slot(node);
        match live(self.geometry.flat_index(parent)) {
            Some(n) => n.counter(slot),
            None => {
                Node64::from_line(&self.store.read(self.geometry.line_of(parent))).counter(slot)
            }
        }
    }

    /// Seals each `(flat index, counters)` of `nodes` under the counter
    /// covering it, its parent's live copy read through `live`.
    fn seal_all<'c, 'a>(
        &self,
        nodes: impl Iterator<Item = (u64, &'c [u64; 8])>,
        live: impl Fn(u64) -> Option<&'a Node64>,
    ) -> Vec<(u64, MacField)> {
        nodes
            .map(|(flat, counters)| {
                let node = self.geometry.node_at_flat(flat).expect("metadata");
                let covering = self.covering_counter(node, &live);
                let line = self.geometry.line_of(node).index();
                (flat, self.mac.seal(line, counters, covering, self.lsb_bits))
            })
            .collect()
    }

    /// The cache-tree root over sealed dirty nodes (paper Fig. 9).
    fn cache_tree_root_of(&self, sealed: &[(u64, MacField)]) -> CacheTreeRoot {
        let entries: Vec<(u64, u64)> = sealed.iter().map(|&(f, m)| (f, m.bits())).collect();
        cache_tree::root_from_dirty(&entries, self.num_cache_sets)
    }

    /// Stores STAR's on-chip cache-tree root: the dirty nodes sealed as
    /// they stood at the crash, parents read through `live`.
    pub(crate) fn seal_cache_tree<'a>(&mut self, live: impl Fn(u64) -> Option<&'a Node64>) {
        let sealed = self.seal_all(self.ground_truth.iter().map(|(&f, c)| (f, c)), live);
        self.cache_tree_root = Some(self.cache_tree_root_of(&sealed));
    }

    /// Applies an attack to the NVM image before recovery runs.
    pub fn apply_attack(&mut self, attack: &Attack) {
        match attack {
            Attack::TamperLine { addr, xor_byte } => {
                let mut line = self.store.read(*addr);
                line.as_bytes_mut()[2] ^= xor_byte;
                // Avoid accidentally producing the all-zero
                // "uninitialized" convention.
                if line.is_zero() {
                    line.as_bytes_mut()[1] ^= 0xff;
                }
                self.store.write(*addr, line);
            }
            Attack::ReplayLine { addr, old } => {
                self.store.write(*addr, *old);
            }
            Attack::ReplayChildTuple {
                child_addr,
                lsb_delta,
            } => {
                // Replace the child's persisted (content, MAC, LSBs) with
                // a *consistent-looking* older tuple: in the model this is
                // approximated by rolling the stored LSBs back, which is
                // exactly the information recovery consumes.
                let mut line = self.store.read(*child_addr);
                let bytes = line.as_bytes_mut();
                let field =
                    MacField::from_bits(u64::from_le_bytes(bytes[56..].try_into().expect("8")));
                let rolled = field.lsb10().wrapping_sub(*lsb_delta) & 0x3ff;
                let new_field = MacField::new(field.mac(), rolled);
                bytes[56..].copy_from_slice(&new_field.bits().to_le_bytes());
                self.store.write(*child_addr, line);
            }
            Attack::TamperBitmap { meta_idx } => {
                if let Some(layout) = &self.bitmap_layout {
                    let line_no = meta_idx / 512;
                    if layout.layers() == 1 {
                        let b = self.bitmap_top.as_bytes_mut();
                        b[(meta_idx / 8) as usize] &= !(1 << (meta_idx % 8));
                    } else {
                        let addr = layout.ra_addr(0, line_no);
                        let mut line = self.store.read(addr);
                        let bit = meta_idx % 512;
                        line.as_bytes_mut()[(bit / 8) as usize] &= !(1 << (bit % 8));
                        self.store.write(addr, line);
                    }
                }
            }
        }
    }
}

/// Attacks an adversary can mount on NVM between crash and recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Attack {
    /// Flip bits in an arbitrary NVM line (tampering). The mask lands in
    /// byte 2, bits 16–23 of a metadata node's counter 0: above the
    /// default 10-bit counter-LSB window that recovery takes from a
    /// child's MAC field, so recovering a stale node reads the flipped
    /// bits. A flip in byte 0 sits inside the window, where the child's
    /// LSBs replace it; it shows only when it moves a wrap.
    TamperLine {
        /// Target line.
        addr: LineAddr,
        /// XOR mask applied to byte 2.
        xor_byte: u8,
    },
    /// Write back a previously captured version of a line (replay).
    ReplayLine {
        /// Target line.
        addr: LineAddr,
        /// The captured old content.
        old: Line,
    },
    /// Roll back the synergized LSBs in a child's MAC field — the
    /// replay-the-tuple attack of paper §III-E.
    ReplayChildTuple {
        /// The child line whose stored LSBs are rolled back.
        child_addr: LineAddr,
        /// How many increments to roll back.
        lsb_delta: u16,
    },
    /// Clear a stale bit in the L1 bitmap so recovery skips that node.
    TamperBitmap {
        /// Flat metadata index whose bit is cleared.
        meta_idx: u64,
    },
}

/// How recovery went.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// The scheme recovered.
    pub scheme: SchemeKind,
    /// Stale nodes the scheme identified and restored.
    pub stale_count: usize,
    /// NVM line reads performed.
    pub nvm_reads: u64,
    /// NVM line writes performed.
    pub nvm_writes: u64,
    /// Modeled recovery time (100 ns per line access).
    pub recovery_time_ns: u64,
    /// Whether the recovery verification (cache-tree root) passed.
    pub verified: bool,
    /// Simulation oracle: restored state matches the pre-crash cache.
    pub correct: bool,
    /// Oracle mismatch count (0 when `correct`).
    pub mismatches: usize,
}

impl RecoveryReport {
    /// Recovery time in seconds.
    pub fn recovery_time_s(&self) -> f64 {
        self.recovery_time_ns as f64 * 1e-9
    }
}

/// One user-visible outage: the fixed platform reboot plus the scheme's
/// metadata recovery (or, for non-recoverable schemes, the modeled full
/// rebuild). The service simulator (star-serve) records one span per
/// injected power failure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DowntimeSpan {
    /// Service-clock time the power failed, in ns.
    pub at_ns: u64,
    /// Fixed platform reboot cost (firmware + controller bring-up).
    pub reboot_ns: u64,
    /// Scheme recovery (or rebuild) time on the same clock.
    pub recovery_ns: u64,
    /// Stale metadata nodes the recovery restored.
    pub stale_nodes: u64,
    /// NVM line reads recovery performed.
    pub nvm_reads: u64,
    /// NVM line writes recovery performed.
    pub nvm_writes: u64,
}

impl DowntimeSpan {
    /// A span recorded from a successful [`RecoveryReport`].
    pub fn from_recovery(at_ns: u64, reboot_ns: u64, rep: &RecoveryReport) -> Self {
        Self {
            at_ns,
            reboot_ns,
            recovery_ns: rep.recovery_time_ns,
            stale_nodes: rep.stale_count as u64,
            nvm_reads: rep.nvm_reads,
            nvm_writes: rep.nvm_writes,
        }
    }

    /// Total user-visible dead time of this outage.
    pub fn total_ns(&self) -> u64 {
        self.reboot_ns + self.recovery_ns
    }
}

/// The outages accumulated over a service horizon, in injection order.
///
/// Invariant (pinned by the serve report tests): the ledger's
/// [`total_ns`](Self::total_ns) — the unavailability a serve report
/// cites — is exactly the sum of its spans' `total_ns`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DowntimeLedger {
    spans: Vec<DowntimeSpan>,
}

impl DowntimeLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one outage.
    pub fn push(&mut self, span: DowntimeSpan) {
        self.spans.push(span);
    }

    /// The recorded outages in injection order.
    pub fn spans(&self) -> &[DowntimeSpan] {
        &self.spans
    }

    /// Number of outages.
    pub fn count(&self) -> usize {
        self.spans.len()
    }

    /// Total unavailability: the sum of every span's dead time.
    pub fn total_ns(&self) -> u64 {
        self.spans.iter().map(DowntimeSpan::total_ns).sum()
    }
}

/// Why recovery failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// The scheme cannot recover (WB baseline).
    NotRecoverable(SchemeKind),
    /// The cache-tree root did not match: an attack occurred during
    /// recovery.
    AttackDetected {
        /// Root stored in the on-chip register.
        expected: CacheTreeRoot,
        /// Root recomputed from the restored metadata.
        recomputed: CacheTreeRoot,
    },
    /// A persisted line decodes to a value recovery cannot use, such as
    /// a shadow-table entry that names no metadata node: the image was
    /// corrupted or forged.
    MalformedImage {
        /// The NVM line that failed to decode.
        line: LineAddr,
    },
}

impl core::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RecoveryError::NotRecoverable(s) => {
                write!(f, "scheme {s} does not support recovery")
            }
            RecoveryError::AttackDetected { .. } => {
                write!(
                    f,
                    "attack detected during recovery: cache-tree root mismatch"
                )
            }
            RecoveryError::MalformedImage { line } => {
                write!(
                    f,
                    "malformed crash image: NVM line {line:#x} decodes to an out-of-range entry"
                )
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Runs the scheme's recovery process over `image`.
///
/// # Errors
///
/// [`RecoveryError::NotRecoverable`] for WB;
/// [`RecoveryError::AttackDetected`] when STAR's cache-tree verification
/// fails; [`RecoveryError::MalformedImage`] when an Anubis shadow-table
/// entry names no metadata node.
pub fn recover(image: &mut CrashImage) -> Result<RecoveryReport, RecoveryError> {
    recover_traced(image, &mut TraceRecorder::off())
}

/// [`recover`], recording each recovery phase as a
/// [`TraceCategory::Recovery`] span into `trace`.
///
/// The phase timeline starts at the recorder's current clock
/// ([`TraceRecorder::now_ps`]) — set it to the crash timestamp to place
/// recovery after the crashed run on one merged timeline. Phases are
/// contiguous and their durations (the paper's 100 ns per line access)
/// sum exactly to the report's `recovery_time_ns`.
///
/// # Errors
///
/// Same as [`recover`].
pub fn recover_traced(
    image: &mut CrashImage,
    trace: &mut TraceRecorder,
) -> Result<RecoveryReport, RecoveryError> {
    star_scope::span!("engine/recover");
    match image.scheme {
        SchemeKind::WriteBack => Err(RecoveryError::NotRecoverable(SchemeKind::WriteBack)),
        SchemeKind::Strict => Ok(strict_recover(image, trace)),
        SchemeKind::Anubis => anubis_recover(image, trace),
        SchemeKind::Star => star_recover(image, trace),
    }
}

/// Emits one recovery-phase span covering `accesses` line accesses under
/// the 100 ns/line model and returns its end timestamp (the next
/// phase's start).
fn phase_span(trace: &mut TraceRecorder, name: &'static str, start_ps: u64, accesses: u64) -> u64 {
    let dur_ps = accesses * NS_PER_LINE_ACCESS * PS_PER_NS;
    trace.span(
        TraceCategory::Recovery,
        name,
        start_ps,
        dur_ps,
        ("line_accesses", accesses),
        ("", 0),
    );
    start_ps + dur_ps
}

fn strict_recover(image: &CrashImage, trace: &mut TraceRecorder) -> RecoveryReport {
    // Write-through persistence leaves nothing stale.
    let t0 = trace.now_ps();
    phase_span(trace, "strict-noop", t0, 0);
    RecoveryReport {
        scheme: SchemeKind::Strict,
        stale_count: 0,
        nvm_reads: 0,
        nvm_writes: 0,
        recovery_time_ns: 0,
        verified: true,
        correct: image.ground_truth.is_empty(),
        mismatches: image.ground_truth.len(),
    }
}

/// The LSBs persisted in a child line's MAC field (0 for never-written
/// lines).
fn child_lsb(store: &LineStore, addr: LineAddr, is_data: bool) -> u16 {
    let line = store.read(addr);
    if line.is_zero() {
        return 0;
    }
    if is_data {
        DataLine::from_line(&line).mac_field().lsb10()
    } else {
        Node64::from_line(&line).mac_field().lsb10()
    }
}

fn star_recover(
    image: &mut CrashImage,
    trace: &mut TraceRecorder,
) -> Result<RecoveryReport, RecoveryError> {
    let layout = image
        .bitmap_layout
        .as_ref()
        .expect("STAR always has a bitmap");
    let geometry = &image.geometry;
    let mut reads: u64 = 0;
    let mut t = trace.now_ps();

    // 1. Multi-layer index walk: read only the non-zero bitmap lines.
    let stale = layout.collect_stale(&image.bitmap_top, &image.store, &mut reads);
    t = phase_span(trace, "index-walk", t, reads);
    let walk_reads = reads;

    // 2. Restore counters: MSBs from the stale NVM copy, LSBs from the
    //    eight children's MAC fields.
    let mut restored: HashMap<u64, Node64> = HashMap::with_capacity(stale.len());
    for &flat in &stale {
        let node_id = geometry
            .node_at_flat(flat)
            .expect("bitmap covers metadata only");
        reads += 1; // the stale node itself
        let stale_node = Node64::from_line(&image.store.read(geometry.line_of(node_id)));
        let mut out = Node64::zeroed();
        for slot in 0..8 {
            let stale_counter = stale_node.counter(slot);
            let new_counter = match geometry.child(node_id, slot) {
                None => stale_counter, // ragged edge: no child exists
                Some(NodeChild::DataLine(d)) => {
                    reads += 1;
                    let lsb = child_lsb(&image.store, LineAddr::new(d), true);
                    restore_counter(stale_counter, lsb, image.lsb_bits)
                }
                Some(NodeChild::Node(c)) => {
                    reads += 1;
                    let lsb = child_lsb(&image.store, geometry.line_of(c), false);
                    restore_counter(stale_counter, lsb, image.lsb_bits)
                }
            };
            out.set_counter(slot, new_counter);
        }
        reads += 1; // the parent (read for MAC recomputation below)
        restored.insert(flat, out);
    }
    t = phase_span(trace, "counter-restore", t, reads - walk_reads);

    reseal_and_write_back(image, trace, t, restored, reads, stale.len())
}

fn anubis_recover(
    image: &mut CrashImage,
    trace: &mut TraceRecorder,
) -> Result<RecoveryReport, RecoveryError> {
    let geometry = &image.geometry;
    let mut reads = image.st_lines as u64; // scan the whole shadow table
    let mut t = trace.now_ps();
    t = phase_span(trace, "shadow-scan", t, reads);

    // Collect entries; with slot reuse a node can appear in two slots, and
    // counters are monotonic, so element-wise max resolves the ordering.
    let mut merged: HashMap<u64, [u64; 8]> = HashMap::new();
    for slot in 0..image.st_lines as u64 {
        let addr = LineAddr::new(image.st_base + slot);
        if let Some(entry) = StEntry::from_line(&image.store.read(addr)) {
            // The image is untrusted: an entry must name a metadata node.
            if geometry.node_at_flat(entry.flat_idx).is_none() {
                return Err(RecoveryError::MalformedImage { line: addr });
            }
            let acc = merged.entry(entry.flat_idx).or_insert([0; 8]);
            for (a, c) in acc.iter_mut().zip(entry.counters) {
                *a = (*a).max(c);
            }
        }
    }

    // Restore counters; the shared tail reseals them (in any order: a
    // seal reads the restored map, with NVM as the fallback).
    let mut restored: HashMap<u64, Node64> = HashMap::new();
    for (&flat, counters) in &merged {
        let node_id = geometry
            .node_at_flat(flat)
            .expect("ST entries were range-checked");
        reads += 1; // read the stale node (for parity with the paper's model)
        let mut node = Node64::from_line(&image.store.read(geometry.line_of(node_id)));
        for (slot, &counter) in counters.iter().enumerate() {
            // Counters only move forward; a stale ST entry never regresses
            // the NVM copy.
            node.set_counter(slot, node.counter(slot).max(counter));
        }
        restored.insert(flat, node);
    }
    t = phase_span(trace, "counter-restore", t, reads - image.st_lines as u64);
    let stale_count = image.ground_truth.len();
    reseal_and_write_back(image, trace, t, restored, reads, stale_count)
}

/// The tail STAR and Anubis recovery share once the stale nodes' counters
/// are restored (phases from `t`): reseal each restored node under its
/// covering counter, check STAR's cache-tree root against the on-chip
/// one, write the nodes back and count the oracle's mismatches. STAR
/// also counts a restored node that was clean at the crash; Anubis does
/// not, because its shadow table legitimately restores more than the
/// dirty set.
fn reseal_and_write_back(
    image: &mut CrashImage,
    trace: &mut TraceRecorder,
    mut t: u64,
    mut restored: HashMap<u64, Node64>,
    nvm_reads: u64,
    stale_count: usize,
) -> Result<RecoveryReport, RecoveryError> {
    let sealed = image.seal_all(restored.iter().map(|(&f, n)| (f, n.counters())), |pf| {
        restored.get(&pf)
    });
    let star = image.scheme == SchemeKind::Star;
    if star {
        // On-chip MAC/hash work: no NVM line accesses, so the phase has
        // zero modeled duration.
        t = phase_span(trace, "cache-tree-verify", t, 0);
        let recomputed = image.cache_tree_root_of(&sealed);
        let expected = image
            .cache_tree_root
            .expect("STAR stores a cache-tree root");
        if recomputed != expected {
            trace.set_now(t);
            trace.instant(
                TraceCategory::Recovery,
                "attack-detected",
                ("stale_nodes", stale_count as u64),
            );
            return Err(RecoveryError::AttackDetected {
                expected,
                recomputed,
            });
        }
    }
    for (flat, field) in sealed {
        let node = restored.get_mut(&flat).expect("sealed from this set");
        node.set_mac_field(field);
        let id = image.geometry.node_at_flat(flat).expect("metadata");
        image
            .store
            .write(image.geometry.line_of(id), node.to_line());
    }
    let nvm_writes = restored.len() as u64;
    phase_span(trace, "writeback", t, nvm_writes);

    let mut mismatches = image
        .ground_truth
        .iter()
        .filter(|&(flat, counters)| restored.get(flat).map(Node64::counters) != Some(counters))
        .count();
    if star {
        mismatches += restored
            .keys()
            .filter(|f| !image.ground_truth.contains_key(f))
            .count();
    }
    Ok(RecoveryReport {
        scheme: image.scheme,
        stale_count,
        nvm_reads,
        nvm_writes,
        recovery_time_ns: (nvm_reads + nvm_writes) * NS_PER_LINE_ACCESS,
        // STAR's root matched; Anubis protects its shadow table by other
        // means (out of scope).
        verified: true,
        correct: mismatches == 0,
        mismatches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SecureMemConfig;
    use crate::engine::SecureMemory;

    fn run_workload(scheme: SchemeKind, ops: u64) -> SecureMemory {
        let mut m = SecureMemory::new(scheme, SecureMemConfig::small());
        for i in 0..ops {
            let line = (i * 199) % 1024;
            m.write_data(line, i + 1);
            m.persist_data(line);
            if i % 7 == 0 {
                m.fence();
            }
        }
        m
    }

    #[test]
    fn star_clean_recovery_is_exact() {
        let m = run_workload(SchemeKind::Star, 3_000);
        let dirty = m.dirty_metadata_count();
        assert!(dirty > 0, "workload must leave dirty metadata");
        let report = m.crash_and_recover().expect("no attack");
        assert!(report.verified);
        assert!(report.correct, "{} mismatches", report.mismatches);
        assert_eq!(report.stale_count, dirty);
        // 10 line accesses per stale node plus bitmap reads.
        assert!(report.nvm_reads >= 10 * dirty as u64);
        assert!(report.recovery_time_ns > 0);
    }

    #[test]
    fn anubis_clean_recovery_is_exact() {
        let m = run_workload(SchemeKind::Anubis, 3_000);
        let dirty = m.dirty_metadata_count();
        assert!(dirty > 0);
        let report = m.crash_and_recover().expect("recoverable");
        assert!(report.correct, "{} mismatches", report.mismatches);
        assert_eq!(report.stale_count, dirty);
    }

    #[test]
    fn a_lowered_counter_is_named_as_the_rewind() {
        let mut image = run_workload(SchemeKind::Star, 3_000).crash();
        recover(&mut image).expect("no attack");
        assert_eq!(
            image.rewound_counter(),
            None,
            "clean recovery rewinds nothing"
        );
        let flat = image.stale_nodes()[image.stale_node_count() / 2];
        let addr = image
            .geometry()
            .line_of(image.geometry().node_at_flat(flat).unwrap());
        let mut node = Node64::from_line(&image.store.read(addr));
        let slot = (0..8).rfind(|&s| node.counter(s) > 0).expect("a used slot");
        node.set_counter(slot, node.counter(slot) - 1);
        image.store.write(addr, node.to_line());
        assert_eq!(image.rewound_counter(), Some((flat, slot)));
    }

    /// The covering counter comes from the root register at the top, from
    /// a parent's live copy when there is one (over its stale NVM copy),
    /// and from the parent's NVM copy otherwise.
    #[test]
    fn covering_counter_reads_root_then_live_parent_then_nvm() {
        let mut image = run_workload(SchemeKind::Star, 0).crash();
        let g = image.geometry().clone();
        let top = NodeId::new(g.top_level(), 1);
        image.root_register.set_counter(1, 77);
        let decoy = Node64::zeroed();
        assert_eq!(image.covering_counter(top, |_| Some(&decoy)), 77);

        let node = NodeId::new(0, 9);
        let parent = g.parent(node).expect("below the top");
        let slot = g.parent_slot(node);
        let mut stored = Node64::zeroed();
        stored.set_counter(slot, 5);
        image.store.write(g.line_of(parent), stored.to_line());
        assert_eq!(image.covering_counter(node, |_| None), 5);
        let mut live = stored;
        live.set_counter(slot, 6);
        let pf = g.flat_index(parent);
        assert_eq!(
            image.covering_counter(node, |f| (f == pf).then_some(&live)),
            6
        );
        assert_eq!(
            image.covering_counter(node, |f| (f != pf).then_some(&live)),
            5,
            "another node's live copy does not cover this one"
        );
    }

    #[test]
    fn strict_needs_no_recovery() {
        let m = run_workload(SchemeKind::Strict, 500);
        let report = m.crash_and_recover().expect("trivially recoverable");
        assert_eq!(report.stale_count, 0);
        assert_eq!(report.recovery_time_ns, 0);
        assert!(report.correct);
    }

    #[test]
    fn wb_is_not_recoverable() {
        let m = run_workload(SchemeKind::WriteBack, 500);
        match m.crash_and_recover() {
            Err(RecoveryError::NotRecoverable(SchemeKind::WriteBack)) => {}
            other => panic!("expected NotRecoverable, got {other:?}"),
        }
    }

    #[test]
    fn tampered_stale_node_is_detected() {
        let m = run_workload(SchemeKind::Star, 2_000);
        let mut image = m.crash();
        // Tamper the NVM copy of some stale node (its MSBs feed recovery).
        let flat = *image.ground_truth.keys().next().expect("dirty nodes exist");
        let node_id = image.geometry().node_at_flat(flat).unwrap();
        let addr = image.geometry().line_of(node_id);
        image.apply_attack(&Attack::TamperLine {
            addr,
            xor_byte: 0x40,
        });
        match recover(&mut image) {
            Err(RecoveryError::AttackDetected { .. }) => {}
            other => panic!("tampering must be detected, got {other:?}"),
        }
    }

    #[test]
    fn replayed_child_tuple_is_detected() {
        let m = run_workload(SchemeKind::Star, 2_000);
        let mut image = m.crash();
        // Pick a stale counter block and replay one of its data children.
        let (&flat, _) = image
            .ground_truth
            .iter()
            .find(|(&f, _)| image.geometry().node_at_flat(f).unwrap().level == 0)
            .expect("some counter block is dirty");
        let node_id = image.geometry().node_at_flat(flat).unwrap();
        let child = (0..8)
            .find_map(|s| match image.geometry().child(node_id, s) {
                Some(NodeChild::DataLine(d)) if !image.store.read(LineAddr::new(d)).is_zero() => {
                    Some(d)
                }
                _ => None,
            })
            .expect("written child exists");
        image.apply_attack(&Attack::ReplayChildTuple {
            child_addr: LineAddr::new(child),
            lsb_delta: 1,
        });
        match recover(&mut image) {
            Err(RecoveryError::AttackDetected { .. }) => {}
            other => panic!("replay must be detected, got {other:?}"),
        }
    }

    #[test]
    fn bitmap_tampering_is_detected() {
        let m = run_workload(SchemeKind::Star, 2_000);
        let mut image = m.crash();
        let flat = *image.ground_truth.keys().next().expect("dirty nodes exist");
        image.apply_attack(&Attack::TamperBitmap { meta_idx: flat });
        match recover(&mut image) {
            Err(RecoveryError::AttackDetected { .. }) => {}
            other => panic!("hiding a stale node must be detected, got {other:?}"),
        }
    }

    #[test]
    fn recovery_time_scales_with_dirty_metadata() {
        let small = run_workload(SchemeKind::Star, 40)
            .crash_and_recover()
            .unwrap();
        let large = run_workload(SchemeKind::Star, 5_000)
            .crash_and_recover()
            .unwrap();
        assert!(large.stale_count > small.stale_count);
        assert!(large.recovery_time_ns > small.recovery_time_ns);
    }

    #[test]
    fn downtime_ledger_sums_spans() {
        let rep = run_workload(SchemeKind::Star, 500)
            .crash_and_recover()
            .unwrap();
        let span = DowntimeSpan::from_recovery(7_000, 1_000_000, &rep);
        assert_eq!(span.recovery_ns, rep.recovery_time_ns);
        assert_eq!(span.stale_nodes, rep.stale_count as u64);
        assert_eq!(span.total_ns(), 1_000_000 + rep.recovery_time_ns);
        let mut ledger = DowntimeLedger::new();
        ledger.push(span.clone());
        ledger.push(DowntimeSpan {
            at_ns: 9_000,
            reboot_ns: 1_000_000,
            recovery_ns: 250,
            ..Default::default()
        });
        assert_eq!(ledger.count(), 2);
        assert_eq!(ledger.total_ns(), span.total_ns() + 1_000_250);
        assert_eq!(ledger.spans()[1].at_ns, 9_000);
    }
}
