//! The secure memory controller engine.
//!
//! [`SecureMemory`] glues together the CPU cache hierarchy, the metadata
//! cache, the SGX integrity tree (lazy update), counter-mode encryption
//! and the NVM device, and implements all four persistence schemes.
//!
//! # The lazy SIT write path (paper §II-C, §III-B)
//!
//! When a block (user data or metadata) is written to NVM:
//!
//! 1. its parent node is brought into the metadata cache (verified on
//!    fill against *its* parent's counter),
//! 2. the corresponding counter in the parent increments by one — the
//!    parent becomes dirty in the cache,
//! 3. the block's MAC is recomputed over its content, address and the
//!    *new* parent counter; under STAR the 10 LSBs of that counter are
//!    stored in the block's spare MAC bits (counter-MAC synergization),
//! 4. the block is written to NVM — one write, carrying everything needed
//!    to restore the parent after a crash.
//!
//! Scheme differences are confined to hooks: STAR additionally maintains
//! the bitmap lines on dirty-state changes; Anubis writes a shadow-table
//! line per memory write; Strict persists the whole branch eagerly and
//! never leaves dirty metadata behind.
//!
//! # Halting
//!
//! The engine stops at the first integrity failure or armed crash and
//! latches why: every internal step returns a `Result` and propagates
//! with `?`, so nothing after the failing check or the armed persist
//! point runs, and every later event is ignored. Callers read the
//! reason as a value ([`SecureMemory::integrity_error`],
//! [`SecureMemory::crashed_at`], or the `Err` of
//! [`SecureMemory::read_data`]).

use crate::anubis::{StEntry, StSlotMap};
use crate::config::{ConfigError, SchemeKind, SecureMemConfig};
use crate::persist::{PersistPoint, PersistPointKind, Seizure};
use crate::recovery::CrashImage;
use crate::star::bitmap::{BitmapLayout, BitmapStats, MultiLayerBitmap};
use crate::star::cache_tree;
use crate::stats::RunReport;
use star_crypto::aes::Aes128;
use star_crypto::ctr::one_time_pad;
use star_crypto::mac::MacKey;
use star_mem::{CacheHierarchy, MemEvent, MemSideOp, SetAssocCache, SimpleCore, TraceSink};
use star_metadata::{DataLine, MacField, Node64, NodeId, SitGeometry, SitMac};
use star_nvm::{AccessClass, LineAddr, LineStore, NvmDevice, NvmStats, WriteCause, WriteJournal};
use star_trace::{CatMask, Histograms, TraceCategory, TraceEvent, TraceRecorder};
use std::collections::HashMap;

/// A read-path verification failure: the stored MAC of a data line or
/// metadata node does not match its content under the current counter.
/// Tampered NVM is reported as this value, never as a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrityError {
    /// The data MAC of user-data line `line` failed against its
    /// counter-block counter.
    DataMac {
        /// User-data line index.
        line: u64,
    },
    /// The node MAC of metadata node `node` failed against its parent's
    /// counter.
    NodeMac {
        /// The metadata node fetched.
        node: NodeId,
    },
}

impl core::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("integrity violation: ")?;
        match self {
            IntegrityError::DataMac { line } => write!(f, "data MAC of line {line} failed"),
            IntegrityError::NodeMac { node } => {
                write!(f, "node MAC of metadata node {node} failed")
            }
        }
    }
}

impl std::error::Error for IntegrityError {}

/// Why the engine stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Halt {
    /// The armed crash fired at this persist point.
    Crash(PersistPoint),
    /// A read-path check failed.
    Integrity(IntegrityError),
}

/// The marker an internal step propagates once the engine has halted;
/// the reason is latched on the engine where it was raised.
struct Halted;

/// The result of an internal step: `Err` means the engine just halted.
type Step<T = ()> = Result<T, Halted>;

/// A metadata node resident in the metadata cache, with the per-slot
/// increment counts that drive STAR's forced flush at `2^10` increments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct CachedNode {
    node: Node64,
    /// Counter increments since this node was last clean, per slot.
    inc_since_clean: [u16; 8],
}

impl CachedNode {
    fn clean(node: Node64) -> Self {
        Self {
            node,
            inc_since_clean: [0; 8],
        }
    }
}

/// The secure memory controller.
///
/// See the [crate-level docs](crate) for a quickstart. Addresses given to
/// the data API are **user-data line indices** (`0..cfg.data_lines`).
#[derive(Debug, Clone)]
pub struct SecureMemory {
    scheme: SchemeKind,
    cfg: SecureMemConfig,
    geometry: SitGeometry,
    mac: SitMac,
    aes: Aes128,
    nvm: NvmDevice,
    hierarchy: CacheHierarchy,
    core: SimpleCore,
    meta_cache: SetAssocCache<CachedNode>,
    /// The on-chip SIT root register: parent counters of the top-level
    /// in-NVM nodes.
    root: Node64,
    /// STAR state.
    bitmap: Option<MultiLayerBitmap>,
    /// Anubis state.
    st_slots: Option<StSlotMap>,
    st_base: u64,
    /// Nodes pinned against eviction while an operation depends on them
    /// (stack discipline: balanced push/pop).
    pins: Vec<u64>,
    /// Dirty victims evicted but not yet written back. Processed
    /// iteratively by the outermost insertion, so deep eviction cascades
    /// cannot recurse.
    pending_writebacks: Vec<(u64, CachedNode)>,
    /// Re-entrancy guard: only the outermost `insert_meta` drains.
    draining: bool,
    /// Metadata nodes that exhausted their LSB window and must be flushed.
    pending_force: Vec<u64>,
    forced_flushes: u64,
    barriers: u64,
    mac_computations: u64,
    ops_buf: Vec<MemSideOp>,
    /// Fault-injection instrumentation (crate::persist); all off by
    /// default, so the timing model and figures are unaffected.
    persist_seq: u64,
    persist_log: Option<Vec<PersistPoint>>,
    /// The persist point an armed crash stops the run at.
    armed: Option<u64>,
    /// Why the engine stopped, once it has; every later event is ignored.
    halt: Option<Halt>,
    /// Persist points still to seize, latest first (so the next one is
    /// `last()`), and the seizures taken but not yet drained.
    seize_list: Vec<u64>,
    seized: Vec<Seizure>,
    /// Structured event recorder for the engine's own events (persist
    /// points, metadata-cache traffic). The device and the CPU hierarchy
    /// carry their own recorders; [`SecureMemory::enable_trace`] turns
    /// all three on and [`SecureMemory::trace_events`] merges them.
    trace: TraceRecorder,
}

impl SecureMemory {
    /// Creates the engine.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] display message if `cfg` fails
    /// [`SecureMemConfig::validate`] or is incompatible with `scheme`.
    pub fn new(scheme: SchemeKind, cfg: SecureMemConfig) -> Self {
        Self::try_new(scheme, cfg).unwrap_or_else(|e| panic!("invalid SecureMemConfig: {e}"))
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ConfigError`] for an inconsistent configuration
    /// or a scheme/configuration mismatch.
    pub fn try_new(scheme: SchemeKind, cfg: SecureMemConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        if cfg.eager_updates && matches!(scheme, SchemeKind::Star | SchemeKind::Anubis) {
            return Err(ConfigError::EagerUpdatesIncompatible { scheme });
        }
        let geometry = SitGeometry::new(cfg.data_lines);
        let layout = BitmapLayout::new(geometry.total_meta_lines(), geometry.meta_end());
        let st_base = geometry.meta_end() + layout.ra_lines();
        let bitmap = (scheme == SchemeKind::Star)
            .then(|| MultiLayerBitmap::new(layout, cfg.adr_bitmap_lines));
        let st_slots =
            (scheme == SchemeKind::Anubis).then(|| StSlotMap::new(cfg.metadata_cache_lines()));
        Ok(Self {
            scheme,
            geometry,
            mac: SitMac::new(MacKey::from_seed(cfg.key_seed)),
            aes: Aes128::from_seed(cfg.key_seed ^ 0xa55a_a55a),
            nvm: NvmDevice::new(cfg.nvm),
            hierarchy: CacheHierarchy::new(cfg.hierarchy),
            core: SimpleCore::new(cfg.core),
            meta_cache: SetAssocCache::new(cfg.metadata_cache_sets(), cfg.metadata_cache_ways),
            root: Node64::zeroed(),
            bitmap,
            st_slots,
            st_base,
            pins: Vec::new(),
            pending_writebacks: Vec::new(),
            draining: false,
            pending_force: Vec::new(),
            forced_flushes: 0,
            barriers: 0,
            mac_computations: 0,
            ops_buf: Vec::new(),
            persist_seq: 0,
            persist_log: None,
            armed: None,
            halt: None,
            seize_list: Vec::new(),
            seized: Vec::new(),
            trace: TraceRecorder::off(),
            cfg,
        })
    }

    /// The scheme this engine runs.
    pub fn scheme(&self) -> SchemeKind {
        self.scheme
    }

    /// The configuration.
    pub fn config(&self) -> &SecureMemConfig {
        &self.cfg
    }

    /// The tree/address geometry.
    pub fn geometry(&self) -> &SitGeometry {
        &self.geometry
    }

    /// NVM device statistics.
    pub fn nvm_stats(&self) -> &NvmStats {
        self.nvm.stats()
    }

    /// Bitmap statistics (STAR only).
    pub fn bitmap_stats(&self) -> Option<BitmapStats> {
        self.bitmap.as_ref().map(|b| b.stats())
    }

    /// Per-line NVM wear statistics.
    pub fn wear(&self) -> &star_nvm::WearTracker {
        self.nvm.wear()
    }

    /// The NVM line ranges of the scheme's extra-traffic regions:
    /// `(recovery-area start, recovery-area end, shadow-table start)`.
    /// Useful for scoping wear summaries to a region.
    pub fn region_bounds(&self) -> (u64, u64, u64) {
        (self.geometry.meta_end(), self.st_base, self.st_base)
    }

    /// Instructions per cycle so far.
    pub fn ipc(&self) -> f64 {
        self.core.ipc()
    }

    /// Fraction of resident metadata-cache lines that are dirty
    /// (paper Fig. 14a).
    pub fn dirty_metadata_fraction(&self) -> f64 {
        let len = self.meta_cache.len();
        if len == 0 {
            0.0
        } else {
            self.meta_cache.dirty_count() as f64 / len as f64
        }
    }

    /// Number of dirty metadata lines in the cache.
    pub fn dirty_metadata_count(&self) -> usize {
        self.meta_cache.dirty_count()
    }

    /// The integrity failure that halted the engine, if one did (`None`
    /// in attack-free runs).
    pub fn integrity_error(&self) -> Option<IntegrityError> {
        match self.halt {
            Some(Halt::Integrity(e)) => Some(e),
            _ => None,
        }
    }

    /// Builds the aggregate run report for the figures.
    pub fn report(&self) -> RunReport {
        let stats = self.nvm.stats();
        let energy = self.cfg.nvm.energy;
        RunReport {
            scheme: self.scheme,
            nvm: stats.clone(),
            instructions: self.core.instructions(),
            cycles: self.core.cycles(),
            ipc: self.core.ipc(),
            energy_read_pj: energy.read_pj * stats.total_reads(),
            energy_write_pj: energy.write_pj * stats.total_writes(),
            wear: self.nvm.wear().summary(),
            prof: self.nvm.prof_summary(),
            bitmap: self.bitmap_stats(),
            dirty_metadata: self.meta_cache.dirty_count(),
            cached_metadata: self.meta_cache.len(),
            metadata_cache_capacity: self.meta_cache.capacity_lines(),
            forced_flushes: self.forced_flushes,
            barriers: self.barriers,
            mac_computations: self.mac_computations,
            hierarchy: self.hierarchy.stats(),
        }
    }

    // ------------------------------------------------------------------
    // Public data API (program-facing).
    // ------------------------------------------------------------------

    /// Program store of `version` into data line `line`.
    ///
    /// # Panics
    ///
    /// Panics if `line` is outside the data region.
    pub fn write_data(&mut self, line: u64, version: u64) {
        self.on_event(MemEvent::Write { line, version });
    }

    /// Persists data line `line` (`clwb` semantics).
    pub fn persist_data(&mut self, line: u64) {
        self.on_event(MemEvent::Clwb { line });
    }

    /// Persist barrier (`sfence`).
    pub fn fence(&mut self) {
        self.on_event(MemEvent::Fence);
    }

    /// Executes `count` compute instructions.
    pub fn work(&mut self, count: u64) {
        self.on_event(MemEvent::Work { count });
    }

    /// Program load from data line `line`; returns the stored version
    /// (0 for never-written lines).
    ///
    /// # Errors
    ///
    /// Returns the [`IntegrityError`] that halted the engine, whether
    /// this read's own fill (or a metadata fetch it needed) failed
    /// verification or an earlier event's did: once halted, every read
    /// returns that same error. Attack-free runs never fail.
    ///
    /// # Panics
    ///
    /// Panics if `line` is outside the data region, or once an armed
    /// crash has fired (see [`arm`](Self::arm)): a crashed engine has no
    /// value to return, so reading from it is a caller bug.
    pub fn read_data(&mut self, line: u64) -> Result<u64, IntegrityError> {
        self.on_event(MemEvent::Read { line });
        match self.halt {
            None => Ok(self.hierarchy.peek_version(line).unwrap_or(0)),
            Some(Halt::Integrity(e)) => Err(e),
            Some(Halt::Crash(p)) => {
                panic!("read_data after the armed crash at persist point {}", p.seq)
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault-injection instrumentation (see crate::persist).
    // ------------------------------------------------------------------

    /// Starts recording every persist point (see
    /// [`PersistPoint`]). Off by default.
    pub fn enable_persist_log(&mut self) {
        self.persist_log = Some(Vec::new());
    }

    /// The recorded persist schedule (empty when logging is off).
    pub fn persist_log(&self) -> &[PersistPoint] {
        self.persist_log.as_deref().unwrap_or(&[])
    }

    /// Persist points committed so far (counted even when logging is off).
    pub fn persist_points(&self) -> u64 {
        self.persist_seq
    }

    /// Arms a crash at persist point `seq` (1-based): the engine stops
    /// the instant it commits that point, in the exact mid-operation
    /// state a power failure there would leave, latches the point
    /// ([`crashed_at`](Self::crashed_at)) and ignores every later event.
    /// Hand the stopped engine to [`crash`](Self::crash) for its image.
    pub fn arm(&mut self, seq: u64) {
        self.armed = Some(seq);
    }

    /// The persist point the armed crash stopped the engine at, once it
    /// has fired.
    pub fn crashed_at(&self) -> Option<PersistPoint> {
        match self.halt {
            Some(Halt::Crash(p)) => Some(p),
            _ => None,
        }
    }

    /// Arms a seize list: on reaching each persist point in `points`
    /// (ascending, all still ahead) the engine takes a [`Seizure`] —
    /// what [`crash`](Self::crash) would leave behind at that instant —
    /// and keeps running. Replaces any earlier list; collect the
    /// seizures with [`take_seized`](Self::take_seized).
    pub fn seize_at(&mut self, points: &[u64]) {
        self.seize_list = points.iter().rev().copied().collect();
    }

    /// Drains the seizures taken since the last call, in persist order.
    pub fn take_seized(&mut self) -> Vec<Seizure> {
        std::mem::take(&mut self.seized)
    }

    /// Enables the device-level write journal (pre-images + queue
    /// retirement times) with the given ring capacity. Off by default.
    pub fn enable_write_journal(&mut self, capacity: usize) {
        self.nvm.enable_journal(capacity);
    }

    /// The device write journal, if enabled.
    pub fn write_journal(&self) -> Option<&WriteJournal> {
        self.nvm.journal()
    }

    /// Current simulated time in picoseconds (the write-queue clock the
    /// journal's retirement times are measured against).
    pub fn now_ps(&self) -> u64 {
        self.now()
    }

    /// Returns an independent copy-on-write fork of the whole machine —
    /// NVM contents, caches, metadata state, bitmap/shadow-table state,
    /// clocks, journal and persist instrumentation.
    ///
    /// The NVM line store is frozen and shared with the fork (see
    /// [`star_nvm::LineStore::freeze`]), so no line is copied; the rest
    /// of the cost is the engine's volatile state (CPU caches included).
    /// To keep only what a crash would leave behind,
    /// [`crash_image`](Self::crash_image) freezes the store the same way
    /// but copies nothing else.
    pub fn fork(&mut self) -> Self {
        self.nvm.store_mut().freeze();
        self.clone()
    }

    // ------------------------------------------------------------------
    // Structured tracing (star-trace).
    // ------------------------------------------------------------------

    /// Enables structured tracing for the categories in `mask` across all
    /// three recorders (engine, cache hierarchy, NVM device), each with a
    /// ring of `events_per_component` events (0 picks
    /// [`star_trace::record::DEFAULT_CAPACITY`]). Off by default; a
    /// disabled recorder costs one predictable branch per emission site
    /// and never allocates.
    pub fn enable_trace(&mut self, mask: CatMask, events_per_component: usize) {
        self.trace.enable(mask, events_per_component);
        self.nvm.trace_mut().enable(mask, events_per_component);
        self.hierarchy
            .trace_mut()
            .enable(mask, events_per_component);
    }

    /// The engine's own event recorder (persist points, metadata cache).
    pub fn trace(&self) -> &TraceRecorder {
        &self.trace
    }

    /// Mutable access to the engine recorder, for callers that annotate
    /// the timeline with their own events (e.g. fault injection).
    pub fn trace_mut(&mut self) -> &mut TraceRecorder {
        &mut self.trace
    }

    /// Every buffered event from the engine, hierarchy, and device
    /// recorders, merged into one timeline ordered by simulated
    /// timestamp (ties keep the fixed engine → hierarchy → device
    /// order, so the merge is deterministic).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        let e = self.trace.events();
        let h = self.hierarchy.trace().events();
        let n = self.nvm.trace().events();
        star_trace::merge(&[&e, &h, &n])
    }

    /// The device recorder's latency/depth histograms.
    pub fn trace_histograms(&self) -> &Histograms {
        &self.nvm.trace().hists
    }

    /// Total events overwritten across all three ring buffers.
    pub fn trace_dropped(&self) -> u64 {
        self.trace.dropped() + self.hierarchy.trace().dropped() + self.nvm.trace().dropped()
    }

    /// Boots a fresh engine from a (typically recovered) crash image: NVM
    /// is the image's store and the on-chip SIT root register survives,
    /// while all volatile state (CPU caches, metadata cache, core clock)
    /// starts cold. The scheme's scratch regions — the bitmap recovery
    /// area and the shadow table — are reinitialized to zero, as a
    /// rebooting controller would before resuming service.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` describes a different data-region geometry than the
    /// crashed engine's.
    pub fn resume_from_image(image: &CrashImage, cfg: SecureMemConfig) -> Self {
        let mut m = Self::new(image.scheme(), cfg);
        assert_eq!(
            m.geometry.total_meta_lines(),
            image.geometry().total_meta_lines(),
            "resume config must match the crashed engine's geometry"
        );
        *m.nvm.store_mut() = image.store.clone();
        m.root = image.root_register;
        for l in image.recovery_area().chain(image.shadow_table()) {
            m.nvm
                .store_mut()
                .write(LineAddr::new(l), star_nvm::Line::ZERO);
        }
        m
    }

    /// Latches why the engine stopped and returns the marker the caller
    /// propagates.
    #[cold]
    fn halt(&mut self, why: Halt) -> Halted {
        self.halt = Some(why);
        Halted
    }

    /// Commits one persist point: bumps the sequence, records it when
    /// logging, seizes it when listed, and halts the engine when armed
    /// for it.
    fn persist_point(&mut self, kind: PersistPointKind) -> Step {
        self.persist_seq += 1;
        if self.trace.enabled(TraceCategory::Persist) {
            let now = self.now();
            self.trace.set_now(now);
            let seq = ("seq", self.persist_seq);
            match kind {
                PersistPointKind::DataLineCommit { line, version } => {
                    self.trace.instant2(
                        TraceCategory::Persist,
                        "data-line-commit",
                        ("line", line),
                        ("version", version),
                    );
                }
                PersistPointKind::NodeWriteback { flat } => {
                    self.trace.instant2(
                        TraceCategory::Persist,
                        "node-writeback",
                        ("flat", flat),
                        seq,
                    );
                }
                PersistPointKind::ForcedFlush { flat } => {
                    self.trace.instant2(
                        TraceCategory::Persist,
                        "forced-flush",
                        ("flat", flat),
                        seq,
                    );
                }
                PersistPointKind::StrictChainNode { flat } => {
                    self.trace.instant2(
                        TraceCategory::Persist,
                        "strict-chain-node",
                        ("flat", flat),
                        seq,
                    );
                }
            }
        }
        let point = PersistPoint {
            seq: self.persist_seq,
            kind,
        };
        if let Some(log) = self.persist_log.as_mut() {
            log.push(point);
        }
        if self.seize_list.last() == Some(&point.seq) {
            self.seize_list.pop();
            let now_ps = self.now();
            let seizure = Seizure {
                crash: point,
                now_ps,
                undrained: self
                    .nvm
                    .journal()
                    .map_or_else(Vec::new, |j| j.undrained_at(now_ps)),
                image: self.crash_image(),
            };
            self.seized.push(seizure);
        }
        if self.armed == Some(point.seq) {
            return Err(self.halt(Halt::Crash(point)));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Memory-side processing.
    // ------------------------------------------------------------------

    fn now(&self) -> u64 {
        self.core.now_ps()
    }

    fn handle_mem_side(&mut self, op: MemSideOp) -> Step {
        match op {
            MemSideOp::Fill { line } => {
                let version = self.secure_data_fill(line)?;
                // version 0 would be a no-op patch: the miss path installed
                // the line with version 0 (clean) in every level, and
                // write-allocate copies are dirty, which fill_clean refuses
                // to touch. Most fills read never-written (zero) lines, so
                // this skips three cache probes on the common path.
                if version != 0 {
                    self.hierarchy.set_version_clean(line, version);
                }
            }
            MemSideOp::WriteBack { line, version } => self.secure_data_write(line, version)?,
            MemSideOp::Barrier => {
                self.barriers += 1;
                if self.trace.enabled(TraceCategory::Persist) {
                    let now = self.now();
                    self.trace.set_now(now);
                    self.trace
                        .instant(TraceCategory::Persist, "barrier", ("count", self.barriers));
                }
            }
        }
        Ok(())
    }

    /// Emits a metadata-cache instant event (one predictable branch when
    /// tracing is off).
    #[inline]
    fn trace_meta(&mut self, name: &'static str, flat: u64) {
        if self.trace.enabled(TraceCategory::MetaCache) {
            let now = self.now();
            self.trace.set_now(now);
            self.trace
                .instant(TraceCategory::MetaCache, name, ("flat", flat));
        }
    }

    /// LLC miss: read, verify and decrypt a data line from NVM.
    fn secure_data_fill(&mut self, line: u64) -> Step<u64> {
        assert!(line < self.cfg.data_lines, "data line out of range");
        let read = self
            .nvm
            .read(LineAddr::new(line), AccessClass::Data, self.now());
        self.core.stall_read_ps(read.latency_ps);
        if read.data.is_zero() {
            return Ok(0); // never written: initialization convention
        }
        let dl = DataLine::from_line(&read.data);
        let (cb, slot) = self.geometry.parent_of_data(line);
        self.ensure_cached(cb)?;
        let counter = self.cached_node(cb).node.counter(slot);
        if !self
            .mac
            .verify_data(line, dl.payload(), counter, dl.mac_field())
        {
            return Err(self.halt(Halt::Integrity(IntegrityError::DataMac { line })));
        }
        // Decrypt: XOR the pad and pull the version out of the payload.
        let pad = one_time_pad(&self.aes, line, counter);
        let mut payload = *dl.payload();
        for (p, k) in payload.iter_mut().zip(pad.iter()) {
            *p ^= k;
        }
        Ok(u64::from_le_bytes(
            payload[..8].try_into().expect("8 bytes"),
        ))
    }

    /// A data write-back reaching the controller: encrypt, MAC, persist,
    /// and update the counter block per the lazy SIT scheme.
    fn secure_data_write(&mut self, line: u64, version: u64) -> Step {
        assert!(line < self.cfg.data_lines, "data line out of range");
        let (cb, slot) = self.geometry.parent_of_data(line);
        self.ensure_cached(cb)?;
        let cb_flat = self.geometry.flat_index(cb);

        let counter = {
            let cn = self.meta_cache.get_mut(cb_flat).expect("just ensured");
            let c = cn.node.increment_counter(slot);
            cn.inc_since_clean[slot] = cn.inc_since_clean[slot].saturating_add(1);
            c
        };
        self.check_force_flush(cb_flat, slot);

        // Encrypt the payload with the fresh counter's one-time pad.
        let mut dl = DataLine::from_version(version);
        let pad = one_time_pad(&self.aes, line, counter);
        for (p, k) in dl.payload_mut().iter_mut().zip(pad.iter()) {
            *p ^= k;
        }
        let lsb = self.synergized_lsb(counter);
        self.mac_computations += 1;
        let mac = self.mac.data_mac(line, dl.payload(), counter, lsb);
        dl.set_mac_field(MacField::new(mac, lsb));

        let w = self.nvm.write(
            LineAddr::new(line),
            dl.to_line(),
            WriteCause::Data,
            self.now(),
        );
        self.core.stall_write_ps(w.stall_ps);

        match self.scheme {
            SchemeKind::Strict => {
                // Strict commits the data line first, then persists the
                // branch node by node: a crash between chain nodes sees
                // the new data, but reads of it fail verification until
                // the chain completes (detectable, never silent).
                self.persist_point(PersistPointKind::DataLineCommit { line, version })?;
                self.strict_persist_chain(cb)?;
            }
            _ => {
                self.anubis_st_write(cb_flat);
                self.mark_node_dirty(cb_flat);
                if self.cfg.eager_updates {
                    self.eager_propagate(cb)?;
                }
                // The commit point of the whole transaction: data line in
                // the WPQ, counter bumped in the cache, dirty-tracking
                // hook (bitmap bit / ST entry) done — all atomic under
                // the ADR assumption.
                self.persist_point(PersistPointKind::DataLineCommit { line, version })?;
            }
        }
        self.drain_forced_flushes()
    }

    /// The eager SIT update scheme: propagate the counter increment to
    /// the on-chip root immediately. Every node on the branch is dirtied
    /// and its MAC recomputed per write — the cost the lazy scheme
    /// (paper §II-C) avoids.
    fn eager_propagate(&mut self, start: star_metadata::NodeId) -> Step {
        let mut cur = start;
        loop {
            self.pins.push(self.geometry.flat_index(cur));
            let (_, parent_flat) = self.bump_parent_counter(cur)?;
            self.pins.pop();
            // The parent's MAC must be refreshed for the new counter.
            self.mac_computations += 1;
            match (parent_flat, self.geometry.parent(cur)) {
                (Some(pf), Some(p)) => {
                    self.mark_node_dirty(pf);
                    cur = p;
                }
                _ => return Ok(()), // reached the on-chip root
            }
        }
    }

    /// The 10 LSBs stored alongside a MAC — only STAR synergizes them.
    fn synergized_lsb(&self, counter: u64) -> u16 {
        if self.scheme == SchemeKind::Star {
            (counter & ((1 << self.cfg.counter_lsb_bits) - 1)) as u16
        } else {
            0
        }
    }

    fn cached_node(&self, node: NodeId) -> &CachedNode {
        self.meta_cache
            .peek(self.geometry.flat_index(node))
            .expect("node must be cached")
    }

    /// The current counter covering `node`, from its parent (or the root
    /// register for top-level nodes). The parent must already be cached
    /// unless it is the root.
    fn parent_counter(&mut self, node: NodeId) -> Step<u64> {
        Ok(match self.geometry.parent(node) {
            None => self.root.counter(node.index as usize),
            Some(p) => {
                self.ensure_cached(p)?;
                self.cached_node(p)
                    .node
                    .counter(self.geometry.parent_slot(node))
            }
        })
    }

    // ------------------------------------------------------------------
    // Metadata cache management.
    // ------------------------------------------------------------------

    /// Guarantees `node` is resident in the metadata cache, fetching and
    /// verifying it (and, transitively, the ancestors needed to verify
    /// it) from NVM. The ancestor chain is pinned against eviction while
    /// the fetch is in flight.
    fn ensure_cached(&mut self, node: NodeId) -> Step {
        star_scope::span!("engine/meta-fetch");
        let flat = self.geometry.flat_index(node);
        if self.meta_cache.touch(flat) {
            self.trace_meta("meta-hit", flat);
            return Ok(());
        }
        // An evicted-but-not-yet-written victim never really left: its NVM
        // copy is stale, so resurrect the owned value instead of reading.
        if let Some(pos) = self.pending_writebacks.iter().position(|(f, _)| *f == flat) {
            let (_, cn) = self.pending_writebacks.remove(pos);
            self.trace_meta("meta-resurrect", flat);
            return self.insert_meta_dirty(flat, cn, true);
        }
        // The parent's counter is an input to this node's MAC; keep the
        // parent resident until this node is verified and inserted.
        let pinned = match self.geometry.parent(node) {
            Some(p) => {
                self.ensure_cached(p)?;
                let pf = self.geometry.flat_index(p);
                self.pins.push(pf);
                Some(pf)
            }
            None => None,
        };
        // Ensuring the parent can drain deferred write-backs, and one of
        // them may have fetched (and even dirtied) this very node —
        // inserting our stale NVM read over it would lose its updates.
        if self.meta_cache.touch(flat) {
            self.trace_meta("meta-hit", flat);
            if pinned.is_some() {
                self.pins.pop();
            }
            return Ok(());
        }
        if let Some(pos) = self.pending_writebacks.iter().position(|(f, _)| *f == flat) {
            let (_, cn) = self.pending_writebacks.remove(pos);
            self.trace_meta("meta-resurrect", flat);
            self.insert_meta_dirty(flat, cn, true)?;
            if pinned.is_some() {
                self.pins.pop();
            }
            return Ok(());
        }
        self.trace_meta("meta-miss", flat);
        let pc = self.parent_counter(node)?;
        let read = self.nvm.read(
            self.geometry.line_of(node),
            AccessClass::Metadata,
            self.now(),
        );
        self.core.stall_read_ps(read.latency_ps);
        let n = if read.data.is_zero() {
            // Never-initialized node: all-zero counters, by convention.
            Node64::zeroed()
        } else {
            let n = Node64::from_line(&read.data);
            if !self
                .mac
                .verify_node(self.geometry.line_of(node).index(), &n, pc)
            {
                return Err(self.halt(Halt::Integrity(IntegrityError::NodeMac { node })));
            }
            n
        };
        self.insert_meta(flat, CachedNode::clean(n))?;
        if pinned.is_some() {
            self.pins.pop();
        }
        Ok(())
    }

    /// Moves every pinned line mapping to `flat`'s set to MRU so the LRU
    /// victim is never a pinned line.
    fn shield_pins(&mut self, flat: u64) {
        // Split borrows (pins read-only, cache mutable) keep this loop
        // allocation-free on the per-insert path.
        let cache = &mut self.meta_cache;
        let sets = cache.num_sets() as u64;
        for &p in &self.pins {
            if p % sets == flat % sets {
                cache.touch(p);
            }
        }
    }

    /// Inserts a fetched node, evicting the LRU non-pinned line of its
    /// set. Dirty victims are queued and written back iteratively by the
    /// outermost insertion — their values are owned by then, so the
    /// ancestor fetches a write-back needs can never deadlock against or
    /// recurse through the insertion that evicted them.
    fn insert_meta(&mut self, flat: u64, cn: CachedNode) -> Step {
        self.insert_meta_dirty(flat, cn, false)
    }

    fn insert_meta_dirty(&mut self, flat: u64, cn: CachedNode, dirty: bool) -> Step {
        self.shield_pins(flat);
        let out = self.meta_cache.insert(flat, cn, dirty);
        if let Some(ev) = out.evicted {
            if ev.dirty {
                self.trace_meta("meta-evict", ev.addr);
                self.pending_writebacks.push((ev.addr, ev.value));
            }
        }
        if self.draining {
            return Ok(());
        }
        self.draining = true;
        // Keep the just-inserted node resident while the queue drains.
        self.pins.push(flat);
        let mut guard = 0;
        while let Some((vf, vcn)) = self.pending_writebacks.pop() {
            guard += 1;
            assert!(guard < 1_000_000, "write-back queue livelock");
            self.writeback_node(vf, vcn)?;
        }
        self.pins.pop();
        self.draining = false;
        Ok(())
    }

    /// Marks a cached node dirty, running the scheme's dirty-transition
    /// hook on a clean→dirty edge (STAR: set the bitmap bit).
    fn mark_node_dirty(&mut self, flat: u64) {
        let was = self
            .meta_cache
            .set_dirty(flat, true)
            .expect("node must be cached");
        if !was {
            if let Some(bitmap) = self.bitmap.as_mut() {
                let stall = bitmap.set(flat, &mut self.nvm, self.core.now_ps());
                self.core.stall_write_ps(stall);
            }
        }
    }

    /// The dirty→clean hooks: STAR clears the bitmap bit, Anubis frees the
    /// node's shadow-table slot.
    fn on_node_clean(&mut self, flat: u64) {
        if let Some(bitmap) = self.bitmap.as_mut() {
            let stall = bitmap.clear(flat, &mut self.nvm, self.core.now_ps());
            self.core.stall_write_ps(stall);
        }
        if let Some(st) = self.st_slots.as_mut() {
            st.release(flat);
        }
    }

    /// Persists an evicted dirty node (the lazy-SIT write path steps 1–4).
    fn writeback_node(&mut self, flat: u64, mut cn: CachedNode) -> Step {
        star_scope::span!("engine/writeback");
        self.trace_meta("meta-writeback", flat);
        let node = self.geometry.node_at_flat(flat).expect("metadata address");
        let (pc_new, parent_flat) = self.bump_parent_counter(node)?;
        let lsb = self.synergized_lsb(pc_new);
        self.mac_computations += 1;
        let mac = self.mac.node_mac(
            self.geometry.line_of(node).index(),
            cn.node.counters(),
            pc_new,
            lsb,
        );
        cn.node.set_mac_field(MacField::new(mac, lsb));
        let w = self.nvm.write(
            self.geometry.line_of(node),
            cn.node.to_line(),
            WriteCause::CounterBlock,
            self.now(),
        );
        self.core.stall_write_ps(w.stall_ps);

        // The evicted node is clean in NVM now.
        self.on_node_clean(flat);

        if let Some(pf) = parent_flat {
            self.anubis_st_write(pf);
            self.mark_node_dirty(pf);
        } else {
            // Top-level node: its counter lives in the on-chip root; for
            // Anubis, keep the 1-ST-write-per-memory-write invariant by
            // snapshotting the written node itself.
            self.anubis_st_write(flat);
        }
        self.persist_point(PersistPointKind::NodeWriteback { flat })
    }

    /// Increments the counter covering `node` in its parent (or the root
    /// register) and returns `(new counter, parent flat index if any)`.
    fn bump_parent_counter(&mut self, node: NodeId) -> Step<(u64, Option<u64>)> {
        Ok(match self.geometry.parent(node) {
            None => {
                let v = self.root.increment_counter(node.index as usize);
                (v, None)
            }
            Some(p) => {
                self.ensure_cached(p)?;
                let slot = self.geometry.parent_slot(node);
                let pf = self.geometry.flat_index(p);
                let v = {
                    let cn = self.meta_cache.get_mut(pf).expect("just ensured");
                    let v = cn.node.increment_counter(slot);
                    cn.inc_since_clean[slot] = cn.inc_since_clean[slot].saturating_add(1);
                    v
                };
                self.check_force_flush(pf, slot);
                (v, Some(pf))
            }
        })
    }

    /// Queues a forced flush when a counter's LSB window is exhausted
    /// (paper §III-B: after `2^10` increments the MSBs in NVM go stale
    /// beyond what the synergized LSBs can restore).
    fn check_force_flush(&mut self, flat: u64, slot: usize) {
        if self.scheme != SchemeKind::Star {
            return;
        }
        let window = (1u16 << self.cfg.counter_lsb_bits) - 1;
        let cn = self.meta_cache.peek(flat).expect("cached");
        if cn.inc_since_clean[slot] >= window && !self.pending_force.contains(&flat) {
            self.pending_force.push(flat);
        }
    }

    /// Flushes nodes whose LSB window is exhausted, in place (they stay
    /// cached, clean).
    fn drain_forced_flushes(&mut self) -> Step {
        let mut guard = 0;
        while let Some(flat) = self.pending_force.pop() {
            guard += 1;
            assert!(guard < 10_000, "forced-flush livelock");
            if !self.meta_cache.is_dirty(flat) {
                continue;
            }
            self.forced_flushes += 1;
            self.flush_node_in_place(flat)?;
        }
        Ok(())
    }

    /// Persists a cached dirty node without evicting it.
    fn flush_node_in_place(&mut self, flat: u64) -> Step {
        star_scope::span!("engine/forced-flush");
        let node = self.geometry.node_at_flat(flat).expect("metadata address");
        // Fetching the parent chain must not evict the node being flushed.
        self.pins.push(flat);
        // Bring the parent in *before* bumping: when pin pressure exceeds
        // the associativity, this fetch can evict `flat` despite the pin —
        // in which case its eviction write-back has already persisted it
        // (with its own parent bump) and there is nothing left to flush.
        if let Some(p) = self.geometry.parent(node) {
            self.ensure_cached(p)?;
        }
        if !self.meta_cache.touch(flat) || !self.meta_cache.is_dirty(flat) {
            self.pins.pop();
            return Ok(());
        }
        let (pc_new, parent_flat) = self.bump_parent_counter(node)?;
        self.pins.pop();
        let lsb = self.synergized_lsb(pc_new);
        self.meta_cache
            .get_mut(flat)
            .expect("cached")
            .inc_since_clean = [0; 8];
        // Recompute the MAC with the freshly bumped parent counter.
        let counters = *self.meta_cache.peek(flat).expect("cached").node.counters();
        self.mac_computations += 1;
        let mac = self
            .mac
            .node_mac(self.geometry.line_of(node).index(), &counters, pc_new, lsb);
        {
            let cn = self.meta_cache.get_mut(flat).expect("cached");
            cn.node.set_mac_field(MacField::new(mac, lsb));
        }
        let line = self.meta_cache.peek(flat).expect("cached").node.to_line();
        let w = self.nvm.write(
            self.geometry.line_of(node),
            line,
            WriteCause::CounterBlock,
            self.now(),
        );
        self.core.stall_write_ps(w.stall_ps);
        self.meta_cache.set_dirty(flat, false);
        self.on_node_clean(flat);
        if let Some(pf) = parent_flat {
            self.anubis_st_write(pf);
            self.mark_node_dirty(pf);
        }
        self.persist_point(PersistPointKind::ForcedFlush { flat })
    }

    /// Anubis hook: one shadow-table write per memory write, snapshotting
    /// the dirty node `target_flat`.
    fn anubis_st_write(&mut self, target_flat: u64) {
        let Some(st) = self.st_slots.as_mut() else {
            return;
        };
        let slot = st.slot_for(target_flat);
        let node = self
            .meta_cache
            .peek(target_flat)
            .map(|cn| cn.node)
            .unwrap_or_else(Node64::zeroed);
        let entry = StEntry::new(target_flat, &node);
        let addr = LineAddr::new(self.st_base + slot as u64);
        let w = self
            .nvm
            .write(addr, entry.to_line(), WriteCause::ShadowTable, self.now());
        self.core.stall_write_ps(w.stall_ps);
    }

    /// Strict persistence: write-through the whole branch from the counter
    /// block to the root. Every written node stays clean.
    fn strict_persist_chain(&mut self, start: NodeId) -> Step {
        let mut cur = Some(start);
        while let Some(n) = cur {
            self.ensure_cached(n)?;
            let flat = self.geometry.flat_index(n);
            // Fetching the parent must not evict the node being persisted.
            self.pins.push(flat);
            let (pc_new, _) = self.bump_parent_counter(n)?;
            self.pins.pop();
            let mac = {
                let counters = *self.meta_cache.peek(flat).expect("cached").node.counters();
                self.mac_computations += 1;
                self.mac
                    .node_mac(self.geometry.line_of(n).index(), &counters, pc_new, 0)
            };
            {
                let cn = self.meta_cache.get_mut(flat).expect("cached");
                cn.node.set_mac_field(MacField::from_mac(mac));
                cn.inc_since_clean = [0; 8];
            }
            let line = self.meta_cache.peek(flat).expect("cached").node.to_line();
            let w = self.nvm.write(
                self.geometry.line_of(n),
                line,
                WriteCause::CounterBlock,
                self.now(),
            );
            self.core.stall_write_ps(w.stall_ps);
            self.meta_cache.set_dirty(flat, false);
            self.persist_point(PersistPointKind::StrictChainNode { flat })?;
            cur = self.geometry.parent(n);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Crash.
    // ------------------------------------------------------------------

    /// Crashes the machine: volatile state (caches, core) is lost, the
    /// ADR region is battery-flushed into NVM, and the on-chip
    /// non-volatile registers (SIT root, bitmap top layer, cache-tree
    /// root) survive. Returns the [`CrashImage`] recovery operates on,
    /// which takes over the engine's line store.
    pub fn crash(mut self) -> CrashImage {
        let store = std::mem::take(self.nvm.store_mut());
        self.image_over(store)
    }

    /// The [`CrashImage`] a [`crash`](Self::crash) would return right
    /// now, without crashing: the line store is frozen and shared with
    /// the image (no line is copied), the ADR flush lands on the image's
    /// copy only, and the engine runs on unchanged.
    pub fn crash_image(&mut self) -> CrashImage {
        let store = self.nvm.store_mut().fork();
        self.image_over(store)
    }

    /// Builds the crash image over `store`, the engine's NVM contents.
    fn image_over(&self, mut store: LineStore) -> CrashImage {
        // Battery flush of the ADR-resident bitmap lines.
        if let Some(bitmap) = &self.bitmap {
            bitmap.crash_flush(&mut store);
        }
        // Ground truth: what the dirty metadata looked like in the cache.
        // A crash injected mid-operation can land between a dirty
        // victim's eviction and its write-back — those owned values are
        // dirty state the controller still held (their bitmap bits / ST
        // slots are still live, cleared only after the write completes).
        let mut ground_truth = HashMap::new();
        for (flat, dirty, cn) in self.meta_cache.iter() {
            if dirty {
                ground_truth.insert(flat, *cn.node.counters());
            }
        }
        for (flat, cn) in &self.pending_writebacks {
            ground_truth.insert(*flat, *cn.node.counters());
        }
        // STAR's cache-tree root over the dirty nodes' current MACs
        // (paper Fig. 9); no other scheme keeps one or pays for its MACs.
        // MACs are derived from the canonical rule: parent counter from
        // the cache if resident, else from NVM.
        let num_sets = self.meta_cache.num_sets();
        let cache_tree_root = (self.scheme == SchemeKind::Star).then(|| {
            let mut dirty_entries = Vec::new();
            for (&flat, counters) in &ground_truth {
                let node = self.geometry.node_at_flat(flat).expect("metadata");
                let pc = self.current_parent_counter_unsynced(node, &store);
                let lsb = self.synergized_lsb(pc);
                let line = self.geometry.line_of(node).index();
                let mac = self.mac.node_mac(line, counters, pc, lsb);
                dirty_entries.push((flat, MacField::new(mac, lsb).bits()));
            }
            cache_tree::root_from_dirty(&dirty_entries, num_sets)
        });

        let (bitmap_layout, bitmap_top) = match &self.bitmap {
            Some(b) => (Some(b.layout().clone()), b.top_line()),
            None => (None, star_nvm::Line::ZERO),
        };
        CrashImage::new(
            self.scheme,
            store,
            self.geometry.clone(),
            self.mac,
            self.cfg.counter_lsb_bits,
            self.root,
            bitmap_layout,
            bitmap_top,
            cache_tree_root,
            num_sets,
            self.st_base,
            self.st_slots
                .as_ref()
                .map_or(self.cfg.metadata_cache_lines(), |s| s.high_water()),
            ground_truth,
        )
    }

    /// Crash followed immediately by (attack-free) recovery.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::recovery::RecoveryError`] — e.g. for the
    /// non-recoverable WB scheme.
    pub fn crash_and_recover(
        self,
    ) -> Result<crate::recovery::RecoveryReport, crate::recovery::RecoveryError> {
        let mut image = self.crash();
        crate::recovery::recover(&mut image)
    }

    /// Parent-counter lookup that must not mutate cache state (used at
    /// crash time): cached value if resident, else the value in `store`.
    fn current_parent_counter_unsynced(&self, node: NodeId, store: &LineStore) -> u64 {
        match self.geometry.parent(node) {
            None => self.root.counter(node.index as usize),
            Some(p) => {
                let pf = self.geometry.flat_index(p);
                let slot = self.geometry.parent_slot(node);
                if let Some(cn) = self.meta_cache.peek(pf) {
                    return cn.node.counter(slot);
                }
                // Evicted-but-unwritten victims still own the live value.
                if let Some((_, cn)) = self.pending_writebacks.iter().find(|(f, _)| *f == pf) {
                    return cn.node.counter(slot);
                }
                Node64::from_line(&store.read(self.geometry.line_of(p))).counter(slot)
            }
        }
    }
}

impl crate::stats::Instrumented for SecureMemory {
    fn now_ps(&self) -> u64 {
        self.now()
    }

    fn wear_summary(&self) -> star_nvm::WearSummary {
        self.nvm.wear().summary()
    }

    fn prof_summary(&self) -> star_nvm::ProfSummary {
        self.nvm.prof_summary()
    }
}

// The parallel sweep runner (star-sweep) moves whole engines and crash
// images across worker threads; keep that property checked at compile
// time. `Sync` is *not* required — each job owns its engine outright.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<SecureMemory>();
    assert_send::<crate::recovery::CrashImage>();
    assert_send::<crate::stats::RunReport>();
};

/// Test-only sabotage switch for the allocation-rate gate: when set, the
/// op loop performs one deliberate heap allocation per event.
/// `crates/bench/tests/alloc_gate.rs` flips this to prove its
/// `MAX_ALLOCS_PER_OP` ceiling actually fails a run that regresses,
/// rather than passing vacuously.
/// Off by default; the hot path pays one relaxed load.
static INJECT_ALLOC_PER_OP: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

/// Enables or disables the per-op allocation injection (process-global;
/// intended only for tests of the allocation gate).
pub fn set_test_alloc_injection(on: bool) {
    INJECT_ALLOC_PER_OP.store(on, std::sync::atomic::Ordering::Relaxed);
}

impl TraceSink for SecureMemory {
    /// Processes one program event; a halted engine ignores it.
    fn on_event(&mut self, event: MemEvent) {
        if self.halt.is_some() {
            return;
        }
        star_scope::span!("engine/op");
        if INJECT_ALLOC_PER_OP.load(std::sync::atomic::Ordering::Relaxed) {
            std::hint::black_box(Box::new(0u64));
        }
        if let MemEvent::Work { count } = event {
            self.core.retire_instructions(count);
            return;
        }
        let mut ops = std::mem::take(&mut self.ops_buf);
        ops.clear();
        if self.hierarchy.trace().is_on() {
            let now = self.core.now_ps();
            self.hierarchy.trace_mut().set_now(now);
        }
        self.hierarchy.access(event, &mut ops);
        // An `Err` has latched why the engine halted; the rest of the
        // event is skipped.
        let _ = ops
            .drain(..)
            .try_for_each(|op| self.handle_mem_side(op))
            .and_then(|()| self.drain_forced_flushes());
        self.ops_buf = ops;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn engine(scheme: SchemeKind) -> SecureMemory {
        SecureMemory::new(scheme, SecureMemConfig::small())
    }

    /// Every written line of `store`, in address order.
    fn contents(store: &LineStore) -> Vec<(u64, star_nvm::Line)> {
        let mut lines: Vec<_> = store.iter().map(|(a, l)| (a.index(), l)).collect();
        lines.sort_unstable_by_key(|&(addr, _)| addr);
        lines
    }

    /// The image `m` would crash to, as comparable values.
    fn crashed(
        m: SecureMemory,
    ) -> (
        Result<crate::recovery::RecoveryReport, crate::recovery::RecoveryError>,
        Vec<(u64, star_nvm::Line)>,
    ) {
        let mut image = m.crash();
        (crate::recovery::recover(&mut image), contents(&image.store))
    }

    #[test]
    fn write_persist_read_roundtrip() {
        for scheme in SchemeKind::ALL {
            let mut m = engine(scheme);
            m.write_data(5, 42);
            m.persist_data(5);
            m.fence();
            assert_eq!(m.read_data(5), Ok(42), "{scheme}");
        }
    }

    #[test]
    fn read_after_cache_pressure_still_verifies() {
        // Force data out of the CPU caches so reads hit NVM and exercise
        // decrypt+verify.
        let mut m = engine(SchemeKind::Star);
        for i in 0..64 {
            m.write_data(i, 1000 + i);
            m.persist_data(i);
        }
        // Touch many other lines to evict.
        for i in 2048..2048 + 100_000 / 64 {
            m.write_data(i % m.config().data_lines, 7);
        }
        for i in 0..64 {
            let v = m.read_data(i).expect("untampered");
            assert!(v == 1000 + i || v == 7, "line {i} returned {v}");
        }
        assert_eq!(m.integrity_error(), None);
    }

    #[test]
    fn repeated_writes_increment_counter_and_stay_readable() {
        let mut m = engine(SchemeKind::Star);
        for round in 1..50u64 {
            m.write_data(9, round);
            m.persist_data(9);
        }
        assert_eq!(m.read_data(9), Ok(49));
    }

    #[test]
    fn strict_leaves_no_dirty_metadata() {
        let mut m = engine(SchemeKind::Strict);
        for i in 0..200 {
            m.write_data(i % 37, i);
            m.persist_data(i % 37);
        }
        assert_eq!(m.dirty_metadata_count(), 0, "strict is write-through");
    }

    #[test]
    fn strict_writes_whole_branch() {
        let mut m = engine(SchemeKind::Strict);
        m.write_data(0, 1);
        m.persist_data(0);
        let s = m.nvm_stats();
        assert_eq!(s.writes(AccessClass::Data), 1);
        // One metadata write per tree level.
        assert_eq!(
            s.writes(AccessClass::Metadata),
            m.geometry().levels() as u64,
            "strict persists the full branch"
        );
    }

    #[test]
    fn anubis_writes_st_per_memory_write() {
        let mut m = engine(SchemeKind::Anubis);
        for i in 0..500 {
            m.write_data(i % 80, i);
            m.persist_data(i % 80);
        }
        let s = m.nvm_stats();
        let normal = s.writes(AccessClass::Data) + s.writes(AccessClass::Metadata);
        let st = s.writes(AccessClass::ShadowTable);
        assert_eq!(st, normal, "Anubis doubles the write traffic");
    }

    #[test]
    fn star_writes_no_shadow_traffic() {
        let mut m = engine(SchemeKind::Star);
        for i in 0..500 {
            m.write_data(i % 80, i);
            m.persist_data(i % 80);
        }
        let s = m.nvm_stats();
        assert_eq!(s.writes(AccessClass::ShadowTable), 0);
    }

    #[test]
    fn wb_and_star_have_same_normal_traffic() {
        let run = |scheme| {
            let mut m = engine(scheme);
            for i in 0..2_000u64 {
                let line = (i * 37) % 500;
                m.write_data(line, i);
                m.persist_data(line);
            }
            let s = m.nvm_stats();
            (s.writes(AccessClass::Data), s.writes(AccessClass::Metadata))
        };
        let (wd, wm) = run(SchemeKind::WriteBack);
        let (sd, sm) = run(SchemeKind::Star);
        assert_eq!(wd, sd, "data writes identical");
        // STAR may add forced flushes, but with short runs they are zero.
        assert_eq!(wm, sm, "metadata writes identical");
    }

    #[test]
    fn dirty_fraction_grows_with_writes() {
        let mut m = engine(SchemeKind::Star);
        for i in 0..5_000u64 {
            let line = (i * 631) % 4_000;
            m.write_data(line, i);
            m.persist_data(line);
        }
        assert!(
            m.dirty_metadata_fraction() > 0.3,
            "{}",
            m.dirty_metadata_fraction()
        );
    }

    #[test]
    fn ipc_is_reported() {
        let mut m = engine(SchemeKind::WriteBack);
        m.work(10_000);
        m.write_data(1, 1);
        m.persist_data(1);
        assert!(m.ipc() > 0.0 && m.ipc() <= 2.0);
    }

    #[test]
    fn forced_flush_fires_after_lsb_window() {
        let mut cfg = SecureMemConfig::small();
        cfg.counter_lsb_bits = 2; // window of 3 increments
        let mut m = SecureMemory::new(SchemeKind::Star, cfg);
        for i in 0..64u64 {
            m.write_data(0, i);
            m.persist_data(0);
        }
        assert!(
            m.report().forced_flushes > 0,
            "2-bit window must force flushes"
        );
        assert_eq!(m.read_data(0), Ok(63));
    }

    #[test]
    fn report_is_populated() {
        let mut m = engine(SchemeKind::Star);
        m.work(100);
        m.write_data(3, 4);
        m.persist_data(3);
        let r = m.report();
        assert_eq!(r.scheme, SchemeKind::Star);
        assert!(r.nvm.total_writes() >= 1);
        assert!(r.bitmap.is_some());
        assert_eq!(r.metadata_cache_capacity, 64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_data_write_panics() {
        let mut m = engine(SchemeKind::WriteBack);
        let max = m.config().data_lines;
        m.write_data(max, 1);
        m.persist_data(max);
    }

    /// Seizing a crash image at every persist point leaves the run as it
    /// was: same report, persist log and NVM contents, and a final crash
    /// that recovers the same.
    #[test]
    fn seizing_never_perturbs_the_run() {
        let mut cfg = SecureMemConfig::small();
        cfg.counter_lsb_bits = 3; // forced flushes as well as evictions
        for scheme in SchemeKind::ALL {
            let run = |seize: &[u64]| {
                let mut m = SecureMemory::new(scheme, cfg.clone());
                m.enable_persist_log();
                m.enable_write_journal(64);
                m.seize_at(seize);
                for i in 0..1_200u64 {
                    // A hot set amid scattered lines.
                    let line = if i % 3 == 0 {
                        i % 16
                    } else {
                        (i * 631) % 4_000
                    };
                    m.write_data(line, i + 1);
                    m.persist_data(line);
                    if i % 5 == 0 {
                        m.read_data((i * 17) % 4_000).expect("untampered");
                    }
                    if i % 7 == 0 {
                        m.fence();
                    }
                }
                m
            };
            let plain = run(&[]);
            let all: Vec<u64> = (1..=plain.persist_points()).collect();
            let mut seizing = run(&all);
            let seized: Vec<u64> = seizing.take_seized().iter().map(|s| s.crash.seq).collect();
            assert!(!all.is_empty() && seized == all, "{scheme}");
            let report = |m: &SecureMemory| m.report().to_json();
            assert_eq!(report(&plain), report(&seizing), "{scheme}");
            assert_eq!(plain.persist_log(), seizing.persist_log(), "{scheme}");
            assert!(
                contents(plain.nvm.store()) == contents(seizing.nvm.store()),
                "{scheme}: a seizure wrote to the live NVM"
            );
            assert!(
                crashed(plain) == crashed(seizing),
                "{scheme}: final crash images recover differently"
            );
        }
    }

    /// An armed crash stops the engine at exactly its point: the point
    /// is latched, the image is the one a seizure there takes, and later
    /// events change neither the report nor the image.
    #[test]
    fn armed_crash_halts_the_engine_at_its_point() {
        let run = |m: &mut SecureMemory| {
            for i in 0..400u64 {
                let line = (i * 631) % 4_000;
                m.write_data(line, i + 1);
                m.persist_data(line);
                if i % 7 == 0 {
                    m.fence();
                }
            }
        };
        for scheme in SchemeKind::ALL {
            let mut plain = engine(scheme);
            plain.enable_persist_log();
            run(&mut plain);
            let log = plain.persist_log();
            let point = log[log.len() / 2];

            let mut seizing = engine(scheme);
            seizing.seize_at(&[point.seq]);
            run(&mut seizing);
            let seized = seizing.take_seized().pop().expect("point reached");
            assert_eq!(seized.crash, point, "{scheme}");

            let mut m = engine(scheme);
            m.arm(point.seq);
            run(&mut m);
            assert_eq!(m.crashed_at(), Some(point), "{scheme}");
            assert_eq!(m.persist_points(), point.seq, "{scheme}");
            assert_eq!(m.integrity_error(), None, "{scheme}");
            assert!(
                contents(&seized.image.store) == contents(&m.clone().crash().store),
                "{scheme}: the armed image differs from the seized one"
            );

            let report = m.report().to_json();
            let stopped = m.clone();
            m.write_data(1, 99);
            m.persist_data(1);
            m.fence();
            m.work(1_000);
            assert_eq!(m.report().to_json(), report, "{scheme}");
            assert!(
                crashed(m) == crashed(stopped),
                "{scheme}: events after the crash moved its image"
            );
        }
    }

    /// A write whose write-allocate fill reads a tampered line halts the
    /// engine, and every later read returns that same error.
    #[test]
    fn tampered_fill_halts_the_engine_and_latches_its_error() {
        let mut m = engine(SchemeKind::Star);
        m.write_data(5, 1);
        m.persist_data(5);
        m.fence();
        let mut image = m.crash();
        crate::recovery::recover(&mut image).expect("clean recovery");
        // Flip bit 5 of line 5's stored 64-bit MAC field.
        let addr = LineAddr::new(5);
        let mut line = image.store.read(addr);
        line.as_bytes_mut()[56] ^= 1 << 5;
        image.store.write(addr, line);

        // Cold caches: the write misses and fills line 5 first.
        let mut resumed = SecureMemory::resume_from_image(&image, SecureMemConfig::small());
        resumed.write_data(5, 2);
        let err = IntegrityError::DataMac { line: 5 };
        assert_eq!(resumed.integrity_error(), Some(err));
        assert_eq!(resumed.crashed_at(), None);
        let report = resumed.report().to_json();
        assert_eq!(resumed.read_data(9), Err(err), "an untouched line");
        assert_eq!(resumed.read_data(5), Err(err));
        assert_eq!(
            resumed.report().to_json(),
            report,
            "halted reads do nothing"
        );
    }

    #[test]
    fn fork_cost_is_dirty_delta_not_footprint() {
        const PAGE: u64 = star_nvm::store::PAGE_LINES as u64;
        let mut m = engine(SchemeKind::Star);
        // 64 data lines spread over eight pages, eight to a page.
        for i in 0..200u64 {
            let line = (i % 64) * 8;
            m.write_data(line, i + 1);
            m.persist_data(line);
        }
        m.fence();
        let footprint = m.nvm.store().footprint_lines();
        assert!(footprint >= 64, "at least the 64 persisted data lines");

        // First fork: the whole footprint freezes into the base the fork
        // shares by reference — no line is copied.
        let fork1 = m.fork();
        assert_eq!(m.nvm.store().delta_lines(), 0);
        assert_eq!(fork1.nvm.store().delta_lines(), 0);
        assert_eq!(
            fork1.nvm.store().shared_lines_with(m.nvm.store()),
            footprint
        );

        // Dirty one data line and fork again: the freeze folds only the
        // dirty pages, and every page not written in between is still
        // the *same* allocation the first fork sees.
        m.write_data(0, 1_000);
        m.persist_data(0);
        m.fence();
        let delta = m.nvm.store().delta_lines();
        assert!(
            delta > 0 && delta < footprint / 4,
            "delta {delta} should be far below footprint {footprint}"
        );
        let fork2 = m.fork();
        let pages = |m: &SecureMemory| {
            let mut pages: BTreeMap<u64, Vec<_>> = BTreeMap::new();
            for (addr, line) in m.nvm.store().iter() {
                pages
                    .entry(addr.index() / PAGE)
                    .or_default()
                    .push((addr, line));
            }
            pages
                .values_mut()
                .for_each(|lines| lines.sort_unstable_by_key(|&(a, _)| a));
            pages
        };
        let (old, new) = (pages(&fork1), pages(&fork2));
        let written: Vec<u64> = new
            .keys()
            .copied()
            .filter(|p| old.get(p) != new.get(p))
            .collect();
        assert!(written.contains(&0), "the dirtied data page was written");
        assert!((1..8).all(|p| !written.contains(&p)), "{written:?}");
        let untouched: usize = old
            .iter()
            .filter(|(p, _)| !written.contains(p))
            .map(|(_, lines)| lines.len())
            .sum();
        assert!(untouched >= 56, "seven data pages at least");
        assert_eq!(
            fork2.nvm.store().shared_lines_with(fork1.nvm.store()),
            untouched,
            "untouched pages stay shared across generations"
        );
        assert_eq!(
            fork2.nvm.store().shared_lines_with(m.nvm.store()),
            fork2.nvm.store().footprint_lines(),
            "the second fork shares its whole footprint with the parent"
        );

        // Forks are independent machines: divergent writes stay private.
        let mut fork3 = m.fork();
        fork3.write_data(8, 777);
        fork3.persist_data(8);
        fork3.fence();
        assert_eq!(fork3.read_data(8), Ok(777));
        assert_eq!(m.read_data(8), Ok(194), "parent keeps its pre-fork value");
    }
}
