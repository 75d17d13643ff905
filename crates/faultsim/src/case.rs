//! Running one crash case and classifying what recovery made of it.
//!
//! A case splits into two halves that this module keeps strictly
//! separate so the replay and fork strategies share them verbatim:
//!
//! * **Seizing** — at the crash point, take everything the case needs:
//!   the crash image, the readback oracle, the write queue's in-flight
//!   view, the simulated clock. The fork strategy's capture run gets
//!   these in-line from the engine's seize list
//!   ([`star_core::Seizure`]) and keeps running; a replay steps its run
//!   until the armed crash stops the engine and hands the stopped
//!   engine to [`ForkPoint::seize`]. Either way the readback oracle
//!   comes from the persist-log prefix.
//! * **Adjudication** (the crate-private `adjudicate`) — apply the
//!   medium fault to the
//!   image, run the scheme's recovery, and classify the result through
//!   the readback oracle.
//!
//! Which route reached the crash point is invisible to both halves,
//! which is what makes fork-based exploration byte-identical to
//! replay-based exploration.

use crate::fault::{apply_fault, FaultKind};
use star_core::persist::{PersistPoint, PersistPointKind, Seizure};
use star_core::{recover_traced, CrashImage, RecoveryError, SecureMemConfig, SecureMemory};
use star_nvm::WriteRecord;
use star_trace::{Histograms, TraceCategory, TraceEvent, TraceRecorder};
use std::collections::BTreeMap;

/// Ring capacity for the device write journal; faults only ever target
/// writes near the crash point, so this bounds memory without losing
/// anything relevant.
pub(crate) const JOURNAL_CAPACITY: usize = 4096;

/// Readback probes per case: every committed line when few, a
/// deterministic stride sample (always keeping the first and last
/// committed line) when many.
const MAX_READBACK_LINES: usize = 1024;

/// One crash case: where in the persist schedule, and what breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultCase {
    /// Persist point (1-based sequence number) the crash fires at.
    pub crash_at: u64,
    /// The accompanying medium fault.
    pub fault: FaultKind,
}

impl FaultCase {
    /// A clean crash at persist point `seq`.
    pub fn crash_only(seq: u64) -> Self {
        Self {
            crash_at: seq,
            fault: FaultKind::CrashOnly,
        }
    }
}

/// How one case ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Recovery succeeded and every committed data line read back with
    /// its exact pre-crash value through full verification.
    Recovered,
    /// The loss/tampering was *detected* — recovery refused (cache-tree
    /// mismatch) or a readback failed integrity verification. Expected
    /// for injected tampering and for Strict's mid-chain crash windows;
    /// never a silent failure.
    DetectedTamper,
    /// Recovery claimed success and readback verified, but some line
    /// returned the wrong value. A test failure for every recoverable
    /// scheme under the paper's fault model ([`FaultKind::CrashOnly`]).
    SilentCorruption,
    /// The scheme does not support recovery at all (the WB baseline).
    Unrecoverable,
    /// The run finished before reaching `crash_at`; nothing to classify.
    NotReached,
    /// The fault had no target at this point (e.g. `TornWrite` with an
    /// empty write queue); no crash semantics were exercised.
    Skipped,
}

impl Outcome {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Recovered => "recovered",
            Outcome::DetectedTamper => "detected-tamper",
            Outcome::SilentCorruption => "silent-corruption",
            Outcome::Unrecoverable => "unrecoverable",
            Outcome::NotReached => "not-reached",
            Outcome::Skipped => "skipped",
        }
    }

    /// Every classifiable outcome, in report order.
    pub const ALL: [Outcome; 6] = [
        Outcome::Recovered,
        Outcome::DetectedTamper,
        Outcome::SilentCorruption,
        Outcome::Unrecoverable,
        Outcome::NotReached,
        Outcome::Skipped,
    ];
}

impl core::fmt::Display for Outcome {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// The record one case leaves behind.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseResult {
    /// The persist point crashed at.
    pub crash_at: u64,
    /// What kind of durable transition that point committed (`None` when
    /// the run ended before reaching it).
    pub kind: Option<PersistPointKind>,
    /// The injected fault.
    pub fault: FaultKind,
    /// Classification.
    pub outcome: Outcome,
    /// Stale metadata nodes the crash left behind.
    pub stale_count: usize,
    /// Recovery's modeled line reads.
    pub recovery_reads: u64,
    /// Recovery's modeled line writes.
    pub recovery_writes: u64,
    /// Recovery's modeled time (100 ns per line access).
    pub recovery_time_ns: u64,
    /// Committed data lines read back through full verification.
    pub readback_checked: usize,
    /// Human-readable one-liner on how the classification was reached.
    pub detail: String,
}

/// Compressed kind label for reports.
pub(crate) fn kind_label(kind: PersistPointKind) -> &'static str {
    match kind {
        PersistPointKind::DataLineCommit { .. } => "data-line-commit",
        PersistPointKind::NodeWriteback { .. } => "node-writeback",
        PersistPointKind::ForcedFlush { .. } => "forced-flush",
        PersistPointKind::StrictChainNode { .. } => "strict-chain-node",
    }
}

/// The readback oracle: data line → last version durably committed at or
/// before persist point `upto`.
pub fn committed_versions(schedule: &[PersistPoint], upto: u64) -> BTreeMap<u64, u64> {
    let mut map = BTreeMap::new();
    for p in schedule.iter().take_while(|p| p.seq <= upto) {
        if let PersistPointKind::DataLineCommit { line, version } = p.kind {
            map.insert(line, version);
        }
    }
    map
}

/// The timeline one traced case left behind: the pre-crash engine
/// events, the crash and fault annotations ([`TraceCategory::Fault`]),
/// and the recovery phases, merged onto one clock.
#[derive(Debug, Clone)]
pub struct CaseTrace {
    /// Merged events in stable timestamp order.
    pub events: Vec<TraceEvent>,
    /// Device latency / queue-depth histograms of the pre-crash run.
    pub hists: Histograms,
    /// Events lost to ring-buffer wrap-around.
    pub dropped: u64,
}

/// A seized crash point: everything a crash at one persist point leaves
/// behind.
///
/// One `ForkPoint` per persist point is the unit of fork-based
/// exploration ([`CrashExplorer`](crate::CrashExplorer) with
/// [`ExploreStrategy::Fork`](crate::ExploreStrategy::Fork)): the capture
/// run seizes them in-line as it passes each chosen point, and
/// adjudicating each one — fault application, recovery, readback — is
/// exactly the tail of a full replay, so the resulting [`CaseResult`]s
/// are byte-identical to replay-based ones.
#[derive(Debug, Clone)]
pub struct ForkPoint {
    /// The persist point crashed at.
    pub crash: PersistPoint,
    /// Simulated clock at the crash.
    pub now_ps: u64,
    /// Dirty (stale-in-NVM) metadata nodes at crash time.
    pub stale_count: usize,
    /// What physically survives: the NVM contents after the ADR battery
    /// flush, plus the on-chip non-volatile registers.
    pub image: CrashImage,
    /// The readback oracle at this point: data line → last durably
    /// committed version.
    pub committed: BTreeMap<u64, u64>,
    /// The write journal's view of the in-flight write queue at crash
    /// time (oldest first) — the targets of sub-line faults.
    pub undrained: Vec<WriteRecord>,
    /// The most recently committed data line (tamper-fault target).
    pub last_committed_line: Option<u64>,
    /// Complete workload steps executed before the one that crashed.
    /// Known for captured points; `None` for plain replays, which don't
    /// count steps.
    pub ops_completed: Option<usize>,
}

impl ForkPoint {
    /// Extracts the fork point from an engine its armed crash stopped
    /// ([`SecureMemory::crashed_at`]). Consumes the engine: the crash
    /// image is everything that survives.
    ///
    /// # Panics
    ///
    /// Panics if the engine's armed crash has not fired.
    pub fn seize(engine: SecureMemory) -> Self {
        let crash = engine.crashed_at().expect("the armed crash has fired");
        // Take what the crash-consuming image cannot carry first: the
        // persist log (the oracle) and the write queue's view of
        // in-flight writes (fault targets).
        let log = engine.persist_log().to_vec();
        let now_ps = engine.now_ps();
        let undrained: Vec<WriteRecord> = engine
            .write_journal()
            .map_or_else(Vec::new, |j| j.undrained_at(now_ps));
        let image = engine.crash();
        let seizure = Seizure {
            crash,
            now_ps,
            undrained,
            image,
        };
        Self::new(seizure, &log, None)
    }

    /// The fork point of `seizure`, its readback oracle taken from the
    /// prefix of the run's persist `log` up to the seized point.
    pub(crate) fn new(
        seizure: Seizure,
        log: &[PersistPoint],
        ops_completed: Option<usize>,
    ) -> Self {
        let Seizure {
            crash,
            now_ps,
            undrained,
            image,
        } = seizure;
        let prefix = &log[..log.partition_point(|p| p.seq <= crash.seq)];
        Self {
            crash,
            now_ps,
            stale_count: image.stale_node_count(),
            image,
            committed: committed_versions(prefix, crash.seq),
            undrained,
            last_committed_line: prefix.iter().rev().find_map(|p| match p.kind {
                PersistPointKind::DataLineCommit { line, .. } => Some(line),
                _ => None,
            }),
            ops_completed,
        }
    }
}

/// The tail of a crash case, shared verbatim by the replay and fork
/// strategies: apply the fault to the image, run recovery, classify the
/// result through the readback oracle. `rec` carries the trace
/// annotations and must already sit at the point's crash time (pass
/// [`TraceRecorder::off`] when not tracing).
pub(crate) fn adjudicate(
    point: &ForkPoint,
    fault: FaultKind,
    cfg: &SecureMemConfig,
    rec: &mut TraceRecorder,
) -> CaseResult {
    let ForkPoint {
        crash,
        now_ps,
        stale_count,
        ref committed,
        ref undrained,
        last_committed_line,
        ..
    } = *point;
    let mut image = point.image.clone();
    rec.instant2(
        TraceCategory::Fault,
        "crash-injected",
        ("seq", crash.seq),
        ("stale_nodes", stale_count as u64),
    );

    if !apply_fault(
        &mut image,
        &fault,
        committed,
        undrained,
        last_committed_line,
    ) {
        return CaseResult {
            crash_at: crash.seq,
            kind: Some(crash.kind),
            fault,
            outcome: Outcome::Skipped,
            stale_count,
            recovery_reads: 0,
            recovery_writes: 0,
            recovery_time_ns: 0,
            readback_checked: 0,
            detail: "fault had no target at this point".into(),
        };
    }
    rec.instant(TraceCategory::Fault, fault.label(), ("seq", crash.seq));

    let mut result = CaseResult {
        crash_at: crash.seq,
        kind: Some(crash.kind),
        fault,
        outcome: Outcome::Recovered,
        stale_count,
        recovery_reads: 0,
        recovery_writes: 0,
        recovery_time_ns: 0,
        readback_checked: 0,
        detail: String::new(),
    };

    match recover_traced(&mut image, rec) {
        Err(RecoveryError::NotRecoverable(_)) => {
            result.outcome = Outcome::Unrecoverable;
            result.detail = "scheme has no recovery path".into();
        }
        Err(RecoveryError::AttackDetected { .. }) => {
            result.outcome = Outcome::DetectedTamper;
            result.detail = "recovery verification (cache-tree root) refused the image".into();
        }
        Err(e @ RecoveryError::MalformedImage { .. }) => {
            result.outcome = Outcome::DetectedTamper;
            result.detail = e.to_string();
        }
        Ok(report) => {
            result.recovery_reads = report.nvm_reads;
            result.recovery_writes = report.nvm_writes;
            result.recovery_time_ns = report.recovery_time_ns;
            let (outcome, checked, detail) = readback_outcome(&image, cfg, committed);
            result.outcome = outcome;
            result.readback_checked = checked;
            result.detail = detail;
        }
    }
    // Stamp the verdict after the modeled recovery window so it closes
    // out the timeline.
    rec.set_now(now_ps + result.recovery_time_ns * star_nvm::PS_PER_NS);
    rec.instant(
        TraceCategory::Fault,
        result.outcome.label(),
        ("checked", result.readback_checked as u64),
    );
    result
}

/// Boots the engine a post-recovery readback reads through: `image`
/// resumed under `cfg`, but with one CPU cache line per level. A
/// readback reads distinct lines, each once, into empty caches, so every
/// read misses every level whatever its capacity, evicted lines are
/// clean, and the verifying fill path runs exactly as under `cfg`'s
/// Table I hierarchy (DESIGN §12); only the boot of its 1.3 MB goes.
pub fn readback_engine(image: &CrashImage, cfg: &SecureMemConfig) -> SecureMemory {
    let mut cfg = cfg.clone();
    let h = &mut cfg.hierarchy;
    for level in [&mut h.l1, &mut h.l2, &mut h.l3] {
        level.capacity_bytes = star_nvm::LINE_BYTES;
        level.ways = 1;
    }
    SecureMemory::resume_from_image(image, cfg)
}

/// Boots a readback engine from the recovered image and reads committed
/// lines back through the full verify-and-decrypt path.
fn readback_outcome(
    image: &CrashImage,
    cfg: &SecureMemConfig,
    committed: &BTreeMap<u64, u64>,
) -> (Outcome, usize, String) {
    let mut resumed = readback_engine(image, cfg);
    let lines: Vec<(u64, u64)> = sample_lines(committed);
    let mut checked = 0;
    for &(line, want) in &lines {
        checked += 1;
        match resumed.read_data(line) {
            Err(_) => {
                return (
                    Outcome::DetectedTamper,
                    checked,
                    format!("integrity verification rejected readback of line {line}"),
                );
            }
            Ok(got) if got != want => {
                return (
                    Outcome::SilentCorruption,
                    checked,
                    format!("line {line} read back {got}, committed value was {want}"),
                );
            }
            Ok(_) => {}
        }
    }
    (
        Outcome::Recovered,
        checked,
        format!("{checked} committed lines verified and matched"),
    )
}

/// All committed lines when few; otherwise a deterministic stride sample
/// that keeps the extremes.
fn sample_lines(committed: &BTreeMap<u64, u64>) -> Vec<(u64, u64)> {
    let all: Vec<(u64, u64)> = committed.iter().map(|(&l, &v)| (l, v)).collect();
    if all.len() <= MAX_READBACK_LINES {
        return all;
    }
    let stride = all.len().div_ceil(MAX_READBACK_LINES);
    let mut picked: Vec<(u64, u64)> = all.iter().copied().step_by(stride).collect();
    if picked.last() != all.last() {
        picked.push(*all.last().expect("non-empty"));
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pp(seq: u64, kind: PersistPointKind) -> PersistPoint {
        PersistPoint { seq, kind }
    }

    #[test]
    fn oracle_takes_last_commit_at_or_before_point() {
        let schedule = vec![
            pp(
                1,
                PersistPointKind::DataLineCommit {
                    line: 5,
                    version: 10,
                },
            ),
            pp(2, PersistPointKind::NodeWriteback { flat: 0 }),
            pp(
                3,
                PersistPointKind::DataLineCommit {
                    line: 5,
                    version: 11,
                },
            ),
            pp(
                4,
                PersistPointKind::DataLineCommit {
                    line: 6,
                    version: 3,
                },
            ),
        ];
        let at2 = committed_versions(&schedule, 2);
        assert_eq!(at2.get(&5), Some(&10));
        assert_eq!(at2.get(&6), None);
        let at4 = committed_versions(&schedule, 4);
        assert_eq!(at4.get(&5), Some(&11));
        assert_eq!(at4.get(&6), Some(&3));
    }

    #[test]
    fn sampling_keeps_extremes_and_bounds() {
        let big: BTreeMap<u64, u64> = (0..5_000u64).map(|i| (i, i * 2)).collect();
        let s = sample_lines(&big);
        assert!(s.len() <= MAX_READBACK_LINES + 1);
        assert_eq!(s.first(), Some(&(0, 0)));
        assert_eq!(s.last(), Some(&(4_999, 9_998)));
    }
}
