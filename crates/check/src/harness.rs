//! The differential harness: one program, every scheme, every invariant.
//!
//! For each engine scheme a program is driven through three phases:
//!
//! 1. **Fault-free run** — every `read` and a full final readback must
//!    return exactly what the reference model says; the write-provenance
//!    totals must balance the device counters; the persist-point log
//!    must only ever commit versions the model knows, in order.
//! 2. **End-of-run crash** — recovery must succeed (and be refused by
//!    the unrecoverable WB baseline) and pass the oracle rule faultsim's
//!    verdict applies to every clean crash ([`oracle_flaw`]: no rewound
//!    counter, recovery's own oracle exact, STAR's bitmap walk covering
//!    exactly the ground-truth stale set); the restored L0 parent
//!    counter of every written line must equal its `DataLineCommit`
//!    count in the log *and* sit inside the model's `[commits, writes]`
//!    bounds.
//! 3. **Mid-run crash** (when the program has a crash plan) — the crash
//!    image is seized at a persist point chosen from the program's own
//!    schedule (via the shared `star_faultsim::CrashExplorer` capture
//!    machinery, byte-identical to a from-scratch replay with a crash
//!    armed there). The log oracle's committed versions must be
//!    admissible under the model; everything else is faultsim's one
//!    crash verdict ([`adjudicate`]), whose outcome maps onto
//!    `recovery-refused`, `readback-rejected` and `silent-corruption` —
//!    the headline failure: a wrong value that verifies, or a recovery
//!    its own oracle catches out.
//!
//! Triad is checked on the same program through its own write-through
//! API: recovery must verify and its provenance totals must balance.

use crate::model::RefModel;
use crate::program::{CrashSpec, Program, ProgramWorkload};
use star_core::persist::{PersistPoint, PersistPointKind};
use star_core::triad::{TriadConfig, TriadMemory};
use star_core::{
    recover, FaultKind, Instrumented, RecoveryError, SchemeKind, SecureMemConfig, SecureMemory,
};
use star_faultsim::{
    adjudicate, committed_versions, oracle_flaw, CrashExplorer, ForkPoint, Outcome,
};
use star_mem::{MemEvent, TraceSink};
use star_metadata::Node64;
use star_nvm::AccessClass;
use star_trace::TraceRecorder;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One invariant violation found by the harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Scheme label the violation was found under (`wb`/`strict`/
    /// `anubis`/`star`/`triad`).
    pub scheme: String,
    /// Stable invariant identifier (e.g. `silent-corruption`).
    pub invariant: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl Violation {
    fn new(scheme: &str, invariant: &'static str, detail: String) -> Self {
        Self {
            scheme: scheme.to_string(),
            invariant,
            detail,
        }
    }
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{}] {}: {}", self.scheme, self.invariant, self.detail)
    }
}

/// Checks `program` against every engine scheme and Triad. Empty result
/// means every invariant held everywhere.
pub fn check_program(program: &Program) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut data_writes: Vec<(SchemeKind, u64)> = Vec::new();
    for scheme in SchemeKind::ALL {
        let (mut v, dw) = check_scheme_inner(program, scheme);
        violations.append(&mut v);
        if let Some(dw) = dw {
            data_writes.push((scheme, dw));
        }
    }
    // Differential: the data-line write traffic of one program is a
    // property of the CPU caches, not of the metadata scheme — every
    // scheme must agree with the WB baseline byte for byte.
    if let Some(&(base_scheme, base)) = data_writes.first() {
        for &(scheme, dw) in &data_writes[1..] {
            if dw != base {
                violations.push(Violation::new(
                    scheme.label(),
                    "data-write-diff",
                    format!(
                        "{} data-line writes vs {} under {}",
                        dw,
                        base,
                        base_scheme.label()
                    ),
                ));
            }
        }
    }
    violations.append(&mut check_triad(program));
    violations
}

/// Checks `program` under a single engine scheme.
pub fn check_program_scheme(program: &Program, scheme: SchemeKind) -> Vec<Violation> {
    check_scheme_inner(program, scheme).0
}

/// Inner per-scheme check; also returns the fault-free run's data-line
/// write count for the cross-scheme differential (when the run
/// completed cleanly).
fn check_scheme_inner(program: &Program, scheme: SchemeKind) -> (Vec<Violation>, Option<u64>) {
    let label = scheme.label();
    let mut v = Vec::new();

    // Phase 1: fault-free run against the model. Reads go through
    // `read_data`, whose value the model judges; every other event goes
    // to the engine as any workload's would.
    let mut engine = SecureMemory::new(scheme, program.cfg.clone());
    engine.enable_persist_log();
    let mut model = RefModel::new();
    for (i, event) in program.ops.iter().enumerate() {
        if let MemEvent::Read { line } = *event {
            match engine.read_data(line) {
                Err(_) => {
                    v.push(Violation::new(
                        label,
                        "read-rejected",
                        format!("op {i}: fault-free read of line {line} failed verification"),
                    ));
                    return (v, None);
                }
                Ok(got) => {
                    let want = model.expected_read(line);
                    if got != want {
                        v.push(Violation::new(
                            label,
                            "read-value",
                            format!("op {i}: read(line {line}) = {got}, model says {want}"),
                        ));
                    }
                }
            }
        } else {
            engine.on_event(*event);
        }
        model.apply(event);
    }
    let ops_points = engine.persist_points();

    let report = engine.report();
    if report.prof.total_writes() != report.nvm.total_writes() {
        v.push(Violation::new(
            label,
            "prof-write-sums",
            format!(
                "per-cause write sum {} != device total {}",
                report.prof.total_writes(),
                report.nvm.total_writes()
            ),
        ));
    }
    if let Some(b) = report.bitmap {
        if b.adr_hits + b.adr_misses != b.accesses || b.ra_reads != b.adr_misses {
            v.push(Violation::new(
                label,
                "bitmap-stats",
                format!(
                    "hits {} + misses {} vs accesses {}, ra_reads {}",
                    b.adr_hits, b.adr_misses, b.accesses, b.ra_reads
                ),
            ));
        }
    }
    let data_writes = report.nvm.writes(AccessClass::Data);

    // Final readback: the engine must agree with the model on every
    // written line.
    for (line, lm) in model.lines() {
        match engine.read_data(line) {
            Err(_) => {
                v.push(Violation::new(
                    label,
                    "read-rejected",
                    format!("final readback of line {line} failed verification"),
                ));
                return (v, Some(data_writes));
            }
            Ok(got) if got != lm.last_written => {
                v.push(Violation::new(
                    label,
                    "final-state",
                    format!(
                        "line {line} reads {got} after the run, model says {}",
                        lm.last_written
                    ),
                ));
            }
            Ok(_) => {}
        }
    }

    // The persist log must only commit versions the model has seen, in
    // strictly increasing order per line, and its end-state must itself
    // be model-admissible.
    let schedule: Vec<PersistPoint> = engine.persist_log().to_vec();
    let mut commit_counts: BTreeMap<u64, u64> = BTreeMap::new();
    let mut last_committed: BTreeMap<u64, u64> = BTreeMap::new();
    for p in &schedule {
        if let PersistPointKind::DataLineCommit { line, version } = p.kind {
            let known = model
                .line(line)
                .is_some_and(|l| l.history.contains(&version));
            if !known {
                v.push(Violation::new(
                    label,
                    "commit-unknown-version",
                    format!(
                        "persist point {} commits line {line} v{version}, never written",
                        p.seq
                    ),
                ));
                break;
            }
            if last_committed
                .get(&line)
                .is_some_and(|&prev| version <= prev)
            {
                v.push(Violation::new(
                    label,
                    "commit-not-monotone",
                    format!(
                        "persist point {} commits line {line} v{version} after v{}",
                        p.seq, last_committed[&line]
                    ),
                ));
                break;
            }
            last_committed.insert(line, version);
            *commit_counts.entry(line).or_default() += 1;
        }
    }
    for (&line, &version) in &committed_versions(&schedule, u64::MAX) {
        if !model.durable_value_allowed(line, version) {
            v.push(Violation::new(
                label,
                "oracle-model-disagree",
                format!("log says line {line} committed v{version}, model disallows it"),
            ));
            break;
        }
    }

    // Phase 2: end-of-run crash and recovery.
    let mut image = engine.crash();
    let ground_stale = image.stale_node_count();
    match recover(&mut image) {
        Err(RecoveryError::NotRecoverable(_)) => {
            if scheme.recoverable() {
                v.push(Violation::new(
                    label,
                    "recovery-refused",
                    "recoverable scheme refused a clean end-of-run crash".into(),
                ));
            }
        }
        Err(RecoveryError::AttackDetected { .. } | RecoveryError::MalformedImage { .. }) => {
            v.push(Violation::new(
                label,
                "recovery-refused",
                "recovery rejected an untampered end-of-run image".into(),
            ));
        }
        Ok(rep) => {
            if !scheme.recoverable() {
                v.push(Violation::new(
                    label,
                    "wb-unrecoverable",
                    "WB baseline claims to have recovered".into(),
                ));
            } else {
                if let Some(flaw) = oracle_flaw(&image, &rep, ground_stale, FaultKind::CrashOnly) {
                    v.push(Violation::new(label, "recovery-correct", flaw));
                }
                // Restored counters: exact vs the log, bounded by the
                // model.
                let geom = image.geometry().clone();
                for (line, _) in model.lines() {
                    let (node, slot) = geom.parent_of_data(line);
                    let stored = Node64::from_line(&image.store.read(geom.line_of(node)));
                    let counter = stored.counter(slot);
                    let exact = commit_counts.get(&line).copied().unwrap_or(0);
                    if counter != exact {
                        v.push(Violation::new(
                            label,
                            "counter-exact",
                            format!(
                                "line {line}: restored L0 counter {counter}, log shows {exact} \
                                 data-line commits"
                            ),
                        ));
                        break;
                    }
                    if !model.counter_allowed(line, counter) {
                        v.push(Violation::new(
                            label,
                            "counter-bounds",
                            format!("line {line}: counter {counter} outside model bounds"),
                        ));
                        break;
                    }
                }
            }
        }
    }

    // Phase 3: mid-run crash at a schedule point of the program's own
    // choosing.
    if let Some(seq) = resolve_crash_seq(program.crash, ops_points) {
        v.extend(check_crash_at(program, scheme, seq));
    }

    (v, Some(data_writes))
}

/// Maps a crash plan onto a persist schedule of `points` points.
fn resolve_crash_seq(crash: CrashSpec, points: u64) -> Option<u64> {
    if points == 0 {
        return None;
    }
    match crash {
        CrashSpec::None => None,
        CrashSpec::Frac(frac) => Some(1 + (u64::from(frac.min(1000)) * (points - 1)) / 1000),
        CrashSpec::At(seq) => Some(seq.clamp(1, points)),
    }
}

/// The shared crash machinery, configured to drive `program` under
/// `scheme` exactly as the harness's own fault-free run does (see
/// [`ProgramWorkload`]).
fn crash_explorer(program: &Program, scheme: SchemeKind) -> CrashExplorer {
    let workload = ProgramWorkload::new(program);
    CrashExplorer::with_workload_factory(
        scheme,
        program.cfg.clone(),
        "program",
        program.ops.len(),
        Arc::new(move || Box::new(workload.clone())),
    )
}

/// Crashes `program` at persist point `seq`, seized from one capture
/// run, and checks the case against the model and faultsim's verdict. A
/// run that never reaches `seq` — its schedule is shorter, or one of its
/// reads failed verification and halted the engine first — is a
/// `crash-not-reached` violation.
fn check_crash_at(program: &Program, scheme: SchemeKind, seq: u64) -> Vec<Violation> {
    let (schedule, forks) = crash_explorer(program, scheme).capture(&[seq]);
    let Some(point) = forks.into_iter().next() else {
        return vec![Violation::new(
            scheme.label(),
            "crash-not-reached",
            format!(
                "crash armed at point {seq} but the replay committed only {}",
                schedule.len()
            ),
        )];
    };
    model_disagreement(program, scheme, &point)
        .into_iter()
        .chain(crash_verdict(scheme, point, &program.cfg))
        .collect()
}

/// The one crash check that needs the reference model: every version
/// the log oracle calls committed at `point` must be admissible under
/// the model as of the crash, i.e. after every op that completed before
/// the one whose persist point the crash landed on.
fn model_disagreement(
    program: &Program,
    scheme: SchemeKind,
    point: &ForkPoint,
) -> Option<Violation> {
    let completed = point
        .ops_completed
        .expect("capture() stamps ops_completed on every fork");
    let mut model = RefModel::new();
    for event in &program.ops[..completed] {
        model.apply(event);
    }
    let seq = point.crash.seq;
    let (line, version) = point
        .committed
        .iter()
        .find(|&(&line, &version)| !model.durable_value_allowed(line, version))?;
    Some(Violation::new(
        scheme.label(),
        "oracle-model-disagree",
        format!(
            "at crash point {seq}: log says line {line} committed v{version}, model disallows it"
        ),
    ))
}

/// What faultsim's verdict on a clean crash at `point` amounts to under
/// `scheme`: a case that fails a sweep
/// ([`CaseResult::fails`](star_faultsim::CaseResult::fails)) is a
/// violation, named by what went wrong — silent corruption, recovery
/// refusing the image, or a readback rejected after recovery succeeded.
fn crash_verdict(scheme: SchemeKind, point: ForkPoint, cfg: &SecureMemConfig) -> Option<Violation> {
    let (case, recovery) = adjudicate(point, FaultKind::CrashOnly, cfg, &mut TraceRecorder::off());
    if !case.fails(scheme) {
        return None;
    }
    let invariant = match (case.outcome, recovery) {
        (Outcome::SilentCorruption, _) => "silent-corruption",
        (_, Some(Ok(_))) => "readback-rejected",
        _ => "recovery-refused",
    };
    Some(Violation::new(
        scheme.label(),
        invariant,
        format!("at crash point {}: {}", case.crash_at, case.detail),
    ))
}

/// Scans the program's own persist schedule for a crash point that
/// faultsim's verdict calls silent corruption under `scheme`. Returns the
/// first such `(sequence number, detail)`. Schedules longer than `cap`
/// are sampled as a sweep samples them
/// ([`CrashExplorer::chosen_points`]: seeded, first and last point
/// always probed).
///
/// One run learns the schedule and one more seizes every probe point
/// ([`CrashExplorer::capture`]); only crash, recovery and readback run
/// per probe, so a scan costs O(ops + probes · recovery) instead of
/// O(ops · probes). A read that fails verification halts both runs, so
/// the schedule ends there.
pub fn find_silent_crash(
    program: &Program,
    scheme: SchemeKind,
    cap: usize,
) -> Option<(u64, String)> {
    let explorer = crash_explorer(program, scheme).with_max_cases(cap.max(2));
    // No run reaches the last possible point, so this one seizes nothing
    // and, unlike `CrashExplorer::schedule`, stops quietly at a failed
    // read.
    let points = explorer.capture(&[u64::MAX]).0.len() as u64;
    let (_, forks) = explorer.capture(&explorer.chosen_points(points));
    forks.into_iter().find_map(|point| {
        let seq = point.crash.seq;
        crash_verdict(scheme, point, explorer.config())
            .filter(|v| v.invariant == "silent-corruption")
            .map(|v| (seq, v.detail))
    })
}

/// Checks the program against the synthetic Triad baseline: writes are
/// write-through there, so recovery must always verify, and its
/// provenance totals must balance like every other scheme's.
pub fn check_triad(program: &Program) -> Vec<Violation> {
    let mut v = Vec::new();
    let mut triad = TriadMemory::new(TriadConfig {
        data_lines: program.cfg.data_lines,
        ..TriadConfig::default()
    });
    for event in &program.ops {
        if let MemEvent::Write { line, version } = *event {
            triad.write_data(line, version);
        }
    }
    let (_, _, verified) = triad.crash_and_recover();
    if !verified {
        v.push(Violation::new(
            "triad",
            "recovery-correct",
            "Triad root failed to verify after crash".into(),
        ));
    }
    let prof = triad.prof_summary();
    let total = triad.nvm_stats().total_writes();
    if prof.total_writes() != total {
        v.push(Violation::new(
            "triad",
            "prof-write-sums",
            format!(
                "per-cause write sum {} != device total {}",
                prof.total_writes(),
                total
            ),
        ));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};

    #[test]
    fn small_random_programs_check_clean() {
        let cfg = GenConfig {
            min_ops: 16,
            max_ops: 48,
        };
        for case in 0..6 {
            let p = generate(11, case, &cfg);
            let violations = check_program(&p);
            assert!(
                violations.is_empty(),
                "case {case} ({}): {:?}",
                p.summary(),
                violations
            );
        }
    }

    #[test]
    fn explicit_boundary_program_checks_clean() {
        // Hammer one line across a narrow coalescing window so forced
        // flushes and counter restoration are on the replayed path.
        let mut ops = Vec::new();
        for i in 1..=40u64 {
            ops.push(MemEvent::Write {
                line: 3,
                version: i,
            });
            ops.push(MemEvent::Clwb { line: 3 });
        }
        let mut p = Program::new(ops);
        p.cfg.counter_lsb_bits = 2;
        p.crash = CrashSpec::Frac(900);
        let violations = check_program(&p);
        assert!(violations.is_empty(), "{violations:?}");
    }

    /// Generated case 1929 of seed 1 (117 ops over 4,096 data lines, a
    /// 2 KB 2-way metadata cache, 2-bit LSBs) pins more nodes in one set
    /// than it has ways: the write-backs a counter-block fetch drains
    /// evict that block again, clean, before the write that needed it.
    #[test]
    fn a_fetch_evicted_by_its_own_drain_is_fetched_again() {
        let p = generate(1, 1929, &GenConfig::default());
        let violations = check_program(&p);
        assert!(violations.is_empty(), "{}: {violations:?}", p.summary());
    }

    #[test]
    fn crash_seq_resolution_is_clamped_and_ordered() {
        assert_eq!(resolve_crash_seq(CrashSpec::None, 10), None);
        assert_eq!(resolve_crash_seq(CrashSpec::Frac(0), 10), Some(1));
        assert_eq!(resolve_crash_seq(CrashSpec::Frac(1000), 10), Some(10));
        assert_eq!(resolve_crash_seq(CrashSpec::Frac(500), 1), Some(1));
        assert_eq!(resolve_crash_seq(CrashSpec::At(99), 10), Some(10));
        assert_eq!(resolve_crash_seq(CrashSpec::At(3), 10), Some(3));
        assert_eq!(resolve_crash_seq(CrashSpec::Frac(500), 0), None);
    }

    #[test]
    fn tampered_image_is_never_silent() {
        // A flipped stored MAC bit in a captured crash image must surface
        // through the one verdict as a rejected readback: never silence,
        // never a clean verdict.
        let p = generate(3, 0, &GenConfig::default());
        // The untampered control: no probed point is silent.
        assert!(find_silent_crash(&p, SchemeKind::Star, 16).is_none());
        let explorer = crash_explorer(&p, SchemeKind::Star);
        let points = explorer.schedule().len() as u64;
        assert!(points > 0);
        let (_, forks) = explorer.capture(&[points]);
        let mut point = forks.into_iter().next().expect("the last point is reached");
        assert_eq!(crash_verdict(SchemeKind::Star, point.clone(), &p.cfg), None);
        let line = *point.committed.keys().next().expect("a committed line");
        let addr = star_nvm::LineAddr::new(line);
        let mut stored = point.image.store.read(addr);
        stored.as_bytes_mut()[63] ^= 0x10;
        point.image.store.write(addr, stored);
        let violation = crash_verdict(SchemeKind::Star, point, &p.cfg)
            .expect("a tampered image never checks clean");
        assert_eq!(violation.invariant, "readback-rejected", "{violation}");
    }
}
