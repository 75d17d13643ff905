//! The differential harness: one program, every scheme, every invariant.
//!
//! For each engine scheme a program is driven through three phases:
//!
//! 1. **Fault-free run** — every `read` and a full final readback must
//!    return exactly what the reference model says; the write-provenance
//!    totals must balance the device counters; the persist-point log
//!    must only ever commit versions the model knows, in order.
//! 2. **End-of-run crash** — recovery must succeed (and be refused by
//!    the unrecoverable WB baseline), the restored L0 parent counter of
//!    every written line must equal its `DataLineCommit` count in the
//!    log *and* sit inside the model's `[commits, writes]` bounds, and
//!    STAR's bitmap walk must cover exactly the ground-truth stale set.
//! 3. **Mid-run crash** (when the program has a crash plan) — the crash
//!    image is seized at a persist point chosen from the program's own
//!    schedule (via the shared `star_faultsim::CrashExplorer` capture
//!    machinery, byte-identical to a from-scratch replay with a crash
//!    armed there); after recovery every line the log oracle calls
//!    committed must read back its exact committed version, which in
//!    turn must be admissible under the model. A wrong value that
//!    verifies is silent corruption — the headline failure.
//!
//! Triad is checked on the same program through its own write-through
//! API: recovery must verify and its provenance totals must balance.

use crate::model::RefModel;
use crate::program::{CrashSpec, Op, Program, ProgramWorkload};
use star_core::persist::{PersistPoint, PersistPointKind};
use star_core::triad::{TriadConfig, TriadMemory};
use star_core::{recover, Instrumented, RecoveryError, SchemeKind, SecureMemory};
use star_faultsim::case::{committed_versions, readback_engine};
use star_faultsim::{CrashExplorer, ForkPoint};
use star_metadata::Node64;
use star_nvm::AccessClass;
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
    let cfg = program.config();

    // Phase 1: fault-free run against the model.
    let mut engine = SecureMemory::new(scheme, cfg.clone());
    engine.enable_persist_log();
    let mut model = RefModel::new();
    for (i, op) in program.ops.iter().enumerate() {
        match *op {
            Op::Write { line, version } => engine.write_data(line, version),
            Op::Persist { line } => engine.persist_data(line),
            Op::Fence => engine.fence(),
            Op::Work { count } => engine.work(count),
            Op::Read { line } => match engine.read_data(line) {
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
            },
        }
        model.apply(op);
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
                if !rep.verified || !rep.correct || rep.mismatches != 0 {
                    v.push(Violation::new(
                        label,
                        "recovery-correct",
                        format!(
                            "verified={} correct={} mismatches={}",
                            rep.verified, rep.correct, rep.mismatches
                        ),
                    ));
                }
                if scheme == SchemeKind::Star && rep.stale_count != ground_stale {
                    v.push(Violation::new(
                        label,
                        "stale-coverage",
                        format!(
                            "bitmap walk found {} stale nodes, ground truth has {}",
                            rep.stale_count, ground_stale
                        ),
                    ));
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

/// Crashes `program` at persist point `seq` (forking the machine there
/// via the shared crash machinery), recovers and checks the post-crash
/// state. Returns the violations found.
pub fn check_crash_at(program: &Program, scheme: SchemeKind, seq: u64) -> Vec<Violation> {
    match crash_at_inner(program, scheme, seq) {
        CrashVerdict::Violations(v) => v,
        CrashVerdict::Ok | CrashVerdict::Detected => Vec::new(),
    }
}

/// The shared crash machinery, configured to drive `program` under
/// `scheme` exactly as the harness's own replay loop would (see
/// [`ProgramWorkload`]: op-to-event driving is a bijection).
fn crash_explorer(program: &Program, scheme: SchemeKind) -> CrashExplorer {
    let workload = ProgramWorkload::new(program);
    CrashExplorer::with_workload_factory(
        scheme,
        program.config(),
        "program",
        program.ops.len(),
        Arc::new(move || Box::new(workload.clone())),
    )
}

/// How a single crash-at-`seq` probe ended.
enum CrashVerdict {
    /// Recovered and every committed line read back exactly.
    Ok,
    /// The scheme detected the loss (legitimate only for Strict's
    /// mid-chain windows; other schemes report it as a violation).
    Detected,
    /// Invariants failed.
    Violations(Vec<Violation>),
}

/// Seizes `seq` from one capture run. A run that never reaches it — its
/// schedule is shorter, or one of its reads failed verification and
/// halted the engine first — is a `crash-not-reached` violation.
fn crash_at_inner(program: &Program, scheme: SchemeKind, seq: u64) -> CrashVerdict {
    let (schedule, forks) = crash_explorer(program, scheme).capture(&[seq]);
    let Some(point) = forks.into_iter().next() else {
        return CrashVerdict::Violations(vec![Violation::new(
            scheme.label(),
            "crash-not-reached",
            format!(
                "crash armed at point {seq} but the replay committed only {}",
                schedule.len()
            ),
        )]);
    };
    verdict_from_fork(program, scheme, point)
}

/// Adjudicates one seized crash point against the model and the readback
/// oracle — the post-crash half of the old replay loop, now fed by
/// [`CrashExplorer::capture`] so N probes cost one execution, not N.
fn verdict_from_fork(program: &Program, scheme: SchemeKind, point: ForkPoint) -> CrashVerdict {
    let label = scheme.label();
    let seq = point.crash.seq;
    let mut v = Vec::new();

    // The model state at the crash: every op that completed before the
    // one whose persist point the crash landed on (exactly what a replay
    // loop would have applied when the crash fired).
    let completed = point
        .ops_completed
        .expect("capture() stamps ops_completed on every fork");
    let mut model = RefModel::new();
    for op in &program.ops[..completed] {
        model.apply(op);
    }

    let committed = point.committed;
    for (&line, &version) in &committed {
        if !model.durable_value_allowed(line, version) {
            v.push(Violation::new(
                label,
                "oracle-model-disagree",
                format!(
                    "at crash point {seq}: log says line {line} committed v{version}, \
                     model disallows it"
                ),
            ));
            break;
        }
    }

    let mut image = point.image;
    let ground_stale = point.stale_count;
    match recover(&mut image) {
        Err(RecoveryError::NotRecoverable(_)) => {
            if scheme.recoverable() {
                v.push(Violation::new(
                    label,
                    "recovery-refused",
                    format!("recovery refused the crash at point {seq}"),
                ));
            }
        }
        Err(RecoveryError::AttackDetected { .. } | RecoveryError::MalformedImage { .. }) => {
            // Strict legitimately detects mid-chain crashes; the
            // always-recoverable schemes must never refuse a clean one.
            if matches!(scheme, SchemeKind::Star | SchemeKind::Anubis) {
                v.push(Violation::new(
                    label,
                    "recovery-refused",
                    format!("clean crash at point {seq} was rejected as an attack"),
                ));
            } else if v.is_empty() {
                return CrashVerdict::Detected;
            }
        }
        Ok(rep) => {
            if !scheme.recoverable() {
                v.push(Violation::new(
                    label,
                    "wb-unrecoverable",
                    "WB baseline claims to have recovered".into(),
                ));
            } else {
                if matches!(scheme, SchemeKind::Star | SchemeKind::Anubis)
                    && (!rep.verified || !rep.correct || rep.mismatches != 0)
                {
                    v.push(Violation::new(
                        label,
                        "recovery-correct",
                        format!(
                            "at point {seq}: verified={} correct={} mismatches={}",
                            rep.verified, rep.correct, rep.mismatches
                        ),
                    ));
                }
                if scheme == SchemeKind::Star && rep.stale_count != ground_stale {
                    v.push(Violation::new(
                        label,
                        "stale-coverage",
                        format!(
                            "at point {seq}: bitmap walk found {} stale nodes, ground truth \
                             has {}",
                            rep.stale_count, ground_stale
                        ),
                    ));
                }
                let mut resumed = readback_engine(&image, &program.config());
                for (&line, &want) in &committed {
                    match resumed.read_data(line) {
                        Err(_) => {
                            if matches!(scheme, SchemeKind::Star | SchemeKind::Anubis) {
                                v.push(Violation::new(
                                    label,
                                    "readback-rejected",
                                    format!(
                                        "at point {seq}: committed line {line} failed \
                                         verification after recovery"
                                    ),
                                ));
                            } else if v.is_empty() {
                                return CrashVerdict::Detected;
                            }
                            break;
                        }
                        Ok(got) if got != want => {
                            v.push(Violation::new(
                                label,
                                "silent-corruption",
                                format!(
                                    "at point {seq}: line {line} read back {got}, committed \
                                     value was {want}"
                                ),
                            ));
                            break;
                        }
                        Ok(_) => {}
                    }
                }
            }
        }
    }
    if v.is_empty() {
        CrashVerdict::Ok
    } else {
        CrashVerdict::Violations(v)
    }
}

/// Scans the program's own persist schedule for a crash point whose
/// recovery silently corrupts data under `scheme`. Returns the first
/// such `(sequence number, detail)`. Schedules longer than `cap` are
/// sampled with an even stride (first and last point always probed).
///
/// All probe points are seized from **one** execution
/// ([`CrashExplorer::capture`]); only crash, recovery and readback run
/// per probe, so a scan costs O(ops + probes · recovery) instead of
/// O(ops · probes). A read that fails verification halts that execution,
/// so probes past it are never seized.
pub fn find_silent_crash(
    program: &Program,
    scheme: SchemeKind,
    cap: usize,
) -> Option<(u64, String)> {
    let points = schedule_points(program, scheme);
    if points == 0 {
        return None;
    }
    let stride = (points as usize).div_ceil(cap.max(1)).max(1) as u64;
    let mut probes = Vec::new();
    let mut seq = 1;
    while seq <= points {
        probes.push(seq);
        if seq == points {
            break;
        }
        seq = (seq + stride).min(points);
    }
    let (_, forks) = crash_explorer(program, scheme).capture(&probes);
    forks.into_iter().find_map(|point| {
        let seq = point.crash.seq;
        match verdict_from_fork(program, scheme, point) {
            CrashVerdict::Violations(v) => v
                .into_iter()
                .find(|v| v.invariant == "silent-corruption")
                .map(|hit| (seq, hit.detail)),
            CrashVerdict::Ok | CrashVerdict::Detected => None,
        }
    })
}

/// Length of the program's persist schedule under `scheme` (a fault-free
/// instrumented dry run).
pub fn schedule_points(program: &Program, scheme: SchemeKind) -> u64 {
    let mut engine = SecureMemory::new(scheme, program.config());
    engine.enable_persist_log();
    for op in &program.ops {
        match *op {
            Op::Write { line, version } => engine.write_data(line, version),
            Op::Persist { line } => engine.persist_data(line),
            Op::Read { line } => {
                if engine.read_data(line).is_err() {
                    break;
                }
            }
            Op::Fence => engine.fence(),
            Op::Work { count } => engine.work(count),
        }
    }
    engine.persist_points()
}

/// Checks the program against the synthetic Triad baseline: writes are
/// write-through there, so recovery must always verify, and its
/// provenance totals must balance like every other scheme's.
pub fn check_triad(program: &Program) -> Vec<Violation> {
    let mut v = Vec::new();
    let mut triad = TriadMemory::new(TriadConfig {
        data_lines: program.data_lines,
        ..TriadConfig::default()
    });
    for op in &program.ops {
        if let Op::Write { line, version } = *op {
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
            ops.push(Op::Write {
                line: 3,
                version: i,
            });
            ops.push(Op::Persist { line: 3 });
        }
        let mut p = Program::new(ops);
        p.counter_lsb_bits = 2;
        p.crash = CrashSpec::Frac(900);
        let violations = check_program(&p);
        assert!(violations.is_empty(), "{violations:?}");
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
        // as a rejected readback: never silence, never a clean verdict.
        let p = generate(3, 0, &GenConfig::default());
        let points = schedule_points(&p, SchemeKind::Star);
        assert!(points > 0);
        // The untampered control: no probed point is silent.
        assert!(find_silent_crash(&p, SchemeKind::Star, 16).is_none());
        let (_, forks) = crash_explorer(&p, SchemeKind::Star).capture(&[points]);
        let mut point = forks.into_iter().next().expect("the last point is reached");
        let line = *point.committed.keys().next().expect("a committed line");
        let addr = star_nvm::LineAddr::new(line);
        let mut stored = point.image.store.read(addr);
        stored.as_bytes_mut()[63] ^= 0x10;
        point.image.store.write(addr, stored);
        match verdict_from_fork(&p, SchemeKind::Star, point) {
            CrashVerdict::Violations(v) => {
                assert!(
                    v.iter().any(|v| v.invariant == "readback-rejected"),
                    "{v:?}"
                );
                assert!(
                    v.iter().all(|v| v.invariant != "silent-corruption"),
                    "{v:?}"
                );
            }
            CrashVerdict::Ok => panic!("a tampered image checked clean"),
            CrashVerdict::Detected => panic!("STAR reported a bare detection"),
        }
    }
}
