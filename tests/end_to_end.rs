//! End-to-end: every workload under every scheme, through crash and
//! recovery.

use star::core::{RecoveryError, SchemeKind, SecureMemConfig, SecureMemory};
use star::workloads::WorkloadKind;

const OPS: usize = 800;

fn run(scheme: SchemeKind, kind: WorkloadKind) -> SecureMemory {
    let mut mem = SecureMemory::new(scheme, SecureMemConfig::default());
    let mut wl = kind.instantiate(97);
    wl.run(OPS, &mut mem);
    mem
}

#[test]
fn star_recovers_every_workload_exactly() {
    for kind in WorkloadKind::ALL {
        let mem = run(SchemeKind::Star, kind);
        assert_eq!(mem.integrity_error(), None, "{kind}");
        let report = mem
            .crash_and_recover()
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert!(report.verified, "{kind}: cache-tree must verify");
        assert!(report.correct, "{kind}: {} mismatches", report.mismatches);
    }
}

#[test]
fn anubis_recovers_every_workload_exactly() {
    for kind in WorkloadKind::ALL {
        let mem = run(SchemeKind::Anubis, kind);
        let report = mem
            .crash_and_recover()
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert!(report.correct, "{kind}: {} mismatches", report.mismatches);
    }
}

#[test]
fn strict_never_has_stale_metadata() {
    for kind in WorkloadKind::ALL {
        let mem = run(SchemeKind::Strict, kind);
        assert_eq!(mem.dirty_metadata_count(), 0, "{kind}");
        let report = mem.crash_and_recover().expect("trivial recovery");
        assert_eq!(report.stale_count, 0, "{kind}");
        assert_eq!(report.recovery_time_ns, 0, "{kind}");
    }
}

#[test]
fn wb_is_unrecoverable_but_runs() {
    for kind in WorkloadKind::ALL {
        let mem = run(SchemeKind::WriteBack, kind);
        assert_eq!(mem.integrity_error(), None, "{kind}");
        match mem.crash_and_recover() {
            Err(RecoveryError::NotRecoverable(SchemeKind::WriteBack)) => {}
            other => panic!("{kind}: expected NotRecoverable, got {other:?}"),
        }
    }
}

#[test]
fn write_traffic_ordering_holds_per_workload() {
    // The paper's headline ordering: WB <= STAR < Anubis < Strict.
    for kind in WorkloadKind::ALL {
        let writes = |scheme| run(scheme, kind).report().total_writes();
        let wb = writes(SchemeKind::WriteBack);
        let star = writes(SchemeKind::Star);
        let anubis = writes(SchemeKind::Anubis);
        let strict = writes(SchemeKind::Strict);
        assert!(wb <= star, "{kind}: WB {wb} <= STAR {star}");
        assert!(star < anubis, "{kind}: STAR {star} < Anubis {anubis}");
        assert!(anubis < strict, "{kind}: Anubis {anubis} < Strict {strict}");
    }
}

#[test]
fn recovery_reads_follow_the_ten_per_node_model() {
    let mem = run(SchemeKind::Star, WorkloadKind::Array);
    let dirty = mem.dirty_metadata_count() as u64;
    let report = mem.crash_and_recover().expect("clean");
    // 10 reads per stale node (itself + 8 children + parent), plus a few
    // bitmap lines; ragged-edge nodes may read slightly fewer children.
    assert!(
        report.nvm_reads >= 9 * dirty,
        "{} reads for {dirty} nodes",
        report.nvm_reads
    );
    assert!(
        report.nvm_reads <= 10 * dirty + 200,
        "{} reads for {dirty} nodes",
        report.nvm_reads
    );
    assert_eq!(report.nvm_writes, dirty);
}
