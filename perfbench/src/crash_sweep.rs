//! `crash-sweep`: exhaustive fork-strategy [`CrashExplorer`] sweeps on
//! the faultsim geometry over ycsb, for STAR and Anubis, each once
//! crash-only and once with a flipped MAC bit, at 2 threads. The unit
//! is one adjudicated crash case.

use crate::measure::{fnv1a, ModelValue, Scale, Tally, FNV_OFFSET};
use crate::Bench;
use star_core::{FaultKind, SchemeKind, SecureMemory};
use star_faultsim::{faultsim_config, CaseResult, CrashExplorer, ExploreReport, Outcome};
use star_workloads::WorkloadKind;

/// Swept schemes.
pub const SCHEMES: [SchemeKind; 2] = [SchemeKind::Star, SchemeKind::Anubis];

/// Injected faults: the paper's clean crash, then tampering.
pub const FAULTS: [FaultKind; 2] = [FaultKind::CrashOnly, FaultKind::FlipMacBit { bit: 5 }];

/// The workload every sweep runs.
pub const WORKLOAD: WorkloadKind = WorkloadKind::Ycsb;

/// Worker threads each sweep adjudicates cases on.
pub const THREADS: usize = 2;

/// Ops each swept run executes.
pub fn ops(scale: Scale) -> usize {
    match scale {
        Scale::Full => 200,
        Scale::Minimal => 12,
    }
}

/// The exhaustive explorer for one (scheme, fault) sweep.
pub fn explorer(scale: Scale, seed: u64, scheme: SchemeKind, fault: FaultKind) -> CrashExplorer {
    CrashExplorer::new(scheme, WORKLOAD, ops(scale), seed)
        .with_fault(fault)
        .all_points()
        .with_threads(THREADS)
}

/// Every explorer of one pass, in sweep order.
pub fn explorers(scale: Scale, seed: u64) -> Vec<CrashExplorer> {
    SCHEMES
        .iter()
        .flat_map(|&s| FAULTS.map(|f| explorer(scale, seed, s, f)))
        .collect()
}

/// A case fails on silent corruption, on a point the run never
/// reached, and (crash-only) on anything but a clean recovery.
pub fn case_ok(case: &CaseResult) -> bool {
    match case.outcome {
        Outcome::SilentCorruption | Outcome::NotReached => false,
        outcome => case.fault != FaultKind::CrashOnly || outcome == Outcome::Recovered,
    }
}

/// Checks every case of `reports` into `tally`; returns the case count.
pub fn check(reports: &[ExploreReport], tally: &mut Tally) -> u64 {
    let mut cases = 0;
    for report in reports {
        for case in &report.cases {
            tally.record(case_ok(case));
            cases += 1;
        }
    }
    cases
}

/// The crash-sweep's explorers.
pub struct CrashSweep {
    explorers: Vec<CrashExplorer>,
    digest: u64,
}

impl Bench for CrashSweep {
    fn prepare(scale: Scale, seed: u64, tally: &mut Tally) -> Self {
        let explorers = explorers(scale, seed);
        let reports: Vec<ExploreReport> = explorers.iter().map(|e| e.explore()).collect();
        check(&reports, tally);
        let digest = reports
            .iter()
            .fold(FNV_OFFSET, |h, r| fnv1a(h, r.to_json().as_bytes()));
        CrashSweep { explorers, digest }
    }

    fn setup(scale: Scale, seed: u64) {
        // What each sweep starts from: its explorer, a fresh engine on
        // the faultsim geometry, and a freshly seeded workload.
        let built: Vec<_> = SCHEMES
            .iter()
            .map(|&s| {
                (
                    FAULTS.map(|f| explorer(scale, seed, s, f)),
                    SecureMemory::new(s, faultsim_config()),
                    WORKLOAD.instantiate(seed),
                )
            })
            .collect();
        std::hint::black_box(built);
    }

    fn batch(&mut self, _traced: bool, tally: &mut Tally) -> u64 {
        let reports: Vec<ExploreReport> = self.explorers.iter().map(|e| e.explore()).collect();
        check(&reports, tally)
    }

    fn digest(&self) -> u64 {
        self.digest
    }

    fn model(&self) -> Vec<ModelValue> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(fault: FaultKind, outcome: Outcome) -> CaseResult {
        CaseResult {
            crash_at: 1,
            kind: None,
            fault,
            outcome,
            stale_count: 0,
            recovery_reads: 0,
            recovery_writes: 0,
            recovery_time_ns: 0,
            readback_checked: 0,
            detail: String::new(),
        }
    }

    #[test]
    fn case_verdicts_follow_the_fault() {
        let flip = FAULTS[1];
        assert!(case_ok(&case(FaultKind::CrashOnly, Outcome::Recovered)));
        assert!(!case_ok(&case(
            FaultKind::CrashOnly,
            Outcome::DetectedTamper
        )));
        assert!(case_ok(&case(flip, Outcome::DetectedTamper)));
        for bad in [Outcome::SilentCorruption, Outcome::NotReached] {
            assert!(!case_ok(&case(FaultKind::CrashOnly, bad)));
            assert!(!case_ok(&case(flip, bad)));
        }
    }
}
