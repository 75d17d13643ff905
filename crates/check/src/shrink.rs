//! Greedy shrinking of failing programs.
//!
//! Classic delta-debugging without the ceremony: repeatedly try to
//! delete chunks of operations — halves first, then smaller and smaller
//! runs, finally single operations — keeping any candidate that still
//! fails the caller's predicate. The result is *1-minimal with respect
//! to chunk deletion*: removing any single remaining operation makes
//! the failure disappear. Geometry and the crash plan are never
//! touched, so a shrunk program replays under the exact conditions of
//! the original.
//!
//! Determinism: candidates are tried in a fixed order and the predicate
//! (the differential harness) is a pure function of the program, so the
//! same failing program always shrinks to the same minimum.

use crate::program::Program;

/// Upper bound on predicate evaluations per shrink, so a pathological
/// predicate cannot stall a sweep. Generated programs are ≤ a few
/// hundred operations; the bound is far above what ddmin needs there.
const MAX_EVALS: usize = 4096;

/// Shrinks `program` to a smaller one that still satisfies `failing`.
///
/// `failing(program)` must hold on entry (otherwise the input is
/// returned unchanged). The predicate is typically
/// `|p| !check_program_scheme(p, scheme).is_empty()`.
pub fn shrink_ops(program: &Program, failing: impl Fn(&Program) -> bool) -> Program {
    if !failing(program) {
        return program.clone();
    }
    let mut best = program.clone();
    let mut evals = 0usize;
    let mut chunk = (best.ops.len() / 2).max(1);
    loop {
        let mut improved = false;
        let mut i = 0;
        while i < best.ops.len() && evals < MAX_EVALS {
            let end = (i + chunk).min(best.ops.len());
            let mut candidate = best.clone();
            candidate.ops.drain(i..end);
            evals += 1;
            if !candidate.ops.is_empty() && failing(&candidate) {
                best = candidate;
                improved = true;
                // The next chunk slid into position `i`; retry there.
            } else {
                i = end;
            }
        }
        if chunk > 1 {
            chunk = (chunk / 2).max(1);
        } else if !improved || evals >= MAX_EVALS {
            return best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_mem::MemEvent;

    fn program_of(lines: &[u64]) -> Program {
        Program::new(
            lines
                .iter()
                .enumerate()
                .map(|(i, &line)| MemEvent::Write {
                    line,
                    version: i as u64 + 1,
                })
                .collect(),
        )
    }

    /// Predicate: program still writes line 7 at least twice.
    fn failing(p: &Program) -> bool {
        p.ops
            .iter()
            .filter(|o| matches!(o, MemEvent::Write { line: 7, .. }))
            .count()
            >= 2
    }

    #[test]
    fn shrinks_to_the_minimal_witness() {
        let p = program_of(&[1, 7, 2, 3, 7, 4, 5, 6, 7, 8, 9, 10, 11, 12]);
        let small = shrink_ops(&p, failing);
        assert_eq!(small.ops.len(), 2, "{:?}", small.ops);
        assert!(failing(&small));
    }

    #[test]
    fn non_failing_input_is_returned_unchanged() {
        let p = program_of(&[1, 2, 3]);
        assert_eq!(shrink_ops(&p, failing), p);
    }

    #[test]
    fn shrinking_is_deterministic() {
        let p = program_of(&[7, 1, 7, 2, 7, 3, 7, 4]);
        let a = shrink_ops(&p, failing);
        let b = shrink_ops(&p, failing);
        assert_eq!(a, b);
    }

    #[test]
    fn geometry_and_crash_plan_survive() {
        let mut p = program_of(&[7, 7, 1, 2, 3]);
        p.cfg.counter_lsb_bits = 3;
        p.crash = crate::program::CrashSpec::Frac(250);
        let small = shrink_ops(&p, failing);
        assert_eq!(small.cfg.counter_lsb_bits, 3);
        assert_eq!(small.crash, crate::program::CrashSpec::Frac(250));
    }
}
