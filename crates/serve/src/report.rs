//! The `serve` report (a kind added in schema 5, emitted as v7):
//! scheme×scenario grids over [`star_sweep`], serialized with the shared
//! byte-stable JSON conventions of [`star_core::report`].

use crate::scenario::{Scenario, ServeConfig, ServeScheme};
use crate::sim::{simulate, ServeOutcome};
use star_core::report::{json_f64, json_str, schema_preamble, wear_json};
use star_prof::cause::CAUSE_LABELS;
use star_sweep::SweepKey;
use std::fmt::Write as _;

/// A full scheme×scenario service grid.
#[derive(Debug, Clone)]
pub struct ServeGridReport {
    /// Simulated horizon, ns.
    pub horizon_ns: u64,
    /// Master seed.
    pub seed: u64,
    /// One outcome per (scenario, scheme), scenario-major, in
    /// [`ServeScheme::ALL`] order within a scenario.
    pub cells: Vec<ServeOutcome>,
}

/// Runs every backend through every scenario, dispatched over the
/// deterministic sweep runner: the cell order — and therefore the
/// report bytes — is a pure function of the job list, identical at any
/// `cfg.threads`.
pub fn run_grid(cfg: &ServeConfig, scenarios: &[Scenario]) -> ServeGridReport {
    let mut jobs = Vec::new();
    let mut rank = 0u64;
    for (si, sc) in scenarios.iter().enumerate() {
        for scheme in ServeScheme::ALL {
            jobs.push((
                SweepKey {
                    rank,
                    workload: sc.name,
                    scheme: scheme.label(),
                    seed: cfg.seed,
                    case: si as u64,
                },
                (scheme, si),
            ));
            rank += 1;
        }
    }
    let cells = star_sweep::run_merged(cfg.threads, jobs, |_, &(scheme, si)| {
        simulate(scheme, &scenarios[si], cfg)
    });
    ServeGridReport {
        horizon_ns: cfg.horizon_ns,
        seed: cfg.seed,
        cells,
    }
}

fn cell_json(out: &ServeOutcome) -> String {
    let mut s = String::from("{");
    let _ = write!(
        s,
        "\"scheme\":{},\"scenario\":{},\"requests\":{},\"completed_in_horizon\":{},\
         \"goodput_rps\":{},",
        json_str(out.scheme.label()),
        json_str(out.scenario),
        out.requests,
        out.completed_in_horizon,
        json_f64(out.goodput_rps())
    );
    let _ = write!(
        s,
        "\"latency_ns\":{{\"mean\":{},\"p50\":{},\"p99\":{},\"p999\":{},\"max\":{}}},",
        json_f64(out.latency.mean()),
        out.latency.quantile(0.50),
        out.latency.quantile(0.99),
        out.latency.quantile(0.999),
        out.latency.max()
    );
    s.push_str("\"tenants\":[");
    for (i, t) in out.tenants.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"name\":{},\"requests\":{},\"reads\":{},\"writes\":{},\"p50\":{},\"p99\":{},\
             \"p999\":{}}}",
            json_str(t.name),
            t.requests,
            t.reads,
            t.writes,
            t.latency.quantile(0.50),
            t.latency.quantile(0.99),
            t.latency.quantile(0.999)
        );
    }
    let _ = write!(
        s,
        "],\"crashes\":{},\"unavailability_ns\":{},\"delayed_by_downtime\":{},",
        out.downtime.count(),
        out.unavailability_ns(),
        out.delayed_by_downtime
    );
    s.push_str("\"downtime_spans\":[");
    for (i, sp) in out.downtime.spans().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"at_ns\":{},\"reboot_ns\":{},\"recovery_ns\":{},\"total_ns\":{},\
             \"stale_nodes\":{},\"nvm_reads\":{},\"nvm_writes\":{}}}",
            sp.at_ns,
            sp.reboot_ns,
            sp.recovery_ns,
            sp.total_ns(),
            sp.stale_nodes,
            sp.nvm_reads,
            sp.nvm_writes
        );
    }
    let _ = write!(
        s,
        "],\"nvm\":{{\"reads\":{},\"writes\":{}}},\"energy\":{{\"read_pj\":{},\"write_pj\":{},\
         \"total_pj\":{}}},",
        out.totals.nvm_reads,
        out.totals.nvm_writes,
        out.totals.energy_read_pj,
        out.totals.energy_write_pj,
        out.totals.energy_pj()
    );
    s.push_str("\"writes_by_cause\":{");
    for (i, (label, count)) in CAUSE_LABELS
        .into_iter()
        .zip(out.totals.writes_by_cause)
        .enumerate()
    {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{label}\":{count}");
    }
    s.push_str("},\"wear\":");
    match &out.totals.wear {
        Some(w) => s.push_str(&wear_json(w)),
        None => s.push_str("null"),
    }
    s.push('}');
    s
}

impl ServeGridReport {
    /// The grid as one versioned JSON document (kind `serve`).
    ///
    /// Byte-stable: field order is fixed, floats go through
    /// [`json_f64`], and nothing thread- or wall-clock-dependent is
    /// encoded.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&schema_preamble("serve"));
        let _ = write!(
            s,
            "\"horizon_ns\":{},\"seed\":{},\"cells\":[",
            self.horizon_ns, self.seed
        );
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&cell_json(cell));
        }
        s.push_str("]}");
        s
    }

    /// A human-readable availability/latency table, one row per cell.
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<8} {:<8} {:>9} {:>12} {:>12} {:>12} {:>8} {:>12} {:>10}",
            "scheme",
            "scenario",
            "requests",
            "p50_ns",
            "p99_ns",
            "p999_ns",
            "crashes",
            "unavail_ms",
            "goodput"
        );
        for c in &self.cells {
            let _ = writeln!(
                s,
                "{:<8} {:<8} {:>9} {:>12} {:>12} {:>12} {:>8} {:>12.3} {:>10.1}",
                c.scheme.label(),
                c.scenario,
                c.requests,
                c.latency.quantile(0.50),
                c.latency.quantile(0.99),
                c.latency.quantile(0.999),
                c.downtime.count(),
                c.unavailability_ns() as f64 / 1e6,
                c.goodput_rps()
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::standard_scenarios;

    #[test]
    fn grid_json_is_versioned_and_balanced() {
        let cfg = ServeConfig {
            threads: 2,
            ..ServeConfig::quick(3)
        };
        let grid = run_grid(&cfg, &standard_scenarios(&cfg));
        assert_eq!(grid.cells.len(), 3 * ServeScheme::ALL.len());
        let j = grid.to_json();
        assert!(j.starts_with(&format!(
            "{{\"schema_version\":{},\"kind\":\"serve\",",
            star_core::SCHEMA_VERSION
        )));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.contains("\"scheme\":\"triad\""));
        assert!(!j.contains("threads"), "thread count must not leak");
        let table = grid.to_table();
        assert_eq!(table.lines().count(), 1 + grid.cells.len());
    }
}
