//! The `serve` report (a kind added in schema 5, emitted as v7):
//! scheme×scenario grids over [`star_sweep`], serialized with the shared
//! byte-stable JSON conventions of [`star_core::report`]. Single-store
//! and multi-lane scenarios share the one document; only a multi-lane
//! cell carries per-lane rows.

use crate::kv::HorizonTotals;
use crate::scenario::{Scenario, ServeConfig, ServeScheme};
use crate::sim::{generate_requests, per_second, serve_stream, ServeOutcome};
use star_core::report::{json_f64, json_str, schema_preamble, wear_json};
use star_core::DowntimeLedger;
use star_prof::cause::CAUSE_LABELS;
use star_sweep::SweepKey;
use star_trace::Log2Hist;
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
///
/// Each scenario's request stream is generated once, over the same
/// runner before any cell runs, and every backend is served that one
/// stream: the stream is a function of the scenario's tenants,
/// `cfg.seed` and `cfg.horizon_ns` alone, so each cell equals
/// [`simulate`](crate::simulate) run by itself. The streams live only
/// as long as this call.
pub fn run_grid(cfg: &ServeConfig, scenarios: &[Scenario]) -> ServeGridReport {
    let streams = star_sweep::run_merged(
        cfg.threads,
        scenarios.iter().enumerate().collect(),
        |_, sc| generate_requests(&sc.tenants, cfg),
    );
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
        serve_stream(scheme, &scenarios[si], &streams[si], cfg)
    });
    ServeGridReport {
        horizon_ns: cfg.horizon_ns,
        seed: cfg.seed,
        cells,
    }
}

/// One cell of the `serve` document. A multi-lane cell also names each
/// tenant's `"lane"` and ends with a `"lanes"` array holding each lane's
/// own load and outage fields; a single-store cell carries neither, so
/// its bytes are those of the one-lane report.
fn cell_json(out: &ServeOutcome) -> String {
    let multi_lane = out.lanes.len() > 1;
    let mut s = format!(
        "{{\"scheme\":{},\"scenario\":{},",
        json_str(out.scheme.label()),
        json_str(out.scenario)
    );
    let (h, lat) = (out.horizon_ns, &out.latency);
    push_load(&mut s, out.requests, out.completed_in_horizon, h, lat);
    s.push_str("\"tenants\":[");
    for (i, t) in out.tenants.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{{\"name\":{},", json_str(t.name));
        if multi_lane {
            let _ = write!(s, "\"lane\":{},", t.lane);
        }
        let _ = write!(
            s,
            "\"requests\":{},\"reads\":{},\"writes\":{},\"p50\":{},\"p99\":{},\"p999\":{}}}",
            t.requests,
            t.reads,
            t.writes,
            t.latency.quantile(0.50),
            t.latency.quantile(0.99),
            t.latency.quantile(0.999)
        );
    }
    s.push_str("],");
    push_outages(&mut s, &out.downtime, out.delayed_by_downtime, &out.totals);
    if multi_lane {
        s.push_str(",\"lanes\":[");
        for (i, l) in out.lanes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{{\"lane\":{i},");
            push_load(&mut s, l.requests, l.completed_in_horizon, h, &l.latency);
            push_outages(&mut s, &l.downtime, l.delayed_by_downtime, &l.totals);
            s.push('}');
        }
        s.push(']');
    }
    s.push('}');
    s
}

/// Appends `"requests"` through `"latency_ns"`, a trailing comma
/// included.
fn push_load(s: &mut String, requests: u64, completed: u64, horizon_ns: u64, lat: &Log2Hist) {
    let _ = write!(
        s,
        "\"requests\":{requests},\"completed_in_horizon\":{completed},\"goodput_rps\":{},\
         \"latency_ns\":{{\"mean\":{},\"p50\":{},\"p99\":{},\"p999\":{},\"max\":{}}},",
        json_f64(per_second(completed, horizon_ns)),
        json_f64(lat.mean()),
        lat.quantile(0.50),
        lat.quantile(0.99),
        lat.quantile(0.999),
        lat.max()
    );
}

/// Appends `"crashes"` through `"wear"`: the outages, each with its
/// recovery breakdown, and the device totals over the horizon.
fn push_outages(s: &mut String, downtime: &DowntimeLedger, delayed: u64, totals: &HorizonTotals) {
    let _ = write!(
        s,
        "\"crashes\":{},\"unavailability_ns\":{},\"delayed_by_downtime\":{delayed},\
         \"downtime_spans\":[",
        downtime.count(),
        downtime.total_ns()
    );
    for (i, sp) in downtime.spans().iter().enumerate() {
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
        totals.nvm_reads,
        totals.nvm_writes,
        totals.energy_read_pj,
        totals.energy_write_pj,
        totals.energy_pj()
    );
    s.push_str("\"writes_by_cause\":{");
    for (i, (label, count)) in CAUSE_LABELS
        .into_iter()
        .zip(totals.writes_by_cause)
        .enumerate()
    {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{label}\":{count}");
    }
    s.push_str("},\"wear\":");
    match &totals.wear {
        Some(w) => s.push_str(&wear_json(w)),
        None => s.push_str("null"),
    }
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

    /// A human-readable availability/latency table, one row per cell;
    /// a multi-lane cell is followed by one row per lane.
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
            // A multi-lane cell's row is followed by one row per lane.
            let lane_rows = if c.lanes.len() > 1 { &c.lanes[..] } else { &[] };
            let cell = (c.scheme.label(), c.scenario.to_string(), c.requests);
            let rows = std::iter::once((cell, &c.latency, &c.downtime, c.completed_in_horizon))
                .chain(lane_rows.iter().enumerate().map(|(i, l)| {
                    let lane = ("", format!("  lane {i}"), l.requests);
                    (lane, &l.latency, &l.downtime, l.completed_in_horizon)
                }));
            for ((scheme, scenario, requests), lat, downtime, completed) in rows {
                let _ = writeln!(
                    s,
                    "{:<8} {:<8} {:>9} {:>12} {:>12} {:>12} {:>8} {:>12.3} {:>10.1}",
                    scheme,
                    scenario,
                    requests,
                    lat.quantile(0.50),
                    lat.quantile(0.99),
                    lat.quantile(0.999),
                    downtime.count(),
                    downtime.total_ns() as f64 / 1e6,
                    per_second(completed, c.horizon_ns)
                );
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{shard_scenarios, standard_scenarios};

    #[test]
    fn grid_json_is_versioned_and_balanced() {
        let cfg = ServeConfig {
            threads: 2,
            ..ServeConfig::quick(3)
        };
        // Only a multi-lane cell carries lane rows, in the JSON and in
        // the table.
        for (scenarios, lane_rows) in [
            (standard_scenarios(&cfg), 0),
            (shard_scenarios(&cfg, 3, 2.0), 3),
        ] {
            let grid = run_grid(&cfg, &scenarios);
            assert_eq!(grid.cells.len(), scenarios.len() * ServeScheme::ALL.len());
            let j = grid.to_json();
            assert!(j.starts_with(&format!(
                "{{\"schema_version\":{},\"kind\":\"serve\",",
                star_core::SCHEMA_VERSION
            )));
            assert_eq!(j.matches('{').count(), j.matches('}').count());
            assert!(j.contains("\"scheme\":\"triad\""));
            assert!(!j.contains("threads"), "thread count must not leak");
            let cells = grid.cells.len();
            assert_eq!(j.matches("{\"lane\":").count(), lane_rows * cells);
            let table = grid.to_table();
            assert_eq!(table.lines().count(), 1 + (1 + lane_rows) * cells);
        }
    }
}
