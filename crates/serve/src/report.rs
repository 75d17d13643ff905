//! The `serve` report (a kind added in schema 5, emitted as v7):
//! scheme×scenario grids over [`star_sweep`], written through the one
//! byte-stable JSON codec, [`star_trace::Json`]. Single-store
//! and multi-lane scenarios share the one document; only a multi-lane
//! cell carries per-lane rows.

use crate::kv::HorizonTotals;
use crate::scenario::{Scenario, ServeConfig, ServeScheme};
use crate::sim::{generate_requests, per_second, serve_stream, ServeOutcome};
use star_core::DowntimeLedger;
use star_prof::cause::CAUSE_LABELS;
use star_trace::{Json, Log2Hist};
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
    let jobs = (0..scenarios.len())
        .flat_map(|si| ServeScheme::ALL.map(|scheme| (scheme, si)))
        .enumerate()
        .collect();
    let cells = star_sweep::run_merged(cfg.threads, jobs, |_, (scheme, si)| {
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
fn cell(j: &mut Json, out: &ServeOutcome) {
    let multi_lane = out.lanes.len() > 1;
    let h = out.horizon_ns;
    j.str("scheme", out.scheme.label())
        .str("scenario", out.scenario);
    load(j, out.requests, out.completed_in_horizon, h, &out.latency);
    j.arr("tenants", |j| {
        for t in &out.tenants {
            j.obj("", |j| {
                j.str("name", t.name);
                if multi_lane {
                    j.u64("lane", t.lane as u64);
                }
                j.u64("requests", t.requests)
                    .u64("reads", t.reads)
                    .u64("writes", t.writes)
                    .u64("p50", t.latency.quantile(0.50))
                    .u64("p99", t.latency.quantile(0.99))
                    .u64("p999", t.latency.quantile(0.999));
            });
        }
    });
    outages(j, &out.downtime, out.delayed_by_downtime, &out.totals);
    if multi_lane {
        j.arr("lanes", |j| {
            for (i, l) in out.lanes.iter().enumerate() {
                j.obj("", |j| {
                    j.u64("lane", i as u64);
                    load(j, l.requests, l.completed_in_horizon, h, &l.latency);
                    outages(j, &l.downtime, l.delayed_by_downtime, &l.totals);
                });
            }
        });
    }
}

/// Writes `"requests"` through `"latency_ns"`.
fn load(j: &mut Json, requests: u64, completed: u64, horizon_ns: u64, lat: &Log2Hist) {
    j.u64("requests", requests)
        .u64("completed_in_horizon", completed)
        .f64("goodput_rps", per_second(completed, horizon_ns))
        .obj("latency_ns", |j| {
            j.f64("mean", lat.mean())
                .u64("p50", lat.quantile(0.50))
                .u64("p99", lat.quantile(0.99))
                .u64("p999", lat.quantile(0.999))
                .u64("max", lat.max());
        });
}

/// Writes `"crashes"` through `"wear"`: the outages, each with its
/// recovery breakdown, and the device totals over the horizon.
fn outages(j: &mut Json, downtime: &DowntimeLedger, delayed: u64, totals: &HorizonTotals) {
    j.u64("crashes", downtime.count() as u64)
        .u64("unavailability_ns", downtime.total_ns())
        .u64("delayed_by_downtime", delayed)
        .arr("downtime_spans", |j| {
            for sp in downtime.spans() {
                j.obj("", |j| {
                    j.u64("at_ns", sp.at_ns)
                        .u64("reboot_ns", sp.reboot_ns)
                        .u64("recovery_ns", sp.recovery_ns)
                        .u64("total_ns", sp.total_ns())
                        .u64("stale_nodes", sp.stale_nodes)
                        .u64("nvm_reads", sp.nvm_reads)
                        .u64("nvm_writes", sp.nvm_writes);
                });
            }
        })
        .obj("nvm", |j| {
            j.u64("reads", totals.nvm_reads)
                .u64("writes", totals.nvm_writes);
        })
        .obj("energy", |j| {
            j.u64("read_pj", totals.energy_read_pj)
                .u64("write_pj", totals.energy_write_pj)
                .u64("total_pj", totals.energy_pj());
        })
        .obj("writes_by_cause", |j| {
            for (label, count) in CAUSE_LABELS.into_iter().zip(totals.writes_by_cause) {
                j.u64(label, count);
            }
        });
    match &totals.wear {
        Some(w) => j.obj("wear", |j| w.write_json(j)),
        None => j.raw("wear", "null"),
    };
}

impl ServeGridReport {
    /// The grid as one versioned JSON document (kind `serve`).
    ///
    /// Byte-stable: field order is fixed, and nothing thread- or
    /// wall-clock-dependent is encoded.
    pub fn to_json(&self) -> String {
        let mut j = Json::doc("serve");
        j.u64("horizon_ns", self.horizon_ns)
            .u64("seed", self.seed)
            .arr("cells", |j| {
                for c in &self.cells {
                    j.obj("", |j| cell(j, c));
                }
            });
        j.finish()
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
