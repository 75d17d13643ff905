//! The sharded secure-KV backend: lane-partitioned stores with
//! independent queues, so a power failure's blast radius is one lane.
//!
//! [`simulate_sharded`] runs one [`SecureKv`](crate::SecureKv) per
//! **lane** (the star-shard notion: a fixed population of independent
//! security-metadata domains, see DESIGN.md §13). Tenants are *placed*
//! on lanes by the scenario; each lane is one pass of the single-store
//! queue loop over the requests routed to it, on its own backend clock,
//! so a hot lane queues while cold lanes stay idle, and a crash on one
//! lane recovers — via the scheme's own recovery path — while every
//! other lane keeps serving. The per-lane request and downtime ledgers
//! land in the schema-v6 `serve-shard` report.
//!
//! Two standard scenarios probe the placements that matter:
//!
//! * **hot-shard** — one tenant per lane, but lane 0's tenant offers a
//!   multiple of everyone else's load at high skew; crashes hit the hot
//!   lane and a cold lane, showing recovery cost scales with the lane's
//!   own dirty set, not the fleet's.
//! * **skew-place** — the *same* tenant population packed two-per-lane
//!   onto the lower half of the lanes, leaving the upper half idle; the
//!   queueing penalty of bad placement is then directly comparable
//!   against hot-shard's spread placement.

use crate::kv::HorizonTotals;
use crate::scenario::{Scenario, ServeConfig, ServeScheme, TenantSpec, NS_PER_S};
use crate::sim::{generate_requests, serve_queue, ServeOutcome, TenantStats};
use star_core::report::{json_f64, json_str, schema_preamble};
use star_core::DowntimeLedger;
use star_sweep::SweepKey;
use star_trace::Log2Hist;
use star_workloads::LoadShape;
use std::fmt::Write as _;

/// A lane-placed service scenario: a tenant population, a tenant→lane
/// placement, and a per-lane crash plan.
#[derive(Debug, Clone)]
pub struct ShardScenario {
    /// Scenario label in reports (doubles as the sweep-key workload).
    pub name: &'static str,
    /// Number of lanes (independent stores).
    pub lanes: usize,
    /// The tenant populations offering load.
    pub tenants: Vec<TenantSpec>,
    /// `placement[t]` is the lane serving tenant `t`.
    pub placement: Vec<usize>,
    /// Per-lane power failures: `(lane, at_ns)` on the service clock.
    pub crash_plan: Vec<(usize, u64)>,
    /// Fixed platform bring-up cost added to every outage.
    pub reboot_ns: u64,
}

/// One lane's service statistics over the horizon.
#[derive(Debug, Clone)]
pub struct LaneServeStats {
    /// The lane.
    pub lane: u32,
    /// Requests this lane served.
    pub requests: u64,
    /// Requests whose completion fell inside the horizon.
    pub completed_in_horizon: u64,
    /// Requests that arrived during one of this lane's outages.
    pub delayed_by_downtime: u64,
    /// Per-request latency on this lane, ns.
    pub latency: Log2Hist,
    /// This lane's outages, in injection order.
    pub downtime: DowntimeLedger,
    /// This lane's device totals over the horizon.
    pub totals: HorizonTotals,
}

/// The outcome of one scheme×scenario sharded service run.
#[derive(Debug, Clone)]
pub struct ShardServeOutcome {
    /// Backend scheme every lane runs.
    pub scheme: ServeScheme,
    /// Scenario label.
    pub scenario: &'static str,
    /// Simulated horizon, ns.
    pub horizon_ns: u64,
    /// Tenant→lane placement the scenario ran with.
    pub placement: Vec<usize>,
    /// All-lane per-request latency, ns.
    pub latency: Log2Hist,
    /// Per-tenant breakdown, in scenario order.
    pub tenants: Vec<TenantStats>,
    /// Per-lane breakdown, in lane order.
    pub lanes: Vec<LaneServeStats>,
}

impl ShardServeOutcome {
    /// Requests served across all lanes.
    pub fn requests(&self) -> u64 {
        self.lanes.iter().map(|l| l.requests).sum()
    }

    /// Completions inside the horizon across all lanes.
    pub fn completed_in_horizon(&self) -> u64 {
        self.lanes.iter().map(|l| l.completed_in_horizon).sum()
    }

    /// Lane-seconds of unavailability: the sum of every lane's dead
    /// time. A single-lane outage leaves the other lanes serving, which
    /// is exactly the availability argument for sharding.
    pub fn unavailability_ns(&self) -> u64 {
        self.lanes.iter().map(|l| l.downtime.total_ns()).sum()
    }

    /// Completions per simulated second, fleet-wide.
    pub fn goodput_rps(&self) -> f64 {
        self.completed_in_horizon() as f64 / (self.horizon_ns as f64 / 1e9)
    }
}

impl ShardScenario {
    /// Lane `lane`'s view as a single-store scenario: every tenant (so
    /// tenant indices stay valid) and only this lane's power failures.
    fn lane_scenario(&self, lane: usize) -> Scenario {
        Scenario {
            name: self.name,
            tenants: self.tenants.clone(),
            crash_plan: self
                .crash_plan
                .iter()
                .filter(|&&(l, _)| l == lane)
                .map(|&(_, at)| at)
                .collect(),
            reboot_ns: self.reboot_ns,
        }
    }
}

/// Runs one scheme through one lane-placed scenario.
///
/// Each lane is one pass of [`simulate`](crate::simulate)'s
/// single-store queue over its own [`SecureKv`](crate::SecureKv), fed
/// the requests of the tenants placed on it and its own crash plan.
/// Lanes never interact, so any one lane's statistics are a pure
/// function of that lane's own traffic and crash plan. The fleet latency
/// absorbs the lane histograms, and each tenant's stats come from its
/// lane. Deterministic in `(scheme, scenario, cfg.seed, cfg.horizon_ns,
/// cfg.mem)`; `cfg.threads` plays no role here.
///
/// # Panics
///
/// Panics if the placement does not cover every tenant or names a lane
/// out of range.
pub fn simulate_sharded(
    scheme: ServeScheme,
    scenario: &ShardScenario,
    cfg: &ServeConfig,
) -> ShardServeOutcome {
    assert_eq!(
        scenario.placement.len(),
        scenario.tenants.len(),
        "placement must cover every tenant"
    );
    assert!(
        scenario.placement.iter().all(|&l| l < scenario.lanes),
        "placement names a lane out of range"
    );
    let reqs = generate_requests(&scenario.tenants, cfg);
    let passes: Vec<ServeOutcome> = (0..scenario.lanes)
        .map(|lane| {
            let routed = reqs
                .iter()
                .filter(|r| scenario.placement[r.tenant as usize] == lane);
            serve_queue(scheme, &scenario.lane_scenario(lane), routed, cfg)
        })
        .collect();

    let mut latency = Log2Hist::new();
    for pass in &passes {
        latency.absorb(&pass.latency);
    }
    let tenants = scenario
        .placement
        .iter()
        .enumerate()
        .map(|(t, &lane)| passes[lane].tenants[t].clone())
        .collect();
    ShardServeOutcome {
        scheme,
        scenario: scenario.name,
        horizon_ns: cfg.horizon_ns,
        placement: scenario.placement.clone(),
        latency,
        tenants,
        lanes: passes
            .into_iter()
            .enumerate()
            .map(|(lane, pass)| LaneServeStats {
                lane: lane as u32,
                requests: pass.requests,
                completed_in_horizon: pass.completed_in_horizon,
                delayed_by_downtime: pass.delayed_by_downtime,
                latency: pass.latency,
                downtime: pass.downtime,
                totals: pass.totals,
            })
            .collect(),
    }
}

/// The standard sharded scenarios over `lanes` lanes: **hot-shard**
/// (one tenant per lane, lane 0 hot, crashes on the hot and a cold
/// lane) and **skew-place** (the same tenants packed two-per-lane onto
/// the lower lanes, upper lanes idle, same crash clock).
///
/// # Panics
///
/// Panics when `lanes < 2` (placement needs somewhere to skew to) or
/// the config's key space cannot fit one key range per tenant.
pub fn shard_scenarios(cfg: &ServeConfig, lanes: usize, base_rate: f64) -> Vec<ShardScenario> {
    assert!(lanes >= 2, "sharded scenarios need at least two lanes");
    let h = cfg.horizon_ns;
    let dl = cfg.mem.data_lines;
    assert!(
        dl >= 2 * lanes as u64,
        "key space too small for one range per lane"
    );
    let reboot_ns = NS_PER_S / 1_000; // 1 ms platform bring-up
    const NAMES: [&str; 8] = ["t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"];
    assert!(lanes <= NAMES.len(), "at most {} lanes", NAMES.len());
    // One tenant per lane; every tenant gets a disjoint key range so
    // packed placements never collide inside a shared store.
    let span = dl / lanes as u64;
    let tenants: Vec<TenantSpec> = (0..lanes)
        .map(|t| TenantSpec {
            name: NAMES[t],
            rate_per_s: if t == 0 { base_rate * 4.0 } else { base_rate },
            zipf_theta: if t == 0 { 0.99 } else { 0.7 },
            keys: span / 2,
            key_base: t as u64 * span,
            read_fraction: if t == 0 { 0.4 } else { 0.8 },
            shape: LoadShape::flat(),
        })
        .collect();
    let crash_plan = vec![(0, h / 10 * 4), (lanes - 1, h / 10 * 8)];
    vec![
        ShardScenario {
            name: "hot-shard",
            lanes,
            tenants: tenants.clone(),
            placement: (0..lanes).collect(),
            crash_plan: crash_plan.clone(),
            reboot_ns,
        },
        ShardScenario {
            name: "skew-place",
            lanes,
            tenants,
            // The same population packed two-per-lane onto the lower
            // half; the upper lanes sit idle.
            placement: (0..lanes).map(|t| t / 2).collect(),
            crash_plan,
            reboot_ns,
        },
    ]
}

/// A full scheme×scenario sharded service grid.
#[derive(Debug, Clone)]
pub struct ShardServeGridReport {
    /// Simulated horizon, ns.
    pub horizon_ns: u64,
    /// Master seed.
    pub seed: u64,
    /// Lane count every cell ran with.
    pub lanes: u32,
    /// One outcome per (scenario, scheme), scenario-major, in
    /// [`ServeScheme::ALL`] order within a scenario.
    pub cells: Vec<ShardServeOutcome>,
}

/// Runs every backend through every sharded scenario, dispatched over
/// the deterministic sweep runner; the report bytes are identical at
/// any `cfg.threads`.
///
/// # Panics
///
/// Panics if the scenarios disagree on their lane count.
pub fn run_sharded_grid(cfg: &ServeConfig, scenarios: &[ShardScenario]) -> ShardServeGridReport {
    let lanes = scenarios.first().map_or(0, |sc| sc.lanes);
    assert!(
        scenarios.iter().all(|sc| sc.lanes == lanes),
        "every scenario in a grid must use the same lane count"
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
        simulate_sharded(scheme, &scenarios[si], cfg)
    });
    ShardServeGridReport {
        horizon_ns: cfg.horizon_ns,
        seed: cfg.seed,
        lanes: lanes as u32,
        cells,
    }
}

fn cell_json(out: &ShardServeOutcome) -> String {
    let mut s = String::from("{");
    let _ = write!(
        s,
        "\"scheme\":{},\"scenario\":{},\"requests\":{},\"completed_in_horizon\":{},\
         \"goodput_rps\":{},",
        json_str(out.scheme.label()),
        json_str(out.scenario),
        out.requests(),
        out.completed_in_horizon(),
        json_f64(out.goodput_rps())
    );
    let _ = write!(
        s,
        "\"latency_ns\":{{\"p50\":{},\"p99\":{},\"p999\":{},\"max\":{}}},",
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
            "{{\"name\":{},\"lane\":{},\"requests\":{},\"reads\":{},\"writes\":{},\
             \"p50\":{},\"p99\":{}}}",
            json_str(t.name),
            out.placement[i],
            t.requests,
            t.reads,
            t.writes,
            t.latency.quantile(0.50),
            t.latency.quantile(0.99)
        );
    }
    s.push_str("],\"lanes\":[");
    for (i, l) in out.lanes.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"lane\":{},\"requests\":{},\"completed_in_horizon\":{},\
             \"delayed_by_downtime\":{},\"p50\":{},\"p99\":{},\"p999\":{},\"crashes\":{},\
             \"unavailability_ns\":{},\"downtime_spans\":[",
            l.lane,
            l.requests,
            l.completed_in_horizon,
            l.delayed_by_downtime,
            l.latency.quantile(0.50),
            l.latency.quantile(0.99),
            l.latency.quantile(0.999),
            l.downtime.count(),
            l.downtime.total_ns()
        );
        for (j, sp) in l.downtime.spans().iter().enumerate() {
            if j > 0 {
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
            "],\"nvm\":{{\"reads\":{},\"writes\":{}}},\"energy_pj\":{}}}",
            l.totals.nvm_reads,
            l.totals.nvm_writes,
            l.totals.energy_pj()
        );
    }
    let _ = write!(s, "],\"unavailability_ns\":{}}}", out.unavailability_ns());
    s
}

impl ShardServeGridReport {
    /// The grid as one versioned JSON document (kind `serve-shard`).
    ///
    /// Byte-stable: field order is fixed, floats go through
    /// [`json_f64`], and nothing thread- or wall-clock-dependent is
    /// encoded.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&schema_preamble("serve-shard"));
        let _ = write!(
            s,
            "\"horizon_ns\":{},\"seed\":{},\"lanes\":{},\"cells\":[",
            self.horizon_ns, self.seed, self.lanes
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

    /// A human-readable table, one row per (cell, lane).
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<8} {:<10} {:>5} {:>9} {:>12} {:>12} {:>8} {:>12}",
            "scheme", "scenario", "lane", "requests", "p50_ns", "p99_ns", "crashes", "unavail_ms"
        );
        for c in &self.cells {
            for l in &c.lanes {
                let _ = writeln!(
                    s,
                    "{:<8} {:<10} {:>5} {:>9} {:>12} {:>12} {:>8} {:>12.3}",
                    c.scheme.label(),
                    c.scenario,
                    l.lane,
                    l.requests,
                    l.latency.quantile(0.50),
                    l.latency.quantile(0.99),
                    l.downtime.count(),
                    l.downtime.total_ns() as f64 / 1e6
                );
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ServeConfig {
        ServeConfig::quick(5)
    }

    #[test]
    fn lane_counts_sum_and_tenants_route_by_placement() {
        let cfg = quick();
        let sc = &shard_scenarios(&cfg, 4, 2.0)[0];
        let out = simulate_sharded(ServeScheme::Star, sc, &cfg);
        assert!(out.requests() > 0);
        assert_eq!(
            out.requests(),
            out.tenants.iter().map(|t| t.requests).sum::<u64>()
        );
        assert_eq!(out.requests(), out.latency.count());
        // hot-shard places tenant t on lane t, so the lane and tenant
        // request counts coincide.
        for (t, l) in out.tenants.iter().zip(&out.lanes) {
            assert_eq!(t.requests, l.requests);
        }
        // Lane 0 carries the hot tenant: strictly the most traffic.
        assert!(out.lanes[0].requests > out.lanes[1].requests);
    }

    #[test]
    fn skewed_placement_packs_the_lower_lanes() {
        let cfg = quick();
        let sc = &shard_scenarios(&cfg, 4, 2.0)[1];
        assert_eq!(sc.name, "skew-place");
        let out = simulate_sharded(ServeScheme::Star, sc, &cfg);
        // Upper-half lanes have no tenants placed on them.
        assert_eq!(out.lanes[2].requests, 0);
        assert_eq!(out.lanes[3].requests, 0);
        assert_eq!(
            out.lanes[0].requests + out.lanes[1].requests,
            out.requests()
        );
    }

    #[test]
    fn crash_blast_radius_is_one_lane() {
        let cfg = quick();
        let sc = &shard_scenarios(&cfg, 4, 2.0)[0];
        let out = simulate_sharded(ServeScheme::Star, sc, &cfg);
        // The crash plan hits lanes 0 and 3 only.
        assert_eq!(out.lanes[0].downtime.count(), 1);
        assert_eq!(out.lanes[3].downtime.count(), 1);
        for lane in [1usize, 2] {
            assert_eq!(out.lanes[lane].downtime.count(), 0);
        }
        // Unaffected lanes match a crash-free run exactly: outages on
        // other lanes are invisible to them.
        let mut calm_sc = sc.clone();
        calm_sc.crash_plan.clear();
        let calm = simulate_sharded(ServeScheme::Star, &calm_sc, &cfg);
        for lane in [1usize, 2] {
            assert_eq!(out.lanes[lane].requests, calm.lanes[lane].requests);
            assert_eq!(out.lanes[lane].latency, calm.lanes[lane].latency);
            assert_eq!(out.lanes[lane].totals, calm.lanes[lane].totals);
        }
        // The crashed hot lane did pay: it has strictly more downtime
        // than the calm run's zero.
        assert!(out.lanes[0].downtime.total_ns() > 0);
        assert_eq!(
            out.unavailability_ns(),
            out.lanes.iter().map(|l| l.downtime.total_ns()).sum::<u64>()
        );
    }

    #[test]
    fn grid_json_is_versioned_and_thread_independent() {
        let cfg = quick();
        let scenarios = shard_scenarios(&cfg, 2, 2.0);
        let serial = run_sharded_grid(&cfg, &scenarios);
        assert_eq!(serial.cells.len(), 2 * ServeScheme::ALL.len());
        let j = serial.to_json();
        assert!(j.starts_with(&format!(
            "{{\"schema_version\":{},\"kind\":\"serve-shard\",",
            star_core::SCHEMA_VERSION
        )));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.contains("\"scenario\":\"hot-shard\""));
        assert!(j.contains("\"scenario\":\"skew-place\""));
        assert!(!j.contains("threads"), "thread count must not leak");
        for threads in [2usize, 4] {
            let cfg_t = ServeConfig { threads, ..quick() };
            let par = run_sharded_grid(&cfg_t, &scenarios);
            assert_eq!(par.to_json(), j, "threads {threads}");
        }
        let table = serial.to_table();
        assert_eq!(
            table.lines().count(),
            1 + serial.cells.len() * serial.lanes as usize
        );
    }
}
