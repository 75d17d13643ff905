//! Service schemes, tenant populations, lane placements and crash plans.

use star_core::SecureMemConfig;
use star_workloads::LoadShape;

/// Nanoseconds per simulated second.
pub const NS_PER_S: u64 = 1_000_000_000;

/// The backends the service can run on: the four engine schemes plus the
/// Triad-NVM baseline (which has its own controller model and therefore
/// sits outside [`star_core::SchemeKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServeScheme {
    /// Write-back baseline (not recoverable: a crash forces a modeled
    /// full rebuild and loses the store contents).
    Wb,
    /// Strict write-through persistence.
    Strict,
    /// Anubis shadow-table scheme.
    Anubis,
    /// The paper's STAR scheme.
    Star,
    /// Triad-NVM on a Bonsai Merkle tree.
    Triad,
}

impl ServeScheme {
    /// Every backend, in report order.
    pub const ALL: [ServeScheme; 5] = [
        ServeScheme::Wb,
        ServeScheme::Strict,
        ServeScheme::Anubis,
        ServeScheme::Star,
        ServeScheme::Triad,
    ];

    /// Short machine-readable label, extending
    /// [`star_core::SchemeKind::label`] with `triad`.
    pub fn label(self) -> &'static str {
        match self {
            ServeScheme::Wb => "wb",
            ServeScheme::Strict => "strict",
            ServeScheme::Anubis => "anubis",
            ServeScheme::Star => "star",
            ServeScheme::Triad => "triad",
        }
    }

    /// The engine scheme this maps to, or `None` for Triad.
    pub fn engine_kind(self) -> Option<star_core::SchemeKind> {
        match self {
            ServeScheme::Wb => Some(star_core::SchemeKind::WriteBack),
            ServeScheme::Strict => Some(star_core::SchemeKind::Strict),
            ServeScheme::Anubis => Some(star_core::SchemeKind::Anubis),
            ServeScheme::Star => Some(star_core::SchemeKind::Star),
            ServeScheme::Triad => None,
        }
    }
}

/// One tenant population: an arrival process, an access mix and the
/// lane that serves it.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant label in reports.
    pub name: &'static str,
    /// Base offered load, requests per simulated second.
    pub rate_per_s: f64,
    /// Zipfian skew of the tenant's key popularity, in `(0, 1)`.
    pub zipf_theta: f64,
    /// Size of the tenant's key space (cache lines).
    pub keys: u64,
    /// First line of the tenant's key range.
    pub key_base: u64,
    /// Fraction of requests that are GETs (the rest are durable PUTs).
    pub read_fraction: f64,
    /// Rate modulation over the horizon.
    pub shape: LoadShape,
    /// The lane serving this tenant (0 on a single store).
    pub lane: usize,
}

/// A named service scenario: tenants placed on lanes, a power-failure
/// plan and the reboot cost.
///
/// A **lane** is one independent store: its own [`crate::SecureKv`],
/// single-server queue and security-metadata domain (star-shard's unit
/// of crash blast radius, DESIGN.md §13). A single store is the
/// one-lane case.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario label in reports (doubles as the sweep-key workload).
    pub name: &'static str,
    /// Number of lanes.
    pub lanes: usize,
    /// The tenant populations offering load.
    pub tenants: Vec<TenantSpec>,
    /// Power failures: `(lane, at_ns)` on the service clock.
    pub crash_plan: Vec<(usize, u64)>,
    /// Fixed platform bring-up cost added to every outage (firmware +
    /// controller re-init), so even a zero-recovery scheme has nonzero
    /// unavailability.
    pub reboot_ns: u64,
}

/// Shared simulation parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Simulated horizon in ns; arrivals stop here, the queue drains.
    pub horizon_ns: u64,
    /// Master seed; every tenant stream derives from it.
    pub seed: u64,
    /// Backend geometry and device model (Triad adopts `data_lines`,
    /// `nvm` and `key_seed` from it).
    pub mem: SecureMemConfig,
    /// Worker threads for grid dispatch (`star-bench serve --jobs`) —
    /// never encoded in the report, which is byte-identical at any value.
    pub threads: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            horizon_ns: 3600 * NS_PER_S,
            seed: 42,
            // 256 MB of protected data: big enough that Triad's
            // whole-memory counter scan and WB's full rebuild visibly
            // dwarf STAR's dirty-set recovery, small enough to simulate.
            mem: SecureMemConfig::builder()
                .data_lines((256 << 20) / 64)
                .build()
                .expect("default serve geometry is consistent"),
            threads: 1,
        }
    }
}

impl ServeConfig {
    /// A small, fast configuration for tests and examples: `horizon_s`
    /// simulated seconds over the engine's 1 MB `small()` geometry.
    pub fn quick(horizon_s: u64) -> Self {
        Self {
            horizon_ns: horizon_s * NS_PER_S,
            mem: SecureMemConfig::small(),
            ..Self::default()
        }
    }
}

/// The standard scheme×scenario grid's scenarios, scaled to the
/// config's horizon and key space: a steady two-tenant mix, a diurnal
/// three-tenant mix, and a burst-storm mix, each on a single store (one
/// lane). Every scenario injects two mid-stream power failures.
pub fn standard_scenarios(cfg: &ServeConfig) -> Vec<Scenario> {
    standard_scenarios_at(cfg, 2.0)
}

/// [`standard_scenarios`] with an explicit base arrival rate
/// (requests per simulated second for the busiest tenant).
pub fn standard_scenarios_at(cfg: &ServeConfig, base_rate: f64) -> Vec<Scenario> {
    let h = cfg.horizon_ns;
    let h_s = h as f64 / NS_PER_S as f64;
    let dl = cfg.mem.data_lines;
    assert!(dl >= 8, "key space too small for the standard tenants");
    let reboot_ns = NS_PER_S / 1_000; // 1 ms platform bring-up
    vec![
        Scenario {
            name: "steady",
            lanes: 1,
            tenants: vec![
                TenantSpec {
                    name: "hot",
                    rate_per_s: base_rate,
                    zipf_theta: 0.99,
                    keys: dl / 8,
                    key_base: 0,
                    read_fraction: 0.5,
                    shape: LoadShape::flat(),
                    lane: 0,
                },
                TenantSpec {
                    name: "scan",
                    rate_per_s: base_rate * 0.5,
                    zipf_theta: 0.6,
                    keys: dl / 2,
                    key_base: dl / 2,
                    read_fraction: 0.9,
                    shape: LoadShape::flat(),
                    lane: 0,
                },
            ],
            crash_plan: vec![(0, h / 10 * 4), (0, h / 10 * 8)],
            reboot_ns,
        },
        Scenario {
            name: "diurnal",
            lanes: 1,
            tenants: vec![
                TenantSpec {
                    name: "day",
                    rate_per_s: base_rate,
                    zipf_theta: 0.9,
                    keys: dl / 8,
                    key_base: 0,
                    read_fraction: 0.7,
                    shape: LoadShape::diurnal(0.8, h_s / 2.0),
                    lane: 0,
                },
                TenantSpec {
                    name: "night",
                    rate_per_s: base_rate * 0.6,
                    zipf_theta: 0.75,
                    keys: dl / 4,
                    key_base: dl / 4,
                    read_fraction: 0.3,
                    shape: LoadShape::diurnal(0.6, h_s),
                    lane: 0,
                },
                TenantSpec {
                    name: "batch",
                    rate_per_s: base_rate * 0.3,
                    zipf_theta: 0.5,
                    keys: dl / 4,
                    key_base: dl / 2,
                    read_fraction: 0.1,
                    shape: LoadShape::flat(),
                    lane: 0,
                },
            ],
            crash_plan: vec![(0, h / 100 * 35), (0, h / 100 * 75)],
            reboot_ns,
        },
        Scenario {
            name: "burst",
            lanes: 1,
            tenants: vec![
                TenantSpec {
                    name: "storm",
                    rate_per_s: base_rate,
                    zipf_theta: 0.95,
                    keys: dl / 8,
                    key_base: 0,
                    read_fraction: 0.4,
                    shape: LoadShape::bursty(6.0, h_s / 10.0, h_s / 60.0),
                    lane: 0,
                },
                TenantSpec {
                    name: "base",
                    rate_per_s: base_rate * 0.7,
                    zipf_theta: 0.7,
                    keys: dl / 4,
                    key_base: dl / 2,
                    read_fraction: 0.8,
                    shape: LoadShape::flat(),
                    lane: 0,
                },
            ],
            crash_plan: vec![(0, h / 10 * 5), (0, h / 10 * 9)],
            reboot_ns,
        },
    ]
}

/// The standard multi-lane scenarios over `lanes` lanes. Both offer the
/// same tenant population, one tenant per lane's worth of keys, with
/// tenant `t0` hot (four times the base rate at high skew), and both
/// crash the hot lane 0 and the last lane:
///
/// * **hot-shard** places tenant `t` on lane `t`, so recovery cost
///   scales with the crashed lane's own dirty set, not the fleet's;
/// * **skew-place** packs the tenants two per lane onto the lower half,
///   leaving the upper lanes idle, so the queueing penalty of bad
///   placement compares directly against hot-shard's spread.
///
/// # Panics
///
/// Panics when `lanes` is not in `2..=8` (placement needs somewhere to
/// skew to, and there are eight tenant names) or the config's key space
/// cannot fit one key range per tenant.
pub fn shard_scenarios(cfg: &ServeConfig, lanes: usize, base_rate: f64) -> Vec<Scenario> {
    const NAMES: [&str; 8] = ["t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"];
    assert!(
        (2..=NAMES.len()).contains(&lanes),
        "multi-lane scenarios need 2..={} lanes",
        NAMES.len()
    );
    let h = cfg.horizon_ns;
    let dl = cfg.mem.data_lines;
    assert!(
        dl >= 2 * lanes as u64,
        "key space too small for one range per lane"
    );
    let reboot_ns = NS_PER_S / 1_000; // 1 ms platform bring-up

    // Every tenant gets a disjoint key range, so packed placements never
    // collide inside a shared store.
    let span = dl / lanes as u64;
    let tenant = |t: usize, lane: usize| TenantSpec {
        name: NAMES[t],
        rate_per_s: if t == 0 { base_rate * 4.0 } else { base_rate },
        zipf_theta: if t == 0 { 0.99 } else { 0.7 },
        keys: span / 2,
        key_base: t as u64 * span,
        read_fraction: if t == 0 { 0.4 } else { 0.8 },
        shape: LoadShape::flat(),
        lane,
    };
    let crash_plan = vec![(0, h / 10 * 4), (lanes - 1, h / 10 * 8)];
    vec![
        Scenario {
            name: "hot-shard",
            lanes,
            tenants: (0..lanes).map(|t| tenant(t, t)).collect(),
            crash_plan: crash_plan.clone(),
            reboot_ns,
        },
        Scenario {
            name: "skew-place",
            lanes,
            tenants: (0..lanes).map(|t| tenant(t, t / 2)).collect(),
            crash_plan,
            reboot_ns,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique_and_engine_mapping_is_total() {
        let mut labels: Vec<_> = ServeScheme::ALL.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 5);
        for s in ServeScheme::ALL {
            assert_eq!(s.engine_kind().is_none(), s == ServeScheme::Triad);
        }
    }

    #[test]
    fn standard_scenarios_fit_the_key_space_and_crash_twice() {
        let cfg = ServeConfig::quick(60);
        let single = standard_scenarios(&cfg);
        assert!(single.iter().all(|sc| sc.lanes == 1));
        for sc in single.into_iter().chain(shard_scenarios(&cfg, 4, 2.0)) {
            assert!(sc.crash_plan.len() >= 2, "{}", sc.name);
            for &(lane, at_ns) in &sc.crash_plan {
                assert!(lane < sc.lanes, "{} crash on a real lane", sc.name);
                assert!(
                    at_ns > 0 && at_ns < cfg.horizon_ns,
                    "{} crash mid-stream",
                    sc.name
                );
            }
            for t in &sc.tenants {
                assert!(t.lane < sc.lanes, "{}:{} on a real lane", sc.name, t.name);
                assert!(t.keys > 0);
                assert!(
                    t.key_base + t.keys <= cfg.mem.data_lines,
                    "{}:{} overflows the data region",
                    sc.name,
                    t.name
                );
            }
        }
    }
}
