//! The discrete-event service loop: open-loop arrivals, a single-server
//! FIFO queue over the backend's modeled time, and mid-stream power
//! failures.
//!
//! # Clock coupling
//!
//! Three clocks cooperate:
//!
//! 1. The **service clock** (ns) orders arrivals, completions and power
//!    failures.
//! 2. The **backend clock** (ps) advances only while the backend
//!    executes a request; a request's *service time* is the backend
//!    clock's delta across its GET/PUT, which is how modeled NVM
//!    latency, write-queue stalls and metadata misses surface in
//!    user-visible latency.
//! 3. The **recovery clock** is the paper's 100 ns/line model; an
//!    outage occupies `reboot + recovery` on the service clock.
//!
//! A request's latency is `completion − arrival`: queueing delay behind
//! earlier requests (and behind outages) plus its own service time.
//! Power failures land on request boundaries — the in-flight request
//! drains first; persist-point-granular crash placement inside a request
//! is star-faultsim's domain, not the service model's.

use crate::kv::{HorizonTotals, SecureKv};
use crate::scenario::{Scenario, ServeConfig, ServeScheme};
use star_core::DowntimeLedger;
use star_rng::SimRng;
use star_trace::Log2Hist;
use star_workloads::{OpenLoopArrivals, Zipfian};

/// Per-tenant service statistics.
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// Tenant label.
    pub name: &'static str,
    /// Requests served.
    pub requests: u64,
    /// GETs among them.
    pub reads: u64,
    /// Durable PUTs among them.
    pub writes: u64,
    /// Per-request latency, ns.
    pub latency: Log2Hist,
}

/// The outcome of one scheme×scenario service run.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// Backend scheme.
    pub scheme: ServeScheme,
    /// Scenario label.
    pub scenario: &'static str,
    /// Simulated horizon, ns.
    pub horizon_ns: u64,
    /// Requests served (arrivals inside the horizon; the queue drains
    /// past the horizon, so every arrival is served).
    pub requests: u64,
    /// Requests whose completion also fell inside the horizon — the
    /// goodput numerator.
    pub completed_in_horizon: u64,
    /// Requests that arrived while the service was down and had to wait
    /// out the outage.
    pub delayed_by_downtime: u64,
    /// All-tenant per-request latency, ns.
    pub latency: Log2Hist,
    /// Per-tenant breakdown, in scenario order.
    pub tenants: Vec<TenantStats>,
    /// Every outage, in injection order.
    pub downtime: DowntimeLedger,
    /// Cumulative device totals over the horizon.
    pub totals: HorizonTotals,
}

impl ServeOutcome {
    /// User-visible unavailability: the sum of every outage's dead time.
    pub fn unavailability_ns(&self) -> u64 {
        self.downtime.total_ns()
    }

    /// Completions per simulated second.
    pub fn goodput_rps(&self) -> f64 {
        self.completed_in_horizon as f64 / (self.horizon_ns as f64 / 1e9)
    }
}

/// One generated request.
pub(crate) struct Req {
    pub(crate) at_ns: u64,
    pub(crate) tenant: u32,
    pub(crate) key: u64,
    pub(crate) is_read: bool,
}

/// Derives a tenant-stream seed from the master seed (see
/// [`star_rng::lane_seed`]; adjacent tenants get unrelated streams).
fn stream_seed(master: u64, lane: u64) -> u64 {
    star_rng::lane_seed(master, lane)
}

/// Generates every tenant's request stream up front and merges them by
/// arrival time (ties broken by tenant index; a single tenant's stream
/// is strictly increasing). Shared by the single-store simulation and
/// the sharded backend, which must see *identical* traffic for a given
/// tenant population.
pub(crate) fn generate_requests(
    tenants: &[crate::scenario::TenantSpec],
    cfg: &ServeConfig,
) -> Vec<Req> {
    let mut reqs: Vec<Req> = Vec::new();
    for (ti, t) in tenants.iter().enumerate() {
        let zipf = Zipfian::new(t.keys, t.zipf_theta);
        let mut op_rng = SimRng::seed_from_u64(stream_seed(cfg.seed, ti as u64 * 2 + 1));
        for at_ns in OpenLoopArrivals::new(
            stream_seed(cfg.seed, ti as u64 * 2),
            t.rate_per_s,
            t.shape.clone(),
            cfg.horizon_ns,
        ) {
            reqs.push(Req {
                at_ns,
                tenant: ti as u32,
                key: t.key_base + zipf.sample(&mut op_rng),
                is_read: op_rng.gen_bool(t.read_fraction),
            });
        }
    }
    reqs.sort_by_key(|r| (r.at_ns, r.tenant));
    reqs
}

/// Runs one scheme through one scenario and returns its outcome.
///
/// Deterministic in `(scheme, scenario, cfg.seed, cfg.horizon_ns,
/// cfg.mem)`; `cfg.threads` plays no role here, which is what makes the
/// grid byte-identical at any thread count.
pub fn simulate(scheme: ServeScheme, scenario: &Scenario, cfg: &ServeConfig) -> ServeOutcome {
    serve_queue(
        scheme,
        scenario,
        &generate_requests(&scenario.tenants, cfg),
        cfg,
    )
}

/// The single-server FIFO queue over one fresh [`SecureKv`]: serves
/// `reqs` in order and fires each of the scenario's power failures at
/// the first request boundary at or after it. [`simulate`] runs it once
/// over the whole stream; the sharded backend runs it once per lane over
/// that lane's requests and crash plan.
pub(crate) fn serve_queue<'a>(
    scheme: ServeScheme,
    scenario: &Scenario,
    reqs: impl IntoIterator<Item = &'a Req>,
    cfg: &ServeConfig,
) -> ServeOutcome {
    let mut crashes = scenario.crash_plan.clone();
    crashes.sort_unstable();

    let mut kv = SecureKv::new(scheme, cfg.mem.clone());
    let mut tenants: Vec<TenantStats> = scenario
        .tenants
        .iter()
        .map(|t| TenantStats {
            name: t.name,
            requests: 0,
            reads: 0,
            writes: 0,
            latency: Log2Hist::new(),
        })
        .collect();
    let mut latency = Log2Hist::new();
    let mut downtime = DowntimeLedger::new();
    let mut crash_i = 0usize;
    let mut server_free_ns = 0u64;
    let mut last_outage_end_ns = 0u64;
    let mut requests = 0u64;
    let mut completed_in_horizon = 0u64;
    let mut delayed_by_downtime = 0u64;
    let mut put_seq = 1u64;

    let fire_crash = |kv: &mut SecureKv,
                      downtime: &mut DowntimeLedger,
                      server_free_ns: &mut u64,
                      last_outage_end_ns: &mut u64,
                      at_ns: u64| {
        // The in-flight request drains before power is lost takes
        // effect on the queue; the machine is then dead for the span.
        let span = kv.crash_recover(at_ns, scenario.reboot_ns);
        let outage_end = at_ns.max(*server_free_ns) + span.total_ns();
        downtime.push(span);
        *server_free_ns = (*server_free_ns).max(outage_end);
        *last_outage_end_ns = outage_end;
    };

    for r in reqs {
        // Fire every power failure due before this request starts.
        while crash_i < crashes.len() && crashes[crash_i] <= server_free_ns.max(r.at_ns) {
            fire_crash(
                &mut kv,
                &mut downtime,
                &mut server_free_ns,
                &mut last_outage_end_ns,
                crashes[crash_i],
            );
            crash_i += 1;
        }
        star_scope::span!("serve/request");
        let start_ns = server_free_ns.max(r.at_ns);
        if r.at_ns < last_outage_end_ns {
            delayed_by_downtime += 1;
        }
        let t0_ps = kv.now_ps();
        let ts = &mut tenants[r.tenant as usize];
        if r.is_read {
            let _ = kv.get(r.key);
            ts.reads += 1;
        } else {
            kv.put(r.key, put_seq);
            put_seq += 1;
            ts.writes += 1;
        }
        let service_ns = (kv.now_ps() - t0_ps).div_ceil(1000).max(1);
        let done_ns = start_ns + service_ns;
        let lat_ns = done_ns - r.at_ns;
        ts.requests += 1;
        ts.latency.observe(lat_ns);
        latency.observe(lat_ns);
        requests += 1;
        if done_ns <= cfg.horizon_ns {
            completed_in_horizon += 1;
        }
        server_free_ns = done_ns;
    }
    // Power failures scheduled after the last arrival still happen.
    while crash_i < crashes.len() && crashes[crash_i] < cfg.horizon_ns {
        fire_crash(
            &mut kv,
            &mut downtime,
            &mut server_free_ns,
            &mut last_outage_end_ns,
            crashes[crash_i],
        );
        crash_i += 1;
    }

    ServeOutcome {
        scheme,
        scenario: scenario.name,
        horizon_ns: cfg.horizon_ns,
        requests,
        completed_in_horizon,
        delayed_by_downtime,
        latency,
        tenants,
        downtime,
        totals: kv.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{standard_scenarios, TenantSpec};
    use star_workloads::LoadShape;

    fn quick() -> ServeConfig {
        ServeConfig::quick(5)
    }

    #[test]
    fn tenant_counts_sum_to_total_and_quantiles_are_ordered() {
        let cfg = quick();
        let sc = &standard_scenarios(&cfg)[0];
        let out = simulate(ServeScheme::Star, sc, &cfg);
        assert!(out.requests > 0);
        assert_eq!(
            out.requests,
            out.tenants.iter().map(|t| t.requests).sum::<u64>()
        );
        assert_eq!(out.requests, out.latency.count());
        let (p50, p99, p999) = (
            out.latency.quantile(0.50),
            out.latency.quantile(0.99),
            out.latency.quantile(0.999),
        );
        assert!(p50 <= p99 && p99 <= p999);
        assert!(p999 <= out.latency.max());
    }

    #[test]
    fn unavailability_is_the_sum_of_spans_and_crashes_all_fire() {
        let cfg = quick();
        for sc in &standard_scenarios(&cfg) {
            let out = simulate(ServeScheme::Star, sc, &cfg);
            assert_eq!(out.downtime.count(), sc.crash_plan.len(), "{}", sc.name);
            assert!(out.unavailability_ns() > 0, "{}", sc.name);
            assert_eq!(
                out.unavailability_ns(),
                out.downtime
                    .spans()
                    .iter()
                    .map(|s| s.total_ns())
                    .sum::<u64>()
            );
        }
    }

    #[test]
    fn crash_after_last_arrival_still_counts() {
        let cfg = quick();
        let sc = Scenario {
            name: "tail-crash",
            tenants: vec![TenantSpec {
                name: "only",
                rate_per_s: 1.0,
                zipf_theta: 0.9,
                keys: 64,
                key_base: 0,
                read_fraction: 0.5,
                shape: LoadShape::flat(),
            }],
            // Just before the horizon: almost surely after the last
            // arrival at 1 req/s.
            crash_plan: vec![cfg.horizon_ns - 1],
            reboot_ns: 1_000,
        };
        let out = simulate(ServeScheme::Strict, &sc, &cfg);
        assert_eq!(out.downtime.count(), 1);
        assert!(out.unavailability_ns() >= 1_000);
    }

    #[test]
    fn no_crash_plan_means_no_unavailability() {
        let cfg = quick();
        let mut sc = standard_scenarios(&cfg)[0].clone();
        sc.crash_plan.clear();
        let out = simulate(ServeScheme::Wb, &sc, &cfg);
        assert_eq!(out.downtime.count(), 0);
        assert_eq!(out.unavailability_ns(), 0);
        assert_eq!(out.delayed_by_downtime, 0);
    }

    #[test]
    fn downtime_delays_requests_behind_the_outage() {
        let cfg = quick();
        // Load heavy enough that a multi-ms outage must catch arrivals.
        let sc = &crate::scenario::standard_scenarios_at(&cfg, 2_000.0)[0];
        // WB's rebuild is the longest outage of any backend.
        let out = simulate(ServeScheme::Wb, sc, &cfg);
        assert!(
            out.delayed_by_downtime > 0,
            "full-rebuild outages must catch arrivals"
        );
        // And the same traffic without crashes has a strictly lower
        // worst-case latency: the outage is what produced the tail.
        let mut quiet = sc.clone();
        quiet.crash_plan.clear();
        let calm = simulate(ServeScheme::Wb, &quiet, &cfg);
        assert!(out.latency.max() > calm.latency.max());
    }

    #[test]
    fn identical_inputs_identical_outcomes() {
        let cfg = quick();
        let sc = &standard_scenarios(&cfg)[1];
        let a = simulate(ServeScheme::Anubis, sc, &cfg);
        let b = simulate(ServeScheme::Anubis, sc, &cfg);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.downtime, b.downtime);
        assert_eq!(a.totals, b.totals);
    }
}
