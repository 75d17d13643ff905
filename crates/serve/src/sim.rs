//! The discrete-event service loop: open-loop arrivals, one
//! single-server FIFO queue per lane over the backend's modeled time,
//! and mid-stream power failures.
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
use crate::scenario::{Scenario, ServeConfig, ServeScheme, TenantSpec};
use star_core::DowntimeLedger;
use star_rng::SimRng;
use star_trace::Log2Hist;
use star_workloads::{OpenLoopArrivals, Zipfian};

/// Per-tenant service statistics.
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// Tenant label.
    pub name: &'static str,
    /// The lane that served this tenant.
    pub lane: usize,
    /// Requests served.
    pub requests: u64,
    /// GETs among them.
    pub reads: u64,
    /// Durable PUTs among them.
    pub writes: u64,
    /// Per-request latency, ns.
    pub latency: Log2Hist,
}

/// One lane's service statistics over the horizon.
#[derive(Debug, Clone)]
pub struct LaneServeStats {
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

/// The outcome of one scheme×scenario service run. The headline fields
/// are fleet totals over every lane; [`lanes`](Self::lanes) breaks them
/// down.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// Backend scheme every lane runs.
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
    /// Requests that arrived while their lane was down and had to wait
    /// out the outage.
    pub delayed_by_downtime: u64,
    /// All-tenant per-request latency, ns.
    pub latency: Log2Hist,
    /// Per-tenant breakdown, in scenario order.
    pub tenants: Vec<TenantStats>,
    /// Every outage: lane by lane in lane order, each lane's in
    /// injection order.
    pub downtime: DowntimeLedger,
    /// Device totals summed over the lanes, whose wear summaries merge
    /// as disjoint devices.
    pub totals: HorizonTotals,
    /// Per-lane breakdown, in lane order.
    pub lanes: Vec<LaneServeStats>,
}

impl ServeOutcome {
    /// User-visible unavailability: the sum of every outage's dead time,
    /// in lane-seconds. An outage on one lane leaves the other lanes
    /// serving, which is the availability argument for sharding.
    pub fn unavailability_ns(&self) -> u64 {
        self.downtime.total_ns()
    }
}

/// `count` events per simulated second over `horizon_ns`.
pub(crate) fn per_second(count: u64, horizon_ns: u64) -> f64 {
    count as f64 / (horizon_ns as f64 / 1e9)
}

/// One generated request.
pub(crate) struct Req {
    at_ns: u64,
    tenant: u32,
    key: u64,
    is_read: bool,
}

/// Derives a tenant-stream seed from the master seed (see
/// [`star_rng::lane_seed`]; adjacent tenants get unrelated streams).
fn stream_seed(master: u64, stream: u64) -> u64 {
    star_rng::lane_seed(master, stream)
}

/// Generates every tenant's request stream up front and merges them by
/// arrival time (ties broken by tenant index; a single tenant's stream
/// is strictly increasing). The stream depends on the tenant population,
/// `cfg.seed` and `cfg.horizon_ns` alone: never on the lane placement
/// and never on the backend, so one stream serves every scheme.
pub(crate) fn generate_requests(tenants: &[TenantSpec], cfg: &ServeConfig) -> Vec<Req> {
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
/// The request stream is generated once. Each lane is then one pass of
/// the single-server queue over its own fresh [`SecureKv`], fed the
/// requests of the tenants placed on it and its own power failures, so
/// any one lane's statistics are a pure function of that lane's traffic
/// and crash plan. The fleet latency absorbs the lane histograms, and
/// each tenant's stats come from its lane.
///
/// Deterministic in `(scheme, scenario, cfg.seed, cfg.horizon_ns,
/// cfg.mem)`; `cfg.threads` plays no role here, which is what makes the
/// grid byte-identical at any thread count.
///
/// # Panics
///
/// Panics if a tenant or a power failure names a lane out of range.
pub fn simulate(scheme: ServeScheme, scenario: &Scenario, cfg: &ServeConfig) -> ServeOutcome {
    let reqs = generate_requests(&scenario.tenants, cfg);
    serve_stream(scheme, scenario, &reqs, cfg)
}

/// The body of [`simulate`] after generation: serves `reqs`, the
/// scenario's request stream, on every lane. [`run_grid`](crate::run_grid)
/// calls it directly to share one stream among the backends.
pub(crate) fn serve_stream(
    scheme: ServeScheme,
    scenario: &Scenario,
    reqs: &[Req],
    cfg: &ServeConfig,
) -> ServeOutcome {
    let named_lanes = scenario.tenants.iter().map(|t| t.lane);
    let crash_lanes = scenario.crash_plan.iter().map(|&(lane, _)| lane);
    assert!(
        named_lanes.chain(crash_lanes).all(|l| l < scenario.lanes),
        "{}: a tenant or power failure names a lane out of range",
        scenario.name
    );
    let mut tenants: Vec<TenantStats> = scenario
        .tenants
        .iter()
        .map(|t| TenantStats {
            name: t.name,
            lane: t.lane,
            requests: 0,
            reads: 0,
            writes: 0,
            latency: Log2Hist::new(),
        })
        .collect();
    let lanes: Vec<LaneServeStats> = (0..scenario.lanes)
        .map(|lane| serve_lane(scheme, scenario, lane, reqs, &mut tenants, cfg))
        .collect();

    let mut latency = Log2Hist::new();
    let mut downtime = DowntimeLedger::new();
    let mut totals = HorizonTotals::default();
    for l in &lanes {
        latency.absorb(&l.latency);
        for span in l.downtime.spans() {
            downtime.push(span.clone());
        }
        totals.absorb(&l.totals);
    }
    ServeOutcome {
        scheme,
        scenario: scenario.name,
        horizon_ns: cfg.horizon_ns,
        requests: lanes.iter().map(|l| l.requests).sum(),
        completed_in_horizon: lanes.iter().map(|l| l.completed_in_horizon).sum(),
        delayed_by_downtime: lanes.iter().map(|l| l.delayed_by_downtime).sum(),
        latency,
        tenants,
        downtime,
        totals,
        lanes,
    }
}

/// One lane's single-server FIFO queue over one fresh [`SecureKv`]:
/// serves the lane's requests in arrival order, recording each into its
/// tenant's stats, and fires each of the lane's power failures at the
/// first request boundary at or after it.
fn serve_lane(
    scheme: ServeScheme,
    scenario: &Scenario,
    lane: usize,
    reqs: &[Req],
    tenants: &mut [TenantStats],
    cfg: &ServeConfig,
) -> LaneServeStats {
    let mut crashes: Vec<u64> = scenario
        .crash_plan
        .iter()
        .filter(|&&(l, _)| l == lane)
        .map(|&(_, at_ns)| at_ns)
        .collect();
    crashes.sort_unstable();
    let mut crashes = crashes.into_iter().peekable();

    let mut kv = SecureKv::new(scheme, cfg.mem.clone());
    let mut latency = Log2Hist::new();
    let mut downtime = DowntimeLedger::new();
    let mut server_free_ns = 0u64;
    let mut last_outage_end_ns = 0u64;
    let mut requests = 0u64;
    let mut completed_in_horizon = 0u64;
    let mut delayed_by_downtime = 0u64;
    let mut put_seq = 1u64;

    let routed = reqs
        .iter()
        .filter(|r| scenario.tenants[r.tenant as usize].lane == lane);
    // The final `None` fires the power failures scheduled after the last
    // arrival: they still happen.
    for r in routed.map(Some).chain([None]) {
        // Fire every power failure due before this request starts.
        while let Some(at_ns) = crashes.next_if(|&at_ns| match r {
            Some(r) => at_ns <= server_free_ns.max(r.at_ns),
            None => at_ns < cfg.horizon_ns,
        }) {
            // The in-flight request drains before power is lost takes
            // effect on the queue; the machine is then dead for the span.
            let span = kv.crash_recover(at_ns, scenario.reboot_ns);
            let outage_end = at_ns.max(server_free_ns) + span.total_ns();
            downtime.push(span);
            server_free_ns = server_free_ns.max(outage_end);
            last_outage_end_ns = outage_end;
        }
        let Some(r) = r else { break };
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

    LaneServeStats {
        requests,
        completed_in_horizon,
        delayed_by_downtime,
        latency,
        downtime,
        totals: kv.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{shard_scenarios, standard_scenarios};
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
            lanes: 1,
            tenants: vec![TenantSpec {
                name: "only",
                rate_per_s: 1.0,
                zipf_theta: 0.9,
                keys: 64,
                key_base: 0,
                read_fraction: 0.5,
                shape: LoadShape::flat(),
                lane: 0,
            }],
            // Just before the horizon: almost surely after the last
            // arrival at 1 req/s.
            crash_plan: vec![(0, cfg.horizon_ns - 1)],
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

    #[test]
    fn lanes_serve_their_own_tenants_and_crash_alone() {
        let cfg = quick();
        let [hot, packed] = &shard_scenarios(&cfg, 4, 2.0)[..] else {
            panic!("hot-shard and skew-place");
        };
        let out = simulate(ServeScheme::Star, hot, &cfg);
        assert_eq!(out.requests, out.latency.count());
        // hot-shard places tenant t on lane t; lane 0 carries the hot
        // tenant.
        for (t, l) in out.tenants.iter().zip(&out.lanes) {
            assert_eq!(t.requests, l.requests);
        }
        assert!(out.lanes[0].requests > out.lanes[1].requests);
        // skew-place packs every tenant onto the lower half.
        let skew = simulate(ServeScheme::Star, packed, &cfg);
        assert_eq!(skew.lanes[2].requests + skew.lanes[3].requests, 0);
        assert_eq!(skew.requests, out.requests, "same traffic, new placement");
        // The crash plan hits lanes 0 and 3 only, and the other lanes
        // match a crash-free run exactly.
        let counts: Vec<usize> = out.lanes.iter().map(|l| l.downtime.count()).collect();
        assert_eq!(counts, [1, 0, 0, 1]);
        let mut calm_sc = hot.clone();
        calm_sc.crash_plan.clear();
        let calm = simulate(ServeScheme::Star, &calm_sc, &cfg);
        for lane in [1usize, 2] {
            assert_eq!(out.lanes[lane].requests, calm.lanes[lane].requests);
            assert_eq!(out.lanes[lane].latency, calm.lanes[lane].latency);
            assert_eq!(out.lanes[lane].totals, calm.lanes[lane].totals);
        }
        assert!(out.lanes[0].downtime.total_ns() > 0);
    }
}
