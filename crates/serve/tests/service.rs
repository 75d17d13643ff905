//! Acceptance coverage for the service simulator (ISSUE 6):
//!
//! * a multi-hour simulated run with ≥2 mid-stream power failures
//!   completes for every engine scheme *and* Triad, reporting
//!   p50/p99/p999 latency and nonzero unavailability;
//! * the scheme×scenario grid is byte-identical at `threads` 1/2/4;
//! * every grid cell is the cell `simulate` produces alone;
//! * a single store is exactly the one-lane fleet.

use star_serve::{
    run_grid, shard_scenarios, simulate, standard_scenarios, standard_scenarios_at, ServeConfig,
    ServeGridReport, ServeOutcome, ServeScheme,
};

/// Multi-hour horizon, two crashes, every backend.
#[test]
fn multi_hour_run_completes_for_every_scheme() {
    let cfg = ServeConfig {
        seed: 7,
        ..ServeConfig::quick(3 * 3600)
    };
    let scenario = &standard_scenarios_at(&cfg, 0.3)[0];
    assert!(scenario.crash_plan.len() >= 2);
    for scheme in ServeScheme::ALL {
        let out = simulate(scheme, scenario, &cfg);
        let label = scheme.label();
        assert!(out.requests > 1_000, "{label}: multi-hour load served");
        let (p50, p99, p999) = (
            out.latency.quantile(0.50),
            out.latency.quantile(0.99),
            out.latency.quantile(0.999),
        );
        assert!(p50 > 0 && p50 <= p99 && p99 <= p999, "{label}: quantiles");
        assert!(
            out.unavailability_ns() > 0,
            "{label}: two crashes must cost dead time"
        );
        assert_eq!(out.downtime.count(), 2, "{label}: both crashes fired");
        assert_eq!(
            out.requests,
            out.tenants.iter().map(|t| t.requests).sum::<u64>(),
            "{label}: tenant counts sum to the total"
        );
        assert_eq!(
            out.unavailability_ns(),
            out.downtime
                .spans()
                .iter()
                .map(|s| s.total_ns())
                .sum::<u64>(),
            "{label}: unavailability is exactly the sum of its spans"
        );
    }
}

/// The recovery hierarchy the paper predicts, as downtime: STAR's
/// dirty-set recovery beats Triad's whole-memory counter scan, which
/// beats WB's full rebuild; Strict pays only the reboot.
#[test]
fn downtime_ordering_matches_the_paper() {
    let cfg = ServeConfig {
        seed: 11,
        ..ServeConfig::quick(600)
    };
    let scenario = &standard_scenarios(&cfg)[0];
    let recovery_of = |scheme| {
        let out = simulate(scheme, scenario, &cfg);
        out.downtime
            .spans()
            .iter()
            .map(|s| s.recovery_ns)
            .sum::<u64>()
    };
    let strict = recovery_of(ServeScheme::Strict);
    let star = recovery_of(ServeScheme::Star);
    let triad = recovery_of(ServeScheme::Triad);
    let wb = recovery_of(ServeScheme::Wb);
    assert_eq!(strict, 0, "strict has nothing stale");
    assert!(star > 0, "STAR restores its dirty set");
    assert!(
        star < triad,
        "dirty-set recovery beats the full counter scan"
    );
    assert!(triad < wb, "counter scan beats the full rebuild");
}

/// Grid bytes are a pure function of the job list: any thread count
/// reproduces the serial sweep exactly.
#[test]
fn serve_grid_is_byte_identical_across_thread_counts() {
    let base = ServeConfig {
        seed: 42,
        ..ServeConfig::quick(20)
    };
    let scenarios = standard_scenarios(&base);
    let json_at = |threads: usize| {
        let cfg = ServeConfig {
            threads,
            ..base.clone()
        };
        run_grid(&cfg, &scenarios).to_json()
    };
    let serial = json_at(1);
    assert_eq!(serial, json_at(2), "threads 2 must reproduce serial bytes");
    assert_eq!(serial, json_at(4), "threads 4 must reproduce serial bytes");
    assert_eq!(
        serial,
        json_at(1),
        "repeated runs are deterministic end to end"
    );
}

/// The grid generates each scenario's request stream once and serves it
/// to all five backends; that sharing must not move a byte. Every cell,
/// at one and at two threads, equals as cell JSON the outcome of
/// `simulate` run alone, which generates its own stream.
#[test]
fn grid_cells_equal_simulate_run_alone() {
    let base = ServeConfig::quick(20);
    let cell_json = |cell: ServeOutcome| {
        ServeGridReport {
            horizon_ns: base.horizon_ns,
            seed: base.seed,
            cells: vec![cell],
        }
        .to_json()
    };
    for scenarios in [standard_scenarios(&base), shard_scenarios(&base, 2, 2.0)] {
        let alone: Vec<String> = scenarios
            .iter()
            .flat_map(|sc| ServeScheme::ALL.map(|scheme| cell_json(simulate(scheme, sc, &base))))
            .collect();
        for threads in [1, 2] {
            let cfg = ServeConfig {
                threads,
                ..base.clone()
            };
            let grid: Vec<String> = run_grid(&cfg, &scenarios)
                .cells
                .into_iter()
                .map(cell_json)
                .collect();
            assert_eq!(grid, alone, "{}: threads {threads}", scenarios[0].name);
        }
    }
}

/// A single store is the one-lane case of a fleet: adding an idle lane
/// (every tenant and every crash stays on lane 0) changes neither lane
/// 0 nor the fleet totals, and the idle lane does nothing at all.
#[test]
fn single_store_is_the_one_lane_fleet() {
    let cfg = ServeConfig::quick(10);
    // Everything but the lane rows: requests, tenants, latency,
    // downtime ledger and horizon totals (Debug prints floats exactly).
    let fleet_view = |o: &ServeOutcome| {
        let mut o = o.clone();
        o.lanes.clear();
        format!("{o:?}")
    };
    for scenario in standard_scenarios(&cfg) {
        let mut two_lanes = scenario.clone();
        two_lanes.lanes = 2;
        for scheme in ServeScheme::ALL {
            let label = format!("{}/{}", scheme.label(), scenario.name);
            let one = simulate(scheme, &scenario, &cfg);
            let fleet = simulate(scheme, &two_lanes, &cfg);
            assert_eq!(fleet_view(&fleet), fleet_view(&one), "{label}: fleet");
            let [lane0, idle] = &fleet.lanes[..] else {
                panic!("{label}: two lane rows");
            };
            assert_eq!(
                (
                    lane0.requests,
                    &lane0.latency,
                    &lane0.downtime,
                    &lane0.totals
                ),
                (one.requests, &one.latency, &one.downtime, &one.totals),
                "{label}: lane 0"
            );
            let idle_work = (idle.requests, idle.downtime.count(), idle.totals.nvm_reads);
            assert_eq!(idle_work, (0, 0, 0), "{label}: idle lane");
            assert_eq!(idle.totals.nvm_writes, 0, "{label}: idle lane writes");
        }
    }
}
