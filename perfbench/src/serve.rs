//! `serve`: [`run_grid`] over the standard steady/diurnal/burst
//! scenarios × the five backends on 256 MB of protected data, two
//! mid-stream crashes per cell, cells run serially. The traffic is what
//! `star-bench serve` runs by default: [`ServeConfig::default`]'s
//! one-hour horizon and [`standard_scenarios`]' base rate. The unit is
//! one simulated request.

use crate::measure::{fnv1a, ModelValue, Scale, Tally, FNV_OFFSET};
use crate::Bench;
use star_core::SecureMemConfig;
use star_serve::{
    run_grid, standard_scenarios, Scenario, SecureKv, ServeConfig, ServeGridReport, ServeOutcome,
    ServeScheme,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The serve configuration with serial cells: the default one at
/// `Full`; at `Minimal`, a two-minute horizon over 4 MB.
pub fn config(scale: Scale, seed: u64) -> ServeConfig {
    let full = ServeConfig {
        seed,
        threads: 1,
        ..ServeConfig::default()
    };
    match scale {
        Scale::Full => full,
        Scale::Minimal => ServeConfig {
            horizon_ns: 120 * star_serve::scenario::NS_PER_S,
            mem: SecureMemConfig::builder()
                .data_lines((4 << 20) / 64)
                .build()
                .expect("serve geometry is consistent"),
            ..full
        },
    }
}

/// One cell as the bytes the `serve` report would hold for it.
fn cell_bytes(cfg: &ServeConfig, cell: &ServeOutcome) -> String {
    ServeGridReport {
        horizon_ns: cfg.horizon_ns,
        seed: cfg.seed,
        cells: vec![cell.clone()],
    }
    .to_json()
}

/// Tenant sums must equal the cell totals, and each tenant's reads plus
/// writes its requests.
fn balanced(cell: &ServeOutcome) -> bool {
    let requests: u64 = cell.tenants.iter().map(|t| t.requests).sum();
    requests == cell.requests
        && cell
            .tenants
            .iter()
            .all(|t| t.reads + t.writes == t.requests)
}

/// STAR's mean unavailability per scenario, simulated ms.
pub fn star_unavail_ms(cells: &[ServeOutcome]) -> f64 {
    let star: Vec<&ServeOutcome> = cells
        .iter()
        .filter(|c| c.scheme == ServeScheme::Star)
        .collect();
    star.iter()
        .map(|c| c.unavailability_ns() as f64)
        .sum::<f64>()
        / 1e6
        / star.len() as f64
}

/// Runs the grid; `None` if it panicked, which is how `SecureKv`
/// reports a recovery that did not restore the pre-crash state.
fn run_caught(cfg: &ServeConfig, scenarios: &[Scenario]) -> Option<ServeGridReport> {
    catch_unwind(AssertUnwindSafe(|| run_grid(cfg, scenarios))).ok()
}

/// The serve workload's configuration, scenarios and reference bytes.
pub struct Serve {
    cfg: ServeConfig,
    scenarios: Vec<Scenario>,
    reference: Vec<String>,
    model: Vec<ModelValue>,
    digest: u64,
}

impl Serve {
    fn check(&self, report: Option<&ServeGridReport>, tally: &mut Tally) -> u64 {
        let Some(report) = report else {
            let cells = self.scenarios.len() * ServeScheme::ALL.len();
            tally.record_n(cells as u64, false);
            return 0;
        };
        let mut requests = 0;
        for (i, cell) in report.cells.iter().enumerate() {
            requests += cell.requests;
            tally.record(
                balanced(cell) && self.reference.get(i) == Some(&cell_bytes(&self.cfg, cell)),
            );
        }
        requests
    }
}

impl Bench for Serve {
    fn prepare(scale: Scale, seed: u64, tally: &mut Tally) -> Self {
        let cfg = config(scale, seed);
        let scenarios = standard_scenarios(&cfg);
        let first = run_caught(&cfg, &scenarios);
        let cells = first.as_ref().map_or(&[][..], |r| &r.cells);
        let reference: Vec<String> = cells.iter().map(|c| cell_bytes(&cfg, c)).collect();
        let digest = reference
            .iter()
            .fold(FNV_OFFSET, |h, b| fnv1a(h, b.as_bytes()));
        let model = vec![ModelValue {
            name: "star_unavail_ms",
            unit: "sim_ms",
            value: star_unavail_ms(cells),
            paper: None,
            note: "STAR downtime per scenario (two crashes); the paper has no service model",
        }];
        let serve = Serve {
            cfg,
            scenarios,
            reference,
            model,
            digest,
        };
        serve.check(first.as_ref(), tally);
        serve
    }

    fn setup(scale: Scale, seed: u64) {
        let cfg = config(scale, seed);
        let scenarios = standard_scenarios(&cfg);
        let kvs = ServeScheme::ALL.map(|s| SecureKv::new(s, cfg.mem.clone()));
        std::hint::black_box((scenarios, kvs));
    }

    fn batch(&mut self, _traced: bool, tally: &mut Tally) -> u64 {
        let report = run_caught(&self.cfg, &self.scenarios);
        self.check(report.as_ref(), tally)
    }

    fn digest(&self) -> u64 {
        self.digest
    }

    fn model(&self) -> Vec<ModelValue> {
        self.model.clone()
    }
}
