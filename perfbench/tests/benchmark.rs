//! The benchmark's own tests: the declared metrics match what the code
//! emits, minimal runs pass their checks, and the seed moves inputs but
//! not verdicts.

use star_perfbench::measure::{Scale, Tally};
use star_perfbench::{end_to_end_metrics, layers, result_line, Metric, Workload, END_TO_END};
use star_prof::JsonValue;

fn declared() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

fn members<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    doc.get(key)
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|| panic!("{key} is a list"))
}

fn field<'a>(item: &'a JsonValue, key: &str) -> &'a str {
    item.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("{key} is a string"))
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// `(name, unit)` of every declared metric in `section`.
fn declared_metrics(doc: &JsonValue, section: &str) -> Vec<(String, String)> {
    members(doc, section)
        .iter()
        .map(|m| {
            let better = field(m, "better");
            assert!(better == "higher" || better == "lower", "{better}");
            (field(m, "name").to_string(), field(m, "unit").to_string())
        })
        .collect()
}

fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn declared_metric_names_are_valid_and_unique() {
    let doc = declared();
    let mut names: Vec<String> = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        for (name, unit) in declared_metrics(&doc, section) {
            assert!(valid_name(&name), "bad metric name {name}");
            assert!(valid_unit(&unit), "bad unit {unit} of {name}");
            names.push(name);
        }
    }
    for w in members(&doc, "workloads") {
        let name = field(w, "name");
        assert!(valid_name(name), "bad workload name {name}");
        assert!(field(w, "why").len() <= 200);
        names.push(name.to_string());
    }
    let total = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), total, "every name is used once");

    let workloads: Vec<&str> = members(&doc, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);

    let bounds: Vec<(String, f64)> = members(&doc, "end_to_end")
        .iter()
        .map(|m| {
            let b = m.get("bound").and_then(JsonValue::as_f64).expect("bound");
            assert!(b > 0.0 && b <= 0.25, "bound {b}");
            (field(m, "name").to_string(), b)
        })
        .collect();
    let setup = bounds
        .iter()
        .find(|(n, _)| n == "setup_s")
        .expect("setup_s is declared")
        .1;
    assert!(
        bounds.iter().all(|(_, b)| *b <= setup),
        "setup_s has the largest bound"
    );
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared_metrics(&doc, "end_to_end"), e2e);
    let layer: Vec<(String, String)> = layers::names()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(declared_metrics(&doc, "per_layer"), layer);
}

#[test]
fn minimal_runs_pass_their_checks_and_emit_every_declared_metric() {
    let doc = declared();
    let e2e = declared_metrics(&doc, "end_to_end");
    let per_layer = declared_metrics(&doc, "per_layer");
    for w in Workload::ALL {
        let e = w.end_to_end(Scale::Minimal, 7, 0.0);
        assert!(e.tally.attempted > 0, "{} checked nothing", w.name());
        assert_eq!(e.tally.failed, 0, "{} failed a check", w.name());
        let metrics = end_to_end_metrics(&e);
        assert_eq!(emitted(&metrics), e2e, "{}", w.name());
        assert!(metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0));

        let (tally, metrics) = layers::ledger(w, Scale::Minimal, 7, 0.0);
        assert!(
            tally.attempted > 0 && tally.failed == 0,
            "{} traced",
            w.name()
        );
        assert_eq!(emitted(&metrics), per_layer, "{} traced", w.name());
        assert!(metrics.iter().all(|m| m.value.is_finite()));
    }
}

#[test]
fn another_seed_changes_inputs_but_not_verdicts() {
    for w in Workload::ALL {
        let a = w.end_to_end(Scale::Minimal, 1, 0.0);
        let b = w.end_to_end(Scale::Minimal, 2, 0.0);
        assert_ne!(
            a.digest,
            b.digest,
            "{}: the seed must reach the inputs",
            w.name()
        );
        assert_eq!(a.tally.failed, 0, "{}", w.name());
        assert_eq!(b.tally.failed, 0, "{}", w.name());
        assert!(a.tally.attempted > 0 && b.tally.attempted > 0);
    }
}

/// Report digests of every workload at `Scale::Minimal`, seed 7, in
/// [`Workload::ALL`] order.
const PINNED_DIGESTS: [(&str, u64); 4] = [
    ("grid", 0xa0b6_a773_0fcd_49b3),
    ("crash-sweep", 0x4e84_1eaf_1588_8639),
    ("shard", 0x7dee_af58_aae3_fc35),
    ("serve", 0x5710_daf2_8a0e_7a81),
];

/// Simulated model outputs at `Scale::Minimal`, seed 7.
const PINNED_MODEL: [(&str, f64); 4] = [
    ("star_write_amp", 1.0274050632911393),
    ("star_ipc_rel", 0.9981404232421354),
    ("star_recovery_ms", 0.2388),
    ("star_unavail_ms", 2.1502333333333334),
];

/// The simulated outputs must repeat exactly, so a change that trades
/// simulation fidelity for host speed fails here. A change that means to
/// alter what the simulator computes, or the bytes of its reports,
/// updates these pins in the same commit and says why.
#[test]
fn simulated_outputs_match_their_pins() {
    let mut digests = Vec::new();
    let mut model = Vec::new();
    for w in Workload::ALL {
        let e = w.end_to_end(Scale::Minimal, 7, 0.0);
        digests.push((w.name(), e.digest));
        model.extend(e.model.iter().map(|m| (m.name, m.value)));
    }
    assert_eq!(digests, PINNED_DIGESTS, "report digests moved");
    assert_eq!(model, PINNED_MODEL, "simulated model outputs moved");
}

#[test]
fn result_line_is_the_contract_object() {
    let metrics = [Metric {
        name: "units_per_s".into(),
        unit: "1/s",
        value: 1234.5678,
    }];
    let line = result_line(
        Tally {
            attempted: 3,
            failed: 0,
        },
        &metrics,
    );
    let v = JsonValue::parse(&line).expect("the result line is JSON");
    let JsonValue::Obj(members) = &v else {
        panic!("an object")
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(v.get("correct"), Some(&JsonValue::Bool(true)));
    let m = v
        .get("metrics")
        .and_then(|m| m.get("units_per_s"))
        .expect("metric");
    assert_eq!(m.get("value").and_then(JsonValue::as_f64), Some(1234.5678));
    assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some("1/s"));

    let failed = result_line(
        Tally {
            attempted: 3,
            failed: 1,
        },
        &metrics,
    );
    let v = JsonValue::parse(&failed).expect("JSON");
    assert_eq!(v.get("correct"), Some(&JsonValue::Bool(false)));
}
