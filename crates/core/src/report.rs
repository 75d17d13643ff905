//! The shared machine-readable report format.
//!
//! Every JSON report the simulator emits — the bench harness's
//! [`RunReport`] grids and the fault explorer's `ExploreReport`
//! (`star-faultsim`) — goes through this module, so they share one
//! schema convention that downstream tooling can rely on:
//!
//! * a leading `"schema_version"` field ([`SCHEMA_VERSION`]) bumped on
//!   any breaking change to either report's shape,
//! * a `"kind"` discriminator naming the report type,
//! * hand-rolled, dependency-free encoding via [`json_str`] /
//!   [`json_f64`] with a fixed field order — reports are **byte-stable**
//!   for identical runs, which the parallel sweep runner's determinism
//!   contract (serial and parallel sweeps produce identical bytes)
//!   depends on.
//!
//! Version history: schema 1 was the unversioned faultsim report of the
//! original fault-injection PR (no `schema_version`/`kind` fields);
//! schema 2 added both fields and the `RunReport` serialization;
//! schema 3 nested the device counters under `"nvm"`, split `energy_pj`
//! into an `"energy"` read/write breakdown, added the `"wear"` summary,
//! and introduced the `"trace"` document kind (star-trace timelines);
//! schema 4 added the `"prof"` write-provenance object (per-cause and
//! per-bank write/energy matrices, line-wear and stall/WPQ-depth
//! histograms, windowed write-rate series — see [`star_prof`]) to
//! `run-report`, and the `"bench-baseline"` document kind emitted by
//! `star-bench baseline`;
//! schema 5 added the `"serve"` document kind (star-serve service
//! grids: per-scheme/per-tenant latency quantiles, goodput, downtime
//! spans and unavailability — see `star_serve::report`);
//! schema 6 added the `"shard"` document kind (star-shard: lane-keyed
//! sharded runs with per-shard report sections, an epoch-tagged persist
//! log and cross-shard merged totals), the `"serve-shard"` kind
//! (star-serve's sharded backend: per-shard request/downtime ledgers
//! under each cell), and widened the faultsim explore report's
//! `"workload"` from a fixed registry label to a free-form string so
//! factory-driven sweeps can carry dynamic shard/tenant labels;
//! schema 7 added the `"perf-profile"` document kind (star-scope: the
//! host wall-clock span profile — aggregated span paths with
//! inclusive/exclusive nanoseconds, call counts, allocation counts and
//! a scrubbed mode that zeroes host-measured fields so structure can be
//! golden-pinned) and the optional `"perf_profile"` summary section of
//! `bench-baseline` (top components, attributed share, allocs/op),
//! which only `star-bench profile` writes; a `bench-baseline` document
//! carries no allocation ceiling. The shapes of the other existing
//! kinds are unchanged.

use crate::config::SchemeKind;
use crate::stats::RunReport;
use star_nvm::{AccessClass, NvmStats, WearSummary};
use std::fmt::Write as _;

// The JSON primitives live in the dependency-free star-trace crate (its
// exporters need them too); re-exported here so existing callers keep
// working.
pub use star_trace::{json_f64, json_str, TracePart};

/// Version of the JSON report schema this build emits.
pub const SCHEMA_VERSION: u32 = 7;

/// The standard report preamble: `"schema_version":N,"kind":"...",`
/// (trailing comma included), shared by every report type.
pub fn schema_preamble(kind: &str) -> String {
    format!(
        "\"schema_version\":{},\"kind\":{},",
        SCHEMA_VERSION,
        json_str(kind)
    )
}

/// Per-class access counts as a JSON object in [`AccessClass::ALL`]
/// order.
fn access_counts(count: impl Fn(AccessClass) -> u64) -> String {
    let mut out = String::from("{");
    for (i, class) in AccessClass::ALL.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", json_str(&class.to_string()), count(class));
    }
    out.push('}');
    out
}

/// The device counters as one JSON object — the single serialization of
/// [`NvmStats`] every report embeds, so `RunReport` and the faultsim
/// reports cannot drift apart on field names or order.
pub fn nvm_stats_json(stats: &NvmStats) -> String {
    format!(
        "{{\"reads\":{},\"writes\":{},\"write_stall_ps\":{},\"read_queue_ps\":{}}}",
        access_counts(|c| stats.reads(c)),
        access_counts(|c| stats.writes(c)),
        stats.write_stall_ps,
        stats.read_queue_ps
    )
}

/// A wear summary as one JSON object.
pub fn wear_json(w: &WearSummary) -> String {
    format!(
        "{{\"lines_touched\":{},\"total_writes\":{},\"max_writes\":{},\"mean_writes\":{},\
         \"concentration\":{}}}",
        w.lines_touched,
        w.total_writes,
        w.max_writes,
        json_f64(w.mean_writes),
        json_f64(w.concentration)
    )
}

/// A merged star-trace timeline as a versioned Chrome trace-event JSON
/// document (Perfetto and `chrome://tracing` load it directly; the extra
/// `schema_version`/`kind` keys are ignored by both).
pub fn trace_to_chrome_json(parts: &[TracePart<'_>]) -> String {
    format!(
        "{{{}{}}}",
        schema_preamble("trace"),
        star_trace::chrome_body(parts)
    )
}

/// A merged star-trace timeline as JSONL: a versioned header object on
/// the first line, then one self-contained event object per line.
pub fn trace_to_jsonl(parts: &[TracePart<'_>]) -> String {
    format!(
        "{{{}\"format\":\"jsonl\"}}\n{}",
        schema_preamble("trace"),
        star_trace::jsonl_body(parts)
    )
}

impl RunReport {
    /// The report as one JSON object (schema in the module docs of
    /// [`crate::report`]).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&schema_preamble("run-report"));
        let _ = write!(
            out,
            "\"scheme\":{},\"instructions\":{},\"cycles\":{},\"ipc\":{},",
            json_str(self.scheme.label()),
            self.instructions,
            json_f64(self.cycles),
            json_f64(self.ipc)
        );
        let _ = write!(
            out,
            "\"energy\":{{\"read_pj\":{},\"write_pj\":{},\"total_pj\":{}}},",
            self.energy_read_pj,
            self.energy_write_pj,
            self.energy_pj()
        );
        let _ = write!(
            out,
            "\"nvm\":{},\"wear\":{},\"prof\":{},",
            nvm_stats_json(&self.nvm),
            wear_json(&self.wear),
            self.prof.to_json()
        );
        let _ = write!(
            out,
            "\"dirty_metadata\":{},\"cached_metadata\":{},\"metadata_cache_capacity\":{},\
             \"forced_flushes\":{},\"barriers\":{},\"mac_computations\":{},",
            self.dirty_metadata,
            self.cached_metadata,
            self.metadata_cache_capacity,
            self.forced_flushes,
            self.barriers,
            self.mac_computations
        );
        let _ = write!(
            out,
            "\"hierarchy\":{{\"l1_hits\":{},\"l2_hits\":{},\"l3_hits\":{},\"llc_misses\":{},\
             \"writebacks\":{}}},",
            self.hierarchy.l1_hits,
            self.hierarchy.l2_hits,
            self.hierarchy.l3_hits,
            self.hierarchy.llc_misses,
            self.hierarchy.writebacks
        );
        match &self.bitmap {
            None => out.push_str("\"bitmap\":null"),
            Some(b) => {
                let _ = write!(
                    out,
                    "\"bitmap\":{{\"accesses\":{},\"adr_hits\":{},\"adr_misses\":{},\
                     \"ra_writes\":{},\"ra_reads\":{}}}",
                    b.accesses, b.adr_hits, b.adr_misses, b.ra_writes, b.ra_reads
                );
            }
        }
        out.push('}');
        out
    }
}

impl SchemeKind {
    /// Short machine-readable label (`wb`/`strict`/`anubis`/`star`) used
    /// across report schemas and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            SchemeKind::WriteBack => "wb",
            SchemeKind::Strict => "strict",
            SchemeKind::Anubis => "anubis",
            SchemeKind::Star => "star",
        }
    }

    /// Parses a short label back into a scheme.
    pub fn from_label(label: &str) -> Option<SchemeKind> {
        SchemeKind::ALL.into_iter().find(|s| s.label() == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SecureMemConfig, SecureMemory};

    #[test]
    fn scheme_labels_roundtrip() {
        for s in SchemeKind::ALL {
            assert_eq!(SchemeKind::from_label(s.label()), Some(s));
        }
        assert_eq!(SchemeKind::from_label("nope"), None);
    }

    #[test]
    fn run_report_json_is_versioned_and_balanced() {
        let mut m = SecureMemory::new(SchemeKind::Star, SecureMemConfig::small());
        for i in 0..50 {
            m.write_data(i % 7, i);
            m.persist_data(i % 7);
        }
        let j = m.report().to_json();
        assert!(j.starts_with(&format!("{{\"schema_version\":{SCHEMA_VERSION},")));
        assert!(j.contains("\"kind\":\"run-report\""));
        assert!(j.contains("\"scheme\":\"star\""));
        assert!(j.contains("\"writes\":{\"data\":"));
        assert!(j.contains("\"prof\":{\"write_pj\":"));
        assert!(j.contains("\"writes_by_cause\":{\"data\":"));
        assert!(j.contains("\"write_stall_hist\":["));
        assert!(j.contains("\"wpq_depth_hist\":["));
        assert!(j.contains("\"bitmap\":{\"accesses\":"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn prof_cause_totals_match_device_writes_for_every_scheme() {
        for scheme in SchemeKind::ALL {
            let mut m = SecureMemory::new(scheme, SecureMemConfig::small());
            for i in 0..120 {
                m.write_data(i % 13, i);
                m.persist_data(i % 13);
            }
            let r = m.report();
            assert_eq!(
                r.prof.total_writes(),
                r.nvm.total_writes(),
                "{} cause totals must sum to device writes",
                scheme.label()
            );
        }
    }

    #[test]
    fn wb_report_has_null_bitmap() {
        let mut m = SecureMemory::new(SchemeKind::WriteBack, SecureMemConfig::small());
        m.write_data(0, 1);
        m.persist_data(0);
        assert!(m.report().to_json().contains("\"bitmap\":null"));
    }

    #[test]
    fn json_escaping_and_floats() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NAN), "null");
    }
}
