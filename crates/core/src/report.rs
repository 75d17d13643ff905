//! The `run-report` document.
//!
//! [`RunReport::to_json`] writes one run's statistics through the one
//! JSON codec, `star_trace::json`, which owns the byte format and the
//! `schema_version`/`kind` preamble; [`SCHEMA_VERSION`] and its history
//! live there too (re-exported at the crate root). The fields come in
//! a fixed order, so a report is **byte-stable** for identical runs,
//! which the parallel sweep runner's determinism contract (serial and
//! parallel sweeps produce identical bytes) depends on. Its `"nvm"`,
//! `"wear"` and `"prof"` sections are written by the types that own
//! them ([`star_nvm::NvmStats`], [`star_nvm::WearSummary`] and
//! [`star_nvm::ProfSummary`]), so every report embedding them agrees
//! on field names and order.
//!
//! [`SCHEMA_VERSION`]: crate::SCHEMA_VERSION

use crate::config::SchemeKind;
use crate::stats::RunReport;
use star_trace::Json;

impl RunReport {
    /// The report as one versioned JSON document (kind `run-report`).
    pub fn to_json(&self) -> String {
        let mut j = Json::doc("run-report");
        j.str("scheme", self.scheme.label())
            .u64("instructions", self.instructions)
            .f64("cycles", self.cycles)
            .f64("ipc", self.ipc)
            .obj("energy", |j| {
                j.u64("read_pj", self.energy_read_pj)
                    .u64("write_pj", self.energy_write_pj)
                    .u64("total_pj", self.energy_pj());
            })
            .obj("nvm", |j| self.nvm.write_json(j))
            .obj("wear", |j| self.wear.write_json(j))
            .obj("prof", |j| self.prof.write_json(j))
            .u64("dirty_metadata", self.dirty_metadata as u64)
            .u64("cached_metadata", self.cached_metadata as u64)
            .u64(
                "metadata_cache_capacity",
                self.metadata_cache_capacity as u64,
            )
            .u64("forced_flushes", self.forced_flushes)
            .u64("barriers", self.barriers)
            .u64("mac_computations", self.mac_computations)
            .obj("hierarchy", |j| {
                let h = &self.hierarchy;
                j.u64("l1_hits", h.l1_hits)
                    .u64("l2_hits", h.l2_hits)
                    .u64("l3_hits", h.l3_hits)
                    .u64("llc_misses", h.llc_misses)
                    .u64("writebacks", h.writebacks);
            });
        match &self.bitmap {
            None => j.raw("bitmap", "null"),
            Some(b) => j.obj("bitmap", |j| {
                j.u64("accesses", b.accesses)
                    .u64("adr_hits", b.adr_hits)
                    .u64("adr_misses", b.adr_misses)
                    .u64("ra_writes", b.ra_writes)
                    .u64("ra_reads", b.ra_reads);
            }),
        };
        j.finish()
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
        assert!(j.starts_with(&format!("{{\"schema_version\":{},", crate::SCHEMA_VERSION)));
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
}
