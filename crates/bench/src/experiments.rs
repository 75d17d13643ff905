//! The per-figure experiments (see DESIGN.md's experiment index).
//!
//! The grid-shaped experiments (the scheme × workload sweep behind
//! Figs. 10–13, Table II, Fig. 14a/b) run their independent cells on the
//! deterministic parallel sweep runner (`star_sweep`), sharded across
//! [`ExperimentConfig::jobs`] worker threads. Every cell is keyed by its
//! serial enumeration rank and results merge in key order, so any job
//! count reproduces the serial output — including the JSON bytes of
//! [`sweep_to_json`] — exactly.

use crate::harness::{run_and_crash, run_scheme, run_scheme_traced, ExperimentConfig, RunTrace};
use star_core::report::schema_preamble;
use star_core::star::bitmap::BitmapLayout;
use star_core::{RunReport, SchemeKind};
use star_metadata::SitGeometry;
use star_nvm::AccessClass;
use star_sweep::{run_merged, SweepKey};
use star_trace::CatMask;
use star_workloads::WorkloadKind;
use std::fmt::Write as _;

/// One workload's reports under all four schemes.
#[derive(Debug)]
pub struct SchemeSweepRow {
    /// The workload.
    pub workload: WorkloadKind,
    /// Reports in [`SchemeKind::ALL`] order (WB, Strict, Anubis, STAR).
    pub reports: Vec<(SchemeKind, RunReport)>,
}

impl SchemeSweepRow {
    /// The report for `scheme`.
    pub fn report(&self, scheme: SchemeKind) -> &RunReport {
        &self
            .reports
            .iter()
            .find(|(s, _)| *s == scheme)
            .expect("all schemes ran")
            .1
    }

    /// Total write traffic of `scheme` normalized to WB.
    pub fn writes_vs_wb(&self, scheme: SchemeKind) -> f64 {
        self.report(scheme).total_writes() as f64
            / self.report(SchemeKind::WriteBack).total_writes() as f64
    }

    /// IPC of `scheme` normalized to WB.
    pub fn ipc_vs_wb(&self, scheme: SchemeKind) -> f64 {
        self.report(scheme).ipc / self.report(SchemeKind::WriteBack).ipc
    }

    /// Energy of `scheme` normalized to WB.
    pub fn energy_vs_wb(&self, scheme: SchemeKind) -> f64 {
        self.report(scheme).energy_pj() as f64
            / self.report(SchemeKind::WriteBack).energy_pj() as f64
    }
}

/// Runs every workload under every scheme (the shared sweep behind
/// Figs. 10–13) — one sweep job per (workload, scheme) cell, sharded
/// across `cfg.jobs` workers and merged back in row-major cell order.
pub fn scheme_sweep(cfg: &ExperimentConfig) -> Vec<SchemeSweepRow> {
    let seed = cfg.seed;
    let jobs: Vec<(SweepKey, (WorkloadKind, SchemeKind))> = WorkloadKind::ALL
        .into_iter()
        .enumerate()
        .flat_map(|(wi, workload)| {
            SchemeKind::ALL
                .into_iter()
                .enumerate()
                .map(move |(si, scheme)| {
                    (
                        SweepKey {
                            rank: (wi * SchemeKind::ALL.len() + si) as u64,
                            workload: workload.label(),
                            scheme: scheme.label(),
                            seed,
                            case: 0,
                        },
                        (workload, scheme),
                    )
                })
        })
        .collect();
    let cells = run_merged(cfg.jobs, jobs, |_, &(workload, scheme)| {
        run_scheme(scheme, workload, cfg)
    });
    WorkloadKind::ALL
        .into_iter()
        .zip(cells.chunks_exact(SchemeKind::ALL.len()))
        .map(|(workload, reports)| SchemeSweepRow {
            workload,
            reports: SchemeKind::ALL
                .into_iter()
                .zip(reports.iter().cloned())
                .collect(),
        })
        .collect()
}

/// The scheme sweep with tracing on: runs the same (workload × scheme)
/// grid as [`scheme_sweep`] with every cell's recorders enabled for
/// `mask` and returns the per-cell timelines in row-major cell order.
/// Cells are sharded across `cfg.jobs` workers and merged back in key
/// order, and events carry only simulated time, so the returned traces
/// (and any export of them) are byte-identical for any `cfg.jobs`.
pub fn traced_sweep(cfg: &ExperimentConfig, mask: CatMask) -> Vec<RunTrace> {
    let seed = cfg.seed;
    let jobs: Vec<(SweepKey, (WorkloadKind, SchemeKind))> = WorkloadKind::ALL
        .into_iter()
        .enumerate()
        .flat_map(|(wi, workload)| {
            SchemeKind::ALL
                .into_iter()
                .enumerate()
                .map(move |(si, scheme)| {
                    (
                        SweepKey {
                            rank: (wi * SchemeKind::ALL.len() + si) as u64,
                            workload: workload.label(),
                            scheme: scheme.label(),
                            seed,
                            case: 0,
                        },
                        (workload, scheme),
                    )
                })
        })
        .collect();
    run_merged(cfg.jobs, jobs, |_, &(workload, scheme)| {
        run_scheme_traced(scheme, workload, cfg, mask).1
    })
}

/// A scheme sweep as one versioned JSON object (shared schema:
/// `star_core::report`): the grid configuration and, per workload row,
/// the full [`RunReport`] of every scheme. Byte-identical for any
/// `cfg.jobs` value.
pub fn sweep_to_json(cfg: &ExperimentConfig, sweep: &[SchemeSweepRow]) -> String {
    let mut out = String::from("{");
    out.push_str(&schema_preamble("scheme-sweep"));
    let _ = write!(
        out,
        "\"ops\":{},\"seed\":{},\"threads\":{},\"rows\":[",
        cfg.ops, cfg.seed, cfg.threads
    );
    for (i, row) in sweep.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"workload\":\"{}\",\"reports\":{{", row.workload);
        for (j, (scheme, report)) in row.reports.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", scheme.label(), report.to_json());
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// One (workload, scheme) cell of the Fig. 11/12-style provenance
/// breakdown: every nonzero [`star_nvm::WriteCause`] with its write
/// count, plus the device total they sum to.
#[derive(Debug)]
pub struct BreakdownRow {
    /// The workload.
    pub workload: WorkloadKind,
    /// The scheme.
    pub scheme: SchemeKind,
    /// `(cause label, writes)` pairs in stable cause order, nonzero only.
    pub causes: Vec<(&'static str, u64)>,
    /// Total device writes (always the sum of `causes`).
    pub total: u64,
}

/// Derives the write-provenance breakdown from a sweep: where every NVM
/// write of every cell came from, by [`star_nvm::WriteCause`]. This is
/// the paper's write-traffic figure re-cut by *origin* instead of
/// address class — e.g. Anubis's extra traffic shows up as
/// `shadow-table`, STAR's as `bitmap-line`/`ra-spill`.
pub fn write_breakdown(sweep: &[SchemeSweepRow]) -> Vec<BreakdownRow> {
    sweep
        .iter()
        .flat_map(|row| {
            row.reports
                .iter()
                .map(move |(scheme, report)| BreakdownRow {
                    workload: row.workload,
                    scheme: *scheme,
                    causes: report.prof.by_cause().filter(|&(_, n)| n > 0).collect(),
                    total: report.prof.total_writes(),
                })
        })
        .collect()
}

/// Fig. 10: WB write count vs STAR bitmap-line write count.
#[derive(Debug)]
pub struct Fig10Row {
    /// The workload.
    pub workload: WorkloadKind,
    /// Total WB-scheme writes.
    pub wb_writes: u64,
    /// STAR bitmap-line writes (RA spills).
    pub bitmap_writes: u64,
}

impl Fig10Row {
    /// WB writes per bitmap write (the paper reports 461× on average).
    pub fn ratio(&self) -> f64 {
        if self.bitmap_writes == 0 {
            f64::INFINITY
        } else {
            self.wb_writes as f64 / self.bitmap_writes as f64
        }
    }
}

/// Derives Fig. 10 from a sweep.
pub fn fig10(sweep: &[SchemeSweepRow]) -> Vec<Fig10Row> {
    sweep
        .iter()
        .map(|row| Fig10Row {
            workload: row.workload,
            wb_writes: row.report(SchemeKind::WriteBack).total_writes(),
            bitmap_writes: row
                .report(SchemeKind::Star)
                .nvm
                .writes(AccessClass::BitmapLine),
        })
        .collect()
}

/// §IV-B: fraction of Anubis's extra write traffic STAR eliminates.
pub fn extra_traffic_reduction(sweep: &[SchemeSweepRow]) -> f64 {
    let mut anubis_extra = 0u64;
    let mut star_extra = 0u64;
    for row in sweep {
        anubis_extra += row.report(SchemeKind::Anubis).extra_writes();
        star_extra += row.report(SchemeKind::Star).extra_writes();
    }
    1.0 - star_extra as f64 / anubis_extra as f64
}

/// Table II: ADR hit ratio vs number of resident bitmap lines — one
/// sweep job per (ADR budget, workload) cell, averaged per budget after
/// the ordered merge.
pub fn table2(cfg: &ExperimentConfig, adr_lines: &[usize]) -> Vec<(usize, f64)> {
    let seed = cfg.seed;
    let jobs: Vec<(SweepKey, (usize, WorkloadKind))> = adr_lines
        .iter()
        .enumerate()
        .flat_map(|(ai, &lines)| {
            WorkloadKind::ALL
                .into_iter()
                .enumerate()
                .map(move |(wi, workload)| {
                    (
                        SweepKey {
                            rank: (ai * WorkloadKind::ALL.len() + wi) as u64,
                            workload: workload.label(),
                            scheme: SchemeKind::Star.label(),
                            seed,
                            case: lines as u64,
                        },
                        (lines, workload),
                    )
                })
        })
        .collect();
    let reports = run_merged(cfg.jobs, jobs, |_, &(lines, workload)| {
        let mut cfg = cfg.clone();
        cfg.mem.adr_bitmap_lines = lines;
        run_scheme(SchemeKind::Star, workload, &cfg)
    });
    adr_lines
        .iter()
        .zip(reports.chunks_exact(WorkloadKind::ALL.len()))
        .map(|(&lines, row)| {
            let ratios: Vec<f64> = row
                .iter()
                .filter_map(|report| {
                    let bitmap = report.bitmap.as_ref().expect("STAR reports bitmap stats");
                    (bitmap.accesses > 0).then(|| bitmap.hit_ratio())
                })
                .collect();
            (lines, ratios.iter().sum::<f64>() / ratios.len() as f64)
        })
        .collect()
}

/// Fig. 14a: dirty fraction of the metadata cache at crash time, one
/// sweep job per workload.
pub fn fig14a(cfg: &ExperimentConfig) -> Vec<(WorkloadKind, f64)> {
    let jobs: Vec<(SweepKey, WorkloadKind)> = WorkloadKind::ALL
        .into_iter()
        .enumerate()
        .map(|(wi, workload)| {
            (
                SweepKey {
                    rank: wi as u64,
                    workload: workload.label(),
                    scheme: SchemeKind::Star.label(),
                    seed: cfg.seed,
                    case: 0,
                },
                workload,
            )
        })
        .collect();
    run_merged(cfg.jobs, jobs, |_, &workload| {
        let out = run_and_crash(SchemeKind::Star, workload, cfg);
        (workload, out.dirty_fraction)
    })
}

/// One point of Fig. 14b: recovery time vs metadata cache size.
#[derive(Debug)]
pub struct Fig14bRow {
    /// Metadata cache capacity in bytes.
    pub cache_bytes: usize,
    /// STAR stale nodes restored.
    pub star_stale: usize,
    /// STAR recovery time (s).
    pub star_s: f64,
    /// Anubis recovery time (s).
    pub anubis_s: f64,
}

/// Fig. 14b: sweep the metadata cache size — one sweep job per cache
/// size. A large (48 MB) array keeps every cache size mostly dirty at
/// the crash point, matching the paper's linear scaling.
pub fn fig14b(cfg: &ExperimentConfig, cache_bytes: &[usize]) -> Vec<Fig14bRow> {
    use star_core::SecureMemory;
    use star_workloads::micro::ArrayWorkload;
    use star_workloads::Workload;
    let jobs: Vec<(SweepKey, usize)> = cache_bytes
        .iter()
        .enumerate()
        .map(|(ci, &bytes)| {
            (
                SweepKey {
                    rank: ci as u64,
                    workload: "array-48mb",
                    scheme: SchemeKind::Star.label(),
                    seed: cfg.seed,
                    case: bytes as u64,
                },
                bytes,
            )
        })
        .collect();
    run_merged(cfg.jobs, jobs, |_, &bytes| {
        let mut cfg = cfg.clone();
        cfg.mem.metadata_cache_bytes = bytes;
        // Enough operations to fill the cache with dirty metadata.
        cfg.ops = cfg.ops.max(3 * bytes / 64);
        let crash = |scheme| {
            let mut mem = SecureMemory::new(scheme, cfg.mem.clone());
            let mut wl = ArrayWorkload::with_bytes(cfg.seed, 48 << 20);
            wl.run(cfg.ops, &mut mem);
            let dirty = mem.dirty_metadata_count();
            let mut image = mem.crash();
            (
                dirty,
                star_core::recover(&mut image).expect("clean recovery"),
            )
        };
        let (star_dirty, star) = crash(SchemeKind::Star);
        let (_, anubis) = crash(SchemeKind::Anubis);
        Fig14bRow {
            cache_bytes: bytes,
            star_stale: star_dirty,
            star_s: star.recovery_time_s(),
            anubis_s: anubis.recovery_time_s(),
        }
    })
}

/// Ablation: sensitivity to the number of synergized LSB bits (smaller
/// windows force more early flushes — the cost of shrinking the spare
/// MAC bits).
pub fn ablate_lsb_bits(cfg: &ExperimentConfig, bits: &[u32]) -> Vec<(u32, u64, u64)> {
    use star_core::SecureMemory;
    bits.iter()
        .map(|&b| {
            let mut mem_cfg = cfg.mem.clone();
            mem_cfg.counter_lsb_bits = b;
            // A hot-spot loop: few lines hammered many times is the
            // worst case for a narrow LSB window (counters wrap fast).
            let mut mem = SecureMemory::new(SchemeKind::Star, mem_cfg);
            for i in 0..cfg.ops as u64 {
                let line = i % 64;
                mem.write_data(line, i + 1);
                mem.persist_data(line);
            }
            let report = mem.report();
            (b, report.forced_flushes, report.total_writes())
        })
        .collect()
}

/// Extension: wear concentration of each scheme's *extra* metadata
/// region (Anubis's shadow table vs STAR's recovery area). The shadow
/// table mirrors the cache, so its lines are rewritten on every memory
/// write — the endurance hazard the paper's §I motivates.
pub fn wear_concentration(cfg: &ExperimentConfig) -> Vec<(SchemeKind, u64, f64)> {
    use star_core::SecureMemory;
    [SchemeKind::Anubis, SchemeKind::Star]
        .into_iter()
        .map(|scheme| {
            let mut mem = SecureMemory::new(scheme, cfg.mem.clone());
            let mut wl = cfg.instantiate(WorkloadKind::Ycsb);
            wl.run(cfg.ops, &mut mem);
            let (extra_start, _, _) = mem.region_bounds();
            let summary = mem.wear().summary_of(|a| a.index() >= extra_start);
            (scheme, summary.max_writes, summary.concentration)
        })
        .collect()
}

/// Ablation: eager vs lazy SIT updates (paper §II-C) — MAC computations
/// per data write under the WB scheme.
pub fn ablate_eager_lazy(cfg: &ExperimentConfig) -> [(f64, f64); 1] {
    let run = |eager: bool| {
        let mut cfg = cfg.clone();
        cfg.mem.eager_updates = eager;
        let report = run_scheme(SchemeKind::WriteBack, WorkloadKind::Array, &cfg);
        let data_writes = report.nvm.writes(AccessClass::Data).max(1);
        report.mac_computations as f64 / data_writes as f64
    };
    [(run(false), run(true))]
}

/// Ablation: recovery reads with the multi-layer index vs scanning the
/// whole RA (paper §III-D's motivation).
pub fn ablate_multilayer_index(cfg: &ExperimentConfig) -> (u64, u64) {
    let out = run_and_crash(SchemeKind::Star, WorkloadKind::Array, cfg);
    let rec = out.recovery.expect("clean recovery");
    let geometry = SitGeometry::new(cfg.mem.data_lines);
    let layout = BitmapLayout::new(geometry.total_meta_lines(), geometry.meta_end());
    // Without the index, recovery reads the entire RA up front instead of
    // only the non-zero lines; per-node restoration reads are unchanged.
    let without_index = rec.nvm_reads + layout.ra_lines();
    (rec.nvm_reads, without_index)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentConfig {
        ExperimentConfig {
            ops: 400,
            ..Default::default()
        }
    }

    #[test]
    fn sweep_produces_all_cells() {
        let cfg = ExperimentConfig {
            ops: 150,
            ..Default::default()
        };
        let sweep = scheme_sweep(&cfg);
        assert_eq!(sweep.len(), 7);
        for row in &sweep {
            assert_eq!(row.reports.len(), 4);
            assert!(row.writes_vs_wb(SchemeKind::Star) >= 0.9);
        }
    }

    #[test]
    fn anubis_doubles_and_star_stays_near_wb() {
        let cfg = quick();
        let sweep: Vec<SchemeSweepRow> = vec![
            scheme_sweep_row(WorkloadKind::Queue, &cfg),
            scheme_sweep_row(WorkloadKind::Ycsb, &cfg),
        ];
        for row in &sweep {
            let anubis = row.writes_vs_wb(SchemeKind::Anubis);
            let star = row.writes_vs_wb(SchemeKind::Star);
            assert!(
                (1.8..=2.2).contains(&anubis),
                "{}: anubis {anubis}",
                row.workload
            );
            assert!(star < 1.3, "{}: star {star}", row.workload);
            assert!(star < anubis);
        }
    }

    fn scheme_sweep_row(workload: WorkloadKind, cfg: &ExperimentConfig) -> SchemeSweepRow {
        SchemeSweepRow {
            workload,
            reports: SchemeKind::ALL
                .into_iter()
                .map(|scheme| (scheme, run_scheme(scheme, workload, cfg)))
                .collect(),
        }
    }

    #[test]
    fn breakdown_covers_every_cell_and_balances() {
        let cfg = ExperimentConfig {
            ops: 150,
            ..Default::default()
        };
        let sweep = scheme_sweep(&cfg);
        let rows = write_breakdown(&sweep);
        assert_eq!(rows.len(), 7 * 4);
        for row in &rows {
            let sum: u64 = row.causes.iter().map(|&(_, n)| n).sum();
            assert_eq!(sum, row.total, "{}/{}", row.workload, row.scheme);
            assert_eq!(
                row.total,
                sweep
                    .iter()
                    .find(|r| r.workload == row.workload)
                    .unwrap()
                    .report(row.scheme)
                    .total_writes(),
                "cause totals match the device counter"
            );
        }
        // The schemes' signature causes show up where they should.
        let cell = |scheme| {
            rows.iter()
                .find(|r| r.workload == WorkloadKind::Ycsb && r.scheme == scheme)
                .unwrap()
        };
        assert!(cell(SchemeKind::Anubis)
            .causes
            .iter()
            .any(|&(l, _)| l == "shadow-table"));
        for row in [cell(SchemeKind::Star), cell(SchemeKind::WriteBack)] {
            let allowed: &[&str] = if row.scheme == SchemeKind::Star {
                &["data", "counter-block", "ra-spill"]
            } else {
                &["data", "counter-block"]
            };
            for &(label, _) in &row.causes {
                assert!(allowed.contains(&label), "{}: {label}", row.scheme);
            }
        }
    }

    #[test]
    fn multilayer_index_reduces_reads() {
        let (with, without) = ablate_multilayer_index(&quick());
        assert!(with < without);
    }

    /// Determinism contract of the parallel grid: the scheme sweep — and
    /// its JSON — is a pure function of the config, whatever `jobs` is.
    #[test]
    fn parallel_sweep_grid_is_byte_identical_across_job_counts() {
        let serial_cfg = ExperimentConfig {
            ops: 120,
            ..Default::default()
        };
        let serial = scheme_sweep(&serial_cfg);
        let serial_json = sweep_to_json(&serial_cfg, &serial);
        for jobs in [2, 4] {
            let cfg = ExperimentConfig {
                ops: 120,
                ..Default::default()
            }
            .with_jobs(jobs);
            let parallel = scheme_sweep(&cfg);
            assert_eq!(
                sweep_to_json(&cfg, &parallel),
                serial_json,
                "{jobs} jobs: byte-identical JSON"
            );
        }
    }
}
