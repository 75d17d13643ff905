//! Regenerates the paper's tables and figures.
//!
//! ```text
//! figures <experiment> [--ops N] [--threads T] [--jobs J] [--out FILE]
//!          [--json FILE] [--trace FILE] [--trace-filter CATS]
//!
//! experiments: fig10 fig11 fig12 fig13 breakdown table2 fig14a fig14b
//!              ablate extensions all
//! ```
//!
//! `--jobs J` shards the experiment grids' independent cells across J
//! host worker threads (deterministic: any J reproduces the J=1 tables
//! and JSON byte-for-byte; see `star_sweep`); `--ops 0` and `--jobs 0`
//! exit 2. `--threads T` is the *simulated* workload thread count and
//! is unrelated. `--out FILE` additionally writes the rendered markdown
//! (used to produce `EXPERIMENTS.md`); `--json FILE` writes the scheme
//! sweep as a versioned machine-readable report (`-` for stdout) for
//! the experiments that run one.
//!
//! `--trace FILE` re-runs the scheme × workload sweep with tracing on
//! and writes every cell's timeline into one Chrome trace-event JSON
//! (`.jsonl` for JSONL), one process track per (workload, scheme) cell.
//! Byte-identical for any `--jobs` value. `--trace-filter` narrows the
//! recorded categories (default `all`).

use star_bench::experiments::{self, SchemeSweepRow};
use star_bench::{paper, ExperimentConfig};
use star_core::report::{trace_to_chrome_json, trace_to_jsonl};
use star_core::SchemeKind;
use star_trace::CatMask;
use std::fmt::Write as _;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment = String::from("all");
    let mut ops = 20_000usize;
    let mut threads = 1usize;
    let mut jobs = 1usize;
    let mut out: Option<String> = None;
    let mut json: Option<String> = None;
    let mut trace: Option<String> = None;
    let mut trace_filter = CatMask::ALL;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--ops" => {
                i += 1;
                ops = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--jobs" => {
                i += 1;
                jobs = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--out" => {
                i += 1;
                out = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--json" => {
                i += 1;
                json = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--trace" => {
                i += 1;
                trace = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--trace-filter" => {
                i += 1;
                let arg = args.get(i).cloned().unwrap_or_else(|| usage());
                trace_filter = CatMask::parse(&arg).unwrap_or_else(|err| {
                    // An unknown category must not silently fall back to
                    // the usage banner's default: name the bad token and
                    // the valid set.
                    eprintln!("{err}");
                    usage()
                });
            }
            name if !name.starts_with('-') => experiment = name.to_string(),
            _ => usage(),
        }
        i += 1;
    }
    // A zero-op sweep would normalize every figure by zero writes, and
    // a zero-job one would run on no worker.
    for (flag, value) in [("--ops", ops), ("--jobs", jobs)] {
        if value == 0 {
            eprintln!("bad grid: {flag} must be at least 1");
            std::process::exit(2);
        }
    }

    let cfg = ExperimentConfig::default()
        .with_ops(ops)
        .with_threads(threads)
        .with_jobs(jobs);
    let mut md = String::new();
    let _ = writeln!(md, "# EXPERIMENTS — paper vs. measured\n");
    let _ = writeln!(
        md,
        "Generated by `cargo run --release -p star-bench --bin figures -- {experiment} --ops {ops}`."
    );
    let _ = writeln!(
        md,
        "Absolute numbers come from a trace-driven model, not the authors' Gem5+NVMain \
         testbed; the reproduction targets the *shape* of each result (see DESIGN.md §1).\n"
    );

    let needs_sweep = matches!(
        experiment.as_str(),
        "fig10" | "fig11" | "fig12" | "fig13" | "breakdown" | "all"
    );
    let sweep = needs_sweep.then(|| {
        eprintln!("running scheme × workload sweep ({ops} ops each, {jobs} jobs)...");
        experiments::scheme_sweep(&cfg)
    });

    if let Some(path) = &json {
        let report = sweep
            .as_deref()
            .map(|s| experiments::sweep_to_json(&cfg, s));
        match report {
            None => {
                eprintln!("--json requires an experiment that runs the scheme sweep");
                std::process::exit(2);
            }
            Some(report) if path == "-" => println!("{report}"),
            Some(report) => {
                if let Err(e) = std::fs::write(path, report) {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                }
                eprintln!("wrote JSON sweep report to {path}");
            }
        }
    }

    if let Some(path) = &trace {
        eprintln!("running traced scheme × workload sweep ({ops} ops each, {jobs} jobs)...");
        let traces = experiments::traced_sweep(&cfg, trace_filter);
        let parts: Vec<_> = traces
            .iter()
            .enumerate()
            .map(|(i, t)| t.part(i as u64 + 1))
            .collect();
        let doc = if path.ends_with(".jsonl") {
            trace_to_jsonl(&parts)
        } else {
            trace_to_chrome_json(&parts)
        };
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("cannot write trace {path}: {e}");
            std::process::exit(1);
        }
        let dropped: u64 = traces.iter().map(|t| t.dropped).sum();
        if dropped > 0 {
            eprintln!("trace: WARNING: {dropped} events dropped (ring buffers full)");
        }
        eprintln!("wrote sweep trace ({} tracks) to {path}", traces.len());
    }

    match experiment.as_str() {
        "fig10" => fig10(&mut md, sweep.as_deref().unwrap()),
        "fig11" => fig11(&mut md, sweep.as_deref().unwrap()),
        "fig12" => fig12(&mut md, sweep.as_deref().unwrap()),
        "fig13" => fig13(&mut md, sweep.as_deref().unwrap()),
        "breakdown" => breakdown(&mut md, sweep.as_deref().unwrap()),
        "table2" => table2(&mut md, &cfg),
        "fig14a" => fig14a(&mut md, &cfg),
        "fig14b" => fig14b(&mut md, &cfg),
        "ablate" => ablate(&mut md, &cfg),
        "extensions" => extensions(&mut md, &cfg),
        "all" => {
            let sweep = sweep.as_deref().unwrap();
            fig10(&mut md, sweep);
            fig11(&mut md, sweep);
            fig12(&mut md, sweep);
            fig13(&mut md, sweep);
            breakdown(&mut md, sweep);
            table2(&mut md, &cfg);
            fig14a(&mut md, &cfg);
            fig14b(&mut md, &cfg);
            ablate(&mut md, &cfg);
            extensions(&mut md, &cfg);
            bench_baseline_note(&mut md);
        }
        _ => usage(),
    }

    println!("{md}");
    if let Some(path) = out {
        std::fs::write(&path, md).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote {path}");
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: figures <fig10|fig11|fig12|fig13|breakdown|table2|fig14a|fig14b|ablate|\
         extensions|all> [--ops N] [--threads T] [--jobs J] [--out FILE] [--json FILE] \
         [--trace FILE] [--trace-filter CATS]"
    );
    std::process::exit(2);
}

fn fig10(md: &mut String, sweep: &[SchemeSweepRow]) {
    let _ = writeln!(md, "## Fig. 10 — bitmap-line writes vs WB writes\n");
    let _ = writeln!(
        md,
        "Paper: WB writes ≈ {}× STAR's bitmap-line writes on average; locality-dependent.\n",
        paper::FIG10_WB_OVER_BITMAP
    );
    let _ = writeln!(md, "| workload | WB writes | bitmap writes | WB / bitmap |");
    let _ = writeln!(md, "|---|---|---|---|");
    let rows = experiments::fig10(sweep);
    let (mut wb_sum, mut bm_sum) = (0u64, 0u64);
    for r in &rows {
        wb_sum += r.wb_writes;
        bm_sum += r.bitmap_writes;
        let _ = writeln!(
            md,
            "| {} | {} | {} | {:.0}x |",
            r.workload,
            r.wb_writes,
            r.bitmap_writes,
            r.ratio()
        );
    }
    let avg = if bm_sum == 0 {
        f64::INFINITY
    } else {
        wb_sum as f64 / bm_sum as f64
    };
    let _ = writeln!(
        md,
        "| **average** | {wb_sum} | {bm_sum} | **{avg:.0}x** |\n"
    );
}

fn scheme_table(
    md: &mut String,
    sweep: &[SchemeSweepRow],
    metric: impl Fn(&SchemeSweepRow, SchemeKind) -> f64,
) {
    let _ = writeln!(md, "| workload | WB | Strict | Anubis | STAR |");
    let _ = writeln!(md, "|---|---|---|---|---|");
    let schemes = SchemeKind::ALL;
    let mut sums = [0.0f64; 4];
    for row in sweep {
        let vals: Vec<f64> = schemes.iter().map(|&s| metric(row, s)).collect();
        for (a, v) in sums.iter_mut().zip(&vals) {
            *a += v;
        }
        let _ = writeln!(
            md,
            "| {} | {:.3} | {:.3} | {:.3} | {:.3} |",
            row.workload, vals[0], vals[1], vals[2], vals[3]
        );
    }
    let n = sweep.len() as f64;
    let _ = writeln!(
        md,
        "| **average** | {:.3} | {:.3} | {:.3} | {:.3} |\n",
        sums[0] / n,
        sums[1] / n,
        sums[2] / n,
        sums[3] / n
    );
}

fn fig11(md: &mut String, sweep: &[SchemeSweepRow]) {
    let _ = writeln!(md, "## Fig. 11 — write traffic, normalized to WB\n");
    let _ = writeln!(
        md,
        "Paper: STAR ≈ {}×, Anubis ≈ {}×, Strict < {}×; STAR removes {:.0}% of Anubis's extra traffic.\n",
        paper::FIG11_STAR_VS_WB,
        paper::FIG11_ANUBIS_VS_WB,
        paper::FIG11_STRICT_BOUND,
        paper::EXTRA_TRAFFIC_REDUCTION * 100.0
    );
    scheme_table(md, sweep, |row, s| row.writes_vs_wb(s));
    let _ = writeln!(
        md,
        "Measured extra-traffic reduction vs Anubis: **{:.1}%**\n",
        experiments::extra_traffic_reduction(sweep) * 100.0
    );
}

fn fig12(md: &mut String, sweep: &[SchemeSweepRow]) {
    let _ = writeln!(md, "## Fig. 12 — IPC, normalized to WB\n");
    let _ = writeln!(
        md,
        "Paper: STAR ≈ {:.2} of WB IPC on average, Anubis ≈ {:.2}.\n",
        paper::FIG12_STAR_IPC,
        paper::FIG12_ANUBIS_IPC
    );
    scheme_table(md, sweep, |row, s| row.ipc_vs_wb(s));
}

fn fig13(md: &mut String, sweep: &[SchemeSweepRow]) {
    let _ = writeln!(md, "## Fig. 13 — energy, normalized to WB\n");
    let _ = writeln!(
        md,
        "Paper: STAR ≈ +{:.0}% energy over WB, Anubis ≈ +{:.0}%.\n",
        paper::FIG13_STAR_OVERHEAD * 100.0,
        paper::FIG13_ANUBIS_OVERHEAD * 100.0
    );
    scheme_table(md, sweep, |row, s| row.energy_vs_wb(s));
}

fn breakdown(md: &mut String, sweep: &[SchemeSweepRow]) {
    let _ = writeln!(md, "## Write provenance — Fig. 11 re-cut by origin\n");
    let _ = writeln!(
        md,
        "Every NVM write is tagged at its origin with a `WriteCause` (see DESIGN.md §9), \
         so the traffic figure decomposes exactly: Anubis's 2× shows up as `shadow-table`, \
         Strict's amplification as `counter-block` chains, STAR's small overhead as \
         `ra-spill`. Per cell, the cause counts sum to the device's total write counter.\n"
    );
    let _ = writeln!(
        md,
        "Reproduce this table alone with `cargo run --release -p star-bench --bin figures -- \
         breakdown --ops 20000`; per-run profiles (including per-bank heat, line-wear and \
         write-rate histograms) export via `star-sim --prof-csv FILE`.\n"
    );
    let _ = writeln!(md, "| workload | scheme | total writes | by cause |");
    let _ = writeln!(md, "|---|---|---|---|");
    for row in experiments::write_breakdown(sweep) {
        let causes = row
            .causes
            .iter()
            .map(|(label, n)| format!("{label} {n}"))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            md,
            "| {} | {} | {} | {causes} |",
            row.workload, row.scheme, row.total
        );
    }
    let _ = writeln!(md);
}

/// The static tail section documenting the regression-baseline workflow
/// (emitted with `all` so it lands in the generated EXPERIMENTS.md).
fn bench_baseline_note(md: &mut String) {
    let _ = writeln!(md, "## Benchmark-regression baseline\n");
    let _ = writeln!(
        md,
        "`star-bench baseline` runs the canonical reduced grid \u{2014} (array, ycsb) \u{d7} \
         (wb, strict, anubis, star) plus a synthetic Triad cell, 2000 ops each, seed 42 \
         \u{2014} and records per cell the four numbers the paper's case rests on: write \
         traffic (Fig. 11), IPC (Fig. 12), energy (Fig. 13) and recovery time (Fig. 14b). \
         They repeat byte for byte, so the schema-v7 golden \
         `tests/golden/bench_baseline_v7.json` pins them exactly, checked by \
         `tests/report_schema.rs` on every root `cargo test`. CI also runs the CLI and \
         compares its output with the golden; the bytes are identical for any `--jobs` \
         value:\n\n\
         ```text\n\
         cargo run --release -p star-bench --bin star-bench -- baseline --out BENCH_PR.json\n\
         cmp BENCH_PR.json tests/golden/bench_baseline_v7.json\n\
         ```\n\n\
         When a change moves the numbers *intentionally*, regenerate the golden in the same \
         change so the diff documents the shift:\n\n\
         ```text\n\
         REGEN_GOLDEN=1 cargo test --test report_schema\n\
         ```\n\n\
         The one host-side bound, at most 1 span-attributed allocation per simulated op, is \
         `MAX_ALLOCS_PER_OP` in `crates/bench/tests/alloc_gate.rs`. The baseline gates no \
         host wall-clock time; the `perfbench` package measures that.\n"
    );
}

fn table2(md: &mut String, cfg: &ExperimentConfig) {
    let _ = writeln!(md, "## Table II — ADR bitmap-line hit ratio\n");
    let _ = writeln!(md, "| ADR lines | paper | measured |");
    let _ = writeln!(md, "|---|---|---|");
    eprintln!("running Table II ADR sweep...");
    let measured = experiments::table2(cfg, &[2, 4, 8, 16, 32]);
    for ((lines, got), (plines, want)) in measured.iter().zip(paper::TABLE2_HIT_RATIOS) {
        assert_eq!(*lines, plines);
        let _ = writeln!(md, "| {lines} | {want:.2}% | {:.2}% |", got * 100.0);
    }
    let _ = writeln!(md);
}

fn fig14a(md: &mut String, cfg: &ExperimentConfig) {
    let _ = writeln!(md, "## Fig. 14a — dirty metadata fraction at crash\n");
    let _ = writeln!(
        md,
        "Paper: ≈ {:.0}% of the metadata cache is dirty.\n",
        paper::FIG14A_DIRTY_FRACTION * 100.0
    );
    let _ = writeln!(md, "| workload | dirty fraction |");
    let _ = writeln!(md, "|---|---|");
    eprintln!("running Fig. 14a crash points...");
    let rows = experiments::fig14a(cfg);
    let avg: f64 = rows.iter().map(|(_, f)| f).sum::<f64>() / rows.len() as f64;
    for (w, f) in &rows {
        let _ = writeln!(md, "| {w} | {:.1}% |", f * 100.0);
    }
    let _ = writeln!(md, "| **average** | **{:.1}%** |\n", avg * 100.0);
}

fn fig14b(md: &mut String, cfg: &ExperimentConfig) {
    let _ = writeln!(md, "## Fig. 14b — recovery time vs metadata cache size\n");
    let _ = writeln!(
        md,
        "Paper at 4 MB: STAR ≈ {:.2} s, Anubis ≈ {:.2} s (both ≪ the 10–100 s self-test).\n",
        paper::FIG14B_STAR_4MB_S,
        paper::FIG14B_ANUBIS_4MB_S
    );
    let _ = writeln!(md, "| cache | STAR stale nodes | STAR (s) | Anubis (s) |");
    let _ = writeln!(md, "|---|---|---|---|");
    eprintln!("running Fig. 14b cache-size sweep (this is the long one)...");
    let sizes = [512 << 10, 1 << 20, 2 << 20, 4 << 20];
    for row in experiments::fig14b(cfg, &sizes) {
        let _ = writeln!(
            md,
            "| {} KB | {} | {:.4} | {:.4} |",
            row.cache_bytes / 1024,
            row.star_stale,
            row.star_s,
            row.anubis_s
        );
    }
    let _ = writeln!(md);
}

fn ablate(md: &mut String, cfg: &ExperimentConfig) {
    let _ = writeln!(md, "## Ablations\n");
    eprintln!("running ablations...");
    let _ = writeln!(md, "### Synergized LSB width (forced-flush cost)\n");
    let _ = writeln!(md, "| LSB bits | forced flushes | total writes |");
    let _ = writeln!(md, "|---|---|---|");
    for (bits, flushes, writes) in experiments::ablate_lsb_bits(cfg, &[4, 6, 8, 10]) {
        let _ = writeln!(md, "| {bits} | {flushes} | {writes} |");
    }
    let [(lazy, eager)] = experiments::ablate_eager_lazy(cfg);
    let _ = writeln!(
        md,
        "\n### Eager vs lazy SIT updates (paper §II-C)\n\nMAC computations per data \
         write: lazy **{lazy:.2}**, eager **{eager:.2}** — the {:.1}x saving that \
         justifies the lazy scheme STAR builds on.\n",
        eager / lazy
    );
    let (with, without) = experiments::ablate_multilayer_index(cfg);
    let _ = writeln!(
        md,
        "\n### Multi-layer index\n\nRecovery line reads with index: **{with}**; \
         scanning the whole RA instead: **{without}** ({:.1}x more).\n",
        without as f64 / with as f64
    );
}

/// Extension experiments beyond the paper's figures: the Triad-NVM/BMT
/// baseline the paper argues against (§II-E), reproduced rather than
/// asserted.
fn extensions(md: &mut String, cfg: &ExperimentConfig) {
    use star_core::triad::{TriadConfig, TriadMemory};
    eprintln!("running extension experiments (Triad-NVM baseline)...");
    let _ = writeln!(md, "## Extensions — Triad-NVM (BMT) baseline\n");
    let _ = writeln!(
        md,
        "Paper §II-E: Triad-NVM persists the N lowest tree levels with every write \
         (2–4× writes) and rebuilds the whole tree from leaves on recovery — possible \
         on a BMT, impossible on the SIT.\n"
    );
    let _ = writeln!(
        md,
        "| persist levels | writes per data write | recovery reads | verified |"
    );
    let _ = writeln!(md, "|---|---|---|---|");
    let ops = cfg.ops.min(20_000) as u64;
    for levels in 1..=3usize {
        let mut m = TriadMemory::new(TriadConfig {
            data_lines: 1 << 16,
            persist_levels: levels,
            ..TriadConfig::default()
        });
        for i in 0..ops {
            m.write_data((i * 509) % (1 << 16), i + 1);
        }
        let amplification = m.nvm_stats().total_writes() as f64 / ops as f64;
        let (reads, _, verified) = m.crash_and_recover();
        let _ = writeln!(
            md,
            "| {levels} | {amplification:.2}x | {reads} | {verified} |"
        );
    }
    let _ = writeln!(
        md,
        "\nTriad's recovery reads every counter block regardless of the dirty set \
         (scaling with memory size), while STAR reads ~10 lines per *stale* node — the \
         Fig. 14 scaling argument. The SIT-side impossibility argument is executable \
         in `star_core::osiris` (stale tuples self-verify, so candidate search cannot \
         authenticate; see its tests).\n"
    );

    let _ = writeln!(md, "### Wear concentration of the extra-traffic region\n");
    let _ = writeln!(
        md,
        "Writes to the most-worn line of each scheme's extra metadata region (ycsb): \
         Anubis's shadow table mirrors the cache and hammers the same slots; STAR's \
         recovery-area lines wear orders of magnitude less.\n"
    );
    let _ = writeln!(
        md,
        "| scheme | max writes to one extra line | max/mean concentration |"
    );
    let _ = writeln!(md, "|---|---|---|");
    for (scheme, max, conc) in experiments::wear_concentration(cfg) {
        let _ = writeln!(md, "| {scheme} | {max} | {conc:.1}x |");
    }
    let _ = writeln!(md);
}
