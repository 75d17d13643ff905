//! `star-sim` — run one secure-NVM simulation from the command line.
//!
//! ```text
//! star-sim [--scheme wb|strict|anubis|star] [--workload NAME] [--ops N]
//!          [--threads T] [--cache-kb K] [--adr-lines L] [--lsb-bits B]
//!          [--seed S] [--crash] [--attack tamper|replay|bitmap]
//!          [--trace PATH] [--trace-filter CATS] [--prof-csv PATH]
//! ```
//!
//! Prints the run report — including the always-on write-provenance
//! breakdown (who wrote every NVM line, by `WriteCause`) — and with
//! `--crash`, also crashes and recovers (optionally under an attack,
//! which must be detected). Recovery's untimed restore writes are merged
//! into the provenance totals as `recovery-restore`. `--ops 0` exits 2.
//!
//! `--prof-csv PATH` writes the full profile (cause/energy matrices,
//! per-bank heat, line-wear histogram, windowed write-rate series,
//! stall/WPQ-depth histograms) as CSV for plotting.
//!
//! `--trace PATH` writes the run's star-trace timeline to `PATH` —
//! Chrome trace-event JSON (load in Perfetto) by default, JSONL when
//! the path ends in `.jsonl`. `--trace-filter` narrows the recorded
//! categories (comma list, e.g. `persist,nvm`; default `all`). With
//! `--crash`, the recovery phases continue on the same timeline.

use star_core::recovery::{recover_traced, Attack};
use star_core::report::{trace_to_chrome_json, trace_to_jsonl};
use star_core::{SchemeKind, SecureMemConfig, SecureMemory};
use star_trace::{merge, CatMask, TraceEvent, TracePart, TraceRecorder};
use star_workloads::{MultiThreaded, Workload, WorkloadKind};

#[derive(Debug)]
struct Options {
    scheme: SchemeKind,
    workload: WorkloadKind,
    ops: usize,
    threads: usize,
    cache_kb: usize,
    adr_lines: usize,
    lsb_bits: u32,
    seed: u64,
    crash: bool,
    attack: Option<String>,
    trace: Option<String>,
    trace_filter: CatMask,
    prof_csv: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            scheme: SchemeKind::Star,
            workload: WorkloadKind::Array,
            ops: 10_000,
            threads: 1,
            cache_kb: 512,
            adr_lines: 16,
            lsb_bits: 10,
            seed: 42,
            crash: false,
            attack: None,
            trace: None,
            trace_filter: CatMask::ALL,
            prof_csv: None,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: star-sim [--scheme wb|strict|anubis|star] [--workload NAME] [--ops N] \
         [--threads T] [--cache-kb K] [--adr-lines L] [--lsb-bits B] [--seed S] \
         [--crash] [--attack tamper|replay|bitmap] [--trace PATH] [--trace-filter CATS] \
         [--prof-csv PATH]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |args: &[String], i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--scheme" => {
                opts.scheme = match value(&args, &mut i).as_str() {
                    "wb" => SchemeKind::WriteBack,
                    "strict" => SchemeKind::Strict,
                    "anubis" => SchemeKind::Anubis,
                    "star" => SchemeKind::Star,
                    _ => usage(),
                }
            }
            "--workload" => {
                opts.workload =
                    WorkloadKind::from_label(&value(&args, &mut i)).unwrap_or_else(|| usage())
            }
            "--ops" => opts.ops = value(&args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--threads" => opts.threads = value(&args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--cache-kb" => {
                opts.cache_kb = value(&args, &mut i).parse().unwrap_or_else(|_| usage())
            }
            "--adr-lines" => {
                opts.adr_lines = value(&args, &mut i).parse().unwrap_or_else(|_| usage())
            }
            "--lsb-bits" => {
                opts.lsb_bits = value(&args, &mut i).parse().unwrap_or_else(|_| usage())
            }
            "--seed" => opts.seed = value(&args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--crash" => opts.crash = true,
            "--attack" => {
                opts.attack = Some(value(&args, &mut i));
                opts.crash = true;
            }
            "--trace" => opts.trace = Some(value(&args, &mut i)),
            "--prof-csv" => opts.prof_csv = Some(value(&args, &mut i)),
            "--trace-filter" => {
                opts.trace_filter = CatMask::parse(&value(&args, &mut i)).unwrap_or_else(|err| {
                    eprintln!("{err}");
                    usage()
                })
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    opts
}

fn main() {
    let opts = parse_args();
    // A zero-op run reports nothing but zeros.
    if opts.ops == 0 {
        eprintln!("bad arguments: --ops must be at least 1");
        std::process::exit(2);
    }
    let cfg = SecureMemConfig::builder()
        .metadata_cache_bytes(opts.cache_kb << 10)
        .adr_bitmap_lines(opts.adr_lines)
        .counter_lsb_bits(opts.lsb_bits)
        .build()
        .unwrap_or_else(|err| {
            eprintln!("invalid configuration: {err}");
            std::process::exit(2);
        });

    let mut mem = SecureMemory::new(opts.scheme, cfg);
    if opts.trace.is_some() {
        mem.enable_trace(opts.trace_filter, 0);
    }
    let mut wl: Box<dyn Workload> = if opts.threads > 1 {
        Box::new(MultiThreaded::new(opts.workload, opts.threads, opts.seed))
    } else {
        opts.workload.instantiate(opts.seed)
    };

    eprintln!(
        "running {} × {} ops under {} ({} threads)...",
        opts.workload, opts.ops, opts.scheme, opts.threads
    );
    wl.run(opts.ops, &mut mem);

    let report = mem.report();
    println!("scheme:            {}", report.scheme);
    println!("instructions:      {}", report.instructions);
    println!("cycles:            {:.0}", report.cycles);
    println!("IPC:               {:.3}", report.ipc);
    println!("NVM reads:         {}", report.nvm.total_reads());
    println!("NVM writes:        {}", report.nvm.total_writes());
    println!(
        "  data:            {}",
        report.nvm.writes(star_nvm::AccessClass::Data)
    );
    println!(
        "  metadata:        {}",
        report.nvm.writes(star_nvm::AccessClass::Metadata)
    );
    println!(
        "  bitmap lines:    {}",
        report.nvm.writes(star_nvm::AccessClass::BitmapLine)
    );
    println!(
        "  shadow table:    {}",
        report.nvm.writes(star_nvm::AccessClass::ShadowTable)
    );
    println!(
        "energy:            {:.2} uJ",
        report.energy_pj() as f64 / 1e6
    );
    println!(
        "metadata cache:    {}/{} dirty ({:.1}%)",
        report.dirty_metadata,
        report.cached_metadata,
        report.dirty_fraction() * 100.0
    );
    if let Some(bitmap) = report.bitmap {
        println!(
            "bitmap lines:      {} accesses, {:.1}% ADR hit, {} RA writes",
            bitmap.accesses,
            bitmap.hit_ratio() * 100.0,
            bitmap.ra_writes
        );
    }
    println!("forced flushes:    {}", report.forced_flushes);
    println!("write provenance:");
    let mut prof = report.prof.clone();
    for (label, count) in report.prof.by_cause() {
        if count > 0 {
            println!("  {label:<17}{count}");
        }
    }

    // Detach the timeline before a potential crash (which consumes the
    // engine); recovery events are recorded separately and appended.
    let label = format!("{}/{}", opts.workload.label(), opts.scheme.label());
    let run_events = mem.trace_events();
    let run_hists = mem.trace_histograms().clone();
    let run_dropped = mem.trace_dropped();
    let crash_ps = mem.now_ps();

    if !opts.crash {
        if let Some(path) = &opts.trace {
            write_trace(path, &label, &run_events, &run_hists, run_dropped);
        }
        write_prof_csv(opts.prof_csv.as_deref(), &prof);
        return;
    }

    let mut recovery_rec = TraceRecorder::off();
    if opts.trace.is_some() {
        recovery_rec.enable(opts.trace_filter, 0);
        recovery_rec.set_now(crash_ps);
    }

    let mut image = mem.crash();
    println!("\ncrash: {} stale metadata nodes", image.stale_node_count());
    if let Some(kind) = &opts.attack {
        let stale = image.stale_nodes();
        let Some(&flat) = stale.first() else {
            eprintln!("no stale nodes to attack");
            std::process::exit(1);
        };
        let geometry = image.geometry().clone();
        let node = geometry.node_at_flat(flat).expect("metadata");
        let attack = match kind.as_str() {
            "tamper" => Attack::TamperLine {
                addr: geometry.line_of(node),
                xor_byte: 0x40,
            },
            "bitmap" => Attack::TamperBitmap { meta_idx: flat },
            "replay" => {
                // Roll back a child's synergized LSBs.
                let child = (0..8)
                    .find_map(|s| match geometry.child(node, s) {
                        Some(star_metadata::NodeChild::DataLine(d)) => {
                            Some(star_nvm::LineAddr::new(d))
                        }
                        Some(star_metadata::NodeChild::Node(c)) => Some(geometry.line_of(c)),
                        None => None,
                    })
                    .expect("node has children");
                Attack::ReplayChildTuple {
                    child_addr: child,
                    lsb_delta: 1,
                }
            }
            _ => usage(),
        };
        println!("applying attack: {kind}");
        image.apply_attack(&attack);
    }

    match recover_traced(&mut image, &mut recovery_rec) {
        Ok(report) => {
            println!(
                "recovery: {} nodes restored, {} reads + {} writes, {:.3} ms (modeled), \
                 verified={}, exact={}",
                report.stale_count,
                report.nvm_reads,
                report.nvm_writes,
                report.recovery_time_ns as f64 / 1e6,
                report.verified,
                report.correct
            );
            // Recovery restores bypass the timed device; fold them into
            // the provenance totals so the profile covers the whole run.
            prof.add_cause(star_nvm::WriteCause::RecoveryRestore, report.nvm_writes);
            println!(
                "write provenance incl. recovery: {} total, {} recovery-restore",
                prof.total_writes(),
                prof.count(star_nvm::WriteCause::RecoveryRestore)
            );
            if opts.attack.is_some() {
                eprintln!("ERROR: attack was not detected!");
                std::process::exit(1);
            }
        }
        Err(e) => {
            println!("recovery failed: {e}");
            if opts.attack.is_none() && opts.scheme != SchemeKind::WriteBack {
                std::process::exit(1);
            }
        }
    }

    if let Some(path) = &opts.trace {
        let recovery_events = recovery_rec.events();
        let merged = merge(&[&run_events, &recovery_events]);
        write_trace(
            path,
            &label,
            &merged,
            &run_hists,
            run_dropped + recovery_rec.dropped(),
        );
    }
    write_prof_csv(opts.prof_csv.as_deref(), &prof);
}

/// Writes the write-provenance profile as CSV when `--prof-csv` was
/// given. With `--crash`, the totals include the `recovery-restore`
/// traffic merged after recovery.
fn write_prof_csv(path: Option<&str>, prof: &star_nvm::ProfSummary) {
    let Some(path) = path else { return };
    if let Err(err) = std::fs::write(path, prof.to_csv()) {
        eprintln!("cannot write profile {path}: {err}");
        std::process::exit(1);
    }
    eprintln!("prof: {} writes -> {path}", prof.total_writes());
}

/// Serializes `events` to `path` — JSONL when the path ends in
/// `.jsonl`, Chrome trace-event JSON otherwise.
fn write_trace(
    path: &str,
    label: &str,
    events: &[TraceEvent],
    hists: &star_trace::Histograms,
    dropped: u64,
) {
    let part = TracePart {
        pid: 1,
        label,
        events,
        hists: Some(hists),
    };
    let doc = if path.ends_with(".jsonl") {
        trace_to_jsonl(&[part])
    } else {
        trace_to_chrome_json(&[part])
    };
    if let Err(err) = std::fs::write(path, doc) {
        eprintln!("cannot write trace {path}: {err}");
        std::process::exit(1);
    }
    if dropped > 0 {
        eprintln!("trace: WARNING: {dropped} events dropped (ring buffer full)");
    }
    eprintln!("trace: {} events -> {path}", events.len());
}
