//! `star-bench sim` — one secure-NVM simulation run.
//!
//! ```text
//! star-bench sim [--scheme wb|strict|anubis|star] [--workload W] [--ops N]
//!     [--threads T] [--cache-kb K] [--adr-lines A] [--lsb-bits B]
//!     [--seed S] [--crash] [--attack tamper|replay|bitmap]
//!     [--trace FILE] [--trace-filter CATS] [--prof-csv FILE]
//! ```
//!
//! Prints the run report — including the always-on write-provenance
//! breakdown (who wrote every NVM line, by `WriteCause`) — and with
//! `--crash`, also crashes and recovers (optionally under an `--attack`,
//! which implies `--crash` and must be detected). Recovery's untimed
//! restore writes are merged into the provenance totals as
//! `recovery-restore`.
//!
//! `--prof-csv FILE` writes the full profile (cause/energy matrices,
//! per-bank heat, line-wear histogram, windowed write-rate series,
//! stall/WPQ-depth histograms) as CSV for plotting.
//!
//! `--trace FILE` writes the run's star-trace timeline — Chrome
//! trace-event JSON (load in Perfetto) by default, JSONL when the path
//! ends in `.jsonl`. `--trace-filter` narrows the recorded categories
//! (comma list, e.g. `persist,nvm`; default `all`). With `--crash`, the
//! recovery phases continue on the same timeline.

use crate::args::{reject, write_out, write_trace, Args};
use star_core::recovery::{recover_traced, Attack};
use star_core::{SchemeKind, SecureMemConfig, SecureMemory};
use star_trace::{merge, TracePart, TraceRecorder};
use star_workloads::{MultiThreaded, Workload, WorkloadKind};

/// `star-bench sim`.
pub fn run(args: &Args) {
    let scheme = args
        .parsed("--scheme", SchemeKind::from_label)
        .unwrap_or(SchemeKind::Star);
    let workload = args
        .parsed("--workload", WorkloadKind::from_label)
        .unwrap_or(WorkloadKind::Array);
    // A zero-op run reports nothing but zeros.
    let ops = args.at_least("--ops", 10_000, 1);
    let threads = args.at_least("--threads", 1, 1);
    let cache_kb: usize = args.num("--cache-kb", 512);
    let seed = args.num("--seed", 42);
    let attack = args.parsed("--attack", |s| {
        ["tamper", "replay", "bitmap"].into_iter().find(|&a| a == s)
    });
    let crash = args.switch("--crash") || attack.is_some();
    let trace = args.value("--trace");
    let trace_filter = args.trace_filter();
    let prof_csv = args.value("--prof-csv");
    let cache_bytes = cache_kb
        .checked_mul(1 << 10)
        .unwrap_or_else(|| reject(format!("--cache-kb {cache_kb} overflows usize bytes")));
    let cfg = SecureMemConfig::builder()
        .metadata_cache_bytes(cache_bytes)
        .adr_bitmap_lines(args.num("--adr-lines", 16))
        .counter_lsb_bits(args.num("--lsb-bits", 10))
        .build()
        .unwrap_or_else(|err| reject(err));

    let mut mem = SecureMemory::new(scheme, cfg);
    if trace.is_some() {
        mem.enable_trace(trace_filter);
    }
    let mut wl: Box<dyn Workload> = if threads > 1 {
        Box::new(MultiThreaded::new(workload, threads, seed))
    } else {
        workload.instantiate(seed)
    };

    eprintln!("running {workload} × {ops} ops under {scheme} ({threads} threads)...");
    wl.run(ops, &mut mem);

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
    let mut events = mem.trace_events();
    let hists = mem.trace_histograms();
    let mut dropped = mem.trace_dropped();
    if crash {
        let mut recovery_rec = TraceRecorder::off();
        if trace.is_some() {
            recovery_rec.enable(trace_filter);
            recovery_rec.set_now(mem.now_ps());
        }
        let mut image = mem.crash();
        println!("\ncrash: {} stale metadata nodes", image.stale_node_count());
        if let Some(kind) = attack {
            let stale = image.stale_nodes();
            let Some(&flat) = stale.first() else {
                eprintln!("no stale nodes to attack");
                std::process::exit(1);
            };
            let geometry = image.geometry().clone();
            let node = geometry.node_at_flat(flat).expect("metadata");
            let attack = match kind {
                "tamper" => Attack::TamperLine {
                    addr: geometry.line_of(node),
                    xor_byte: 0x40,
                },
                "bitmap" => Attack::TamperBitmap { meta_idx: flat },
                _ => {
                    // Replay: roll back a child's synergized LSBs.
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
                if attack.is_some() {
                    eprintln!("ERROR: attack was not detected!");
                    std::process::exit(1);
                }
            }
            Err(e) => {
                println!("recovery failed: {e}");
                if attack.is_none() && scheme != SchemeKind::WriteBack {
                    std::process::exit(1);
                }
            }
        }
        events = merge(&[&events, &recovery_rec.events()]);
        dropped += recovery_rec.dropped();
    }

    if let Some(path) = trace {
        let label = format!("{}/{}", workload.label(), scheme.label());
        let part = TracePart {
            pid: 1,
            label: &label,
            events: &events,
            hists: Some(&hists),
        };
        write_trace(path, &[part], dropped);
    }
    // With `--crash`, the totals include the `recovery-restore` traffic
    // merged after recovery.
    if let Some(path) = prof_csv {
        write_out(path, "write-provenance CSV", &prof.to_csv());
    }
}
