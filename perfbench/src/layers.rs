//! The traced run: per-layer host times and exact counters, measured
//! from outside by timing calls into each crate's public functions.
//!
//! Every traced run emits the whole ledger below, whatever its
//! `--workload`: each layer is measured on the inputs of the workload
//! it serves (see `README.md`). Only `bench.trace_overhead_frac` and
//! the `*.self_frac` span shares come from the named workload itself.

use crate::grid::{self, EventTimes, Grid, SCHEMES, TRIAD_WORKLOAD, WORKLOADS};
use crate::measure::{median, timed, Scale, Tally};
use crate::{crash_sweep, serve, shard, Metric, Workload};
use star_core::{recover, RunReport, SchemeKind, SecureMemory};
use star_crypto::mac::{MacInput, MacKey};
use star_crypto::{one_time_pad, Aes128, Sha256};
use star_faultsim::{ExploreReport, Outcome};
use star_mem::hierarchy::HierarchyStats;
use star_mem::{CacheHierarchy, MemEvent, MemSideOp, TraceSink};
use star_nvm::{AccessClass, Line, LineAddr, NvmDevice, WriteCause};
use star_prof::cause::CAUSE_LABELS;
use star_serve::{SecureKv, ServeScheme};
use star_shard::run_sharded;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions behind each median in the ledger.
const REPS: usize = 5;

/// Every per-layer metric, `(name, unit)`, in emission order.
pub fn names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| out.push((name.to_string(), unit));
    for (n, u) in [
        ("crypto.aes_block_ns", "ns"),
        ("crypto.otp_ns", "ns"),
        ("crypto.mac54_ns", "ns"),
        ("crypto.sha256_64b_ns", "ns"),
        ("crypto.mac_computations", "count"),
        ("crypto.self_frac", "frac"),
        ("mem.access_ns", "ns"),
        ("mem.l1_miss_ratio", "ratio"),
        ("mem.llc_miss_ratio", "ratio"),
        ("mem.self_frac", "frac"),
        ("nvm.read_ns", "ns"),
        ("nvm.write_ns", "ns"),
        ("nvm.fork_us", "us"),
        ("nvm.reads", "count"),
        ("nvm.writes", "count"),
        ("nvm.self_frac", "frac"),
        ("workloads.gen_ns_per_op", "ns"),
    ] {
        add(n, u);
    }
    for w in WORKLOADS {
        for s in SCHEMES {
            add(&format!("core.ns_per_op.{}.{}", w.label(), s.label()), "ns");
        }
    }
    add(
        &format!("core.ns_per_op.{}.triad", TRIAD_WORKLOAD.label()),
        "ns",
    );
    for (n, u) in [
        ("core.read_ns", "ns"),
        ("core.write_ns", "ns"),
        ("core.persist_ns", "ns"),
        ("core.new_ms", "ms"),
        ("core.fork_us", "us"),
        ("core.crash_ms", "ms"),
        ("core.recover_ms", "ms"),
        ("core.report_json_us", "us"),
        ("core.star.adr_hit_ratio", "ratio"),
        ("core.star.ra_spills", "count"),
        ("core.forced_flushes", "count"),
        ("core.self_frac", "frac"),
        ("faultsim.schedule_ms", "ms"),
        ("faultsim.capture_ms", "ms"),
        ("faultsim.case_us", "us"),
        ("faultsim.recovered", "count"),
        ("faultsim.detected_tamper", "count"),
        ("faultsim.silent", "count"),
        ("sweep.job_overhead_ns", "ns"),
        ("sweep.parallel_speedup", "x"),
        ("shard.speedup_2", "x"),
        ("shard.lane_ms", "ms"),
    ] {
        add(n, u);
    }
    for s in ServeScheme::ALL {
        add(&format!("serve.kv_new_ms.{}", s.label()), "ms");
    }
    for s in ServeScheme::ALL {
        add(&format!("serve.crash_recover_ms.{}", s.label()), "ms");
    }
    for (n, u) in [
        ("serve.request_ns", "ns"),
        ("bench.trace_overhead_frac", "frac"),
        ("model.star_write_amp", "x"),
        ("model.star_ipc_rel", "x"),
        ("model.star_recovery_ms", "sim_ms"),
        ("model.star_unavail_ms", "sim_ms"),
    ] {
        add(n, u);
    }
    out
}

/// Collects metrics by name; the unit comes from [`names`].
struct Ledger {
    units: Vec<(String, &'static str)>,
    metrics: Vec<Metric>,
}

impl Ledger {
    fn put(&mut self, name: &str, value: f64) {
        let unit = self
            .units
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("undeclared per-layer metric {name}"))
            .1;
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    /// The metrics in declaration order.
    fn finish(mut self) -> Vec<Metric> {
        let order = |m: &Metric| self.units.iter().position(|(n, _)| *n == m.name);
        self.metrics.sort_by_key(order);
        self.metrics
    }
}

/// Median host ns per call of `f(i)` over `iters` calls.
fn ns_per_call(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            for i in 0..iters {
                f(i);
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&reps)
}

/// Median seconds of `f` over [`REPS`] calls.
fn median_s<R>(mut f: impl FnMut() -> R) -> f64 {
    let reps: Vec<f64> = (0..REPS).map(|_| timed(|| black_box(f())).1).collect();
    median(&reps)
}

/// The traced run for `workload`: its trace overhead and span shares,
/// then every layer's ledger. Returns the checked units and metrics.
pub fn ledger(workload: Workload, scale: Scale, seed: u64, seconds: f64) -> (Tally, Vec<Metric>) {
    let mut l = Ledger {
        units: names(),
        metrics: Vec::new(),
    };
    let overhead = workload.trace_overhead(scale, seed, seconds);
    let mut tally = overhead.tally;
    l.put("bench.trace_overhead_frac", overhead.frac);
    span_shares(&mut l, &overhead.spans);
    crypto(&mut l, scale, seed);
    grid_layers(&mut l, &mut tally, scale, seed);
    faultsim(&mut l, &mut tally, scale, seed);
    sweep(&mut l, scale);
    shard_layers(&mut l, &mut tally, scale, seed);
    serve_layers(&mut l, scale, seed);
    (tally, l.finish())
}

/// Self time in each crate's star-scope spans, as a share of all
/// span-attributed time on the traced workload.
fn span_shares(l: &mut Ledger, spans: &star_scope::SpanTree) {
    let mut by_crate = [0u64; 4];
    spans.for_each_path(|path, node| {
        let name = path.last().copied().unwrap_or_default();
        let slot = if name.starts_with("crypto/") {
            Some(0)
        } else if name.starts_with("mem/") {
            Some(1)
        } else if name.starts_with("nvm/") {
            Some(2)
        } else if ["engine/", "star/", "triad/"]
            .iter()
            .any(|p| name.starts_with(p))
        {
            Some(3)
        } else {
            None
        };
        if let Some(slot) = slot {
            by_crate[slot] += node.sample.excl_ns;
        }
    });
    let total = spans.attributed_ns().max(1) as f64;
    for (name, ns) in [
        "crypto.self_frac",
        "mem.self_frac",
        "nvm.self_frac",
        "core.self_frac",
    ]
    .into_iter()
    .zip(by_crate)
    {
        l.put(name, ns as f64 / total);
    }
}

fn crypto(l: &mut Ledger, scale: Scale, seed: u64) {
    let iters = match scale {
        Scale::Full => 100_000,
        Scale::Minimal => 500,
    };
    let aes = Aes128::from_seed(seed);
    let key = MacKey::from_seed(seed);
    l.put(
        "crypto.aes_block_ns",
        ns_per_call(iters, |i| {
            black_box(aes.encrypt_block(&black_box(u128::from(i).to_le_bytes())));
        }),
    );
    l.put(
        "crypto.otp_ns",
        ns_per_call(iters, |i| {
            black_box(one_time_pad(&aes, black_box(i), black_box(i + 1)));
        }),
    );
    l.put(
        "crypto.mac54_ns",
        ns_per_call(iters, |i| {
            let counters = [i; 8];
            black_box(
                MacInput::new()
                    .u64(black_box(i))
                    .u64s(black_box(&counters))
                    .u64(17)
                    .mac54(&key),
            );
        }),
    );
    l.put(
        "crypto.sha256_64b_ns",
        ns_per_call(iters, |i| {
            let mut block = [0xabu8; 64];
            block[..8].copy_from_slice(&i.to_le_bytes());
            black_box(Sha256::digest(black_box(&block)));
        }),
    );
}

/// Grid layers: stream generation, per-cell and per-event engine time,
/// the engine lifecycle, and the cache hierarchy and NVM device fed
/// the grid's own streams.
fn grid_layers(l: &mut Ledger, tally: &mut Tally, scale: Scale, seed: u64) {
    let (streams, gen_s) = timed(|| grid::generate_streams(scale, seed));
    let ops = grid::ops(scale);
    l.put(
        "workloads.gen_ns_per_op",
        gen_s * 1e9 / (ops * WORKLOADS.len()) as f64,
    );
    let g = Grid::from_streams(scale, seed, streams);

    let cells = g.pass(None);
    for c in &cells {
        tally.record(c.ok);
        l.put(
            &format!("core.ns_per_op.{}.{}", c.workload.label(), c.scheme),
            c.host_ns as f64 / ops as f64,
        );
    }
    let reports: Vec<&RunReport> = cells.iter().filter_map(|c| c.report.as_ref()).collect();
    l.put(
        "crypto.mac_computations",
        reports.iter().map(|r| r.mac_computations).sum::<u64>() as f64,
    );
    let (hits, accesses) = reports
        .iter()
        .filter_map(|r| r.bitmap.as_ref())
        .fold((0, 0), |(h, a), b| (h + b.adr_hits, a + b.accesses));
    l.put(
        "core.star.adr_hit_ratio",
        hits as f64 / accesses.max(1) as f64,
    );
    for m in grid::model_values(&cells) {
        l.put(&format!("model.{}", m.name), m.value);
    }

    let mut times = EventTimes::default();
    for c in g.pass(Some(&mut times)) {
        tally.record(c.ok);
    }
    l.put("core.read_ns", times.mean_ns(0));
    l.put("core.write_ns", times.mean_ns(1));
    l.put("core.persist_ns", times.mean_ns(2));

    engine_lifecycle(l, &g);
    let side = hierarchy(l, &g);
    nvm_device(l, &g, &side);
}

/// `SecureMemory::new`, `fork`, `report().to_json()`, `crash` and
/// `recover` on the STAR cell of the first grid workload.
fn engine_lifecycle(l: &mut Ledger, g: &Grid) {
    let events = &g.streams[0];
    let scheme = SchemeKind::Star;
    l.put(
        "core.new_ms",
        median_s(|| SecureMemory::new(scheme, g.cfg.clone())) * 1e3,
    );
    let mut mem = SecureMemory::new(scheme, g.cfg.clone());
    let chunk = events.len().div_ceil(REPS).max(1);
    let mut fork_s = Vec::new();
    for slice in events.chunks(chunk) {
        mem.on_events(slice);
        fork_s.push(timed(|| black_box(mem.fork())).1);
    }
    l.put("core.fork_us", median(&fork_s) * 1e6);
    l.put(
        "core.report_json_us",
        median_s(|| mem.report().to_json()) * 1e6,
    );
    let mut crash_s = Vec::new();
    let mut recover_s = Vec::new();
    for _ in 0..REPS {
        let copy = mem.fork();
        let (mut image, c) = timed(|| copy.crash());
        let (rec, r) = timed(|| recover(&mut image));
        black_box(rec.expect("attack-free recovery succeeds"));
        crash_s.push(c);
        recover_s.push(r);
    }
    l.put("core.crash_ms", median(&crash_s) * 1e3);
    l.put("core.recover_ms", median(&recover_s) * 1e3);
}

/// Replays the grid's streams through a fresh `CacheHierarchy` each;
/// returns the memory-side ops it emitted.
fn hierarchy(l: &mut Ledger, g: &Grid) -> Vec<MemSideOp> {
    let mut side = Vec::new();
    let mut stats = HierarchyStats::default();
    let mut events = 0u64;
    let mut ns = 0u128;
    for stream in &g.streams {
        let mut h = CacheHierarchy::new(g.cfg.hierarchy);
        let refs: Vec<MemEvent> = stream
            .iter()
            .copied()
            .filter(|e| !matches!(e, MemEvent::Work { .. }))
            .collect();
        let start = Instant::now();
        for &e in &refs {
            h.access(e, &mut side);
        }
        ns += start.elapsed().as_nanos();
        events += refs.len() as u64;
        stats.absorb(&h.stats());
    }
    let lookups = stats.l1_hits + stats.l2_hits + stats.l3_hits + stats.llc_misses;
    l.put("mem.access_ns", ns as f64 / events.max(1) as f64);
    l.put(
        "mem.l1_miss_ratio",
        1.0 - stats.l1_hits as f64 / lookups.max(1) as f64,
    );
    l.put(
        "mem.llc_miss_ratio",
        stats.llc_misses as f64 / (stats.l3_hits + stats.llc_misses).max(1) as f64,
    );
    side
}

/// Feeds the hierarchy's fills and write-backs to fresh `NvmDevice`s,
/// reads and writes timed separately, then forks the written device.
fn nvm_device(l: &mut Ledger, g: &Grid, side: &[MemSideOp]) {
    let fills: Vec<u64> = side
        .iter()
        .filter_map(|op| match *op {
            MemSideOp::Fill { line } => Some(line),
            _ => None,
        })
        .collect();
    let writebacks: Vec<(u64, u64)> = side
        .iter()
        .filter_map(|op| match *op {
            MemSideOp::WriteBack { line, version } => Some((line, version)),
            _ => None,
        })
        .collect();
    let mut dev = NvmDevice::new(g.cfg.nvm);
    let mut now = 0;
    let (_, read_s) = timed(|| {
        for &line in &fills {
            now = dev
                .read(LineAddr::new(line), AccessClass::Data, now)
                .complete_at_ps;
        }
    });
    let mut dev = NvmDevice::new(g.cfg.nvm);
    let mut now = 0;
    let mut fork_s = Vec::new();
    let mut write_s = 0.0;
    let chunk = writebacks.len().div_ceil(REPS).max(1);
    for slice in writebacks.chunks(chunk) {
        write_s += timed(|| {
            for &(line, version) in slice {
                let line_bytes = Line::filled(version as u8);
                now = dev
                    .write(LineAddr::new(line), line_bytes, WriteCause::Data, now)
                    .accepted_at_ps;
            }
        })
        .1;
        fork_s.push(timed(|| black_box(dev.fork())).1);
    }
    l.put("nvm.read_ns", read_s * 1e9 / fills.len().max(1) as f64);
    l.put(
        "nvm.write_ns",
        write_s * 1e9 / writebacks.len().max(1) as f64,
    );
    l.put("nvm.fork_us", median(&fork_s) * 1e6);
    l.put("nvm.reads", fills.len() as f64);
    l.put("nvm.writes", writebacks.len() as f64);
}

/// The crash-sweep's explorers at 1 and 2 threads, with the schedule
/// pre-pass and the public `capture` timed on their own.
///
/// `explore` captures with a commit-op hint from its pre-pass and forks
/// only before ops that commit a point; the public `capture` has no hint
/// and forks before every op, so `capture_ms` is that slower path, not
/// a part of `explore`. `case_us` is therefore 1-thread `explore` minus
/// the pre-pass alone, per case: hinted capture plus adjudication.
fn faultsim(l: &mut Ledger, tally: &mut Tally, scale: Scale, seed: u64) {
    let explorers = crash_sweep::explorers(scale, seed);
    let mut schedule_s = 0.0;
    let mut capture_s = 0.0;
    for e in &explorers {
        let ((schedule, _), s) = timed(|| e.schedule_by_op());
        schedule_s += s;
        let points = e.chosen_points(schedule.len() as u64);
        capture_s += timed(|| black_box(e.capture(&points))).1;
    }
    let explore = |threads: usize| -> (Vec<ExploreReport>, f64) {
        timed(|| {
            explorers
                .iter()
                .map(|e| e.clone().with_threads(threads).explore())
                .collect()
        })
    };
    let (_, serial_s) = explore(1);
    let (reports, parallel_s) = explore(crash_sweep::THREADS);
    let cases = crash_sweep::check(&reports, tally);
    let count = |o: Outcome| reports.iter().map(|r| r.count(o)).sum::<usize>() as f64;
    l.put("faultsim.schedule_ms", schedule_s * 1e3);
    l.put("faultsim.capture_ms", capture_s * 1e3);
    l.put(
        "faultsim.case_us",
        (serial_s - schedule_s).max(0.0) * 1e6 / cases.max(1) as f64,
    );
    l.put("faultsim.recovered", count(Outcome::Recovered));
    l.put("faultsim.detected_tamper", count(Outcome::DetectedTamper));
    l.put("faultsim.silent", count(Outcome::SilentCorruption));
    l.put("sweep.parallel_speedup", serial_s / parallel_s);
}

/// `run_merged` over empty jobs at the crash-sweep's thread count.
fn sweep(l: &mut Ledger, scale: Scale) {
    let jobs = match scale {
        Scale::Full => 20_000u64,
        Scale::Minimal => 200,
    };
    let s = median_s(|| {
        star_sweep::run_merged(
            crash_sweep::THREADS,
            (0..jobs).map(|k| (k, ())).collect(),
            |_, _| (),
        )
    });
    l.put("sweep.job_overhead_ns", s * 1e9 / jobs as f64);
}

/// The shard spec at 1 and 2 shards, alternated; STAR's spill and
/// forced-flush counters from its merged report.
fn shard_layers(l: &mut Ledger, tally: &mut Tally, scale: Scale, seed: u64) {
    let one = shard::spec(scale, seed, 1);
    let two = shard::spec(scale, seed, shard::SHARDS);
    let mut serial = Vec::new();
    let mut ratios = Vec::new();
    let mut merged = None;
    for _ in 0..3 {
        let (a, t1) = timed(|| shard::run_lanes(&one));
        tally.record(a.is_some());
        if a.is_none() {
            // A failed recovery would hang the 2-shard run (see
            // `Shard::run_checked`); the metrics below read NaN.
            break;
        }
        let (b, t2) = timed(|| run_sharded(&two));
        serial.push(t1);
        ratios.push(t1 / t2);
        merged = Some(b.merged);
    }
    let ra_spill = CAUSE_LABELS
        .iter()
        .position(|&c| c == "ra-spill")
        .expect("RA spills are a write cause");
    let count = |f: &dyn Fn(&RunReport) -> u64| merged.as_ref().map_or(f64::NAN, |m| f(m) as f64);
    let med = |v: &[f64]| if v.is_empty() { f64::NAN } else { median(v) };
    l.put("shard.speedup_2", med(&ratios));
    l.put("shard.lane_ms", med(&serial) * 1e3 / shard::LANES as f64);
    l.put("core.star.ra_spills", count(&|m| m.prof.causes[ra_spill]));
    l.put("core.forced_flushes", count(&|m| m.forced_flushes));
}

/// `SecureKv::new` and `crash_recover` per backend at the serve
/// geometry, STAR's GET/PUT cost, and STAR's simulated unavailability.
fn serve_layers(l: &mut Ledger, scale: Scale, seed: u64) {
    let cfg = serve::config(scale, seed);
    let lines = cfg.mem.data_lines;
    let puts = 2_000u64;
    let key = |i: u64| (i.wrapping_mul(0x9e37_79b9) ^ seed) % lines;
    for scheme in ServeScheme::ALL {
        let new_s = median_s(|| SecureKv::new(scheme, cfg.mem.clone()));
        l.put(&format!("serve.kv_new_ms.{}", scheme.label()), new_s * 1e3);
        let mut kv = SecureKv::new(scheme, cfg.mem.clone());
        let mut crash_s = Vec::new();
        for round in 0..3 {
            for i in 0..puts {
                kv.put(key(i + round * puts), i + 1);
            }
            crash_s.push(timed(|| kv.crash_recover(round, 1_000_000)).1);
        }
        l.put(
            &format!("serve.crash_recover_ms.{}", scheme.label()),
            median(&crash_s) * 1e3,
        );
    }
    let mut kv = SecureKv::new(ServeScheme::Star, cfg.mem.clone());
    let requests = 20_000u64;
    let (_, s) = timed(|| {
        for i in 0..requests {
            if i % 2 == 0 {
                kv.put(key(i), i + 1);
            } else {
                black_box(kv.get(key(i - 1)));
            }
        }
    });
    l.put("serve.request_ns", s * 1e9 / requests as f64);
    let cells: Vec<_> = star_serve::standard_scenarios(&cfg)
        .iter()
        .map(|sc| star_serve::simulate(ServeScheme::Star, sc, &cfg))
        .collect();
    l.put("model.star_unavail_ms", serve::star_unavail_ms(&cells));
}
