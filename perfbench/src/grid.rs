//! `grid`: (array, ycsb) × (wb, strict, anubis, star) plus the Triad
//! cell, serial, on the paper's Table I geometry.
//!
//! Each workload's event stream is generated once from the seed into a
//! [`VecSink`] and replayed into a fresh [`SecureMemory`] per cell, so
//! every cell starts with empty caches. Recoverable cells end in
//! `crash()` + `recover()`. The unit is one simulated workload op.

use crate::measure::{fnv1a, ModelValue, Scale, Tally, FNV_OFFSET};
use crate::Bench;
use star_bench::harness::{run_and_crash, run_scheme, ExperimentConfig};
use star_bench::paper;
use star_core::triad::{TriadConfig, TriadMemory};
use star_core::{recover, Instrumented, RunReport, SchemeKind, SecureMemConfig, SecureMemory};
use star_mem::{MemEvent, TraceSink, VecSink};
use star_workloads::WorkloadKind;
use std::time::Instant;

/// Engine schemes, in cell order.
pub const SCHEMES: [SchemeKind; 4] = [
    SchemeKind::WriteBack,
    SchemeKind::Strict,
    SchemeKind::Anubis,
    SchemeKind::Star,
];

/// Workloads, in cell order. Write-heavy array beside read-mostly
/// zipfian ycsb.
pub const WORKLOADS: [WorkloadKind; 2] = [WorkloadKind::Array, WorkloadKind::Ycsb];

/// Data lines of the Triad cell's memory (as in the baseline's cell).
const TRIAD_DATA_LINES: u64 = 4_096;

/// Workload label the Triad cell reports under: it replays the array
/// stream's stores.
pub const TRIAD_WORKLOAD: WorkloadKind = WorkloadKind::Array;

/// Ops per workload stream.
pub fn ops(scale: Scale) -> usize {
    match scale {
        Scale::Full => 12_000,
        Scale::Minimal => 300,
    }
}

/// Per-`MemEvent`-kind host time inside `SecureMemory::on_event`.
#[derive(Debug, Clone, Copy, Default)]
pub struct EventTimes {
    /// Nanoseconds per kind: read, write, persist (clwb + fence), work.
    pub ns: [u64; 4],
    /// Events per kind.
    pub count: [u64; 4],
}

impl EventTimes {
    /// Mean ns per event of kind `k` (0 = read, 1 = write, 2 = persist).
    pub fn mean_ns(&self, k: usize) -> f64 {
        self.ns[k] as f64 / self.count[k].max(1) as f64
    }
}

fn kind_index(e: &MemEvent) -> usize {
    match e {
        MemEvent::Read { .. } => 0,
        MemEvent::Write { .. } => 1,
        MemEvent::Clwb { .. } | MemEvent::Fence => 2,
        MemEvent::Work { .. } => 3,
    }
}

/// A `TraceSink` wrapper that times each event the engine consumes.
struct TimedSink<'a> {
    mem: &'a mut SecureMemory,
    times: &'a mut EventTimes,
}

impl TraceSink for TimedSink<'_> {
    fn on_event(&mut self, event: MemEvent) {
        let k = kind_index(&event);
        let start = Instant::now();
        self.mem.on_event(event);
        self.times.ns[k] += start.elapsed().as_nanos() as u64;
        self.times.count[k] += 1;
    }
}

/// One cell's outputs.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Workload the cell replayed.
    pub workload: WorkloadKind,
    /// Scheme label (`wb`, `strict`, `anubis`, `star`, `triad`).
    pub scheme: &'static str,
    /// The run report (`None` for Triad, which has no engine report).
    pub report: Option<RunReport>,
    /// Modelled recovery time, ns (0 for WB).
    pub recovery_ns: u64,
    /// Everything the cell produced, as comparable bytes.
    pub bytes: String,
    /// Whether the cell's own checks held (recovery correct, per-cause
    /// writes summing to total writes).
    pub ok: bool,
    /// Host nanoseconds the cell took.
    pub host_ns: u64,
}

/// The grid's seed-generated inputs.
pub struct Grid {
    scale: Scale,
    seed: u64,
    /// Table I geometry.
    pub cfg: SecureMemConfig,
    /// One recorded event stream per entry of [`WORKLOADS`].
    pub streams: Vec<Vec<MemEvent>>,
    reference: Vec<String>,
    model: Vec<ModelValue>,
    digest: u64,
}

/// Generates each workload's event stream from `seed`.
pub fn generate_streams(scale: Scale, seed: u64) -> Vec<Vec<MemEvent>> {
    WORKLOADS
        .iter()
        .map(|kind| {
            let mut sink = VecSink::new();
            kind.instantiate(seed).run(ops(scale), &mut sink);
            sink.events
        })
        .collect()
}

/// Replays `events` into a fresh engine, then crashes and recovers it
/// if the scheme is recoverable.
pub fn engine_cell(
    workload: WorkloadKind,
    scheme: SchemeKind,
    cfg: &SecureMemConfig,
    events: &[MemEvent],
    times: Option<&mut EventTimes>,
) -> Cell {
    let start = Instant::now();
    let mut mem = SecureMemory::new(scheme, cfg.clone());
    match times {
        Some(times) => TimedSink {
            mem: &mut mem,
            times,
        }
        .on_events(events),
        None => mem.on_events(events),
    }
    let report = mem.report();
    let mut ok = report.prof.causes.iter().sum::<u64>() == report.total_writes();
    let mut bytes = report.to_json();
    let mut recovery_ns = 0;
    if scheme.recoverable() {
        let mut image = mem.crash();
        match recover(&mut image) {
            Ok(rec) => {
                ok &= rec.verified && rec.correct;
                recovery_ns = rec.recovery_time_ns;
                bytes.push_str(&format!("{rec:?}"));
            }
            Err(e) => {
                ok = false;
                bytes.push_str(&format!("{e:?}"));
            }
        }
    }
    Cell {
        workload,
        scheme: scheme.label(),
        report: Some(report),
        recovery_ns,
        bytes,
        ok,
        host_ns: start.elapsed().as_nanos() as u64,
    }
}

/// Drives a Triad-NVM memory with the stores of `events` (lines folded
/// into its small memory), then crashes and recovers it.
pub fn triad_cell(events: &[MemEvent]) -> Cell {
    let start = Instant::now();
    let mut m = TriadMemory::new(TriadConfig {
        data_lines: TRIAD_DATA_LINES,
        persist_levels: 2,
        ..TriadConfig::default()
    });
    let mut version = 0;
    for e in events {
        if let MemEvent::Write { line, .. } = *e {
            version += 1;
            m.write_data(line % TRIAD_DATA_LINES, version);
        }
    }
    let (reads, recovery_ns, verified) = m.crash_and_recover();
    let stats = m.nvm_stats();
    let causes: u64 = m.prof_summary().causes.iter().sum();
    Cell {
        workload: TRIAD_WORKLOAD,
        scheme: "triad",
        report: None,
        recovery_ns,
        bytes: format!(
            "writes={} reads={} energy={} recovery_reads={reads} recovery_ns={recovery_ns}",
            stats.total_writes(),
            stats.total_reads(),
            stats.energy_pj
        ),
        ok: verified && causes == stats.total_writes(),
        host_ns: start.elapsed().as_nanos() as u64,
    }
}

impl Grid {
    /// The grid over already generated `streams`, without reference
    /// checks (the traced run's fixture).
    pub fn from_streams(scale: Scale, seed: u64, streams: Vec<Vec<MemEvent>>) -> Self {
        Grid {
            scale,
            seed,
            cfg: SecureMemConfig::default(),
            streams,
            reference: Vec::new(),
            model: Vec::new(),
            digest: FNV_OFFSET,
        }
    }

    /// Runs every cell once, in grid order; `times` collects per-event
    /// host time when given.
    pub fn pass(&self, mut times: Option<&mut EventTimes>) -> Vec<Cell> {
        let mut cells = Vec::with_capacity(WORKLOADS.len() * SCHEMES.len() + 1);
        for (wi, &workload) in WORKLOADS.iter().enumerate() {
            for scheme in SCHEMES {
                cells.push(engine_cell(
                    workload,
                    scheme,
                    &self.cfg,
                    &self.streams[wi],
                    times.as_deref_mut(),
                ));
            }
        }
        let triad_stream = WORKLOADS
            .iter()
            .position(|&w| w == TRIAD_WORKLOAD)
            .expect("Triad replays a grid workload");
        cells.push(triad_cell(&self.streams[triad_stream]));
        cells
    }

    /// The same cells run directly by the harness (`run_scheme` /
    /// `run_and_crash`), as comparable bytes; the Triad cell has no
    /// direct counterpart and is absent.
    fn direct_bytes(&self) -> Vec<String> {
        let exp = ExperimentConfig {
            ops: ops(self.scale),
            seed: self.seed,
            mem: self.cfg.clone(),
            ..ExperimentConfig::default()
        };
        let mut out = Vec::new();
        for workload in WORKLOADS {
            for scheme in SCHEMES {
                out.push(if scheme.recoverable() {
                    let o = run_and_crash(scheme, workload, &exp);
                    match o.recovery {
                        Ok(rec) => format!("{}{rec:?}", o.report.to_json()),
                        Err(e) => format!("{}{e:?}", o.report.to_json()),
                    }
                } else {
                    run_scheme(scheme, workload, &exp).to_json()
                });
            }
        }
        out
    }

    /// Simulated ops in one pass.
    pub fn units_per_pass(&self) -> u64 {
        (ops(self.scale) * (WORKLOADS.len() * SCHEMES.len() + 1)) as u64
    }
}

/// The simulated headline outputs of one pass, beside the paper.
pub fn model_values(cells: &[Cell]) -> Vec<ModelValue> {
    let find = |w: WorkloadKind, s: SchemeKind| {
        cells
            .iter()
            .find(|c| c.workload == w && c.scheme == s.label() && c.report.is_some())
            .expect("every engine cell ran")
    };
    let n = WORKLOADS.len() as f64;
    let mut amp = 0.0;
    let mut ipc = 0.0;
    let mut rec_ms = 0.0;
    for w in WORKLOADS {
        let wb = find(w, SchemeKind::WriteBack)
            .report
            .as_ref()
            .expect("engine");
        let star_cell = find(w, SchemeKind::Star);
        let star = star_cell.report.as_ref().expect("engine");
        amp += star.total_writes() as f64 / wb.total_writes() as f64 / n;
        ipc += star.ipc / wb.ipc / n;
        rec_ms += star_cell.recovery_ns as f64 / 1e6 / n;
    }
    vec![
        ModelValue {
            name: "star_write_amp",
            unit: "x",
            value: amp,
            paper: Some(paper::FIG11_STAR_VS_WB),
            note: "Fig. 11: STAR NVM writes / WB writes, mean over array and ycsb",
        },
        ModelValue {
            name: "star_ipc_rel",
            unit: "x",
            value: ipc,
            paper: Some(paper::FIG12_STAR_IPC),
            note: "Fig. 12: STAR IPC / WB IPC, mean over array and ycsb",
        },
        ModelValue {
            name: "star_recovery_ms",
            unit: "sim_ms",
            value: rec_ms,
            paper: Some(paper::FIG14B_STAR_4MB_S * 1e3),
            note: "Fig. 14b: the paper's point is a 4 MB metadata cache; this grid's is 512 KB",
        },
    ]
}

impl Bench for Grid {
    fn prepare(scale: Scale, seed: u64, tally: &mut Tally) -> Self {
        let mut grid = Grid::from_streams(scale, seed, generate_streams(scale, seed));
        let direct = grid.direct_bytes();
        let cells = grid.pass(None);
        for (i, cell) in cells.iter().enumerate() {
            // Replaying the recorded stream must match running the
            // workload directly into the engine.
            tally.record(cell.ok && direct.get(i).is_none_or(|d| *d == cell.bytes));
        }
        grid.model = model_values(&cells);
        grid.digest = cells
            .iter()
            .fold(FNV_OFFSET, |h, c| fnv1a(h, c.bytes.as_bytes()));
        grid.reference = cells.into_iter().map(|c| c.bytes).collect();
        grid
    }

    fn setup(scale: Scale, seed: u64) {
        let streams = generate_streams(scale, seed);
        let cfg = SecureMemConfig::default();
        let engines: Vec<SecureMemory> = WORKLOADS
            .iter()
            .flat_map(|_| SCHEMES.map(|s| SecureMemory::new(s, cfg.clone())))
            .collect();
        std::hint::black_box((streams, engines));
    }

    fn batch(&mut self, traced: bool, tally: &mut Tally) -> u64 {
        let mut times = EventTimes::default();
        let cells = self.pass(traced.then_some(&mut times));
        for (cell, reference) in cells.iter().zip(&self.reference) {
            tally.record(cell.ok && cell.bytes == *reference);
        }
        self.units_per_pass()
    }

    fn digest(&self) -> u64 {
        self.digest
    }

    fn model(&self) -> Vec<ModelValue> {
        self.model.clone()
    }
}
