//! The repository benchmark: four workloads driven through the crates'
//! top-level public entry points, each measured end to end (untraced)
//! or layer by layer (traced). See `README.md` beside this crate.

pub mod crash_sweep;
pub mod grid;
pub mod heap;
pub mod layers;
pub mod measure;
pub mod serve;
pub mod shard;

use measure::{
    median, repeat_batches, setups_per_batch, throughput, timed, EndToEnd, ModelValue, Scale,
    Tally, MIN_BATCHES,
};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[global_allocator]
static HEAP: heap::PeakHeap = heap::PeakHeap;

/// One workload of the benchmark, driven as a closed-loop batch job:
/// each batch runs the workload's whole unit set, checks every unit,
/// and the next batch starts when it ends.
pub trait Bench: Sized {
    /// Builds the seed-generated inputs and runs one untimed reference
    /// batch, checking its units into `tally`.
    fn prepare(scale: Scale, seed: u64, tally: &mut Tally) -> Self;

    /// Builds what a batch runs on before its first unit, then drops
    /// it: the work `setup_s` times.
    fn setup(scale: Scale, seed: u64);

    /// Runs one batch, checking every unit into `tally`; returns the
    /// units completed. `traced` adds the workload's own host-time
    /// probes (the caller switches star-scope spans on around it).
    fn batch(&mut self, traced: bool, tally: &mut Tally) -> u64;

    /// Digest of the reference batch's report bytes.
    fn digest(&self) -> u64;

    /// Simulated outputs of the reference batch.
    fn model(&self) -> Vec<ModelValue>;
}

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The scheme × workload grid: the op hot path.
    Grid,
    /// Exhaustive crash sweeps: fork, recovery and tamper detection.
    CrashSweep,
    /// Lane-partitioned concurrent engine at 2 shards.
    Shard,
    /// The secure-KV service grid with memory-proportional recovery.
    Serve,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Grid,
        Workload::CrashSweep,
        Workload::Shard,
        Workload::Serve,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Grid => "grid",
            Workload::CrashSweep => "crash-sweep",
            Workload::Shard => "shard",
            Workload::Serve => "serve",
        }
    }

    /// Parses a `--workload` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one unit of `units_per_s` is on this workload.
    pub fn unit(self) -> &'static str {
        match self {
            Workload::Grid => "simulated op",
            Workload::CrashSweep => "adjudicated crash case",
            Workload::Shard => "lane-op",
            Workload::Serve => "simulated request",
        }
    }

    /// The untraced end-to-end run.
    pub fn end_to_end(self, scale: Scale, seed: u64, seconds: f64) -> EndToEnd {
        match self {
            Workload::Grid => end_to_end::<grid::Grid>(scale, seed, seconds),
            Workload::CrashSweep => end_to_end::<crash_sweep::CrashSweep>(scale, seed, seconds),
            Workload::Shard => end_to_end::<shard::Shard>(scale, seed, seconds),
            Workload::Serve => end_to_end::<serve::Serve>(scale, seed, seconds),
        }
    }

    /// Untraced and traced batches alternated for `seconds`.
    pub fn trace_overhead(self, scale: Scale, seed: u64, seconds: f64) -> Overhead {
        match self {
            Workload::Grid => trace_overhead::<grid::Grid>(scale, seed, seconds),
            Workload::CrashSweep => trace_overhead::<crash_sweep::CrashSweep>(scale, seed, seconds),
            Workload::Shard => trace_overhead::<shard::Shard>(scale, seed, seconds),
            Workload::Serve => trace_overhead::<serve::Serve>(scale, seed, seconds),
        }
    }
}

/// End-to-end metrics, `(name, unit)`, emitted on every workload by an
/// untraced run.
pub const END_TO_END: [(&str, &str); 3] = [
    ("units_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
];

/// Measures `B` end to end: a set-up and one checked reference batch,
/// then timed batches for `seconds` with heap counting off and set-ups
/// timed between them.
pub fn end_to_end<B: Bench>(scale: Scale, seed: u64, seconds: f64) -> EndToEnd {
    let setup = || B::setup(scale, seed);
    let ((), first_setup_s) = timed(setup);
    let mut tally = Tally::default();
    let (mut bench, reference_s) = timed(|| B::prepare(scale, seed, &mut tally));
    let peak_heap_mb = heap::peak_heap_mb();
    let counting = heap::set_counting(false);
    let (batches, mut setups) = repeat_batches(
        seconds,
        setups_per_batch(seconds, reference_s),
        setup,
        || bench.batch(false, &mut tally),
    );
    heap::set_counting(counting);
    setups.push(first_setup_s);
    EndToEnd {
        tally,
        units_per_s: throughput(&batches),
        rates: batches.iter().map(|&(u, s)| u as f64 / s).collect(),
        setup_s: median(&setups),
        peak_heap_mb,
        digest: bench.digest(),
        model: bench.model(),
    }
}

/// What the trace-overhead measurement found.
#[derive(Debug)]
pub struct Overhead {
    /// Checked units across both kinds of batch.
    pub tally: Tally,
    /// `1 - traced / untraced` throughput.
    pub frac: f64,
    /// star-scope spans recorded during the traced batches.
    pub spans: star_scope::SpanTree,
}

/// Alternates untraced and traced batches of `B` (swapping which goes
/// first each round) for `seconds`, with star-scope spans on during the
/// traced ones.
pub fn trace_overhead<B: Bench>(scale: Scale, seed: u64, seconds: f64) -> Overhead {
    let mut tally = Tally::default();
    let mut bench = B::prepare(scale, seed, &mut tally);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    star_scope::disable();
    star_scope::reset();
    let counting = heap::set_counting(false);
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let start = Instant::now();
    while plain.len() < MIN_BATCHES || start.elapsed() < budget {
        for on in [plain.len() % 2 == 1, plain.len() % 2 == 0] {
            if on {
                star_scope::enable();
            }
            let batch = timed(|| bench.batch(on, &mut tally));
            star_scope::disable();
            if on { &mut traced } else { &mut plain }.push(batch);
        }
    }
    heap::set_counting(counting);
    Overhead {
        tally,
        frac: 1.0 - throughput(&traced) / throughput(&plain),
        spans: star_scope::collect(),
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: String,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The metrics of an untraced run, in [`END_TO_END`] order.
pub fn end_to_end_metrics(e: &EndToEnd) -> Vec<Metric> {
    let values = [e.units_per_s, e.setup_s, e.peak_heap_mb];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.into(),
            unit,
            value,
        })
        .collect()
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`. A non-finite metric makes the run incorrect
/// and is written as `null`.
pub fn result_line(tally: Tally, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0 && tally.attempted > 0 && finite,
        tally.attempted,
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() {
            format!("{}", m.value)
        } else {
            "null".into()
        };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// The model-versus-paper lines printed by an untraced run.
pub fn model_lines(model: &[ModelValue]) -> Vec<String> {
    let mut lines: Vec<String> = model
        .iter()
        .map(|m| match m.paper {
            Some(p) => format!(
                "model {:<18} {:>12.6} {:<6} paper {:>9.4}  diff {:+.4} ({:+.1}%)  [{}]",
                m.name,
                m.value,
                m.unit,
                p,
                m.value - p,
                (m.value / p - 1.0) * 100.0,
                m.note
            ),
            None => format!(
                "model {:<18} {:>12.6} {:<6} paper       n/a  [{}]",
                m.name, m.value, m.unit, m.note
            ),
        })
        .collect();
    if !lines.is_empty() {
        lines.push(
            "model note: the simulator is a trace-driven model; beyond these \
             side-by-side values it is unvalidated against the paper's testbed"
                .into(),
        );
    }
    lines
}
