//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0` it measures the workload end to end; with
//! `--trace 1` it runs the per-layer ledger. Human-readable lines go to
//! stdout first; the last line is the JSON result.

use star_perfbench::measure::{median, Scale};
use star_perfbench::{end_to_end_metrics, layers, model_lines, result_line, Workload, END_TO_END};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <grid|crash-sweep|shard|serve> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("seconds"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} host_threads={threads}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (tally, metrics) = if args.trace {
        layers::ledger(args.workload, Scale::Full, args.seed, args.seconds)
    } else {
        let e = args
            .workload
            .end_to_end(Scale::Full, args.seed, args.seconds);
        let min = e.rates.iter().copied().fold(f64::INFINITY, f64::min);
        let max = e.rates.iter().copied().fold(0.0, f64::max);
        println!(
            "{} batches of {}s, per-batch rate min {min:.1} median {:.1} max {max:.1}; \
             report digest {:016x}",
            e.rates.len(),
            args.workload.unit(),
            median(&e.rates),
            e.digest
        );
        for line in model_lines(&e.model) {
            println!("{line}");
        }
        (e.tally, end_to_end_metrics(&e))
    };
    for m in &metrics {
        println!("{:<36} {:>18.6} {}", m.name, m.value, m.unit);
    }
    debug_assert!(args.trace || metrics.len() == END_TO_END.len());
    println!("{}", result_line(tally, &metrics));
    ExitCode::SUCCESS
}
