//! The command-line boundary: one parser over the flag table, typed
//! value getters, and the binary's only ways out on bad input or a
//! failed write.
//!
//! Each usage line in [`SUBCOMMANDS`](crate::SUBCOMMANDS) is that
//! subcommand's grammar. `[--flag VALUE]` takes a value, `[--flag]` is a
//! switch, and a first group that does not start with `-` names the one
//! positional. The same lines print as the usage text, so a flag is
//! accepted exactly where `--help` lists it.

use crate::SUBCOMMANDS;
use star_trace::{trace_to_chrome_json, trace_to_jsonl, CatMask, TracePart};
use std::fmt::Display;
use std::str::FromStr;

/// What the usage lines cannot say.
const NOTES: &str = "\
W is array|btree|hash|queue|rbtree|tpcc|ycsb. CATS is a comma list of trace
categories, or all. EXPERIMENT is all (the default) or one of fig10, fig11,
fig12, fig13, breakdown, table2, fig14a, fig14b, ablate, extensions.
A FILE of - is stdout. J sizes the host worker pool (reports are identical at
any J), T counts simulated threads, and L lanes (serve: 1 is one store).";

/// A subcommand's name, entry point and usage line.
pub type Subcommand = (&'static str, fn(&Args), &'static str);

/// One subcommand's command line, checked against its usage line.
pub struct Args {
    spec: &'static str,
    /// Each flag given, with its value (`None` for a switch), in order.
    given: Vec<(String, Option<String>)>,
    positional: Option<String>,
}

/// Rejects bad input: one line on stderr, exit status 2. This is the
/// binary's only exit-2 path.
pub fn reject(msg: impl Display) -> ! {
    eprintln!("star-bench: {msg}");
    std::process::exit(2);
}

/// Prints the usage text on stdout and exits 0.
fn help() -> ! {
    println!("usage: star-bench <subcommand> [flags]    (--help or -h prints this text)\n");
    for (name, _, spec) in SUBCOMMANDS {
        let mut line = format!("  {name:<9}");
        for group in spec.split_inclusive(']') {
            if line.len() + group.len() > 80 {
                println!("{line}");
                line = " ".repeat(10);
            }
            line += group;
        }
        println!("{line}");
    }
    println!("\n{NOTES}");
    std::process::exit(0);
}

/// Whether `spec` lists `flag` with a value (`Some(true)`), as a switch
/// (`Some(false)`), or not at all (`None`).
fn takes_value(spec: &str, flag: &str) -> Option<bool> {
    let group = spec
        .split(['[', ']'])
        .find(|group| flag.starts_with("--") && group.split(' ').next() == Some(flag))?;
    Some(group.contains(' '))
}

/// Parses `SUBCOMMAND ARGS...` and returns the subcommand's entry point
/// with its arguments. Rejects an unknown subcommand, an unknown flag, a
/// flag without its value and an unexpected positional before anything
/// runs; `--help` or `-h` prints the usage text instead.
pub fn parse(argv: impl IntoIterator<Item = String>) -> (fn(&Args), Args) {
    let mut argv = argv.into_iter();
    let Some(first) = argv.next() else {
        reject("missing subcommand (see --help)")
    };
    if first == "--help" || first == "-h" {
        help();
    }
    let (name, run, spec) = SUBCOMMANDS
        .into_iter()
        .find(|(name, ..)| *name == first)
        .unwrap_or_else(|| reject(format!("unknown subcommand {first:?} (see --help)")));
    let mut args = Args {
        spec,
        given: Vec::new(),
        positional: None,
    };
    while let Some(arg) = argv.next() {
        if arg == "--help" || arg == "-h" {
            help();
        }
        match takes_value(spec, &arg) {
            Some(true) => {
                let value = argv
                    .next()
                    .unwrap_or_else(|| reject(format!("{name} {arg} needs a value")));
                args.given.push((arg, Some(value)));
            }
            Some(false) => args.given.push((arg, None)),
            None if !arg.starts_with('-')
                && !spec.starts_with("[-")
                && args.positional.is_none() =>
            {
                args.positional = Some(arg);
            }
            None => reject(format!("{name}: unexpected argument {arg:?} (see --help)")),
        }
    }
    (run, args)
}

impl Args {
    /// The value of `flag`, the last one given winning, or `None` when
    /// it is absent.
    pub fn value(&self, flag: &str) -> Option<&str> {
        debug_assert_eq!(takes_value(self.spec, flag), Some(true), "{flag}");
        let (_, value) = self.given.iter().rev().find(|(f, _)| f == flag)?;
        value.as_deref()
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        debug_assert_eq!(takes_value(self.spec, flag), Some(false), "{flag}");
        self.given.iter().any(|(f, _)| f == flag)
    }

    /// The positional argument, if one was given.
    pub fn positional(&self) -> Option<&str> {
        self.positional.as_deref()
    }

    /// The value of `flag` read by `parse`, or `None` when it is absent.
    /// Rejects a value `parse` refuses.
    pub fn parsed<T>(&self, flag: &str, parse: impl FnOnce(&str) -> Option<T>) -> Option<T> {
        let text = self.value(flag)?;
        Some(
            parse(text)
                .unwrap_or_else(|| reject(format!("bad {flag} value {text:?} (see --help)"))),
        )
    }

    /// The number given for `flag`, or `default`. Rejects a value that
    /// does not parse as a `T`.
    pub fn num<T: FromStr>(&self, flag: &str, default: T) -> T {
        self.parsed(flag, |text| text.parse().ok())
            .unwrap_or(default)
    }

    /// [`num`](Self::num), also rejecting a number below `min`.
    pub fn at_least<T: FromStr + PartialOrd + Display>(&self, flag: &str, default: T, min: T) -> T {
        let n = self.num(flag, default);
        if n < min {
            reject(format!("{flag} must be at least {min}, got {n}"));
        }
        n
    }

    /// The `--trace-filter` categories, all by default. Rejects an
    /// unknown category and a spec that names none.
    pub fn trace_filter(&self) -> CatMask {
        let Some(spec) = self.value("--trace-filter") else {
            return CatMask::ALL;
        };
        match CatMask::parse(spec) {
            Ok(mask) if mask != CatMask::NONE => mask,
            Ok(_) => reject(format!("--trace-filter {spec:?} names no category")),
            Err(err) => reject(err),
        }
    }
}

/// Writes `text` to the file `path`, or to stdout (with a newline) when
/// `path` is `-`. A failed write prints one line and exits 1.
pub fn write_out(path: &str, what: &str, text: &str) {
    if path == "-" {
        println!("{text}");
    } else if let Err(err) = std::fs::write(path, text) {
        eprintln!("cannot write {what} to {path}: {err}");
        std::process::exit(1);
    } else {
        eprintln!("wrote {what} to {path}");
    }
}

/// Writes a star-trace timeline through [`write_out`]: JSONL when `path`
/// ends in `.jsonl`, Chrome trace-event JSON otherwise. Warns on stderr
/// when the ring buffers dropped events.
pub fn write_trace(path: &str, parts: &[TracePart], dropped: u64) {
    if dropped > 0 {
        eprintln!("trace: WARNING: {dropped} events dropped (ring buffer full)");
    }
    let doc = if path.ends_with(".jsonl") {
        trace_to_jsonl(parts)
    } else {
        trace_to_chrome_json(parts)
    };
    let events: usize = parts.iter().map(|part| part.events.len()).sum();
    write_out(path, &format!("trace ({events} events)"), &doc);
}
