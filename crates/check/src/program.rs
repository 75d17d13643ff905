//! Operation-sequence programs: the checker's input language.
//!
//! A [`Program`] is an explicit, self-contained list of memory-reference
//! operations plus the engine geometry it runs under and an optional
//! crash plan. Programs are what the generator produces, what the
//! shrinker minimizes, and what a JSON repro round-trips — replaying a
//! repro is exactly re-running its program.

use star_core::report::{json_str, schema_preamble};
use star_core::{SecureMemConfig, SecureMemConfigBuilder};
use star_mem::{MemEvent, TraceSink};
use star_prof::JsonValue;
use star_workloads::Workload;
use std::fmt::Write as _;
use std::sync::Arc;

/// One operation of a check program — the same vocabulary as
/// [`star_mem::MemEvent`], with write versions made explicit so a
/// shrunk program keeps the exact line contents of the original.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Store `version` to data line `line`.
    Write {
        /// Data line index.
        line: u64,
        /// Content version (monotone per program).
        version: u64,
    },
    /// `clwb`-persist data line `line`.
    Persist {
        /// Data line index.
        line: u64,
    },
    /// Load data line `line` through verify-and-decrypt.
    Read {
        /// Data line index.
        line: u64,
    },
    /// `sfence` persist barrier.
    Fence,
    /// `count` instructions of pure compute.
    Work {
        /// Instruction count.
        count: u64,
    },
}

impl Op {
    /// The [`MemEvent`] this op drives into an engine — the inverse of
    /// [`ProgramRecorder`]'s mapping, so record-then-drive is the
    /// identity on reference streams.
    pub fn to_event(self) -> MemEvent {
        match self {
            Op::Write { line, version } => MemEvent::Write { line, version },
            Op::Persist { line } => MemEvent::Clwb { line },
            Op::Read { line } => MemEvent::Read { line },
            Op::Fence => MemEvent::Fence,
            Op::Work { count } => MemEvent::Work { count },
        }
    }
}

impl core::fmt::Display for Op {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Op::Write { line, version } => write!(f, "write({line}, v{version})"),
            Op::Persist { line } => write!(f, "persist({line})"),
            Op::Read { line } => write!(f, "read({line})"),
            Op::Fence => f.write_str("fence"),
            Op::Work { count } => write!(f, "work({count})"),
        }
    }
}

/// Where (and whether) the differential harness injects a crash.
///
/// This is the *program-level* crash specification — schedule-relative
/// (`Frac`) so it survives shrinking. It resolves to a concrete persist
/// point, the one [`star_core::SecureMemory::arm`] takes, once the
/// program's persist schedule is known.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSpec {
    /// No mid-run crash; only the end-of-run crash/recover check runs.
    None,
    /// Crash at persist point `1 + frac * (points - 1) / 1000` of the
    /// program's own persist schedule (`frac` in `0..=1000`), so the
    /// plan stays meaningful as the shrinker removes operations.
    Frac(u32),
    /// Crash at an absolute persist-point sequence number (used when a
    /// program is recorded from a faultsim case with a known crash
    /// point).
    At(u64),
}

/// A self-contained check program: geometry, operations, crash plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Number of user-data lines.
    pub data_lines: u64,
    /// Metadata cache capacity in bytes.
    pub metadata_cache_bytes: usize,
    /// Metadata cache associativity.
    pub metadata_cache_ways: usize,
    /// Bitmap lines resident in ADR.
    pub adr_bitmap_lines: usize,
    /// Spare MAC bits carrying parent-counter LSBs.
    pub counter_lsb_bits: u32,
    /// The operation sequence.
    pub ops: Vec<Op>,
    /// Mid-run crash plan.
    pub crash: CrashSpec,
}

impl Program {
    /// A program over the `SecureMemConfig::small` geometry with no
    /// mid-run crash.
    pub fn new(ops: Vec<Op>) -> Self {
        let cfg = SecureMemConfig::small();
        Self {
            data_lines: cfg.data_lines,
            metadata_cache_bytes: cfg.metadata_cache_bytes,
            metadata_cache_ways: cfg.metadata_cache_ways,
            adr_bitmap_lines: cfg.adr_bitmap_lines,
            counter_lsb_bits: cfg.counter_lsb_bits,
            ops,
            crash: CrashSpec::None,
        }
    }

    /// A program whose geometry fields are copied from `cfg`.
    pub fn with_config(cfg: &SecureMemConfig, ops: Vec<Op>, crash: CrashSpec) -> Self {
        Self {
            data_lines: cfg.data_lines,
            metadata_cache_bytes: cfg.metadata_cache_bytes,
            metadata_cache_ways: cfg.metadata_cache_ways,
            adr_bitmap_lines: cfg.adr_bitmap_lines,
            counter_lsb_bits: cfg.counter_lsb_bits,
            ops,
            crash,
        }
    }

    /// Builder for the engine configuration this program runs under
    /// (callers may tweak further before `build()`).
    pub fn config_builder(&self) -> SecureMemConfigBuilder {
        SecureMemConfig::builder()
            .data_lines(self.data_lines)
            .metadata_cache_bytes(self.metadata_cache_bytes)
            .metadata_cache_ways(self.metadata_cache_ways)
            .adr_bitmap_lines(self.adr_bitmap_lines)
            .counter_lsb_bits(self.counter_lsb_bits)
    }

    /// The validated engine configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fields are inconsistent (the generator
    /// only draws from validated shapes; hand-edited repros should be
    /// fixed rather than silently patched).
    pub fn config(&self) -> SecureMemConfig {
        self.config_builder()
            .build()
            .expect("program geometry must validate")
    }

    /// Number of [`Op::Write`] operations.
    pub fn write_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| matches!(o, Op::Write { .. }))
            .count()
    }

    /// A one-line human summary (`34 ops (18 writes), crash frac 312`).
    pub fn summary(&self) -> String {
        let crash = match self.crash {
            CrashSpec::None => "no mid-run crash".to_string(),
            CrashSpec::Frac(f) => format!("crash frac {f}/1000"),
            CrashSpec::At(seq) => format!("crash at persist point {seq}"),
        };
        format!(
            "{} ops ({} writes), {} data lines, lsb_bits {}, {}",
            self.ops.len(),
            self.write_count(),
            self.data_lines,
            self.counter_lsb_bits,
            crash
        )
    }

    /// The program as a replayable JSON repro document
    /// (`"kind":"check-repro"`). Byte-stable: equal programs serialize
    /// to equal bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&schema_preamble("check-repro"));
        let _ = write!(
            out,
            "\"data_lines\":{},\"metadata_cache_bytes\":{},\"metadata_cache_ways\":{},\
             \"adr_bitmap_lines\":{},\"counter_lsb_bits\":{},",
            self.data_lines,
            self.metadata_cache_bytes,
            self.metadata_cache_ways,
            self.adr_bitmap_lines,
            self.counter_lsb_bits
        );
        match self.crash {
            CrashSpec::None => out.push_str("\"crash\":null,"),
            CrashSpec::Frac(f) => {
                let _ = write!(out, "\"crash\":{{\"frac\":{f}}},");
            }
            CrashSpec::At(seq) => {
                let _ = write!(out, "\"crash\":{{\"at\":{seq}}},");
            }
        }
        out.push_str("\"ops\":[");
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match op {
                Op::Write { line, version } => {
                    let _ = write!(out, "[{},{line},{version}]", json_str("w"));
                }
                Op::Persist { line } => {
                    let _ = write!(out, "[{},{line}]", json_str("p"));
                }
                Op::Read { line } => {
                    let _ = write!(out, "[{},{line}]", json_str("r"));
                }
                Op::Fence => {
                    let _ = write!(out, "[{}]", json_str("f"));
                }
                Op::Work { count } => {
                    let _ = write!(out, "[{},{count}]", json_str("k"));
                }
            }
        }
        out.push_str("]}");
        out
    }

    /// Parses a JSON repro produced by [`Program::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed JSON, a wrong
    /// `kind`, or an unknown operation tag.
    pub fn from_json(text: &str) -> Result<Program, String> {
        let doc = JsonValue::parse(text).map_err(|e| format!("repro is not JSON: {e}"))?;
        let kind = doc.get("kind").and_then(|k| k.as_str()).unwrap_or("");
        if kind != "check-repro" {
            return Err(format!("expected kind \"check-repro\", got \"{kind}\""));
        }
        let num = |key: &str| -> Result<u64, String> {
            doc.get(key)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("missing numeric field \"{key}\""))
        };
        let crash = match doc.get("crash") {
            None | Some(JsonValue::Null) => CrashSpec::None,
            Some(v) => {
                if let Some(f) = v.get("frac").and_then(|f| f.as_u64()) {
                    CrashSpec::Frac(f as u32)
                } else if let Some(seq) = v.get("at").and_then(|s| s.as_u64()) {
                    CrashSpec::At(seq)
                } else {
                    return Err("crash plan must be null, {\"frac\":N} or {\"at\":N}".into());
                }
            }
        };
        let raw_ops = doc
            .get("ops")
            .and_then(|v| v.as_arr())
            .ok_or("missing \"ops\" array")?;
        let mut ops = Vec::with_capacity(raw_ops.len());
        for (i, raw) in raw_ops.iter().enumerate() {
            let parts = raw
                .as_arr()
                .ok_or_else(|| format!("op {i} is not an array"))?;
            let tag = parts
                .first()
                .and_then(|t| t.as_str())
                .ok_or_else(|| format!("op {i} has no tag"))?;
            let arg = |n: usize| -> Result<u64, String> {
                parts
                    .get(n)
                    .and_then(|v| v.as_u64())
                    .ok_or_else(|| format!("op {i} ({tag}) missing argument {n}"))
            };
            ops.push(match tag {
                "w" => Op::Write {
                    line: arg(1)?,
                    version: arg(2)?,
                },
                "p" => Op::Persist { line: arg(1)? },
                "r" => Op::Read { line: arg(1)? },
                "f" => Op::Fence,
                "k" => Op::Work { count: arg(1)? },
                other => return Err(format!("op {i} has unknown tag \"{other}\"")),
            });
        }
        Ok(Program {
            data_lines: num("data_lines")?,
            metadata_cache_bytes: num("metadata_cache_bytes")? as usize,
            metadata_cache_ways: num("metadata_cache_ways")? as usize,
            adr_bitmap_lines: num("adr_bitmap_lines")? as usize,
            counter_lsb_bits: num("counter_lsb_bits")? as u32,
            ops,
            crash,
        })
    }
}

/// A [`TraceSink`] that records a workload's reference stream as an
/// explicit [`Op`] list, so a faultsim case (workload + crash point) can
/// be turned into a shrinkable, replayable [`Program`].
#[derive(Debug, Default)]
pub struct ProgramRecorder {
    /// The operations recorded so far, in arrival order.
    pub ops: Vec<Op>,
}

impl ProgramRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the recorder, yielding a [`Program`] over `cfg` with
    /// crash plan `crash`.
    pub fn into_program(self, cfg: &SecureMemConfig, crash: CrashSpec) -> Program {
        Program::with_config(cfg, self.ops, crash)
    }
}

impl TraceSink for ProgramRecorder {
    fn on_event(&mut self, event: MemEvent) {
        self.ops.push(match event {
            MemEvent::Read { line } => Op::Read { line },
            MemEvent::Write { line, version } => Op::Write { line, version },
            MemEvent::Clwb { line } => Op::Persist { line },
            MemEvent::Fence => Op::Fence,
            MemEvent::Work { count } => Op::Work { count },
        });
    }
}

/// The inverse adapter: a [`Workload`] that drives a recorded
/// [`Program`] through any [`TraceSink`], one op per step.
///
/// The engine's typed entry points (`write_data`, `persist_data`, …) are
/// thin wrappers over its `TraceSink::on_event`, and [`Op`] ↔
/// [`MemEvent`] is a bijection, so driving a program this way is
/// event-for-event identical to the harness's own replay loop. This is
/// what lets the checker hand its programs to the shared crash machinery
/// ([`star_faultsim::CrashExplorer`]) and seize its crash points in one
/// run instead of replaying the whole program per crash case.
#[derive(Debug, Clone)]
pub struct ProgramWorkload {
    ops: Arc<[Op]>,
    cursor: usize,
}

impl ProgramWorkload {
    /// A workload over `program`'s ops, positioned at the start. The op
    /// list is shared (`Arc`), so cloning is O(1).
    pub fn new(program: &Program) -> Self {
        Self {
            ops: program.ops.iter().copied().collect(),
            cursor: 0,
        }
    }
}

impl Workload for ProgramWorkload {
    fn name(&self) -> &'static str {
        "program"
    }

    fn step(&mut self, sink: &mut dyn TraceSink) {
        if let Some(&op) = self.ops.get(self.cursor) {
            self.cursor += 1;
            sink.on_event(op.to_event());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Program {
        let mut p = Program::new(vec![
            Op::Write {
                line: 3,
                version: 1,
            },
            Op::Persist { line: 3 },
            Op::Fence,
            Op::Read { line: 3 },
            Op::Work { count: 120 },
        ]);
        p.crash = CrashSpec::Frac(512);
        p
    }

    #[test]
    fn repro_json_roundtrips() {
        let p = sample();
        let json = p.to_json();
        assert!(json.contains("\"kind\":\"check-repro\""));
        let back = Program::from_json(&json).expect("parses");
        assert_eq!(back, p);
        assert_eq!(back.to_json(), json, "serialization is canonical");
    }

    #[test]
    fn crash_plan_variants_roundtrip() {
        for crash in [CrashSpec::None, CrashSpec::Frac(0), CrashSpec::At(17)] {
            let mut p = sample();
            p.crash = crash;
            assert_eq!(Program::from_json(&p.to_json()).unwrap().crash, crash);
        }
    }

    #[test]
    fn bad_repros_are_rejected() {
        assert!(Program::from_json("not json").is_err());
        assert!(Program::from_json("{\"kind\":\"run-report\"}").is_err());
        let p = sample().to_json().replace("[\"w\",3,1]", "[\"z\",3,1]");
        assert!(Program::from_json(&p).is_err());
    }

    #[test]
    fn config_reflects_geometry() {
        let p = sample();
        let cfg = p.config();
        assert_eq!(cfg.data_lines, p.data_lines);
        assert_eq!(cfg.counter_lsb_bits, p.counter_lsb_bits);
    }

    #[test]
    fn recorder_maps_every_event_kind() {
        let mut rec = ProgramRecorder::new();
        rec.on_event(MemEvent::Write {
            line: 1,
            version: 9,
        });
        rec.on_event(MemEvent::Clwb { line: 1 });
        rec.on_event(MemEvent::Fence);
        rec.on_event(MemEvent::Read { line: 1 });
        rec.on_event(MemEvent::Work { count: 5 });
        let p = rec.into_program(&SecureMemConfig::small(), CrashSpec::At(3));
        assert_eq!(p.ops.len(), 5);
        assert_eq!(p.crash, CrashSpec::At(3));
    }
}
