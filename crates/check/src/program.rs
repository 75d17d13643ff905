//! Event-stream programs: the checker's input language.
//!
//! A [`Program`] is an explicit, self-contained [`MemEvent`] stream —
//! the same vocabulary every workload emits and the engine consumes —
//! plus the engine configuration it runs under and an optional crash
//! plan. Programs are what the generator produces, what the shrinker
//! minimizes, and what a JSON repro round-trips — replaying a repro is
//! exactly re-running its program. The repro is the one saved form of
//! an event stream.

use star_core::SecureMemConfig;
use star_mem::{MemEvent, TraceSink};
use star_trace::{Json, JsonValue};
use star_workloads::Workload;
use std::collections::HashMap;
use std::sync::Arc;

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

/// A self-contained check program: configuration, events, crash plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// The engine configuration: Table I defaults apart from the five
    /// geometry fields a repro carries (`data_lines`, the metadata
    /// cache's bytes and ways, `adr_bitmap_lines`, `counter_lsb_bits`).
    pub cfg: SecureMemConfig,
    /// The event stream. Write versions are explicit, so a shrunk
    /// program keeps the exact line contents of the original.
    pub ops: Vec<MemEvent>,
    /// Mid-run crash plan.
    pub crash: CrashSpec,
}

impl Program {
    /// A program over the `SecureMemConfig::small` geometry with no
    /// mid-run crash.
    pub fn new(ops: Vec<MemEvent>) -> Self {
        Self::with_config(&SecureMemConfig::small(), ops, CrashSpec::None)
    }

    /// A program over `cfg`'s five repro fields on top of Table I
    /// defaults, so it survives a JSON round trip unchanged.
    pub fn with_config(cfg: &SecureMemConfig, ops: Vec<MemEvent>, crash: CrashSpec) -> Self {
        let cfg = SecureMemConfig {
            data_lines: cfg.data_lines,
            metadata_cache_bytes: cfg.metadata_cache_bytes,
            metadata_cache_ways: cfg.metadata_cache_ways,
            adr_bitmap_lines: cfg.adr_bitmap_lines,
            counter_lsb_bits: cfg.counter_lsb_bits,
            ..SecureMemConfig::default()
        };
        Self { cfg, ops, crash }
    }

    /// Number of [`MemEvent::Write`] events.
    pub fn write_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|e| matches!(e, MemEvent::Write { .. }))
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
            self.cfg.data_lines,
            self.cfg.counter_lsb_bits,
            crash
        )
    }

    /// The program as a replayable JSON repro document
    /// (`"kind":"check-repro"`). Byte-stable: equal programs serialize
    /// to equal bytes.
    pub fn to_json(&self) -> String {
        let cfg = &self.cfg;
        let mut j = Json::doc("check-repro");
        j.u64("data_lines", cfg.data_lines)
            .u64("metadata_cache_bytes", cfg.metadata_cache_bytes as u64)
            .u64("metadata_cache_ways", cfg.metadata_cache_ways as u64)
            .u64("adr_bitmap_lines", cfg.adr_bitmap_lines as u64)
            .u64("counter_lsb_bits", u64::from(cfg.counter_lsb_bits));
        match self.crash {
            CrashSpec::None => j.raw("crash", "null"),
            CrashSpec::Frac(f) => j.obj("crash", |j| {
                j.u64("frac", u64::from(f));
            }),
            CrashSpec::At(seq) => j.obj("crash", |j| {
                j.u64("at", seq);
            }),
        };
        j.arr("ops", |j| {
            for op in &self.ops {
                j.arr("", |j| match *op {
                    MemEvent::Write { line, version } => {
                        j.str("", "w").u64("", line).u64("", version);
                    }
                    MemEvent::Clwb { line } => {
                        j.str("", "p").u64("", line);
                    }
                    MemEvent::Read { line } => {
                        j.str("", "r").u64("", line);
                    }
                    MemEvent::Fence => {
                        j.str("", "f");
                    }
                    MemEvent::Work { count } => {
                        j.str("", "k").u64("", count);
                    }
                });
            }
        });
        j.finish()
    }

    /// Parses a JSON repro produced by [`Program::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed JSON, a wrong
    /// `kind`, an unknown operation tag, an op with the wrong number of
    /// arguments for its tag, a crash fraction past 1000, a geometry
    /// that fails validation, an op naming a line past `data_lines`, or
    /// a write whose version is not above the previous write's to the
    /// same line (the engine's persist log could then commit a line's
    /// versions out of order).
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
                    match u32::try_from(f) {
                        Ok(f) if f <= 1000 => CrashSpec::Frac(f),
                        _ => return Err(format!("crash frac {f} is past 1000")),
                    }
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
            let (op, arity) = match tag {
                "w" => (
                    MemEvent::Write {
                        line: arg(1)?,
                        version: arg(2)?,
                    },
                    2,
                ),
                "p" => (MemEvent::Clwb { line: arg(1)? }, 1),
                "r" => (MemEvent::Read { line: arg(1)? }, 1),
                "f" => (MemEvent::Fence, 0),
                "k" => (MemEvent::Work { count: arg(1)? }, 1),
                other => return Err(format!("op {i} has unknown tag \"{other}\"")),
            };
            if parts.len() != arity + 1 {
                return Err(format!(
                    "op {i} ({tag}) takes {arity} argument(s), got {}",
                    parts.len() - 1
                ));
            }
            ops.push(op);
        }
        let size = |key: &str| -> Result<usize, String> {
            usize::try_from(num(key)?).map_err(|_| format!("{key} does not fit in usize"))
        };
        let cfg = SecureMemConfig::builder()
            .data_lines(num("data_lines")?)
            .metadata_cache_bytes(size("metadata_cache_bytes")?)
            .metadata_cache_ways(size("metadata_cache_ways")?)
            .adr_bitmap_lines(size("adr_bitmap_lines")?)
            .counter_lsb_bits(
                u32::try_from(num("counter_lsb_bits")?)
                    .map_err(|_| "counter_lsb_bits does not fit in 32 bits")?,
            )
            .build()
            .map_err(|e| format!("invalid geometry: {e}"))?;
        let mut last_version: HashMap<u64, u64> = HashMap::new();
        for (i, op) in ops.iter().enumerate() {
            let line = match *op {
                MemEvent::Write { line, .. }
                | MemEvent::Clwb { line }
                | MemEvent::Read { line } => line,
                MemEvent::Fence | MemEvent::Work { .. } => continue,
            };
            if line >= cfg.data_lines {
                return Err(format!(
                    "op {i} ({op}) names a line past data_lines {}",
                    cfg.data_lines
                ));
            }
            if let MemEvent::Write { version, .. } = *op {
                match last_version.insert(line, version) {
                    Some(prev) if version <= prev => {
                        return Err(format!(
                            "op {i} ({op}) is not above the previous write to line {line}, v{prev}"
                        ));
                    }
                    _ => {}
                }
            }
        }
        Ok(Program { cfg, ops, crash })
    }
}

/// A [`Workload`] that drives a [`Program`] through any [`TraceSink`],
/// one event per step.
///
/// The harness's own fault-free run feeds the engine's
/// `TraceSink::on_event` the same events (reads through `read_data`,
/// which wraps it), so driving a program this way is event-for-event
/// identical to that run. This is what lets the checker hand its
/// programs to the shared crash machinery
/// ([`star_faultsim::CrashExplorer`]) and seize its crash points in one
/// run instead of replaying the whole program per crash case.
#[derive(Debug, Clone)]
pub struct ProgramWorkload {
    ops: Arc<[MemEvent]>,
    cursor: usize,
}

impl ProgramWorkload {
    /// A workload over `program`'s events, positioned at the start. The
    /// event list is shared (`Arc`), so cloning is O(1).
    pub fn new(program: &Program) -> Self {
        Self {
            ops: program.ops.as_slice().into(),
            cursor: 0,
        }
    }
}

impl Workload for ProgramWorkload {
    fn name(&self) -> &'static str {
        "program"
    }

    fn step(&mut self, sink: &mut dyn TraceSink) {
        if let Some(&event) = self.ops.get(self.cursor) {
            self.cursor += 1;
            sink.on_event(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Program {
        let mut p = Program::new(vec![
            MemEvent::Write {
                line: 3,
                version: 1,
            },
            MemEvent::Clwb { line: 3 },
            MemEvent::Fence,
            MemEvent::Read { line: 3 },
            MemEvent::Work { count: 120 },
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
        let json = sample().to_json();
        let p = json.replace("[\"w\",3,1]", "[\"z\",3,1]");
        assert!(Program::from_json(&p).is_err());
        // Inputs that parse but would panic the engine.
        let mut p = sample();
        p.cfg.adr_bitmap_lines = 1;
        let err = Program::from_json(&p.to_json()).expect_err("geometry");
        assert!(err.contains("bitmap lines in ADR"), "{err}");
        let mut p = sample();
        p.ops.push(MemEvent::Read {
            line: p.cfg.data_lines,
        });
        let err = Program::from_json(&p.to_json()).expect_err("line");
        assert!(err.starts_with("op 5 (read("), "{err}");
        // Numbers past their field's range, which used to be clamped or
        // truncated.
        let frac = json.replace("\"frac\":512", "\"frac\":1001");
        assert!(Program::from_json(&frac).is_err(), "frac is out of 1000");
        let wide = json.replace("\"counter_lsb_bits\":10", "\"counter_lsb_bits\":4294967298");
        assert!(Program::from_json(&wide).is_err(), "no silent truncation");
        // Ops that parse but break the repro contract: an argument
        // count wrong for the tag (the op would re-serialize
        // differently), and a write that does not raise its line's
        // version (the persist log would commit the line out of order).
        let with_ops =
            |ops: &str| format!("{}\"ops\":{ops}}}", &json[..json.find("\"ops\"").unwrap()]);
        for (ops, want) in [
            (r#"[["f",5]]"#, "op 0 (f) takes 0 argument(s), got 1"),
            (r#"[["w",3,1,99]]"#, "op 0 (w) takes 2 argument(s), got 3"),
            (r#"[["r",3,"x"]]"#, "op 0 (r) takes 1 argument(s), got 2"),
            (
                r#"[["w",3,5],["p",3],["w",3,2],["p",3]]"#,
                "op 2 (write(3, v2)) is not above the previous write to line 3, v5",
            ),
            (
                r#"[["w",3,5],["p",3],["w",3,5],["p",3]]"#,
                "op 2 (write(3, v5)) is not above the previous write to line 3, v5",
            ),
        ] {
            assert_eq!(Program::from_json(&with_ops(ops)), Err(want.to_string()));
        }
        // Versions rise per line, not globally.
        let interleaved = with_ops(r#"[["w",3,5],["w",4,2],["w",3,6]]"#);
        assert!(Program::from_json(&interleaved).is_ok());
    }

    #[test]
    fn config_reflects_geometry() {
        let cfg = SecureMemConfig::small()
            .to_builder()
            .counter_lsb_bits(4)
            .key_seed(7)
            .build()
            .expect("valid");
        let p = Program::with_config(&cfg, sample().ops, CrashSpec::At(3));
        assert_eq!(p.cfg.data_lines, cfg.data_lines);
        assert_eq!(p.cfg.counter_lsb_bits, 4);
        assert_eq!(
            p.cfg.key_seed,
            SecureMemConfig::default().key_seed,
            "a repro carries no key seed, so a program keeps none"
        );
        assert_eq!(Program::from_json(&p.to_json()), Ok(p));
    }
}
