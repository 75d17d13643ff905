//! Merging per-component buffers and serializing timelines.
//!
//! Two versioned `trace` documents, both byte-stable and both written
//! through the one [`Json`] codec:
//!
//! * **JSONL** ([`trace_to_jsonl`]) — a header object on the first
//!   line, then one self-contained JSON object per event line, for
//!   `grep`/`jq` pipelines.
//! * **Chrome trace-event JSON** ([`trace_to_chrome_json`]) — the
//!   `{"traceEvents":[...]}` object format Perfetto and
//!   `chrome://tracing` load directly (both ignore the extra
//!   `schema_version`/`kind` keys). Events map to phases `i` (instant),
//!   `X` (complete span) and `C` (counter); each [`TracePart`] becomes
//!   one process (`pid`) and each category one named thread (`tid`),
//!   declared with `M` metadata rows.

use crate::event::{EventKind, TraceCategory, TraceEvent};
use crate::hist::Log2Hist;
use crate::json::Json;
use crate::record::Histograms;

/// One process worth of timeline: a label, its merged events, and
/// optionally the histograms recorded alongside them.
#[derive(Debug, Clone, Copy)]
pub struct TracePart<'a> {
    /// Chrome `pid` (1-based by convention).
    pub pid: u64,
    /// Process label shown by Perfetto (e.g. `"array/star"`).
    pub label: &'a str,
    /// Events in merged order (see [`merge`]).
    pub events: &'a [TraceEvent],
    /// Histograms to export under `"histograms"` (ignored by Perfetto).
    pub hists: Option<&'a Histograms>,
}

/// Merges per-component event buffers into one timeline.
///
/// Buffers are concatenated in the order given, then stably sorted by
/// timestamp — ties keep the buffer order, so the merged sequence is a
/// deterministic function of the inputs alone. Callers fix the buffer
/// order (engine, hierarchy, device) once and get byte-identical
/// exports on every run.
pub fn merge(buffers: &[&[TraceEvent]]) -> Vec<TraceEvent> {
    let total = buffers.iter().map(|b| b.len()).sum();
    let mut out = Vec::with_capacity(total);
    for b in buffers {
        out.extend_from_slice(b);
    }
    out.sort_by_key(|e| e.ts_ps);
    out
}

/// An event's payload args as the `"args"` member (empty names skipped).
fn args(j: &mut Json, ev: &TraceEvent) {
    j.obj("args", |j| {
        for (name, value) in [ev.arg0, ev.arg1] {
            if !name.is_empty() {
                j.u64(name, value);
            }
        }
    });
}

/// A merged timeline as JSONL: a versioned header object on the first
/// line, then one event object per line, in part order. Multi-part
/// exports carry the part in each line.
pub fn trace_to_jsonl(parts: &[TracePart<'_>]) -> String {
    let mut header = Json::doc("trace");
    header.str("format", "jsonl");
    let mut out = header.finish();
    out.push('\n');
    let multi = parts.len() > 1;
    for part in parts {
        for ev in part.events {
            let mut j = Json::object();
            if multi {
                j.u64("pid", part.pid).str("part", part.label);
            }
            j.u64("ts_ps", ev.ts_ps)
                .u64("dur_ps", ev.dur_ps)
                .str("kind", ev.kind.label())
                .str("cat", ev.cat.label())
                .str("name", ev.name);
            args(&mut j, ev);
            out.push_str(&j.finish());
            out.push('\n');
        }
    }
    out
}

/// Picoseconds as the microsecond float Chrome expects.
fn us(ps: u64) -> f64 {
    ps as f64 / 1e6
}

fn hist(j: &mut Json, name: &str, h: &Log2Hist) {
    j.obj(name, |j| {
        j.u64("count", h.count())
            .u64("sum", h.sum())
            .u64("max", h.max())
            .f64("mean", h.mean())
            .pairs("buckets", h.nonzero());
    });
}

/// A metadata row naming process `pid` (`tid` 0) or one of its threads.
fn meta(j: &mut Json, row: &str, pid: u64, tid: u64, name: &str) {
    j.obj("", |j| {
        j.str("name", row)
            .str("ph", "M")
            .u64("pid", pid)
            .u64("tid", tid)
            .obj("args", |j| {
                j.str("name", name);
            });
    });
}

/// A merged timeline as a versioned Chrome trace-event JSON document:
/// `"displayTimeUnit"`, the `"traceEvents"` array, and each part's
/// histograms under `"histograms"`.
pub fn trace_to_chrome_json(parts: &[TracePart<'_>]) -> String {
    let mut j = Json::doc("trace");
    j.str("displayTimeUnit", "ns").arr("traceEvents", |j| {
        for part in parts {
            meta(j, "process_name", part.pid, 0, part.label);
            for cat in TraceCategory::ALL {
                if part.events.iter().any(|e| e.cat == cat) {
                    meta(j, "thread_name", part.pid, cat as u64 + 1, cat.label());
                }
            }
            for ev in part.events {
                j.obj("", |j| {
                    j.str("name", ev.name)
                        .str("cat", ev.cat.label())
                        .u64("pid", part.pid)
                        .u64("tid", ev.cat as u64 + 1)
                        .f64("ts", us(ev.ts_ps));
                    match ev.kind {
                        EventKind::Instant => {
                            j.str("ph", "i").str("s", "t");
                            args(j, ev);
                        }
                        EventKind::Span => {
                            j.str("ph", "X").f64("dur", us(ev.dur_ps));
                            args(j, ev);
                        }
                        EventKind::Counter => {
                            j.str("ph", "C").obj("args", |j| {
                                j.u64(ev.arg0.0, ev.arg0.1);
                            });
                        }
                    }
                });
            }
        }
    });
    j.obj("histograms", |j| {
        for part in parts {
            let Some(hists) = part.hists else { continue };
            j.obj(part.label, |j| {
                for (name, h) in hists.named() {
                    hist(j, name, h);
                }
            });
        }
    });
    j.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(ts: u64, name: &'static str, kind: EventKind) -> TraceEvent {
        TraceEvent {
            ts_ps: ts,
            dur_ps: if kind == EventKind::Span { 10 } else { 0 },
            kind,
            cat: TraceCategory::Nvm,
            name,
            arg0: ("addr", 5),
            arg1: ("", 0),
        }
    }

    #[test]
    fn merge_is_stable_on_ties() {
        let a = [
            ev(5, "a0", EventKind::Instant),
            ev(9, "a1", EventKind::Instant),
        ];
        let b = [ev(5, "b0", EventKind::Instant)];
        let merged = merge(&[&a, &b]);
        let names: Vec<_> = merged.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["a0", "b0", "a1"], "ties keep buffer order");
    }

    #[test]
    fn jsonl_lines_are_self_contained() {
        let events = [ev(1_000_000, "nvm-read", EventKind::Span)];
        let part = TracePart {
            pid: 1,
            label: "run",
            events: &events,
            hists: None,
        };
        let text = trace_to_jsonl(&[part]);
        let mut lines = text.lines();
        assert_eq!(
            lines.next(),
            Some("{\"schema_version\":7,\"kind\":\"trace\",\"format\":\"jsonl\"}")
        );
        assert_eq!(lines.count(), 1);
        assert!(text.contains("\n{\"ts_ps\":1000000,\"dur_ps\":10,\"kind\":\"span\""));
        assert!(text.contains("\"args\":{\"addr\":5}"));
    }

    #[test]
    fn chrome_document_declares_metadata_and_phases() {
        let events = [
            ev(0, "nvm-read", EventKind::Span),
            ev(2_000_000, "journal-drop", EventKind::Instant),
            TraceEvent {
                arg0: ("wpq-depth", 7),
                ..ev(3_000_000, "wpq-depth", EventKind::Counter)
            },
        ];
        let mut hists = Histograms::new();
        hists.wpq_depth.observe(7);
        let part = TracePart {
            pid: 1,
            label: "array/star",
            events: &events,
            hists: Some(&hists),
        };
        let body = trace_to_chrome_json(&[part]);
        assert!(body.starts_with(
            "{\"schema_version\":7,\"kind\":\"trace\",\"displayTimeUnit\":\"ns\",\"traceEvents\":["
        ));
        assert!(body.contains("\"process_name\""));
        assert!(body.contains("\"thread_name\""));
        assert!(body.contains("\"ph\":\"X\""));
        assert!(body.contains("\"ph\":\"i\""));
        assert!(body.contains("\"ph\":\"C\""));
        assert!(body.contains("\"ts\":2"), "ps converted to us");
        assert!(body.contains("\"histograms\":{\"array/star\":{\"read_latency_ps\""));
        assert!(body.contains(
            "\"wpq_depth\":{\"count\":1,\"sum\":7,\"max\":7,\"mean\":7,\"buckets\":[[4,1]]}"
        ));
        assert!(crate::JsonValue::parse(&body).is_ok());
    }
}
