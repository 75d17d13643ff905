//! The `shard` report (a kind added in schema 6, emitted as v7):
//! lane-keyed sections, the epoch-merged persist log, and cross-shard
//! merged totals.
//!
//! The document deliberately encodes **nothing about the execution
//! grouping**: no shard count, no thread count, no wall-clock times.
//! Everything in it is a pure function of the workload-defining spec
//! fields, which is what lets CI `cmp` the bytes of a `--shards 1` run
//! against a `--shards 4` run (DESIGN.md §13).
//!
//! Document shape (kind `"shard"`):
//!
//! ```json
//! {"schema_version":7,"kind":"shard",
//!  "lanes":L,"ops_per_lane":N,"epoch_ops":K,"seed":S,
//!  "cells":[
//!    {"scheme":"star","workload":"ycsb",
//!     "shards":[{"lane":0,"persist_points":P,
//!                "recoveries":[{"at_epoch":E,"stale_nodes":..,
//!                               "nvm_reads":..,"nvm_writes":..,
//!                               "recovery_ns":..}],
//!                "report":{..run-report..}}, ..],
//!     "epoch_log":[[epoch,lane,persist_points,now_ps], ..],
//!     "merged":{..run-report..}}, ..]}
//! ```
//!
//! Per-lane and merged sections embed the standard self-describing
//! `run-report` object, so every existing run-report consumer works on
//! a shard section unchanged.

use crate::runner::{EpochRecord, LaneOutcome};
use star_core::report::{json_str, schema_preamble, trace_to_chrome_json, TracePart};
use star_core::{RunReport, SchemeKind};
use std::fmt::Write as _;

/// One scheme's sharded run: per-lane outcomes plus the merged view.
#[derive(Debug, Clone)]
pub struct ShardRunReport {
    /// Scheme every lane ran.
    pub scheme: SchemeKind,
    /// Workload label every lane ran (lane-derived seeds).
    pub workload: &'static str,
    /// Number of lanes (metadata domains).
    pub lanes: u32,
    /// Operations per lane.
    pub ops_per_lane: u64,
    /// Epoch quantum in operations.
    pub epoch_ops: u64,
    /// Master seed.
    pub seed: u64,
    /// Per-lane outcomes, in lane order.
    pub outcomes: Vec<LaneOutcome>,
    /// The cross-shard merged report (see
    /// [`star_core::stats::merge_reports`]).
    pub merged: RunReport,
    /// Every lane's epoch records, merged key-ordered by
    /// `(epoch, lane)`.
    pub epoch_log: Vec<EpochRecord>,
}

fn epoch_log_json(log: &[EpochRecord]) -> String {
    let mut out = String::from("[");
    for (i, r) in log.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "[{},{},{},{}]",
            r.epoch, r.lane, r.persist_points, r.now_ps
        );
    }
    out.push(']');
    out
}

impl ShardRunReport {
    /// This run as one grid cell object (no preamble; see the module
    /// docs for the shape).
    pub fn cell_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"scheme\":{},\"workload\":{},\"shards\":[",
            json_str(self.scheme.label()),
            json_str(self.workload)
        );
        for (i, o) in self.outcomes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"lane\":{},\"persist_points\":{},\"recoveries\":[",
                o.lane, o.persist_points
            );
            for (j, r) in o.recoveries.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"at_epoch\":{},\"stale_nodes\":{},\"nvm_reads\":{},\
                     \"nvm_writes\":{},\"recovery_ns\":{}}}",
                    r.at_epoch, r.stale_nodes, r.nvm_reads, r.nvm_writes, r.recovery_ns
                );
            }
            let _ = write!(out, "],\"report\":{}}}", o.report.to_json());
        }
        let _ = write!(
            out,
            "],\"epoch_log\":{},\"merged\":{}}}",
            epoch_log_json(&self.epoch_log),
            self.merged.to_json()
        );
        out
    }

    /// The run as a complete single-cell `shard` document (same shape
    /// as a [`ShardGridReport`] with one cell).
    pub fn to_json(&self) -> String {
        doc_json(
            self.lanes,
            self.ops_per_lane,
            self.epoch_ops,
            self.seed,
            &self.cell_json(),
        )
    }

    /// The merged lane timelines as a Chrome trace-event document: one
    /// track (`pid` = lane + 1) per lane. `None` when the run was not
    /// traced.
    pub fn trace_chrome_json(&self) -> Option<String> {
        if self.outcomes.iter().all(|o| o.trace_hists.is_none()) {
            return None;
        }
        let labels: Vec<String> = self
            .outcomes
            .iter()
            .map(|o| format!("lane{}/{}", o.lane, self.scheme.label()))
            .collect();
        let parts: Vec<TracePart<'_>> = self
            .outcomes
            .iter()
            .zip(labels.iter())
            .map(|(o, label)| TracePart {
                pid: u64::from(o.lane) + 1,
                label,
                events: &o.trace_events,
                hists: o.trace_hists.as_ref(),
            })
            .collect();
        Some(trace_to_chrome_json(&parts))
    }

    /// A human-readable per-lane summary table.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}/{}: {} lanes x {} ops (epoch {})",
            self.scheme.label(),
            self.workload,
            self.lanes,
            self.ops_per_lane,
            self.epoch_ops
        );
        let _ = writeln!(
            out,
            "{:>5} {:>12} {:>14} {:>8} {:>12} {:>7}",
            "lane", "writes", "instructions", "ipc", "persists", "crashes"
        );
        for o in &self.outcomes {
            let _ = writeln!(
                out,
                "{:>5} {:>12} {:>14} {:>8.3} {:>12} {:>7}",
                o.lane,
                o.report.total_writes(),
                o.report.instructions,
                o.report.ipc,
                o.persist_points,
                o.recoveries.len()
            );
        }
        let _ = writeln!(
            out,
            "{:>5} {:>12} {:>14} {:>8.3} {:>12} {:>7}",
            "all",
            self.merged.total_writes(),
            self.merged.instructions,
            self.merged.ipc,
            self.outcomes.iter().map(|o| o.persist_points).sum::<u64>(),
            self.outcomes
                .iter()
                .map(|o| o.recoveries.len())
                .sum::<usize>()
        );
        out
    }
}

/// A scheme grid over one sharded spec: the `star-bench shard` output.
#[derive(Debug, Clone)]
pub struct ShardGridReport {
    /// Number of lanes (metadata domains).
    pub lanes: u32,
    /// Operations per lane.
    pub ops_per_lane: u64,
    /// Epoch quantum in operations.
    pub epoch_ops: u64,
    /// Master seed.
    pub seed: u64,
    /// One cell per scheme, in grid order.
    pub cells: Vec<ShardRunReport>,
}

fn doc_json(lanes: u32, ops_per_lane: u64, epoch_ops: u64, seed: u64, cells: &str) -> String {
    format!(
        "{{{}\"lanes\":{lanes},\"ops_per_lane\":{ops_per_lane},\
         \"epoch_ops\":{epoch_ops},\"seed\":{seed},\"cells\":[{cells}]}}",
        schema_preamble("shard")
    )
}

impl ShardGridReport {
    /// The grid as a complete `shard` document (module docs give the
    /// shape).
    pub fn to_json(&self) -> String {
        let cells = self
            .cells
            .iter()
            .map(ShardRunReport::cell_json)
            .collect::<Vec<_>>()
            .join(",");
        doc_json(
            self.lanes,
            self.ops_per_lane,
            self.epoch_ops,
            self.seed,
            &cells,
        )
    }

    /// Every cell's summary table, concatenated.
    pub fn summary_table(&self) -> String {
        self.cells
            .iter()
            .map(ShardRunReport::summary_table)
            .collect::<Vec<_>>()
            .join("\n")
    }
}
