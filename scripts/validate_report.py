#!/usr/bin/env python3
"""Validate a star JSON report document by its self-describing `kind`.

Usage: validate_report.py FILE [--cases N] [--cells N] [--crashes N]

Every JSON artifact the simulators emit carries `schema_version` and
`kind` (see crates/core/src/report.rs). This script dispatches on the
kind and checks the document's internal balance invariants — the same
checks the Rust golden tests run, kept here in one place so every CI
smoke job validates artifacts the same way instead of repeating inline
python heredocs.

Supported kinds: trace, check-report, explore-report, serve, shard,
perf-profile. Exits non-zero with a message on the first violated
invariant.

An `explore-report` (a faultsim crash sweep) must account for every
case: the outcome counts sum to the case count and match the per-case
labels, `exhaustive` holds exactly when every persist point was a case,
crash points strictly ascend within the schedule, and each case's
modeled recovery time is its line accesses at the paper's 100 ns each.

A `serve` cell with per-lane rows (a multi-lane star-serve grid) is
also checked lane by lane: lane requests sum to the cell total, each
lane's crash count is its span count, the cell's unavailability is the
sum of every lane's spans, and every tenant's lane is in range.

For perf-profile documents, `--structure-matches OTHER` additionally
asserts that two profiles have the identical span-tree structure (the
ordered (path, depth, count) list), ignoring host-measured timings —
the determinism CI smoke runs a profile twice and compares this way.
"""

import argparse
import json
import sys


def validate_trace(d, args):
    events = d["traceEvents"]
    assert isinstance(events, list) and events, "no events"
    for e in events:
        assert e["ph"] in ("i", "X", "C", "M"), e
        assert isinstance(e["pid"], int) and isinstance(e["tid"], int), e
        if e["ph"] != "M":
            assert isinstance(e["ts"], (int, float)), e
        if e["ph"] == "X":
            assert isinstance(e["dur"], (int, float)), e
    assert "histograms" in d
    return f"{len(events)} events"


def validate_check(d, args):
    assert d["failing"] == 0, d["failing"]
    if args.cases is not None:
        assert len(d["case_results"]) == args.cases, len(d["case_results"])
    return f"{len(d['case_results'])} cases clean"


def validate_explore(d, args):
    cases = d["cases"]
    total = d["total_points"]
    if args.cases is not None:
        assert len(cases) == args.cases, len(cases)
    outcomes = d["outcomes"]
    assert sum(outcomes.values()) == len(cases), outcomes
    for label, count in outcomes.items():
        assert count == sum(c["outcome"] == label for c in cases), label
    assert d["exhaustive"] == (len(cases) == total), (d["exhaustive"], total)
    points = [c["crash_at"] for c in cases]
    assert all(a < b for a, b in zip(points, points[1:])), "crash_at not ascending"
    assert not points or 1 <= points[0] and points[-1] <= total, (points[0], points[-1])
    for c in cases:
        who = f"point {c['crash_at']}"
        assert c["time_ns"] == (c["reads"] + c["writes"]) * 100, who
    return f"{len(cases)} of {total} points accounted for"


def check_latency(cell, who):
    lat = cell["latency_ns"]
    assert lat["p50"] <= lat["p99"] <= lat["p999"] <= lat["max"], who


def validate_serve(d, args):
    cells = d["cells"]
    if args.cells is not None:
        assert len(cells) == args.cells, len(cells)
    for c in cells:
        who = f"{c['scheme']}/{c['scenario']}"
        assert c["requests"] == sum(t["requests"] for t in c["tenants"]), who
        spans = c["downtime_spans"]
        assert c["crashes"] == len(spans), who
        if args.crashes is not None:
            assert c["crashes"] == args.crashes, who
        assert c["unavailability_ns"] == sum(s["total_ns"] for s in spans), who
        if spans:
            assert c["unavailability_ns"] > 0, who
        check_latency(c, who)
        lanes = c.get("lanes")
        if lanes is not None:
            assert c["requests"] == sum(l["requests"] for l in lanes), who
            for l in lanes:
                assert l["crashes"] == len(l["downtime_spans"]), who
                check_latency(l, who)
            lane_spans = sum(
                s["total_ns"] for l in lanes for s in l["downtime_spans"]
            )
            assert c["unavailability_ns"] == lane_spans, who
            for t in c["tenants"]:
                assert 0 <= t["lane"] < len(lanes), who
    return f"{len(cells)} cells balanced"


def validate_shard(d, args):
    lanes = d["lanes"]
    epochs = -(-d["ops_per_lane"] // d["epoch_ops"])  # ceiling division
    cells = d["cells"]
    if args.cells is not None:
        assert len(cells) == args.cells, len(cells)
    for c in cells:
        who = f"{c['scheme']}/{c['workload']}"
        shards = c["shards"]
        assert len(shards) == lanes, who
        assert [s["lane"] for s in shards] == list(range(lanes)), who
        for s in shards:
            assert s["report"]["kind"] == "run-report", who
        log = c["epoch_log"]
        assert len(log) == epochs * lanes, who
        assert log == sorted(log, key=lambda r: (r[0], r[1])), who
        logged = sum(r[2] for r in log)
        assert logged == sum(s["persist_points"] for s in shards), who
        assert c["merged"]["instructions"] == sum(
            s["report"]["instructions"] for s in shards
        ), who
    return f"{len(cells)} cells x {lanes} lanes balanced"


def profile_structure(d):
    return [(s["path"], s["depth"], s["count"]) for s in d["spans"]]


def validate_perf_profile(d, args):
    spans = d["spans"]
    assert spans, "no spans recorded"
    paths = [s["path"] for s in spans]
    assert paths == sorted(paths), "spans not in sorted pre-order path order"
    assert len(set(paths)) == len(paths), "duplicate span paths"
    by_path = {s["path"]: s for s in spans}
    attributed = 0
    for s in spans:
        who = s["path"]
        segs = who.split(";")
        assert s["depth"] == len(segs) - 1, who
        assert s["name"] == segs[-1], who
        assert s["count"] > 0, who
        assert 0 <= s["excl_ns"] <= s["incl_ns"], who
        if s["depth"] == 0:
            attributed += s["incl_ns"]
        else:
            parent = by_path[";".join(segs[:-1])]
            assert s["incl_ns"] <= parent["incl_ns"], who
    child_sums = {}
    for s in spans:
        if s["depth"] > 0:
            parent = ";".join(s["path"].split(";")[:-1])
            child_sums[parent] = child_sums.get(parent, 0) + s["incl_ns"]
    for path, total in child_sums.items():
        p = by_path[path]
        assert total <= p["incl_ns"], path
        assert p["excl_ns"] == p["incl_ns"] - total, path
    assert d["attributed_ns"] == attributed, "attributed_ns != sum of roots"
    assert d["unattributed_ns"] == d["wall_ns"] - d["attributed_ns"]
    if d["scrubbed"]:
        assert d["wall_ns"] == 0 and all(s["incl_ns"] == 0 for s in spans)
    if args.structure_matches is not None:
        with open(args.structure_matches) as f:
            other = json.load(f)
        assert other["kind"] == "perf-profile", other["kind"]
        assert profile_structure(d) == profile_structure(other), (
            "span-tree structure differs between the two profiles"
        )
        return f"{len(spans)} spans, structure matches {args.structure_matches}"
    return f"{len(spans)} spans balanced"


VALIDATORS = {
    "trace": validate_trace,
    "check-report": validate_check,
    "explore-report": validate_explore,
    "serve": validate_serve,
    "shard": validate_shard,
    "perf-profile": validate_perf_profile,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("file", help="JSON report to validate")
    parser.add_argument(
        "--cases", type=int, help="expected check-report or explore-report case count"
    )
    parser.add_argument("--cells", type=int, help="expected grid cell count")
    parser.add_argument("--crashes", type=int, help="expected crashes per serve cell")
    parser.add_argument(
        "--structure-matches",
        metavar="OTHER",
        help="second perf-profile whose span-tree structure must match",
    )
    args = parser.parse_args()

    with open(args.file) as f:
        d = json.load(f)
    assert isinstance(d["schema_version"], int) and d["schema_version"] >= 5, d[
        "schema_version"
    ]
    kind = d["kind"]
    validator = VALIDATORS.get(kind)
    if validator is None:
        sys.exit(f"{args.file}: unsupported kind {kind!r}")
    detail = validator(d, args)
    print(f"OK: {args.file} ({kind}): {detail}")


if __name__ == "__main__":
    main()
