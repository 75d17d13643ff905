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
perf-profile, bench-ab and bench-trajectory. Exits non-zero with a
message on the first violated invariant.

An `explore-report` (a faultsim crash sweep) must account for every
case: the outcome counts sum to the case count and match the per-case
labels, `exhaustive` holds exactly when every persist point was a case,
crash points strictly ascend within the schedule, and each case's
modeled recovery time is its line accesses at the paper's 100 ns each.

A `serve` cell with per-lane rows (a multi-lane star-serve grid) is
also checked lane by lane: lane requests sum to the cell total, each
lane's crash count is its span count, the cell's unavailability is the
sum of every lane's spans, and every tenant's lane is in range.

A `bench-ab` record (one A/B measurement, written by
scripts/ab_bench.py) and a `bench-trajectory` (BENCH_TRAJECTORY.json,
the append-only list of them, one per performance change, in ascending
change order) are checked against BENCHMARK.json: every workload and
end-to-end metric they name exists there with the same unit and
direction, quartiles bracket their median, win counts fit the pairs, and
each stored `gain` and `within_bound` verdict is what
scripts/ab_bench.py's rule computes from the stored numbers. Records
backfilled from CHANGES.md (`source` `changes-md`) may leave quartiles,
win counts and seeds null; measured ones (`source` `ab_bench`) carry
all three metrics with every field, run every BENCHMARK.json workload
and run each for its `run_seconds`.

For perf-profile documents, `--structure-matches OTHER` additionally
asserts that two profiles have the identical span-tree structure (the
ordered (path, depth, count) list), ignoring host-measured timings —
the determinism CI smoke runs a profile twice and compares this way.
"""

import argparse
import json
import sys

import ab_bench


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


def is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def check_bench_record(r, bench):
    who = f"record pr {r.get('pr')}"
    assert isinstance(r["pr"], int) and r["pr"] > 0, who
    assert isinstance(r["title"], str), who
    assert r["source"] in ("ab_bench", "changes-md"), who
    measured = r["source"] == "ab_bench"
    for field in ("parent", "change", "host"):
        assert isinstance(r[field], str) and r[field], f"{who}: {field}"
    assert is_number(r["seconds"]) and r["seconds"] > 0, who
    specs = {m["name"]: m for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    runs = r["runs"]
    assert isinstance(runs, list) and runs, f"{who}: no runs"
    if measured:
        assert r["seconds"] == bench["run_seconds"], f"{who}: seconds {r['seconds']}"
    for run in runs:
        at = f"{who}: {run['workload']}"
        assert run["workload"] in workloads, at
        seeds = run["seeds"]
        assert seeds is None and not measured or (
            isinstance(seeds, list) and seeds and all(isinstance(s, int) for s in seeds)
        ), at
        pairs = run["pairs"]
        assert isinstance(pairs, int) and pairs >= 1, at
        for side in ("parent", "change"):
            assert isinstance(run["failed"][side], int) and run["failed"][side] >= 0, at
        metrics = run["metrics"]
        assert metrics and set(metrics) <= set(specs), f"{at}: {sorted(metrics)}"
        if measured:
            assert set(metrics) == set(specs), f"{at}: every end-to-end metric"
        for name, m in metrics.items():
            where = f"{at}: {name}"
            spec = specs[name]
            assert (m["unit"], m["better"]) == (spec["unit"], spec["better"]), where
            for side in ("parent", "change"):
                q = m[side]
                assert is_number(q["median"]), where
                if measured or q["q1"] is not None or q["q3"] is not None:
                    assert is_number(q["q1"]) and is_number(q["q3"]), where
                    assert q["q1"] <= q["median"] <= q["q3"], where
            wins = m["wins"]
            assert wins is None and not measured or (
                isinstance(wins, int) and 0 <= wins <= pairs
            ), where
            p, c = m["parent"], m["change"]
            gain = ab_bench.is_gain(p, c, wins, pairs, spec["better"], run["failed"])
            assert m["gain"] == gain, f"{where}: gain is {gain}"
            bound = ab_bench.within_bound(p, c, spec["bound"], spec["better"])
            assert m["within_bound"] == bound, f"{where}: within_bound is {bound}"
    if measured:
        ran = sorted((run["workload"], s) for run in runs for s in run["seeds"])
        seeds = sorted({s for _, s in ran})
        every = sorted((w, s) for w in workloads for s in seeds)
        assert ran == every, f"{who}: runs {ran}, not every workload at seeds {seeds}"
    claim = r["claim"]
    if claim is not None:
        metric, _, workload = claim.partition("@")
        assert any(
            run["workload"] == workload and metric in run["metrics"] for run in runs
        ), f"{who}: no run measures the claimed {claim}"


def load_benchmark():
    with open(ab_bench.BENCHMARK) as f:
        return json.load(f)


def validate_bench_ab(d, args):
    check_bench_record(d, load_benchmark())
    return f"pr {d['pr']}: {len(d['runs'])} runs"


def validate_bench_trajectory(d, args):
    bench = load_benchmark()
    records = d["records"]
    assert isinstance(records, list) and records, "no records"
    for r in records:
        assert r["kind"] == "bench-ab", r["kind"]
        check_bench_record(r, bench)
    prs = [r["pr"] for r in records]
    assert all(a < b for a, b in zip(prs, prs[1:])), f"records out of order: {prs}"
    return f"{len(records)} records, prs {prs}"


VALIDATORS = {
    "trace": validate_trace,
    "check-report": validate_check,
    "explore-report": validate_explore,
    "serve": validate_serve,
    "shard": validate_shard,
    "perf-profile": validate_perf_profile,
    "bench-ab": validate_bench_ab,
    "bench-trajectory": validate_bench_trajectory,
}

# Report kinds the simulators emit carry the shared report schema
# version (5 or later); the benchmark records have their own, from 1.
SCHEMA_FLOOR = {"bench-ab": 1, "bench-trajectory": 1}


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
    kind = d["kind"]
    floor = SCHEMA_FLOOR.get(kind, 5)
    assert isinstance(d["schema_version"], int) and d["schema_version"] >= floor, d[
        "schema_version"
    ]
    validator = VALIDATORS.get(kind)
    if validator is None:
        sys.exit(f"{args.file}: unsupported kind {kind!r}")
    detail = validator(d, args)
    print(f"OK: {args.file} ({kind}): {detail}")


if __name__ == "__main__":
    main()
