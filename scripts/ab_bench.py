#!/usr/bin/env python3
"""Interleaved A/B runs of perfbench between a parent and a change.

Usage:
  ab_bench.py --parent REV --scratch DIR --pr N [--seeds S,...] [--pairs N]
              [--title TEXT] [--claim METRIC@WORKLOAD] [--out FILE]
              [--append TRAJECTORY]
  ab_bench.py --selftest

Exports the parent (a git revision, usually HEAD) and the change (the
working tree: tracked files plus untracked ones git does not ignore)
into two directories under --scratch whose paths have equal length (a
build's path length alone can change how the compiler inlines, enough
to move a workload's rate by several percent), builds perfbench in each
with `cargo build --release --offline`, then runs --pairs interleaved
pairs of `perfbench --trace 0` on every BENCHMARK.json workload at each
seed, for BENCHMARK.json's run_seconds, alternating which side runs
first.

The result is one JSON record: for each (workload, seed) and each of
BENCHMARK.json's end-to-end metrics, the parent's and the change's
median, q1 and q3 over the runs, the change's win count (ties count for
neither side), whether that is a gain (no more failed operations than
the parent, at least ten pairs, wins on at least nine tenths of them and
medians further apart than the parent's interquartile range, in the
better direction) and whether the change's median stays within the metric's
regression bound. It goes to --out (default stdout); --append also adds
it to the `records` of a BENCH_TRAJECTORY.json, which
scripts/validate_report.py checks. Nothing is written inside the
repository except the --append file: exports, builds and logs stay under
--scratch, which must neither lie inside the repository nor contain it.
An export directory left there by an earlier run (it holds a marker
file) is replaced; any other non-empty one stops the run.

--selftest checks the statistics on canned numbers and exits.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
BENCHMARK = os.path.join(REPO, "BENCHMARK.json")
GAIN_SHARE = 0.9
MIN_PAIRS = 10
# Marks a directory as an export of this script, so a later run may
# delete and replace it.
MARKER = ".ab_bench-export"


def quartiles(xs):
    """(q1, median, q3) by linear interpolation between order statistics
    (the 'inclusive' method); one value is its own quartiles."""
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def summary(xs):
    q1, med, q3 = quartiles(xs)
    return {"median": med, "q1": q1, "q3": q3}


def wins(parent, change, better):
    """Pairs the change wins; a tie is a win for neither side."""
    if better == "higher":
        return sum(c > p for p, c in zip(parent, change))
    return sum(c < p for p, c in zip(parent, change))


def is_gain(p, c, wins_, pairs, better, failed):
    """The claim rule: no more failed operations than the parent, at
    least ten pairs of which nine tenths won, and the medians differ in
    the better direction by more than the parent's interquartile range."""
    if failed["change"] > failed["parent"]:
        return False
    if p["q1"] is None or p["q3"] is None or wins_ is None:
        return None
    delta = c["median"] - p["median"]
    if better == "lower":
        delta = -delta
    return pairs >= MIN_PAIRS and wins_ >= GAIN_SHARE * pairs and delta > p["q3"] - p["q1"]


def within_bound(p, c, bound, better):
    """The change's median is no worse than the parent's by more than
    `bound`, as a fraction of the parent's median."""
    if better == "higher":
        return c["median"] >= p["median"] * (1.0 - bound)
    return c["median"] <= p["median"] * (1.0 + bound)


def metric_entry(parent, change, spec, failed):
    better = spec["better"]
    p, c = summary(parent), summary(change)
    w = wins(parent, change, better)
    return {
        "unit": spec["unit"],
        "better": better,
        "parent": p,
        "change": c,
        "wins": w,
        "gain": is_gain(p, c, w, len(parent), better, failed),
        "within_bound": within_bound(p, c, spec["bound"], better),
    }


def selftest():
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert quartiles([5, 1, 4, 2, 3]) == (2.0, 3.0, 4.0)
    assert quartiles([1, 2, 3, 4]) == (1.75, 2.5, 3.25)
    assert quartiles([10, 20]) == (12.5, 15.0, 17.5)
    assert wins([10, 10, 10], [11, 10, 9], "higher") == 1
    assert wins([10, 10, 10], [11, 10, 9], "lower") == 1
    spec = {"unit": "1/s", "better": "higher", "bound": 0.25}
    clean = {"parent": 0, "change": 0}
    # Ten pairs, all won by far more than the parent's IQR: a gain.
    parent = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]
    e = metric_entry(parent, [x * 2 for x in parent], spec, clean)
    assert e["wins"] == 10 and e["gain"] is True and e["within_bound"] is True
    assert e["parent"] == {"median": 100.0, "q1": 99.25, "q3": 101.0}, e["parent"]
    # The same numbers with one more failed operation on the change's
    # side: not a gain; as many failures on both sides still is one.
    e = metric_entry(parent, [x * 2 for x in parent], spec, {"parent": 0, "change": 1})
    assert e["wins"] == 10 and e["gain"] is False
    e = metric_entry(parent, [x * 2 for x in parent], spec, {"parent": 3, "change": 3})
    assert e["gain"] is True
    # Nine pairs, all won by far: too few pairs for a gain.
    e = metric_entry(parent[:9], [x * 2 for x in parent[:9]], spec, clean)
    assert e["wins"] == 9 and e["gain"] is False
    # Eight of ten pairs won: not a gain, however large the medians' gap.
    e = metric_entry(parent, [x * 2 for x in parent[:8]] + [0, 0], spec, clean)
    assert e["wins"] == 8 and e["gain"] is False
    # Every pair won by less than the parent's IQR: not a gain.
    e = metric_entry(parent, [x + 1 for x in parent], spec, clean)
    assert e["wins"] == 10 and e["gain"] is False
    # A 30 % loss breaks a 0.25 bound; a 20 % loss does not.
    assert metric_entry(parent, [x * 0.7 for x in parent], spec, clean)["within_bound"] is False
    assert metric_entry(parent, [x * 0.8 for x in parent], spec, clean)["within_bound"] is True
    # Lower is better: halving set-up time is a gain, doubling it breaks the bound.
    spec = {"unit": "s", "better": "lower", "bound": 0.25}
    e = metric_entry(parent, [x / 2 for x in parent], spec, clean)
    assert e["wins"] == 10 and e["gain"] is True and e["within_bound"] is True
    e = metric_entry(parent, [x * 2 for x in parent], spec, clean)
    assert e["wins"] == 0 and e["gain"] is False and e["within_bound"] is False
    # A backfilled entry without quartiles or wins makes no gain verdict,
    # unless the change failed more operations.
    no_q = {"median": 1.0, "q1": None, "q3": None}
    assert is_gain(no_q, {"median": 2.0}, 10, 10, "higher", clean) is None
    assert is_gain(summary([1.0, 2.0]), {"median": 3.0}, None, 2, "higher", clean) is None
    assert is_gain(no_q, {"median": 2.0}, 10, 10, "higher", {"parent": 0, "change": 2}) is False
    # The one-line-per-entry layout is still the same JSON.
    doc = {"records": [{"pr": 1, "runs": [{"seeds": [1, 2], "metrics": {"m": e}}]}]}
    assert json.loads(dump(doc)) == doc
    assert f'"m": {json.dumps(e)}' in dump(doc).splitlines()[8], dump(doc)
    print("OK: ab_bench selftest")


def dump(x, pad=""):
    """JSON text in which each metric entry, and each object of plain
    values, sits on one line, so a record reads as a table."""
    flat = isinstance(x, dict) and (
        "better" in x or not any(isinstance(v, (dict, list)) for v in x.values())
    )
    if isinstance(x, dict) and x and not flat:
        inner = pad + " "
        items = (f"{inner}{json.dumps(k)}: {dump(v, inner)}" for k, v in x.items())
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(x, list) and any(isinstance(v, dict) for v in x):
        inner = pad + " "
        return "[\n" + ",\n".join(inner + dump(v, inner) for v in x) + "\n" + pad + "]"
    return json.dumps(x)


def host_description():
    """Hardware threads and CPU model, as far as the host tells."""
    model = "unknown CPU"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{os.cpu_count()} hardware threads, {model}"


def fresh_dir(dest):
    """Makes `dest` an empty directory marked as this script's export.
    Deletes only an earlier export (one holding the marker); any other
    non-empty directory, or a file, stops the run."""
    if os.path.isdir(dest) and os.path.isfile(os.path.join(dest, MARKER)):
        shutil.rmtree(dest)
    elif os.path.lexists(dest) and not (os.path.isdir(dest) and not os.listdir(dest)):
        sys.exit(f"ab_bench: {dest} exists and is not an earlier export; move it or pick another --scratch")
    os.makedirs(dest, exist_ok=True)
    open(os.path.join(dest, MARKER), "w").close()


def export(rev, dest):
    """Writes `rev`'s tree (or, for None, the working tree) to `dest`."""
    fresh_dir(dest)
    if rev is None:
        listed = subprocess.run(
            ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
            cwd=REPO, check=True, capture_output=True,
        ).stdout.split(b"\0")
        for rel in filter(None, listed):
            src = os.path.join(REPO, os.fsdecode(rel))
            if not os.path.isfile(src):
                continue  # deleted in the working tree
            out = os.path.join(dest, os.fsdecode(rel))
            os.makedirs(os.path.dirname(out), exist_ok=True)
            shutil.copy2(src, out)
        return "working-tree"
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", rev + "^{commit}"],
        cwd=REPO, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.Popen(["git", "archive", sha], cwd=REPO, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"ab_bench: git archive {rev} failed")
    return sha


def perfbench(root, workload, seed, seconds, log):
    """One `--trace 0` run; returns its result line's metrics and failures."""
    cmd = [
        os.path.join(root, "perfbench", "target", "release", "perfbench"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True).stdout
    with open(log, "a") as f:
        f.write("$ " + " ".join(cmd) + "\n" + out)
    result = json.loads(out.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, result["failed"], result["attempted"]


def measure(args):
    scratch = os.path.realpath(args.scratch)
    if os.path.commonpath([scratch, REPO]) in (REPO, scratch):
        sys.exit("ab_bench: --scratch must neither lie inside the repository nor contain it")
    with open(BENCHMARK) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = bench["run_seconds"]

    # Equal-length roots: "parent" and "change" are both six letters.
    roots = {side: os.path.join(scratch, side) for side in ("parent", "change")}
    log = os.path.join(scratch, "ab_bench.log")
    os.makedirs(scratch, exist_ok=True)
    revs = {
        "parent": export(args.parent, roots["parent"]),
        "change": export(None, roots["change"]),
    }
    env_clean = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    for side, root in roots.items():
        print(f"ab_bench: building perfbench for the {side} in {root}", file=sys.stderr)
        with open(log, "a") as f:
            subprocess.run(
                ["cargo", "build", "--release", "--offline", "--quiet",
                 "--manifest-path", "perfbench/Cargo.toml"],
                cwd=root, env=env_clean, stdout=f, stderr=subprocess.STDOUT, check=True,
            )

    runs = []
    for workload in workloads:
        for seed in seeds:
            values = {"parent": [], "change": []}
            failed = {"parent": 0, "change": 0}
            attempted = {"parent": 0, "change": 0}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    m, f, a = perfbench(roots[side], workload, seed, seconds, log)
                    values[side].append(m)
                    failed[side] += f
                    attempted[side] += a
                print(
                    f"ab_bench: {workload} seed {seed} pair {i + 1}/{args.pairs}: "
                    + ", ".join(
                        f"{name} {values['parent'][-1][name]:.4g} -> {values['change'][-1][name]:.4g}"
                        for name in specs
                    ),
                    file=sys.stderr,
                )
            metrics = {
                name: metric_entry(
                    [v[name] for v in values["parent"]],
                    [v[name] for v in values["change"]],
                    spec,
                    failed,
                )
                for name, spec in specs.items()
            }
            runs.append({
                "workload": workload,
                "seeds": [seed],
                "pairs": args.pairs,
                "failed": failed,
                "attempted": attempted,
                "metrics": metrics,
            })
    return {
        "schema_version": 1,
        "kind": "bench-ab",
        "pr": args.pr,
        "title": args.title,
        "claim": args.claim,
        "source": "ab_bench",
        "parent": revs["parent"],
        "change": revs["change"],
        "host": host_description(),
        "seconds": seconds,
        "runs": runs,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--selftest", action="store_true", help="check the statistics and exit")
    parser.add_argument("--parent", help="git revision of the parent (the change is the working tree)")
    parser.add_argument("--scratch", help="directory for exports, builds and the run log")
    parser.add_argument("--seeds", default="1", help="comma-separated perfbench seeds (default 1)")
    parser.add_argument("--pairs", type=int, default=10, help="interleaved pairs per workload and seed")
    parser.add_argument("--pr", type=int, help="number of the change in the trajectory")
    parser.add_argument("--title", default="", help="one-line title of the change")
    parser.add_argument("--claim", help="the claimed METRIC@WORKLOAD, if any")
    parser.add_argument("--out", help="write the record here (default: stdout)")
    parser.add_argument("--append", metavar="TRAJECTORY", help="also append the record to this trajectory file")
    args = parser.parse_args()
    if args.selftest:
        selftest()
        return
    if args.parent is None or args.scratch is None or args.pr is None:
        parser.error("--parent, --scratch and --pr are required")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for path in filter(None, (args.out, args.append)):
        inside = os.path.join(REPO, "perfbench")
        if os.path.commonpath([os.path.realpath(path), inside]) == inside:
            parser.error("the benchmark's own directory is not an output")

    record = measure(args)
    text = dump(record)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    if args.append:
        with open(args.append) as f:
            trajectory = json.load(f)
        trajectory["records"].append(record)
        with open(args.append, "w") as f:
            f.write(dump(trajectory) + "\n")


if __name__ == "__main__":
    main()
