"""Compare two checkouts on the repository benchmark, in alternating pairs.

Each pair runs ``perfbench/run.py`` once from the base checkout and once
from the changed one, on the same seed, swapping which goes first from
one pair to the next so that a drift in host speed hits both sides
alike.  Every workload that the change's ``BENCHMARK.json`` lists gets
``PAIRS`` ``--trace 0`` pairs for the end-to-end metrics and
``TRACED_PAIRS`` ``--trace 1`` pairs for the per-layer metrics of
``BENCHMARK.json`` that the workload reports.  The
result file holds, per workload, the pair count, the failed-check counts
and, for every metric, each side's median, the change/base ratio of the
medians, the number of pairs the change wins, the interquartile range of
the base's runs and every run's value.  Each end-to-end metric also
states whether the change's median is within its ``bound`` of the
base's, and the top-level ``outside_bound`` lists every
``workload/metric`` that is not.

Usage (from anywhere)::

    python3 jobs/bench_pairs.py BASE_DIR CHANGE_DIR --out BENCH_<n>.json

Both directories must be full checkouts; each run writes only under its
own ``perfbench/out/`` and lasts the ``run_seconds`` of the change's
``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

PAIRS = 10
TRACED_PAIRS = 3
FIRST_SEED = 11


def _run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns its final JSON line."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _pairs(base: Path, change: Path, workload: str, n: int,
           seconds: float, trace: int) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    for i in range(n):
        order = [("base", base), ("change", change)]
        if i % 2:
            order.reverse()
        for side, checkout in order:
            t = time.perf_counter()
            res = _run(checkout, workload, FIRST_SEED + i, seconds, trace)
            runs[side].append(res)
            print(
                f"{workload} trace={trace} pair {i + 1}/{n} {side}: "
                f"{res['attempted']} checks, {res['failed']} failed, "
                f"{time.perf_counter() - t:.0f} s",
                file=sys.stderr,
            )
    return runs


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return (xs[0],) * 3
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def _within_bound(base: float, change: float, better: str, bound: float) -> bool:
    """Whether ``change`` is no worse than ``base`` by more than the
    relative ``bound``, in the metric's ``better`` direction."""
    if better == "higher":
        return change >= base * (1.0 - bound)
    return change <= base * (1.0 + bound)


def _summary(runs: dict[str, list[dict]], declared: dict[str, dict]) -> dict:
    """Per metric of ``declared`` (its ``BENCHMARK.json`` entries by
    name) that every run reports: each side's median, the change/base
    ratio of the medians, the pairs the change wins (ties count for
    neither side), the base's interquartile range, every run's value
    and, for a metric with a ``bound``, whether the change's median is
    within it."""
    every = runs["base"] + runs["change"]
    names = [n for n in declared if all(n in r["metrics"] for r in every)]
    metrics = {}
    for n in names:
        better = declared[n]["better"]
        b = [r["metrics"][n]["value"] for r in runs["base"]]
        c = [r["metrics"][n]["value"] for r in runs["change"]]
        sign = 1.0 if better == "higher" else -1.0
        q1, mb, q3 = _quartiles(b)
        mc = statistics.median(c)
        metrics[n] = {
            "base": mb,
            "change": mc,
            "ratio": mc / mb if mb else None,
            "change_wins": sum(sign * (y - x) > 0 for x, y in zip(b, c)),
            "base_iqr": q3 - q1,
            "base_runs": b,
            "change_runs": c,
        }
        if "bound" in declared[n]:
            metrics[n]["within_bound"] = _within_bound(mb, mc, better, declared[n]["bound"])
    return {
        "pairs": len(runs["base"]),
        "metrics": metrics,
        "failed": {s: [r["failed"] for r in rs] for s, rs in runs.items()},
        "attempted": {s: [r["attempted"] for r in rs] for s, rs in runs.items()},
    }


def _outside_bound(workload: str, summary: dict) -> list[str]:
    """``workload/metric`` for each metric of ``summary`` outside its bound."""
    return [
        f"{workload}/{n}" for n, m in summary["metrics"].items() if not m.get("within_bound", True)
    ]


def _git_head(checkout: Path) -> str | None:
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True, check=False
    )
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    base, change = args.base.resolve(), args.change.resolve()

    spec = json.loads((change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    result = {
        "base": _git_head(base),
        "change": _git_head(change),
        "seconds": seconds,
        "first_seed": FIRST_SEED,
        "cpus": os.cpu_count(),
        "outside_bound": [],
        "workloads": {},
    }
    for w in (entry["name"] for entry in spec["workloads"]):
        runs = _pairs(base, change, w, PAIRS, seconds, 0)
        traced = _pairs(base, change, w, TRACED_PAIRS, seconds, 1)
        e2e = _summary(runs, end_to_end)
        result["outside_bound"] += _outside_bound(w, e2e)
        result["workloads"][w] = {"end_to_end": e2e, "traced": _summary(traced, per_layer)}
        args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
