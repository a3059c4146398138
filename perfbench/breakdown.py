"""Print where the time of a traced run went, per top-level span.

Usage::

    python3 perfbench/breakdown.py perfbench/out/trace-engine-sse-1.jsonl

For each span kind directly under a pass (``bench.paradigm.<name>`` on
the engine workloads, the stages on ``spark-sse``) and for the pass as a
whole, prints the total and self milliseconds of every span name beneath
it, per pass, with its share of that span's own total.
"""
from __future__ import annotations

import json
import sys
from collections import defaultdict


def breakdown(spans: list[dict]) -> dict[str, dict[str, tuple[float, float]]]:
    """{root name: {span name: (total ms, self ms)}} averaged over the
    timed passes.  Roots are ``bench.pass`` and each span directly
    under it."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)

    def dur(i: int) -> float:
        return (spans[i]["end"] - spans[i]["start"]) * 1000.0

    out: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0]))
    n_pass = 0
    for p, s in enumerate(spans):
        if s["name"] != "bench.pass" or s["run"] < 0:
            continue
        n_pass += 1
        for root in [p] + children[p]:
            table = out[spans[root]["name"]]
            todo = [root]
            while todo:
                i = todo.pop()
                kids = children[i]
                table[spans[i]["name"]][0] += dur(i)
                table[spans[i]["name"]][1] += dur(i) - sum(dur(k) for k in kids)
                todo.extend(kids)
    return {
        r: {n: (t / n_pass, s / n_pass) for n, (t, s) in table.items()} for r, table in out.items()
    }


def main(path: str) -> None:
    with open(path) as f:
        spans = [json.loads(line) for line in f]
    for root, table in breakdown(spans).items():
        whole = table[root][0]
        print(f"\n{root}: {whole:.1f} ms per pass")
        print(f"  {'span':44s} {'total ms':>10s} {'self ms':>10s} {'share':>7s}")
        for name, (tot, self_ms) in sorted(table.items(), key=lambda kv: -kv[1][0]):
            print(f"  {name:44s} {tot:10.1f} {self_ms:10.1f} {tot / whole:7.1%}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
