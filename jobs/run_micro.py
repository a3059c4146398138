"""Micro-benchmark sweep (§5.1, Fig. 6 shape): throughput and latency
vs workload dynamics ω for static / RC / Elasticutor.

Usage: ``python jobs/run_micro.py [omega1,omega2,...]``
"""
from __future__ import annotations

import sys

from repro.experiments.micro import micro_sweep


def main() -> None:
    omegas = (
        tuple(float(x) for x in sys.argv[1].split(","))
        if len(sys.argv) > 1
        else (0, 2, 16)
    )
    df = micro_sweep(omegas=omegas)
    cols = ["omega", "paradigm", "throughput_tps", "avg_latency_ms"]
    print(df[cols].to_string(index=False, float_format=lambda v: f"{v:,.1f}"))


if __name__ == "__main__":
    main()
