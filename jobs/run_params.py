"""Parameter sensitivity sweep (§5.3, Fig. 13 shape): Elasticutor
throughput across executor count y and shard count z.

Usage: ``python jobs/run_params.py [default|data-intensive|highly-dynamic]``
"""
from __future__ import annotations

import sys

from repro.experiments.params import params_sweep


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "default"
    df = params_sweep(workload=workload)
    print(
        df.pivot(index="y", columns="z", values="throughput_tps").to_string(
            float_format=lambda v: f"{v:,.0f}"
        )
    )


if __name__ == "__main__":
    main()
