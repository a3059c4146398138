"""Reproduce Table 3 (§5.4): Elasticutor throughput and scheduling time
vs cluster size (8/16/32 nodes) on the SSE workload.

Usage: ``python jobs/run_table3.py [n_epochs]``
"""
from __future__ import annotations

import sys

from repro.experiments.table3 import format_table3, run_table3


def main() -> None:
    n_epochs = int(sys.argv[1]) if len(sys.argv) > 1 else 60
    print(format_table3(run_table3(n_epochs=n_epochs)))


if __name__ == "__main__":
    main()
