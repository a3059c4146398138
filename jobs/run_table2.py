"""Reproduce Table 2 (§5.4): naive-EC vs Elasticutor rates on the SSE
workload, 32 nodes.

Usage: ``python jobs/run_table2.py [n_epochs]``
"""
from __future__ import annotations

import sys

from repro.experiments.table2 import format_table2, run_table2


def main() -> None:
    n_epochs = int(sys.argv[1]) if len(sys.argv) > 1 else 60
    print(format_table2(run_table2(n_epochs=n_epochs)))


if __name__ == "__main__":
    main()
