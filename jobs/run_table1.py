"""Regenerate Table 1 (§2.2): paradigm comparison from measured
protocol behaviour.

Usage: ``python jobs/run_table1.py``
"""
from __future__ import annotations

from repro.experiments.table1 import run_table1


def main() -> None:
    print(run_table1().to_string(index=False))


if __name__ == "__main__":
    main()
