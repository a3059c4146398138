"""Shard-reassignment cost breakdown (Fig. 8/9 shape).

Usage: ``python jobs/run_reassignment.py``
"""
from __future__ import annotations

from repro.experiments.reassignment import (
    migration_vs_state,
    reassignment_breakdown,
    sync_vs_upstream,
)


def main() -> None:
    print("== Fig. 8: per-shard reassignment time breakdown (ms) ==")
    print(reassignment_breakdown().to_string(index=False))
    print("\n== Fig. 9a: sync time vs upstream executors (ms) ==")
    print(sync_vs_upstream().to_string(index=False))
    print("\n== Fig. 9b: migration time vs state size (ms) ==")
    print(migration_vs_state().to_string(index=False))


if __name__ == "__main__":
    main()
