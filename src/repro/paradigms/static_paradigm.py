"""The *static* execution paradigm (§2.2) — default Storm.

Each operator gets a fixed number of single-threaded executors (one CPU
core each, enough to use the whole cluster, per the §5 setup), the key
space is statically hash-partitioned across them, and nothing ever
moves: no load balancing, no operator scaling.  Under a skewed or
shifting key distribution some executors overload while others idle —
the baseline poor performance in Fig. 6.
"""
from __future__ import annotations

import numpy as np

from repro.core import shards as shard_hash
from repro.engine.metrics import EpochMetrics
from repro.engine.simulator import BaseSim
from repro.substrate.topology import OperatorSpec


class StaticSim(BaseSim):
    """Static paradigm: fixed hash partitioning, one core per executor."""

    name = "static"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._core_split = self._split_cores()

    def _split_cores(self) -> dict[str, int]:
        """Divide the cluster's cores across operators proportionally to
        their expected CPU demand (input-rate share × per-tuple cost) —
        the favourable provisioning the paper grants the baselines."""
        rel_rate: dict[str, float] = {}
        for name in self._order:
            ups = self.topology.upstreams(name)
            if not ups:
                rel_rate[name] = 1.0
            else:
                rel_rate[name] = sum(
                    rel_rate[u] * self.topology.operator(u).selectivity for u in ups
                )
        demand = {
            name: rel_rate[name] * self.topology.operator(name).cpu_cost_ms
            for name in self._order
        }
        total = sum(demand.values()) or 1.0
        cores = {
            name: max(1, int(round(self.spec.total_cores * d / total)))
            for name, d in demand.items()
        }
        # trim overshoot from the largest allocations
        while sum(cores.values()) > self.spec.total_cores:
            big = max(cores, key=lambda n: cores[n])
            if cores[big] <= 1:
                break
            cores[big] -= 1
        return cores

    def _init_layout(self, op: OperatorSpec, n_keys: int) -> tuple[np.ndarray, np.ndarray, int]:
        n_exec = self._core_split[op.name]
        key_to_shard = shard_hash.key_to_shard(np.arange(n_keys), op.total_shards)
        shard_exec = np.arange(op.total_shards, dtype=np.int64) % n_exec
        return np.asarray(key_to_shard, dtype=np.int64), shard_exec, n_exec

    def _elasticity(
        self, epoch: int, now_s: float, inbox: np.ndarray, arrivals: np.ndarray, m: EpochMetrics
    ) -> None:
        """No elasticity operations — that is the point of this baseline."""
