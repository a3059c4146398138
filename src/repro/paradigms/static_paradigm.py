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
from repro.engine.simulator import BaseSim, OpRuntime
from repro.substrate.topology import OperatorSpec


class StaticSim(BaseSim):
    """Static paradigm: fixed hash partitioning, one core per executor."""

    name = "static"

    def _init_layout(self, op: OperatorSpec, n_keys: int) -> OpRuntime:
        n_tasks = self._core_split[op.name]
        nodes = self._take_cores(n_tasks)
        n_shards = op.total_shards
        key_to_shard = shard_hash.key_to_shard(np.arange(n_keys), n_shards)
        return OpRuntime(
            op=op,
            key_to_shard=np.asarray(key_to_shard, dtype=np.int64),
            tasks_node=nodes,
            tasks_exec=np.arange(n_tasks, dtype=np.int64),
            shard_assign=(np.arange(n_shards) % n_tasks).astype(np.int64),
            # task == executor: the processing thread lives where its
            # executor lives, so nothing is ever a "remote task".
            exec_home=nodes.copy(),
        )

    def _elasticity(
        self, epoch: int, now_s: float, inbox: np.ndarray, arrivals: np.ndarray, m: EpochMetrics
    ) -> None:
        """No elasticity operations — that is the point of this baseline."""
