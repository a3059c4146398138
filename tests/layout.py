"""One operator's layout in its own ids, read from a set-up engine.

The engine keeps a single layout for all operators, in engine-wide
shard, task and executor ids.  Tests that reason about one operator, and
references written one operator at a time, read and write it here.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.substrate.topology import OperatorSpec


@dataclass(frozen=True)
class OpLayout:
    op: OperatorSpec
    key_to_shard: np.ndarray  # (n_keys,) operator-global shard of each key
    tasks_node: np.ndarray  # (n_tasks,) node of each task
    tasks_exec: np.ndarray  # (n_tasks,) operator-local executor of each task
    shard_assign: np.ndarray  # (n_shards,) operator-local task of each shard
    exec_home: np.ndarray  # (n_executors,) home node of each executor

    @property
    def n_tasks(self) -> int:
        return len(self.tasks_node)


def op_layout(sim, name: str) -> OpLayout:
    """Operator ``name``'s layout as the engine holds it now (copies)."""
    i = sim._order.index(name)
    s0, s1 = sim._shard_off[i : i + 2]
    t0, t1 = sim._task_off[i : i + 2]
    e0, e1 = sim._exec_off[i : i + 2]
    return OpLayout(
        op=sim.topology.operator(name),
        key_to_shard=sim._route_idx.reshape(len(sim._order), -1)[i] - s0,
        tasks_node=sim._task_node[t0:t1].copy(),
        tasks_exec=sim._task_exec[t0:t1] - e0,
        shard_assign=sim._shard_task[s0:s1] - t0,
        exec_home=sim._exec_home[e0:e1].copy(),
    )


def set_shard_assign(sim, name: str, assign: np.ndarray) -> None:
    """Install operator ``name``'s shard → task map, given in its own
    task ids, into the engine's current task layout."""
    i = sim._order.index(name)
    sim._shard_task[sim._shard_off[i] : sim._shard_off[i + 1]] = assign + sim._task_off[i]
