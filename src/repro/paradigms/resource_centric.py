"""The *resource-centric* (RC) paradigm (§2.2) — dynamic operator-level
key repartitioning, as in Flux / Fernandez et al.

Executors are single-threaded and bound to one core (the static
layout), but the operator-level shard→executor map is dynamic.  When an
operator's imbalance factor exceeds θ, the system repartitions using
the *same* load-balancing algorithm and intra-process state sharing as
Elasticutor (the §5 fair-comparison setup), but the protocol requires
global synchronisation:

1. pause all upstream executors (barrier ∝ #upstream executors),
2. wait for in-flight tuples to drain,
3. migrate the states of the moved shards (serially),
4. update every upstream routing table (second barrier).

During the whole transition the operator processes nothing.  This is
what produces the 10–20 s transients of Fig. 7 and the collapse at
ω = 16 in Fig. 6.
"""
from __future__ import annotations

import numpy as np

from repro.core import load_balancer
from repro.core.load_balancer import imbalance, moves_array, rebalance, task_loads
from repro.engine import simulator
from repro.engine.metrics import EpochMetrics
from repro.engine.simulator import _add_in_order
from repro.paradigms.static_paradigm import StaticSim
from repro.streams.microbench import EPOCH_S
from repro.substrate import cluster


class ResourceCentricSim(StaticSim):
    """RC: static layout + globally-synchronised repartitioning.

    A repartitioning in progress is held here, not in the shared data
    plane: per operator, the sim-time its stall ends, and the shard
    assignment (operator-local task ids), move count and bytes it applies
    when it completes."""

    name = "resource-centric"

    def setup(self, n_keys: int) -> None:
        super().setup(n_keys)
        self._stall_until: dict[str, float] = {}
        self._pending: dict[str, tuple[np.ndarray, int, float]] = {}

    def n_upstream_executors(self, name: str) -> int:
        """Executor parallelism upstream of ``name`` — external spout
        for sources, upstream operators' task counts otherwise."""
        ups = self.topology.upstreams(name)
        if not ups:
            return simulator.SPOUT_EXECUTORS
        n_tasks = np.diff(self._task_off)
        return int(sum(n_tasks[self._order.index(u)] for u in ups))

    def _elasticity(
        self, epoch: int, now_s: float, inbox: np.ndarray, arrivals: np.ndarray, m: EpochMetrics
    ) -> None:
        all_loads = None
        for i, name in enumerate(self._order):
            if self._stall_until.get(name, 0.0) > now_s or name in self._pending:
                continue  # one repartitioning at a time
            if all_loads is None:
                all_loads = self.shard_loads_ms(arrivals)
            s0, s1 = self._shard_off[i : i + 2].tolist()
            t0, t1 = self._task_off[i : i + 2].tolist()
            loads, assign = all_loads[s0:s1], self._shard_task[s0:s1] - t0
            tl = task_loads(loads, assign, t1 - t0)
            delta_before = imbalance(tl)
            theta = load_balancer.DEFAULT_THETA
            if tl.sum() <= 0 or delta_before < theta:
                continue
            new_assign, moves = rebalance(loads, assign, t1 - t0, theta)
            delta_after = imbalance(task_loads(loads, new_assign, t1 - t0))
            # A repartitioning stalls the whole operator; only pay that
            # price when it actually helps.  Irreducible skew (a single
            # shard above θ·mean) would otherwise trigger a futile
            # repartition every epoch.
            if not moves or delta_after > 0.95 * delta_before:
                continue
            if epoch < self.cfg.warmup_epochs:
                # measurements start from a stabilised system (§5): the
                # initial balancing pass is not charged to the run.
                self._shard_task[s0:s1] = new_assign + t0
                continue
            # --- protocol cost (all serial, operator stalled throughout) ---
            sync_ms = cluster.rc_sync_ms(self.n_upstream_executors(name))
            # drain: the slowest executor must finish its pending queue
            drain_ms = float(tl.max())  # CPU-ms on a single core ≈ wall-ms
            mv = moves_array(moves)
            nodes = self._task_node[t0:t1]
            inter = nodes[mv[:, 1]] != nodes[mv[:, 2]]
            b = self.topology.operator(name).shard_state_bytes
            cost = [cluster.rc_shard_migration_ms(b, x) for x in (False, True)]
            # summed move by move, as the serial migration pays them
            mig_ms = _add_in_order(0.0, np.where(inter, cost[1], cost[0]))
            mig_bytes = _add_in_order(0.0, inter * float(b))
            total_ms = sync_ms + drain_ms + mig_ms
            self._stall_until[name] = now_s + total_ms / 1000.0
            self._pending[name] = (new_assign, len(moves), mig_bytes)
            m.sync_ms += sync_ms

    def _repartition(self, now_s: float, m: EpochMetrics) -> np.ndarray:
        """The operator is stalled until its repartitioning completes;
        the new assignment takes effect in the epoch in which it does."""
        stall = np.zeros(len(self._order))
        for i, name in enumerate(self._order):
            until = self._stall_until.get(name, 0.0)
            if until > now_s:
                stall[i] = min(1.0, (until - now_s) / EPOCH_S)
            if name in self._pending and until <= now_s + EPOCH_S:
                new_assign, n_moves, mig_bytes = self._pending.pop(name)
                self._shard_task = self._shard_task.copy()  # a new layout: see BaseSim._repartition
                self._shard_task[self._shard_off[i] : self._shard_off[i + 1]] = (
                    new_assign + self._task_off[i]
                )
                m.n_shard_moves += n_moves
                m.migrated_bytes += mig_bytes
        return stall
