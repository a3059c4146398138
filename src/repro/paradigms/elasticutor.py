"""The Elasticutor paradigm (§2.3–§4): elastic executors + dynamic
scheduler.

Every epoch the control plane:

1. measures per-executor demand λ_j (arrivals + backlog) and service
   rate μ_j, and runs the §4.1 model-based allocator for the target
   core counts ``k`` (capped proportionally when the cluster is
   saturated — backpressure territory);
2. maps physical cores to executors with Algorithm 1 (§4.2), minimising
   state-migration cost under the computation-locality constraint —
   the wall-clock of steps 1–2 is the *scheduling time* of Table 3;
3. applies the new assignment to every executor of every operator in
   one rebuild of the engine-wide task list
   (:meth:`ElasticutorSim._apply`): tasks are created/removed per
   executor and node, orphaned shards are re-homed, and the
   intra-executor load balancer (§3.1) restores δ < θ — an executor
   whose cores did not change only rebalances.  After the orphans are
   placed, one screen with array operations drops every executor whose
   δ is already clearly below θ; every other executor with several
   tasks is balanced in one lockstep call of
   :func:`~repro.core.load_balancer.rebalance_many`.  Every shard move
   is charged the §3.3 protocol cost, once over the move list ordered
   by executor: a 2 ms sync pause, plus state migration only when the
   shard crosses nodes (intra-process state sharing makes same-node
   moves free).

:class:`NaiveECSim` (in :mod:`repro.paradigms.naive_ec`) swaps step 2
for the cost-and-locality-blind assignment.
"""
from __future__ import annotations

import heapq
import time

import numpy as np

from repro.core import load_balancer
from repro.core import shards as shard_hash
from repro.core.assignment import AssignmentResult, assign_cores
# Not called here: perfbench/tracing.py wraps the name ``rebalance`` in
# this module's namespace, so it stays importable from it.
from repro.core.load_balancer import rebalance  # noqa: F401
from repro.core.scheduler import T_MAX_MS, allocate_cores
from repro.engine.metrics import EpochMetrics
from repro.engine.simulator import _EPS, BaseSim, _add_in_order
from repro.streams.microbench import EPOCH_S
from repro.substrate import cluster
from repro.substrate.cluster import CORE_CAPACITY_MS_PER_S
from repro.substrate.topology import OperatorSpec

class ElasticutorSim(BaseSim):
    """Full Elasticutor: elastic executors + model-based scheduler."""

    name = "elasticutor"

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------
    def _init_layout(self, op: OperatorSpec, n_keys: int) -> tuple[np.ndarray, np.ndarray, int]:
        y, z = op.n_executors, op.shards_per_executor
        key_to_shard = np.asarray(shard_hash.global_shard(np.arange(n_keys), y, z), dtype=np.int64)
        return key_to_shard, np.repeat(np.arange(y, dtype=np.int64), z), y

    def setup(self, n_keys: int) -> None:
        super().setup(n_keys)
        self._lam_ewma: np.ndarray | None = None  # smoothed λ of this run
        M = int(self._exec_off[-1])
        X = np.zeros((self.spec.n_nodes, M), dtype=np.int64)
        np.add.at(X, (self._exec_home, np.arange(M)), 1)
        self._Xg = X
        # cores per node, the capacity every assignment packs into
        self._cores = np.full(self.spec.n_nodes, self.spec.cores_per_node, dtype=np.int64)
        # per-executor constants of the measurement step
        ops = [self.topology.operator(name) for name in self._order]
        z = np.array([op.shards_per_executor for op in ops])[self._exec_op]
        self._exec_z = z
        self._exec_shard0 = np.cumsum(z) - z
        self._shard_exec = np.repeat(np.arange(M), z)
        self._mus = (CORE_CAPACITY_MS_PER_S / self._cost)[self._exec_op]
        exec_bytes = [op.shards_per_executor * op.shard_state_bytes for op in ops]
        self._sbytes = np.array(exec_bytes, dtype=float)[self._exec_op]
        self._exec_link = self._link_bytes[self._exec_op]
        # runs of consecutive executors with the same shard count: their
        # shards form one (executors × z) block, summed row by row
        starts = np.flatnonzero(np.concatenate(([True], z[1:] != z[:-1])))
        ends = np.concatenate((starts[1:], [M]))
        self._z_runs = [
            (int(e0), int(e1), int(self._exec_shard0[e0]), int(z[e0]))
            for e0, e1 in zip(starts, ends)
        ]
        # the §3.3 charge of one move per operator: (sync, pause) of an
        # intra-node move, then of an inter-node one
        charges = []
        for op in ops:
            row = []
            for inter in (False, True):
                sync, mig = cluster.ec_shard_reassign_ms(op.shard_state_bytes, inter)
                row += [sync, sync + mig]
            charges.append(row)
        self._move_charge = np.array(charges)
        self._state_bytes = np.array([op.shard_state_bytes for op in ops])

    def _exec_sums(self, x: np.ndarray) -> np.ndarray:
        """Per-executor sum of a per-shard array (each a row sum over
        the executor's z shards)."""
        out = np.empty(len(self._exec_z))
        for e0, e1, s0, z in self._z_runs:
            out[e0:e1] = x[s0 : s0 + (e1 - e0) * z].reshape(e1 - e0, z).sum(axis=1)
        return out

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def _assign(
        self,
        k: np.ndarray,
        state_bytes: np.ndarray,
        local_node: np.ndarray,
        data_intensity: np.ndarray,
    ) -> AssignmentResult:
        return assign_cores(k, self._Xg, self._cores, state_bytes, local_node, data_intensity)

    def _elasticity(
        self, epoch: int, now_s: float, inbox: np.ndarray, arrivals: np.ndarray, m: EpochMetrics
    ) -> None:
        spec = self.spec
        kcur = self._Xg.sum(axis=0)
        demand = self._exec_sums(arrivals + self._queue_n + self._resid_n)
        lams = demand / EPOCH_S
        arr_rate = self._exec_sums(arrivals) / EPOCH_S
        dint = arr_rate * self._exec_link / np.maximum(kcur, 1)
        lam0 = 0.0
        for i in self._sources:
            lam0 += float(inbox[i].sum()) / EPOCH_S

        # EWMA-smooth the measured arrival rates (the system's metrics
        # are windowed measurements, not raw per-second noise) so the
        # allocation does not chase multinomial sampling noise.
        if self._lam_ewma is None:
            self._lam_ewma = lams
        else:
            self._lam_ewma = 0.5 * self._lam_ewma + 0.5 * lams
        lams = self._lam_ewma

        t0 = time.perf_counter()
        # The M/M/k model assumes ideal work sharing inside an executor;
        # the intra-executor balancer only guarantees max task load
        # ≤ θ·avg, so an executor with k cores sustains k·μ/θ.  Feed the
        # allocator θ-scaled demand to keep every task stable.
        lam_eff = (lams * load_balancer.DEFAULT_THETA).tolist()
        alloc = allocate_cores(
            max(lam0, _EPS), lam_eff, self._mus.tolist(), spec.total_cores, T_MAX_MS
        )
        k = np.asarray(alloc.cores, dtype=np.int64)
        if k.sum() > spec.total_cores:
            k = _cap_allocation(lams / self._mus, spec.total_cores)
        res = self._assign(k, self._sbytes, self._exec_home, dint)
        m.sched_ms += (time.perf_counter() - t0) * 1000.0
        m.n_core_changes += int(np.abs(res.X - self._Xg).sum() // 2)
        self._apply(res.X, self.shard_loads_ms(arrivals), m)
        self._Xg = res.X

    # ------------------------------------------------------------------
    # applying a new core-to-executor assignment
    # ------------------------------------------------------------------
    def _apply(self, X: np.ndarray, loads: np.ndarray, m: EpochMetrics) -> None:
        """Apply ``X`` (cores per node per executor, every executor of
        every operator) in one rebuild of the engine-wide task list.

        The new task list is ordered executor-major, node-minor, as the
        initial layout is; executors are numbered operator by operator,
        so each operator's tasks stay contiguous.  Within each
        (executor, node) group the old tasks survive in order up to the
        wanted count; the rest die and new tasks fill the group's tail.
        Shards of dead tasks are re-homed (heaviest first, each onto the
        least-loaded task of its executor), then each executor is
        rebalanced to δ < θ.

        The orphans are placed first, one heap per executor that has
        any, starting from the task loads of the surviving shards; one
        gather of the negated orphan loads per epoch, then per executor
        its slice's ``argsort`` (equal loads in a per-executor gather's
        order) and the heap.  Then
        one ``bincount`` of the post-placement task loads screens the
        executors: only those with several tasks and δ not clearly below
        θ are busy; for the rest :func:`rebalance` would return at once
        with no move, orphans or not.  Every busy executor is gathered
        through an index matrix into one
        padded (executors × shards) batch for
        :func:`~repro.core.load_balancer.rebalance_many`, which gives
        each executor exactly :func:`rebalance`'s moves.  The moves are
        sorted by executor, orphans before balancing moves (the order
        a per-executor loop makes), and charged once.  With an unchanged
        ``X`` every task maps to itself, so this reduces to the
        per-executor rebalance."""
        n = self.spec.n_nodes
        M = X.shape[1]
        k = X.sum(axis=0)
        if (k == 0).any():
            j = int(np.flatnonzero(k == 0)[0])
            i = int(self._exec_op[j])
            raise RuntimeError(
                f"executor {j - int(self._exec_off[i])} of {self._order[i]} left with no core"
            )
        want = X.T.ravel()  # cores of group g = executor * n + node
        groups = np.repeat(np.arange(M * n), want)
        nodes_arr = groups % n
        exec_arr = groups // n
        group_start = np.cumsum(want) - want
        # rank of each old task inside its (executor, node) group; the
        # old tasks are in group order (the initial layout and every
        # rebuild are), so each group is one run of the task list
        old_g = self._task_exec * n + self._task_node
        old_count = np.bincount(old_g, minlength=M * n)
        rank = np.arange(len(old_g)) - (np.cumsum(old_count) - old_count)[old_g]
        old_to_new = np.where(rank < want[old_g], group_start[old_g] + rank, -1)
        old_assign = self._shard_task
        new_assign = old_to_new[old_assign]  # -1 where the task died
        exec_start = np.cumsum(k) - k
        live = new_assign >= 0
        tl = np.bincount(new_assign[live], weights=loads[live], minlength=len(groups))
        dead = np.flatnonzero(~live)  # orphaned shards, executor by executor
        n_dead = np.bincount(self._shard_exec[dead], minlength=M)
        moved, inter, by_exec = [], [], []  # shard, crosses-nodes flag, executor per move
        if dead.size:
            # Re-home the orphans, heaviest first, each onto the
            # least-loaded task of its executor.
            neg = -loads[dead]
            js = np.flatnonzero(n_dead)
            cut = np.cumsum(n_dead[js])
            bounds = list(zip((cut - n_dead[js]).tolist(), cut.tolist()))
            by_load = np.concatenate([a + np.argsort(neg[a:b]) for a, b in bounds])
            shards = dead[by_load]
            lo = loads[shards].tolist()
            # Known defect, kept so outputs stay as they are: when no
            # shard of the executor survives, the running task loads
            # are ints (the bincount of an empty selection is int64),
            # each sum truncated toward zero.  Fixing it changes
            # naive-EC's output (ROADMAP).
            truncate = (n_dead[js] == self._exec_z[js]).tolist()
            tls, place = tl.tolist(), []
            for (a, b), trunc, t0, kj in zip(bounds, truncate, exec_start[js].tolist(), k[js].tolist()):
                start = [0] * kj if trunc else tls[t0 : t0 + kj]
                place += _least_loaded_first(start, lo[a:b], trunc)
            new_assign[shards] = exec_start[self._shard_exec[shards]] + np.fromiter(place, np.int64, len(place))
            moved.append(shards)
            inter.append(self._task_node[old_assign[shards]] != nodes_arr[new_assign[shards]])
            by_exec.append(self._shard_exec[shards])
            tl = np.bincount(new_assign, weights=loads, minlength=len(groups))
        # Balance, in one batch, every executor with several tasks whose
        # δ is not clearly below θ.  Task loads sum their shards in shard
        # order, as rebalance's bincount does; the 1e-9 margin covers the
        # rounding between this mean and rebalance's, and an idle
        # executor (max = mean = 0) is skipped, as rebalance stops there.
        tmax = np.maximum.reduceat(tl, exec_start)
        tmean = np.add.reduceat(tl, exec_start) / k
        busy = (k > 1) & (tmax > load_balancer.DEFAULT_THETA * (1.0 - 1e-9) * tmean)
        rows = np.flatnonzero(busy)
        if rows.size:
            z = self._exec_z[rows]
            valid = np.arange(z.max()) < z[:, None]
            idx = np.where(valid, self._exec_shard0[rows, None] + np.arange(z.max()), 0)
            t0 = exec_start[rows, None]
            loc, mv = load_balancer.rebalance_many(
                loads[idx], new_assign[idx] - t0, k[rows], z, load_balancer.DEFAULT_THETA
            )
            new_assign[idx[valid]] = (loc + t0)[valid]
            if len(mv):
                r, shard, src, dst = mv.T
                moved.append(idx[r, shard])
                inter.append(nodes_arr[t0[r, 0] + src] != nodes_arr[t0[r, 0] + dst])
                by_exec.append(rows[r])
        if moved:
            # A stable sort by executor keeps each executor's orphans, in
            # placement order, before its balancing moves, in round order.
            order = np.argsort(np.concatenate(by_exec), kind="stable")
            self._charge_moves(m, np.concatenate(moved)[order], np.concatenate(inter)[order])
        self._set_tasks(nodes_arr, exec_arr)
        self._shard_task = new_assign

    def _charge_moves(self, m: EpochMetrics, shards: np.ndarray, inter: np.ndarray) -> None:
        """Charge the §3.3 protocol cost of each move (engine-wide shard
        ids), in order: the shard pauses for sync + migration, and the
        epoch adds the sync time and, for an inter-node move, the
        operator's shard-state bytes.  The epoch totals are accumulated
        one move at a time, so they equal a per-move ``+=`` bit for bit."""
        op = self._shard_op[shards]
        charge = self._move_charge[op]
        pause = np.where(inter, charge[:, 3], charge[:, 1])
        np.add.at(self._pause_ms, shards, pause)  # in order, repeated shards included
        m.sync_ms = _add_in_order(m.sync_ms, np.where(inter, charge[:, 2], charge[:, 0]))
        m.migrated_bytes = _add_in_order(m.migrated_bytes, self._state_bytes[op[inter]])
        m.n_shard_moves += int(shards.size)


def _cap_allocation(weights: np.ndarray, total: int) -> np.ndarray:
    """Saturated cluster: one core per executor, the rest split
    proportionally to demand (largest-remainder rounding)."""
    m = len(weights)
    if total < m:
        raise ValueError("fewer cores than executors")
    w = np.maximum(np.asarray(weights, dtype=float), 0.0)
    w = w / w.sum() if w.sum() > 0 else np.full(m, 1.0 / m)
    extra_f = w * (total - m)
    extra = np.floor(extra_f).astype(np.int64)
    rem = int(total - m - extra.sum())
    if rem > 0:
        order = np.argsort(-(extra_f - extra), kind="stable")
        extra[order[:rem]] += 1
    return 1 + extra


def _least_loaded_first(task_loads: list, shard_loads: list, truncate: bool) -> list[int]:
    """Place shards, in the order given, each onto the least-loaded task
    (the lowest index on ties); return the task of each shard.  With
    ``truncate`` every running task load is cut toward zero to an int."""
    if len(task_loads) == 1:
        return [0] * len(shard_loads)
    heap = list(zip(task_loads, range(len(task_loads))))
    heapq.heapify(heap)
    placed = []
    for w in shard_loads:
        load, t = heap[0]
        load += w
        heapq.heapreplace(heap, (int(load) if truncate else load, t))
        placed.append(t)
    return placed
