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
3. applies the new assignment to every operator through one path
   (:meth:`ElasticutorSim._rebuild_operator`): tasks are created/removed
   per executor and node, orphaned shards are re-homed, and the
   intra-executor load balancer (§3.1) restores δ < θ — an operator
   whose cores did not change only rebalances.  Executors with no
   orphan whose δ is already clearly below θ are screened out with
   array operations before the per-executor loop.  Every shard move is
   charged the §3.3 protocol cost, once per operator over the ordered
   move list: a 2 ms sync pause, plus state migration only when the
   shard crosses nodes (intra-process state sharing makes same-node
   moves free).

:class:`NaiveECSim` (in :mod:`repro.paradigms.naive_ec`) swaps step 2
for the cost-and-locality-blind assignment.
"""
from __future__ import annotations

import heapq
import time

import numpy as np

from repro.core import shards as shard_hash
from repro.core.assignment import AssignmentResult, assign_cores
from repro.core.load_balancer import rebalance
from repro.core.scheduler import allocate_cores
from repro.engine.metrics import EpochMetrics
from repro.engine.simulator import BaseSim, OpRuntime
from repro.substrate.topology import OperatorSpec

_EPS = 1e-12


class ElasticutorSim(BaseSim):
    """Full Elasticutor: elastic executors + model-based scheduler."""

    name = "elasticutor"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._gslice: dict[str, slice] = {}
        self._Xg: np.ndarray | None = None
        self._lam_ewma: np.ndarray | None = None

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------
    def _init_layout(self, op: OperatorSpec, n_keys: int) -> OpRuntime:
        y, z = op.n_executors, op.shards_per_executor
        homes = self._take_cores(y)  # one initial (local) core per executor
        keys = np.arange(n_keys)
        return OpRuntime(
            op=op,
            key_to_shard=np.asarray(shard_hash.global_shard(keys, y, z), dtype=np.int64),
            tasks_node=homes.copy(),
            tasks_exec=np.arange(y, dtype=np.int64),
            shard_assign=np.repeat(np.arange(y, dtype=np.int64), z),
            exec_home=homes,
        )

    def setup(self, n_keys: int) -> None:
        wanted = sum(op.n_executors for op in self.topology.operators)
        if wanted > self.spec.total_cores:
            raise ValueError(
                f"{wanted} executors need at least one core each but the "
                f"cluster has {self.spec.total_cores}"
            )
        super().setup(n_keys)
        total = 0
        for name in self._order:
            y = self.ops[name].op.n_executors
            self._gslice[name] = slice(total, total + y)
            total += y
        X = np.zeros((self.spec.n_nodes, total), dtype=np.int64)
        for name in self._order:
            rt = self.ops[name]
            for j, home in enumerate(rt.exec_home):
                X[home, self._gslice[name].start + j] += 1
        self._Xg = X

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
        cores = np.full(self.spec.n_nodes, self.spec.cores_per_node, dtype=np.int64)
        return assign_cores(k, self._Xg, cores, state_bytes, local_node, data_intensity)

    def _elasticity(
        self, epoch: int, now_s: float, arrivals: dict[str, np.ndarray], m: EpochMetrics
    ) -> None:
        cfg, spec = self.cfg, self.spec
        M = self._Xg.shape[1]
        lams = np.zeros(M)
        mus = np.zeros(M)
        sbytes = np.zeros(M)
        local = np.zeros(M, dtype=np.int64)
        dint = np.zeros(M)
        kcur = self._Xg.sum(axis=0)
        lam0 = 0.0
        for name in self._order:
            rt = self.ops[name]
            op = rt.op
            y, z = op.n_executors, op.shards_per_executor
            gsl = self._gslice[name]
            a = np.bincount(rt.key_to_shard, weights=arrivals[name], minlength=op.total_shards)
            demand = (a + rt.queue_n + rt.resid_n).reshape(y, z).sum(axis=1)
            lams[gsl] = demand / cfg.epoch_s
            mus[gsl] = spec.core_capacity_ms_per_s / op.cpu_cost_ms
            sbytes[gsl] = z * op.shard_state_bytes
            local[gsl] = rt.exec_home
            arr_rate = a.reshape(y, z).sum(axis=1) / cfg.epoch_s
            link_bytes = self.topology.link_bytes_per_tuple(name)
            dint[gsl] = arr_rate * link_bytes / np.maximum(kcur[gsl], 1)
            if not self.topology.upstreams(name):
                lam0 += float(arrivals[name].sum()) / cfg.epoch_s

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
        lam_eff = (lams * cfg.theta).tolist()
        alloc = allocate_cores(
            max(lam0, _EPS), lam_eff, mus.tolist(), spec.total_cores, cfg.t_max_ms
        )
        k = np.asarray(alloc.cores, dtype=np.int64)
        if k.sum() > spec.total_cores:
            k = _cap_allocation(lams / mus, spec.total_cores)
        res = self._assign(k, sbytes, local, dint)
        m.sched_ms += (time.perf_counter() - t0) * 1000.0
        m.n_core_changes += int(np.abs(res.X - self._Xg).sum() // 2)
        for name in self._order:
            Xop = res.X[:, self._gslice[name]]
            self._rebuild_operator(self.ops[name], Xop, arrivals[name], m)
        self._Xg = res.X

    # ------------------------------------------------------------------
    # applying a new core-to-executor assignment
    # ------------------------------------------------------------------
    def _rebuild_operator(
        self, rt: OpRuntime, Xop: np.ndarray, in_counts: np.ndarray, m: EpochMetrics
    ) -> None:
        """Apply ``Xop`` (cores per node per executor) to one operator.

        The new task list is ordered executor-major, node-minor, as the
        initial layout is.  Within each (executor, node) group the old
        tasks survive in order up to the wanted count; the rest die and
        new tasks fill the group's tail.  Shards of dead tasks are
        re-homed (heaviest first, each onto the least-loaded task), then
        each executor is rebalanced to δ < θ.

        One operator-wide ``bincount`` of the surviving shards screens
        the executors: only those with orphans, or with several tasks
        and δ not clearly below θ, enter the per-executor loop; for the
        rest :func:`rebalance` would return at once with no move.  The
        moves are collected in order and charged once per operator.
        With an unchanged ``Xop`` every task maps to itself, so this
        reduces to the per-executor rebalance."""
        op = rt.op
        y, z = op.n_executors, op.shards_per_executor
        n = self.spec.n_nodes
        k = Xop.sum(axis=0)
        if (k == 0).any():
            j = int(np.flatnonzero(k == 0)[0])
            raise RuntimeError(f"executor {j} of {op.name} left with no core")
        loads = self.shard_loads_ms(rt, in_counts)
        want = Xop.T.ravel()  # cores of group g = executor * n + node
        groups = np.repeat(np.arange(y * n), want)
        nodes_arr = groups % n
        exec_arr = groups // n
        group_start = np.cumsum(want) - want
        # stable rank of each old task inside its (executor, node) group
        old_g = rt.tasks_exec * n + rt.tasks_node
        order = np.argsort(old_g, kind="stable")
        old_count = np.bincount(old_g, minlength=y * n)
        rank = np.empty(rt.n_tasks, dtype=np.int64)
        rank[order] = np.arange(rt.n_tasks) - (np.cumsum(old_count) - old_count)[old_g[order]]
        old_to_new = np.where(rank < want[old_g], group_start[old_g] + rank, -1)
        new_assign = old_to_new[rt.shard_assign]  # -1 where the task died
        exec_start = np.cumsum(k) - k
        # Each task's load sums its shards in shard order, as the
        # per-executor bincount in rebalance does, so the values match.
        live = new_assign >= 0
        tl = np.bincount(new_assign[live], weights=loads[live], minlength=len(groups))
        tmax = np.maximum.reduceat(tl, exec_start)
        tmean = np.add.reduceat(tl, exec_start) / k
        # The 1e-9 margin covers the rounding between this mean and
        # rebalance's, so an executor near θ still gets the exact test;
        # an idle one (max = mean = 0) is skipped, as rebalance stops there.
        orphaned = ~live.reshape(y, z).all(axis=1)
        busy = orphaned | ((k > 1) & (tmax > self.cfg.theta * (1.0 - 1e-9) * tmean))
        moved, inter = [], []  # shard and crosses-nodes flag per move, in order
        for j in np.flatnonzero(busy).tolist():
            kj, s0, tj0 = int(k[j]), j * z, int(exec_start[j])
            sl = slice(s0, s0 + z)
            loc = new_assign[sl] - tj0  # negative where orphaned
            lj = loads[sl]
            orphans = np.flatnonzero(loc < 0)
            if orphans.size:
                orphans = orphans[np.argsort(-lj[orphans])]
                # Known defect, kept so outputs stay as they are: when no
                # shard of the executor survives, the running task loads
                # are ints (the bincount of an empty selection is int64),
                # each sum truncated toward zero.  Fixing it changes
                # naive-EC's output (ROADMAP).
                truncate = orphans.size == z
                start = [0] * kj if truncate else tl[tj0 : tj0 + kj].tolist()
                loc[orphans] = _least_loaded_first(start, lj[orphans].tolist(), truncate)
                moved.append(s0 + orphans)
                old_nodes = rt.tasks_node[rt.shard_assign[s0 + orphans]]
                inter.append(old_nodes != nodes_arr[tj0 + loc[orphans]])
            if kj > 1:
                loc, moves = rebalance(lj, loc, kj, self.cfg.theta)
                if moves:
                    sd = np.array([(mv.shard, mv.src, mv.dst) for mv in moves], dtype=np.int64)
                    moved.append(s0 + sd[:, 0])
                    inter.append(nodes_arr[tj0 + sd[:, 1]] != nodes_arr[tj0 + sd[:, 2]])
            new_assign[sl] = tj0 + loc
        if moved:
            self._charge_moves(rt, m, np.concatenate(moved), np.concatenate(inter))
        rt.tasks_node = nodes_arr
        rt.tasks_exec = exec_arr
        rt.shard_assign = new_assign

    def _charge_moves(
        self, rt: OpRuntime, m: EpochMetrics, shards: np.ndarray, inter: np.ndarray
    ) -> None:
        """Charge the §3.3 protocol cost of each move, in order: the
        shard pauses for sync + migration, and the epoch adds the sync
        time and, for an inter-node move, the shard's state bytes.  The
        epoch totals are accumulated one move at a time, so they equal
        a per-move ``+=`` bit for bit."""
        nbytes = rt.op.shard_state_bytes
        sync_intra, mig_intra = self.spec.ec_shard_reassign_ms(nbytes, False)
        sync_inter, mig_inter = self.spec.ec_shard_reassign_ms(nbytes, True)
        pause = np.where(inter, sync_inter + mig_inter, sync_intra + mig_intra)
        np.add.at(rt.pause_ms, shards, pause)  # in order, repeated shards included
        m.sync_ms = _add_in_order(m.sync_ms, np.where(inter, sync_inter, sync_intra))
        m.migrated_bytes = _add_in_order(m.migrated_bytes, np.full(int(inter.sum()), nbytes))
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
    heap = list(zip(task_loads, range(len(task_loads))))
    heapq.heapify(heap)
    placed = []
    for w in shard_loads:
        load, t = heap[0]
        load += w
        heapq.heapreplace(heap, (int(load) if truncate else load, t))
        placed.append(t)
    return placed


def _add_in_order(total: float, values: np.ndarray) -> float:
    """``total`` plus ``values`` added one at a time (``cumsum`` is
    sequential; ``sum`` is pairwise and may round differently)."""
    return float(np.cumsum(np.r_[total, values])[-1])
