"""Epoch-driven cluster engine.

Simulates a topology on a modeled cluster (:class:`ClusterSpec`) in
discrete epochs (default 1 s).  Per epoch and operator it:

1. routes arrivals to shards with the same XXH64 hashes the Spark
   views use (``repro.core.shards``),
2. lets the paradigm policy perform its elasticity actions (shard
   moves, core reassignments, operator-level repartitions) with the
   cost model applied (sync pauses, state-migration bytes/time, NIC
   throttling of remote tasks),
3. admits tuples into bounded per-task pending queues (backpressure:
   overflow is deferred to a source-side residual buffer and shed when
   that overflows too),
4. processes up to each task's capacity and propagates outputs to
   downstream operators one epoch later,
5. records the :class:`~repro.engine.metrics.EpochMetrics` counters.

Latency is an Eq. 1-style weighted average over operators of queue-wait
+ service + protocol-pause time.  It is a queueing *model* of latency —
absolute milliseconds are not the claim; orderings and orders of
magnitude are (see DESIGN.md §5).

Paradigm behaviour is injected through two hooks (`_init_layout`,
`_elasticity`) overridden in :mod:`repro.paradigms`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.load_balancer import DEFAULT_THETA
from repro.engine.metrics import EpochMetrics, RunResult
from repro.streams.microbench import Trace
from repro.substrate.cluster import ClusterSpec
from repro.substrate.topology import OperatorSpec, Topology

_EPS = 1e-12


@dataclass(frozen=True)
class EngineConfig:
    """Tunables shared by all paradigms."""

    spec: ClusterSpec = field(default_factory=ClusterSpec)
    epoch_s: float = 1.0
    #: latency target fed to the model-based scheduler (§4.1).
    t_max_ms: float = 50.0
    #: per-task pending-queue bound, in ms of work (backpressure).
    queue_cap_ms: float = 4000.0
    #: source-side residual bound per shard, in ms of work; beyond this
    #: tuples are shed (the spout is throttled).
    resid_cap_ms: float = 8000.0
    theta: float = DEFAULT_THETA
    warmup_epochs: int = 5
    #: parallelism of the external spout feeding the source operators —
    #: part of RC's upstream-synchronisation cost (Fig. 9a).
    spout_executors: int = 32


@dataclass
class OpRuntime:
    """Mutable per-operator simulation state.

    ``tasks_node[t]`` is the node hosting task ``t``; ``tasks_exec[t]``
    the elastic executor owning it (for static/RC, task == executor).
    ``shard_assign[s]`` maps operator-global shard → task.  Queues and
    residuals are in *tuples* (per-operator CPU cost is uniform, so
    work ∝ tuples).
    """

    op: OperatorSpec
    key_to_shard: np.ndarray  # (n_keys,) operator-global shard of each key
    tasks_node: np.ndarray  # (n_tasks,) node id
    tasks_exec: np.ndarray  # (n_tasks,) executor id
    shard_assign: np.ndarray  # (n_shards,) task index
    exec_home: np.ndarray  # (n_executors,) main-process node per executor
    queue_n: np.ndarray = field(default=None)  # type: ignore[assignment]
    resid_n: np.ndarray = field(default=None)  # type: ignore[assignment]
    resid_wait: np.ndarray = field(default=None)  # type: ignore[assignment]
    pause_ms: np.ndarray = field(default=None)  # type: ignore[assignment]
    #: operator stalled (RC repartition in progress) until this sim-time.
    stall_until_s: float = 0.0
    pending_moves: list = field(default_factory=list)
    pending_migration_bytes: float = 0.0
    #: key distribution of the most recent non-empty input (used to
    #: shape outputs drained from backlog when the input goes quiet).
    last_dist: np.ndarray = field(default=None)  # type: ignore[assignment]
    shed_total: float = 0.0

    def __post_init__(self) -> None:
        z = self.op.total_shards
        if self.queue_n is None:
            self.queue_n = np.zeros(z)
        if self.resid_n is None:
            self.resid_n = np.zeros(z)
        if self.resid_wait is None:
            self.resid_wait = np.zeros(z)
        if self.pause_ms is None:
            self.pause_ms = np.zeros(z)

    @property
    def n_tasks(self) -> int:
        return len(self.tasks_node)


class BaseSim:
    """Shared data plane; paradigms override the three hooks."""

    name = "base"

    def __init__(self, topology: Topology, config: EngineConfig | None = None) -> None:
        self.topology = topology
        self.cfg = config or EngineConfig()
        self.spec = self.cfg.spec
        self.ops: dict[str, OpRuntime] = {}
        self._order = topology.topo_order()
        self._core_split = self._split_cores()
        self._rr_cursor = 0

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------
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

    def _take_cores(self, n: int) -> np.ndarray:
        """Reserve ``n`` cores round-robin across nodes (the paper's
        executor placement).  Returns node ids.  Every node has the same
        core count, so no node fills before the whole cluster does."""
        start = self._rr_cursor
        if start + n > self.spec.total_cores:
            raise RuntimeError("cluster out of cores during layout")
        self._rr_cursor += n
        return (start + np.arange(n, dtype=np.int64)) % self.spec.n_nodes

    def n_upstream_executors(self, name: str) -> int:
        """Executor parallelism upstream of ``name`` — external spout
        for sources, upstream operators' task counts otherwise."""
        ups = self.topology.upstreams(name)
        if not ups:
            return self.cfg.spout_executors
        return sum(self.ops[u].n_tasks for u in ups)

    def setup(self, n_keys: int) -> None:
        for name in self._order:
            op = self.topology.operator(name)
            self.ops[name] = self._init_layout(op, n_keys)

    def _init_layout(self, op: OperatorSpec, n_keys: int) -> OpRuntime:
        raise NotImplementedError

    def _elasticity(self, epoch: int, now_s: float, arrivals: dict[str, np.ndarray], m: EpochMetrics) -> None:
        """Per-epoch control plane: mutate runtimes, charge costs to ``m``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------
    def run(self, trace: Trace) -> RunResult:
        if trace.epoch_s != self.cfg.epoch_s:
            raise ValueError(
                f"trace epochs are {trace.epoch_s} s but the engine runs "
                f"{self.cfg.epoch_s} s epochs"
            )
        self.setup(trace.n_keys)
        result = RunResult(self.name, self.cfg.epoch_s, warmup=self.cfg.warmup_epochs)
        n_keys = trace.n_keys
        # per-operator input counts for the *current* epoch
        inbox: dict[str, np.ndarray] = {
            name: np.zeros(n_keys) for name in self._order
        }
        sources = self.topology.sources()
        for t in range(trace.n_epochs):
            now_s = t * self.cfg.epoch_s
            m = EpochMetrics(epoch=t)
            for s in sources:
                inbox[s] = inbox[s] + trace.counts[t].astype(float)
            arrivals = {name: inbox[name] for name in self._order}
            self._elasticity(t, now_s, arrivals, m)
            # Storm-style global backpressure: the spout throttles to
            # the hottest task in the whole topology (high/low-watermark
            # backpressure stalls the entire spout, not one path).
            g = self._throttle_factor(arrivals, now_s)
            m.throttle_g = g
            if g < 1.0:
                for s in sources:
                    nominal = float(arrivals[s].sum())
                    m.offered += nominal
                    m.throttled += (1.0 - g) * nominal
                    arrivals[s] = arrivals[s] * g
            # stop-start emission under throttling delays every tuple by
            # about half a queue-drain cycle on average
            bp_penalty_ms = (1.0 - g) * 0.5 * self.cfg.queue_cap_ms
            next_inbox: dict[str, np.ndarray] = {
                name: np.zeros(n_keys) for name in self._order
            }
            lat_num = 0.0
            for name in self._order:
                rt = self.ops[name]
                out_counts, proc, offered, lat = self._process_operator(
                    rt, arrivals[name], now_s, m
                )
                if name in sources:
                    if g >= 1.0:
                        m.offered += offered
                    m.processed += proc
                    lat += proc * bp_penalty_ms
                lat_num += lat
                sel = rt.op.selectivity
                for d in self.topology.downstreams(name):
                    next_inbox[d] = next_inbox[d] + out_counts * sel
            src_proc = max(m.processed, _EPS)
            m.latency_ms = lat_num / src_proc
            inbox = next_inbox
            result.epochs.append(m)
        return result

    def _stall_frac(self, rt: OpRuntime, now_s: float) -> float:
        if rt.stall_until_s <= now_s:
            return 0.0
        return min(1.0, (rt.stall_until_s - now_s) / self.cfg.epoch_s)

    def _throttle_factor(self, arrivals: dict[str, np.ndarray], now_s: float) -> float:
        """Fluid spout-throttle: largest g in (0, 1] such that no task
        anywhere receives more than its capacity this epoch.

        Capacity is evaluated *ignoring* transient repartitioning
        stalls: a stall buffers tuples upstream (they arrive late, with
        the queueing delay charged by the data plane), whereas
        persistent per-task overload throttles the spout itself.
        """
        g = 1.0
        for name in self._order:
            rt = self.ops[name]
            a = np.bincount(
                rt.key_to_shard, weights=arrivals[name], minlength=rt.op.total_shards
            )
            a_t = np.bincount(rt.shard_assign, weights=a, minlength=rt.n_tasks)
            cap_t = (
                self.spec.core_capacity_per_epoch(self.cfg.epoch_s) / rt.op.cpu_cost_ms
            )
            hot = a_t > 0
            if hot.any():
                g = min(g, float((cap_t / np.maximum(a_t, _EPS))[hot].min()))
        return max(0.0, min(1.0, g))

    # ------------------------------------------------------------------
    # shared data plane for one operator-epoch
    # ------------------------------------------------------------------
    def _process_operator(
        self, rt: OpRuntime, in_counts: np.ndarray, now_s: float, m: EpochMetrics
    ) -> tuple[np.ndarray, float, float, float]:
        """Returns (out_counts_per_key, processed, offered, latency_numerator)."""
        cfg, op = self.cfg, rt.op
        cost = op.cpu_cost_ms
        epoch_ms = cfg.epoch_s * 1000.0
        offered = float(in_counts.sum())
        a = np.bincount(rt.key_to_shard, weights=in_counts, minlength=op.total_shards)

        # ---- operator-level stall (RC repartitioning) ----
        stall_frac = self._stall_frac(rt, now_s)
        if rt.pending_moves and rt.stall_until_s <= now_s + cfg.epoch_s:
            # repartitioning completes inside this epoch: apply the moves
            for mv in rt.pending_moves:
                rt.shard_assign[mv.shard] = mv.dst
            m.n_shard_moves += len(rt.pending_moves)
            m.migrated_bytes += rt.pending_migration_bytes
            rt.pending_moves = []
            rt.pending_migration_bytes = 0.0

        assign = rt.shard_assign
        n_tasks = rt.n_tasks

        # ---- per-task capacity (tuples) ----
        cap_ms = self.spec.core_capacity_per_epoch(cfg.epoch_s) * (1.0 - stall_frac)
        cap_t = np.full(n_tasks, cap_ms / cost)

        # ---- NIC throttling + remote traffic accounting ----
        remote = rt.tasks_node != rt.exec_home[rt.tasks_exec]
        if remote.any():
            a_t = np.bincount(assign, weights=a, minlength=n_tasks)
            bytes_t = a_t * self.topology.link_bytes_per_tuple(op.name)
            nic_cap = self.spec.nic_bytes_per_s * cfg.epoch_s
            for h in np.unique(rt.exec_home[rt.tasks_exec[remote]]):
                mask = remote & (rt.exec_home[rt.tasks_exec] == h)
                demand = bytes_t[mask].sum()
                if demand > nic_cap:
                    cap_t[mask] *= nic_cap / demand
                m.remote_bytes += min(demand, nic_cap)

        # ---- admission: residual (older) first, then new arrivals ----
        q_cap = cfg.queue_cap_ms / cost
        q_t = np.bincount(assign, weights=rt.queue_n, minlength=n_tasks)
        backlog_t = q_t.copy()  # carried from previous epochs: drains first
        room_t = np.maximum(0.0, q_cap - q_t)
        r_t = np.bincount(assign, weights=rt.resid_n, minlength=n_tasks)
        adm_r_t = np.minimum(r_t, room_t)
        a_t = np.bincount(assign, weights=a, minlength=n_tasks)
        adm_a_t = np.minimum(a_t, room_t - adm_r_t)
        fr = adm_r_t / np.maximum(r_t, _EPS)
        fa = adm_a_t / np.maximum(a_t, _EPS)
        adm_r = rt.resid_n * fr[assign]
        adm_a = a * fa[assign]
        adm_wait = rt.resid_wait * fr[assign]  # ms·tuples carried by admitted residual
        rt.resid_wait *= 1.0 - fr[assign]
        rt.resid_n = rt.resid_n - adm_r + (a - adm_a)
        rt.queue_n = rt.queue_n + adm_r + adm_a
        carried_wait = np.bincount(assign, weights=adm_wait, minlength=n_tasks)

        # ---- processing ----
        pause_frac = np.clip(rt.pause_ms / epoch_ms, 0.0, 1.0)
        avail = rt.queue_n * (1.0 - pause_frac)
        avail_t = np.bincount(assign, weights=avail, minlength=n_tasks)
        proc_t = np.minimum(avail_t, cap_t)
        f_t = proc_t / np.maximum(avail_t, _EPS)
        proc_s = avail * f_t[assign]
        rt.queue_n = np.maximum(0.0, rt.queue_n - proc_s)
        processed = float(proc_s.sum())

        # ---- latency numerator (ms·tuples) ----
        # Two wait regimes per task: (a) carried backlog must drain
        # first — batch-drain time; (b) this epoch's admitted arrivals
        # see an M/M/1-style wait cost·ρ/(1-ρ) while the task is stable,
        # bounded above by the batch-drain wait (0.5·batch/rate) when it
        # saturates.  Plus service time, protocol pauses, and the wait
        # already accumulated by residual tuples admitted this epoch.
        rate_t = np.maximum(cap_t / epoch_ms, _EPS)  # tuples per ms
        adm_t = adm_r_t + adm_a_t
        rho_t = np.minimum(adm_t / np.maximum(cap_t, _EPS), 1.0 - 1e-9)
        wait_mm1 = cost * rho_t / (1.0 - rho_t)
        wait_batch = 0.5 * adm_t / rate_t
        wait_t = backlog_t / rate_t + np.minimum(wait_mm1, wait_batch)
        lat_num = float((proc_t * (wait_t + cost)).sum())
        lat_num += float((proc_s * np.minimum(rt.pause_ms, epoch_ms)).sum())
        lat_num += float(carried_wait.sum())

        # ---- residual aging + shedding ----
        rt.resid_wait += rt.resid_n * epoch_ms
        resid_cap = cfg.resid_cap_ms / cost
        over = np.maximum(0.0, rt.resid_n - resid_cap)
        keep = 1.0 - over / np.maximum(rt.resid_n, _EPS)
        rt.resid_wait *= keep
        rt.resid_n -= over
        shed = float(over.sum())
        rt.shed_total += shed
        m.shed += shed

        # pauses are one-shot
        rt.pause_ms[:] = 0.0

        # ---- outputs per key ----
        if offered > 0:
            rt.last_dist = in_counts / offered
        dist = rt.last_dist if rt.last_dist is not None else np.full(len(in_counts), 1.0 / len(in_counts))
        out_counts = processed * dist
        return out_counts, processed, offered, lat_num

    # ------------------------------------------------------------------
    # shared helpers for paradigms
    # ------------------------------------------------------------------
    def shard_loads_ms(self, rt: OpRuntime, in_counts: np.ndarray) -> np.ndarray:
        """Per-shard workload (CPU-ms) = queued + arriving work."""
        a = np.bincount(rt.key_to_shard, weights=in_counts, minlength=rt.op.total_shards)
        return (a + rt.queue_n) * rt.op.cpu_cost_ms
