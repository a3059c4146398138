"""Epoch-driven cluster engine.

Simulates a topology on a modeled cluster (its shape a
:class:`ClusterSpec`, its costs those of :mod:`repro.substrate.cluster`)
in discrete epochs of ``EPOCH_S``.  All operators share one shard space:
each operator's shards, its executors and its tasks each occupy one
contiguous range of engine-wide arrays, in topological order, and these
arrays are the only layout.  Key → shard is static (``_route_idx``), as
in §3.1; only shard → task (``_shard_task``, engine-wide task ids) and
the tasks themselves (``_task_node``, ``_task_exec``) change.  Each
paradigm decides a key's shard and a shard's executor
(:meth:`BaseSim._init_layout`); :meth:`BaseSim.setup` places the
executors.  Within an epoch the operators do not feed each other
(outputs reach the downstream operators one epoch later), so every step
below is one set of array operations over all operators at once.  Per
epoch the engine:

1. routes the inbox — one row of per-key input counts per operator —
   to shards with one ``bincount``, using the XXH64 shard hash of
   ``repro.core.shards`` (Spark's ``xxhash64``, checked against
   answers Spark SQL computed); the paradigm, the spout throttle and
   the data plane all read these shard arrivals;
2. lets the paradigm policy perform its elasticity actions (shard
   moves, core reassignments, operator-level repartitions) with the
   cost model applied (sync pauses, state-migration bytes/time);
3. throttles the spout to the hottest task of the whole topology;
4. applies the operator-level repartitions that complete inside the
   epoch (:meth:`BaseSim._repartition`, RC only), which also yields the
   fraction of the epoch each operator is stalled;
5. advances every operator: NIC throttling of remote tasks, admission
   into bounded per-task pending queues (backpressure: overflow is
   deferred to a source-side residual buffer and shed when that
   overflows too), processing up to each task's capacity, latency, and
   the per-key outputs of the operators that feed another into the
   downstream rows of the next inbox (the consumed inbox, zero-filled);
6. records the :class:`~repro.engine.metrics.EpochMetrics` counters.

Each operator's float totals (processed, latency, shed, offered) are
still summed over that operator's own slice, and remote NIC demand over
each (operator, home node) group in task order, so the fused pass adds
in the same order as one operator at a time would.

Step 5 skips the work of state that does not exist, with the outputs
of a full pass: residual admission runs only when some shard holds
residual tuples, residual aging and shedding only when some are left
after admission, and the pause scaling and pause latency only when some
shard is paused (only shard moves pause shards, and only an overloaded
task leaves residuals); each test is ``(x != 0).any()``, true for NaN
and not ±0.0 as ``x.any()`` is, without its cast to bool.  The
per-task capacity is kept per layout and recomputed in an epoch only
when an operator is stalled, and the per-task arrivals of step 3 are
summed again in step 5 only when the spout was throttled or a
repartition completed.

Latency is an Eq. 1-style weighted average over operators of queue-wait
+ service + protocol-pause time.  It is a queueing *model* of latency —
absolute milliseconds are not the claim; orderings and orders of
magnitude are (see DESIGN.md §5).

Paradigm behaviour is injected through three hooks (`_init_layout`,
`_elasticity`, `_repartition`) overridden in :mod:`repro.paradigms`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.metrics import EpochMetrics, RunResult
from repro.streams.microbench import EPOCH_S, Trace
from repro.substrate import cluster
from repro.substrate.cluster import CORE_CAPACITY_MS_PER_S, ClusterSpec
from repro.substrate.topology import OperatorSpec, Topology

_EPS = 1e-12

#: per-task pending-queue bound, in ms of work (backpressure).
QUEUE_CAP_MS = 4000.0
#: source-side residual bound per shard, in ms of work; beyond this
#: tuples are shed (the spout is throttled).
RESID_CAP_MS = 8000.0
#: parallelism of the external spout feeding the source operators —
#: part of RC's upstream-synchronisation cost (Fig. 9a).
SPOUT_EXECUTORS = 32


@dataclass(frozen=True)
class EngineConfig:
    """The only engine parameters that vary between callers: the cluster
    and the epochs before measurement starts.  The others are module
    constants, each where its fact lives (DESIGN.md §6)."""

    spec: ClusterSpec = field(default_factory=ClusterSpec)
    warmup_epochs: int = 5


@dataclass
class OpRuntime:
    """One operator's per-shard state: views into the engine-wide
    per-shard arrays (write them in place), in *tuples* (per-operator
    CPU cost is uniform, so work ∝ tuples), and the tuples it has shed."""

    queue_n: np.ndarray
    resid_n: np.ndarray
    resid_wait: np.ndarray
    pause_ms: np.ndarray
    shed_total: float = 0.0


class BaseSim:
    """Shared data plane; paradigms override the three hooks."""

    name = "base"

    def __init__(self, topology: Topology, config: EngineConfig | None = None) -> None:
        self.topology = topology
        self.cfg = config or EngineConfig()
        self.spec = self.cfg.spec
        self.ops: dict[str, OpRuntime] = {}
        self._order = topology.topo_order()

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------
    def setup(self, n_keys: int) -> None:
        """Lay out every operator and build the engine-wide arrays, and
        with them all per-run state.  Each executor starts with one task
        on its home node: engine-wide executor ``j`` on node
        ``j mod n_nodes`` (the paper's round-robin placement), so no task
        starts remote and no node fills before the whole cluster does."""
        ops = [self.topology.operator(name) for name in self._order]
        layouts = [self._init_layout(op, n_keys) for op in ops]
        y = [n_exec for _, _, n_exec in layouts]
        n_execs = sum(y)
        if n_execs > self.spec.total_cores:
            raise ValueError(
                f"{n_execs} executors need at least one core each but the "
                f"cluster has {self.spec.total_cores}"
            )
        n_ops = len(ops)
        idx = np.arange(n_ops)
        z = [op.total_shards for op in ops]
        self._shard_off = np.concatenate(([0], np.cumsum(z)))
        self._shard_op = np.repeat(idx, z)
        self._route_idx = (
            np.stack([key_shard for key_shard, _, _ in layouts]) + self._shard_off[:-1, None]
        ).ravel()
        n_shards = int(self._shard_off[-1])
        self._cost = np.array([op.cpu_cost_ms for op in ops], dtype=float)
        self._link_bytes = np.array(
            [self.topology.link_bytes_per_tuple(name) for name in self._order], dtype=float
        )
        self._shard_cost = self._cost[self._shard_op]
        self._resid_cap = (RESID_CAP_MS / self._cost)[self._shard_op]
        self._core_cap = CORE_CAPACITY_MS_PER_S * EPOCH_S  # CPU-ms per core and epoch
        self._no_stall = np.zeros(n_ops)

        self._queue_n = np.zeros(n_shards)
        self._resid_n = np.zeros(n_shards)
        self._resid_wait = np.zeros(n_shards)
        self._pause_ms = np.zeros(n_shards)
        for i, name in enumerate(self._order):
            sl = slice(self._shard_off[i], self._shard_off[i + 1])
            self.ops[name] = OpRuntime(
                self._queue_n[sl], self._resid_n[sl], self._resid_wait[sl], self._pause_ms[sl]
            )

        self._exec_off = np.concatenate(([0], np.cumsum(y)))
        self._exec_op = np.repeat(idx, y)
        self._exec_home = np.arange(n_execs, dtype=np.int64) % self.spec.n_nodes
        # one task per executor, so a task's id is its executor's
        self._shard_task = np.concatenate(
            [shard_exec + self._exec_off[i] for i, (_, shard_exec, _) in enumerate(layouts)]
        )
        self._set_tasks(self._exec_home.copy(), np.arange(n_execs, dtype=np.int64))

        pos = {name: i for i, name in enumerate(self._order)}
        self._sources = [pos[s] for s in self.topology.sources()]
        self._is_source = np.zeros(n_ops, dtype=bool)
        self._is_source[self._sources] = True
        # The next inbox of an operator adds its upstreams' outputs in
        # topological order; feed r pairs each operator with its r-th.
        ups: dict[int, list[int]] = {}
        for u, name in enumerate(self._order):
            for d in self.topology.downstreams(name):
                ups.setdefault(pos[d], []).append(u)
        # per-key outputs only of the operators that feed another: row r
        # of _last_dist and _sel is operator _ups[r], a feed's upstream a row
        feeding = sorted({u for v in ups.values() for u in v})
        self._ups = np.array(feeding, dtype=np.int64)
        self._last_dist = np.full((len(feeding), n_keys), 1.0 / n_keys)
        self._sel = np.array([[ops[u].selectivity] for u in feeding])
        self._feeds = []
        for r in range(max((len(v) for v in ups.values()), default=0)):
            pairs = [(d, v[r]) for d, v in ups.items() if len(v) > r]
            self._feeds.append((np.array([d for d, _ in pairs]), np.array([feeding.index(u) for _, u in pairs])))

    def _set_tasks(self, task_node: np.ndarray, task_exec: np.ndarray) -> None:
        """Install a task layout: node and engine-wide executor of each
        task, with every operator's tasks contiguous and in operator
        order.  The caller keeps ``_shard_task`` (engine-wide task of
        each shard) consistent with it."""
        n_ops = len(self._order)
        self._task_node = task_node
        self._task_exec = task_exec
        self._task_op = self._exec_op[task_exec]
        per_op = np.bincount(self._task_op, minlength=n_ops)
        self._task_off = np.concatenate(([0], np.cumsum(per_op)))
        self._task_cost = self._cost[self._task_op]
        self._task_cap = (self._core_cap / self._cost)[self._task_op]  # tuples per epoch
        self._queue_cap = (QUEUE_CAP_MS / self._cost)[self._task_op]
        # remote tasks grouped by (operator, home node), each group in
        # task order; groups of one size are summed as rows of a matrix,
        # and a row sum adds in the same order as the group's own sum()
        remote = np.flatnonzero(task_node != self._exec_home[task_exec])
        if remote.size == 0:
            self._nic = None
            return
        key = self._task_op[remote] * self.spec.n_nodes + self._exec_home[task_exec[remote]]
        order = np.argsort(key, kind="stable")
        members, key = remote[order], key[order]
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        sizes = np.diff(np.concatenate((starts, [members.size])))
        by_size = []
        for n in np.unique(sizes).tolist():
            gids = np.flatnonzero(sizes == n)
            by_size.append((gids, members[starts[gids, None] + np.arange(n)]))
        group_of = np.repeat(np.arange(starts.size), sizes)
        link = self._link_bytes[self._task_op]
        self._nic = (members, group_of, starts.size, by_size, link)

    def _init_layout(self, op: OperatorSpec, n_keys: int) -> tuple[np.ndarray, np.ndarray, int]:
        """What the paradigm decides of ``op``'s layout: each key's
        operator-global shard, each shard's operator-local executor, and
        the number of executors."""
        raise NotImplementedError

    def _elasticity(
        self, epoch: int, now_s: float, inbox: np.ndarray, arrivals: np.ndarray, m: EpochMetrics
    ) -> None:
        """Per-epoch control plane: mutate the layout, charge costs to
        ``m``.  ``inbox`` is the (operators × keys) input of the epoch,
        ``arrivals`` its engine-wide per-shard routing."""
        raise NotImplementedError

    def _repartition(self, now_s: float, m: EpochMetrics) -> np.ndarray:
        """Apply the operator-level repartitions that complete inside
        this epoch and return the fraction of the epoch each operator
        is stalled by one.  Only RC repartitions operators.  A completed
        repartition installs a new ``_shard_task`` array rather than
        writing the old one, which tells :meth:`_advance` to re-sum the
        per-task arrivals."""
        return self._no_stall

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------
    def run(self, trace: Trace) -> RunResult:
        if trace.epoch_s != EPOCH_S:
            raise ValueError(f"trace epochs are {trace.epoch_s} s, the engine's {EPOCH_S} s")
        self.setup(trace.n_keys)
        result = RunResult(self.name, warmup=self.cfg.warmup_epochs)
        inbox = np.zeros((len(self._order), trace.n_keys))
        sources = self._sources
        for t in range(trace.n_epochs):
            now_s = t * EPOCH_S
            m = EpochMetrics(epoch=t)
            counts = trace.counts[t]  # the int64 → float64 cast of the add is exact
            for i in sources:
                inbox[i] += counts
            arrivals = self._route(inbox)
            self._elasticity(t, now_s, inbox, arrivals, m)
            inbox = self._advance(now_s, inbox, arrivals, m)
            result.epochs.append(m)
        return result

    def _route(self, inbox: np.ndarray) -> np.ndarray:
        """Per-shard arrivals of every operator, in one ``bincount``."""
        return np.bincount(self._route_idx, weights=inbox.ravel(), minlength=len(self._shard_op))

    def _advance(
        self, now_s: float, inbox: np.ndarray, arrivals: np.ndarray, m: EpochMetrics
    ) -> np.ndarray:
        """Throttle the spout, apply completed repartitions, advance
        every operator by one epoch and fold the per-operator totals into
        ``m``.  Returns the next epoch's inbox, in ``inbox``'s array."""
        # Storm-style global backpressure: the spout throttles to the
        # hottest task in the whole topology (high/low-watermark
        # backpressure stalls the entire spout, not one path).
        g, a_t = self._throttle_factor(arrivals)
        m.throttle_g = g
        sources = self._sources
        if g < 1.0:
            for i in sources:
                nominal = float(inbox[i].sum())
                m.offered += nominal
                m.throttled += (1.0 - g) * nominal
                inbox[i] *= g
            arrivals = self._route(inbox)
        # stop-start emission under throttling delays every tuple by
        # about half a queue-drain cycle on average
        bp_penalty_ms = (1.0 - g) * 0.5 * QUEUE_CAP_MS
        assign = self._shard_task
        stall = self._repartition(now_s, m)
        # the throttle's sums hold unless it throttled or a repartition completed
        if g < 1.0 or self._shard_task is not assign:
            a_t = np.bincount(self._shard_task, weights=arrivals, minlength=len(self._task_op))
        offered = inbox.sum(axis=1)
        next_inbox, processed, lat = self._data_plane(inbox, offered, arrivals, a_t, stall, m)
        lat_num = 0.0
        for i in range(len(self._order)):
            if self._is_source[i]:
                if g >= 1.0:
                    m.offered += offered[i]
                m.processed += processed[i]
                lat[i] += processed[i] * bp_penalty_ms
            lat_num += lat[i]
        m.latency_ms = lat_num / max(m.processed, _EPS)
        return next_inbox

    def _throttle_factor(self, arrivals: np.ndarray) -> tuple[float, np.ndarray]:
        """Fluid spout-throttle: largest g in (0, 1] such that no task
        anywhere receives more than its capacity this epoch.  Returns g
        and the per-task arrivals it was computed from.

        Capacity is evaluated *ignoring* transient repartitioning
        stalls: a stall buffers tuples upstream (they arrive late, with
        the queueing delay charged by the data plane), whereas
        persistent per-task overload throttles the spout itself.
        """
        a_t = np.bincount(self._shard_task, weights=arrivals, minlength=len(self._task_op))
        hot = a_t > 0
        if not hot.any():
            return 1.0, a_t
        g = float((self._task_cap / np.maximum(a_t, _EPS))[hot].min())
        return max(0.0, min(1.0, g)), a_t

    # ------------------------------------------------------------------
    # shared data plane: every operator in one pass
    # ------------------------------------------------------------------
    def _data_plane(
        self,
        inbox: np.ndarray,
        offered: np.ndarray,
        arrivals: np.ndarray,
        a_t: np.ndarray,
        stall: np.ndarray,
        m: EpochMetrics,
    ) -> tuple[np.ndarray, list[float], list[float]]:
        """Advance every operator by one epoch.  ``a_t`` is the
        per-task sum of ``arrivals`` under the current layout.  Returns
        (next inbox, processed tuples per operator, latency numerator per
        operator).

        Passes over state that is absent do not run: residual admission
        (and the carried-wait term) when no shard holds a residual on
        entry, residual aging and shedding when none is left after
        admission, and the pause scaling and pause-latency term when no
        shard is paused.  Each skipped term is exactly 0.0 in the full
        pass, so the outputs are bit-identical to it; an array of zeros
        of either sign counts as absent (the pause reset always runs, so
        a -0.0 pause leaves +0.0 as a full pass does).  Only the operators
        that feed another (``_ups``, the rows of ``_last_dist``) form
        per-key outputs; the next inbox is ``inbox``, zero-filled."""
        epoch_ms = EPOCH_S * 1000.0
        assign = self._shard_task
        n_tasks = len(self._task_op)
        a = arrivals
        queue_n, resid_n, resid_wait, pause_ms = (
            self._queue_n, self._resid_n, self._resid_wait, self._pause_ms
        )

        # ---- per-task capacity (tuples), less any operator stall ----
        if stall.any():
            cap_t = ((self._core_cap * (1.0 - stall)) / self._cost)[self._task_op]
        else:
            cap_t = self._task_cap

        # ---- NIC throttling + remote traffic accounting ----
        if self._nic is not None:
            members, group_of, n_groups, by_size, link = self._nic
            bytes_t = a_t * link
            demand = np.empty(n_groups)
            for gids, tasks in by_size:
                demand[gids] = bytes_t[tasks].sum(axis=1)
            nic_cap = cluster.NIC_BYTES_PER_S * EPOCH_S
            over = demand > nic_cap
            if over.any():
                factor = np.ones(n_groups)
                factor[over] = nic_cap / demand[over]
                cap_t = cap_t.copy()  # the base capacity is kept per layout
                cap_t[members] *= factor[group_of]
            m.remote_bytes = _add_in_order(m.remote_bytes, np.minimum(demand, nic_cap))

        # ---- admission: residual (older) first, then new arrivals ----
        q_t = np.bincount(assign, weights=queue_n, minlength=n_tasks)
        backlog_t = q_t.copy()  # carried from previous epochs: drains first
        room_t = np.maximum(0.0, self._queue_cap - q_t)
        # With no residual every residual term is zero: fr = 0 admits
        # nothing and leaves resid_wait as it is.
        had_resid = (resid_n != 0).any()
        if had_resid:
            r_t = np.bincount(assign, weights=resid_n, minlength=n_tasks)
            adm_r_t = np.minimum(r_t, room_t)
            room_t = room_t - adm_r_t
            fr = (adm_r_t / np.maximum(r_t, _EPS))[assign]
            adm_r = resid_n * fr
            adm_wait = resid_wait * fr  # ms·tuples carried by admitted residual
            resid_wait *= 1.0 - fr
            resid_n -= adm_r
            queue_n += adm_r
            carried_wait = np.bincount(assign, weights=adm_wait, minlength=n_tasks)
        adm_a_t = np.minimum(a_t, room_t)
        adm_a = a * (adm_a_t / np.maximum(a_t, _EPS))[assign]
        resid_n += a - adm_a
        queue_n += adm_a

        # ---- processing ----
        # Pauses only hold tuples back; with none, avail is the queue.
        paused = (pause_ms != 0).any()
        if paused:
            avail = queue_n * (1.0 - np.minimum(pause_ms / epoch_ms, 1.0))
        else:
            avail = queue_n  # read only before queue_n is drained below
        avail_t = np.bincount(assign, weights=avail, minlength=n_tasks)
        proc_t = np.minimum(avail_t, cap_t)
        f_t = proc_t / np.maximum(avail_t, _EPS)
        proc_s = avail * f_t[assign]
        queue_n -= proc_s
        np.maximum(0.0, queue_n, out=queue_n)

        # ---- latency numerator (ms·tuples) ----
        # Two wait regimes per task: (a) carried backlog must drain
        # first — batch-drain time; (b) this epoch's admitted arrivals
        # see an M/M/1-style wait cost·ρ/(1-ρ) while the task is stable,
        # bounded above by the batch-drain wait (0.5·batch/rate) when it
        # saturates.  Plus service time, protocol pauses, and the wait
        # already accumulated by residual tuples admitted this epoch.
        cost_t = self._task_cost
        rate_t = np.maximum(cap_t / epoch_ms, _EPS)  # tuples per ms
        adm_t = adm_r_t + adm_a_t if had_resid else adm_a_t
        rho_t = np.minimum(adm_t / np.maximum(cap_t, _EPS), 1.0 - 1e-9)
        wait_mm1 = cost_t * rho_t / (1.0 - rho_t)
        wait_batch = 0.5 * adm_t / rate_t
        wait_t = backlog_t / rate_t + np.minimum(wait_mm1, wait_batch)
        lat_t = proc_t * (wait_t + cost_t)
        if paused:
            lat_s = proc_s * np.minimum(pause_ms, epoch_ms)
        # pauses are one-shot; the reset also runs with none, so that a
        # pause of -0.0 reads +0.0 afterwards, as a full pass leaves it
        pause_ms[:] = 0.0

        # ---- residual aging + shedding ----
        resid_left = (resid_n != 0).any()
        if resid_left:
            resid_wait += resid_n * epoch_ms
            over_s = np.maximum(0.0, resid_n - self._resid_cap)
            keep = 1.0 - over_s / np.maximum(resid_n, _EPS)
            resid_wait *= keep
            resid_n -= over_s

        # ---- per-operator totals, each over the operator's own slice ----
        # A term of a pass that did not run is exactly 0.0 and is left out.
        processed, lat = [], []
        so, to = self._shard_off.tolist(), self._task_off.tolist()
        for i, name in enumerate(self._order):
            ss, ts = slice(so[i], so[i + 1]), slice(to[i], to[i + 1])
            processed.append(float(proc_s[ss].sum()))
            lat_i = float(lat_t[ts].sum())
            if paused:
                lat_i += float(lat_s[ss].sum())
            if had_resid:
                lat_i += float(carried_wait[ts].sum())
            lat.append(lat_i)
            if resid_left:
                shed = float(over_s[ss].sum())
                self.ops[name].shed_total += shed
                m.shed += shed

        # ---- outputs per key, into the downstream operators' rows ----
        if self._feeds:
            ups = self._ups
            np.divide(inbox[ups], offered[ups, None], out=self._last_dist, where=offered[ups, None] > 0)
            out = np.array(processed)[ups, None] * self._last_dist * self._sel
        inbox.fill(0.0)  # consumed: it becomes the next inbox
        for down, up in self._feeds:
            inbox[down] = inbox[down] + out[up]
        return inbox, processed, lat

    # ------------------------------------------------------------------
    # shared helpers for paradigms
    # ------------------------------------------------------------------
    def shard_loads_ms(self, arrivals: np.ndarray) -> np.ndarray:
        """Per-shard workload (CPU-ms) = queued + arriving work, over
        the engine-wide shard space."""
        return (arrivals + self._queue_n) * self._shard_cost


def _add_in_order(total: float, values: np.ndarray) -> float:
    """``total`` plus ``values`` added one at a time (``cumsum`` is
    sequential; ``sum`` is pairwise and may round differently)."""
    return float(np.cumsum(np.concatenate(([total], values)))[-1])
