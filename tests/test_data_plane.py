"""The fused data plane against the operator-at-a-time loop it replaced.

``BaseSim._advance`` throttles the spout, applies completed
repartitions and advances every operator of an epoch with one set of
array operations over the engine-wide shard and task arrays.  The
reference below is the previous engine's epoch body: the throttle as a
loop over operators, and ``_process_operator`` run once per operator on
that operator's own arrays.  Both must leave the same state and the same
metrics, bit for bit: the fused pass sums each operator's float totals
over the operator's own slice, and each remote (operator, home node)
group's NIC demand in task order, so it adds in the same order.
"""
import itertools
from contextlib import contextmanager
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import simulator
from repro.engine.metrics import EpochMetrics
from repro.engine.simulator import EngineConfig
from repro.experiments.micro import PARADIGMS
from repro.experiments.table2 import sse_engine_inputs
from repro.paradigms.resource_centric import ResourceCentricSim
from repro.paradigms.static_paradigm import StaticSim
from repro.streams.microbench import EPOCH_S, micro_trace
from repro.substrate import cluster
from repro.substrate.cluster import CORE_CAPACITY_MS_PER_S, ClusterSpec
from repro.substrate.topology import OperatorSpec, Topology
from tests.layout import op_layout, set_shard_assign

_EPS = 1e-12
#: per-shard state (``sim.ops``) and layout (``op_layout``) compared below
STATE = ("queue_n", "resid_n", "resid_wait", "pause_ms")
LAYOUT = ("shard_assign", "tasks_node", "tasks_exec")


def _throttle_reference(sim, arrivals):
    g = 1.0
    for name in sim._order:
        lay = op_layout(sim, name)
        a = np.bincount(lay.key_to_shard, weights=arrivals[name], minlength=lay.op.total_shards)
        a_t = np.bincount(lay.shard_assign, weights=a, minlength=lay.n_tasks)
        cap_t = CORE_CAPACITY_MS_PER_S * EPOCH_S / lay.op.cpu_cost_ms
        hot = a_t > 0
        if hot.any():
            g = min(g, float((cap_t / np.maximum(a_t, _EPS))[hot].min()))
    return max(0.0, min(1.0, g))


def _process_operator_reference(sim, i, lay, rt, in_counts, stall_frac, m):
    """One operator-epoch of the previous data plane, on copies of the
    operator's arrays (``lay`` its layout, ``rt`` its state), written
    back in place at the end.  Returns (out_counts_per_key, processed,
    offered, latency_numerator)."""
    op = lay.op
    queue_n, resid_n, resid_wait = rt.queue_n.copy(), rt.resid_n.copy(), rt.resid_wait.copy()
    pause_ms = rt.pause_ms.copy()
    cost = op.cpu_cost_ms
    epoch_ms = EPOCH_S * 1000.0
    offered = float(in_counts.sum())
    a = np.bincount(lay.key_to_shard, weights=in_counts, minlength=op.total_shards)
    assign = lay.shard_assign
    n_tasks = lay.n_tasks

    cap_ms = CORE_CAPACITY_MS_PER_S * EPOCH_S * (1.0 - stall_frac)
    cap_t = np.full(n_tasks, cap_ms / cost)

    remote = lay.tasks_node != lay.exec_home[lay.tasks_exec]
    if remote.any():
        a_t = np.bincount(assign, weights=a, minlength=n_tasks)
        bytes_t = a_t * sim.topology.link_bytes_per_tuple(op.name)
        nic_cap = cluster.NIC_BYTES_PER_S * EPOCH_S
        for h in np.unique(lay.exec_home[lay.tasks_exec[remote]]):
            mask = remote & (lay.exec_home[lay.tasks_exec] == h)
            demand = bytes_t[mask].sum()
            if demand > nic_cap:
                cap_t[mask] *= nic_cap / demand
            m.remote_bytes += min(demand, nic_cap)

    q_cap = simulator.QUEUE_CAP_MS / cost
    q_t = np.bincount(assign, weights=queue_n, minlength=n_tasks)
    backlog_t = q_t.copy()
    room_t = np.maximum(0.0, q_cap - q_t)
    r_t = np.bincount(assign, weights=resid_n, minlength=n_tasks)
    adm_r_t = np.minimum(r_t, room_t)
    a_t = np.bincount(assign, weights=a, minlength=n_tasks)
    adm_a_t = np.minimum(a_t, room_t - adm_r_t)
    fr = adm_r_t / np.maximum(r_t, _EPS)
    fa = adm_a_t / np.maximum(a_t, _EPS)
    adm_r = resid_n * fr[assign]
    adm_a = a * fa[assign]
    adm_wait = resid_wait * fr[assign]
    resid_wait *= 1.0 - fr[assign]
    resid_n = resid_n - adm_r + (a - adm_a)
    queue_n = queue_n + adm_r + adm_a
    carried_wait = np.bincount(assign, weights=adm_wait, minlength=n_tasks)

    pause_frac = np.clip(pause_ms / epoch_ms, 0.0, 1.0)
    avail = queue_n * (1.0 - pause_frac)
    avail_t = np.bincount(assign, weights=avail, minlength=n_tasks)
    proc_t = np.minimum(avail_t, cap_t)
    f_t = proc_t / np.maximum(avail_t, _EPS)
    proc_s = avail * f_t[assign]
    queue_n = np.maximum(0.0, queue_n - proc_s)
    processed = float(proc_s.sum())

    rate_t = np.maximum(cap_t / epoch_ms, _EPS)
    adm_t = adm_r_t + adm_a_t
    rho_t = np.minimum(adm_t / np.maximum(cap_t, _EPS), 1.0 - 1e-9)
    wait_mm1 = cost * rho_t / (1.0 - rho_t)
    wait_batch = 0.5 * adm_t / rate_t
    wait_t = backlog_t / rate_t + np.minimum(wait_mm1, wait_batch)
    lat_num = float((proc_t * (wait_t + cost)).sum())
    lat_num += float((proc_s * np.minimum(pause_ms, epoch_ms)).sum())
    lat_num += float(carried_wait.sum())

    resid_wait += resid_n * epoch_ms
    resid_cap = simulator.RESID_CAP_MS / cost
    over = np.maximum(0.0, resid_n - resid_cap)
    keep = 1.0 - over / np.maximum(resid_n, _EPS)
    resid_wait *= keep
    resid_n -= over
    shed = float(over.sum())
    rt.shed_total += shed
    m.shed += shed

    pause_ms[:] = 0.0
    rt.queue_n[:], rt.resid_n[:], rt.resid_wait[:], rt.pause_ms[:] = (
        queue_n, resid_n, resid_wait, pause_ms
    )

    if offered > 0:
        sim._dist[i] = in_counts / offered
    out_counts = processed * sim._dist[i]
    return out_counts, processed, offered, lat_num


def _advance_reference(sim, now_s, inbox, arrivals, m):
    """The previous engine's epoch body after the elasticity step."""
    order, sources = sim._order, sim.topology.sources()
    arrivals = {name: inbox[i].copy() for i, name in enumerate(order)}
    g = _throttle_reference(sim, arrivals)
    m.throttle_g = g
    if g < 1.0:
        for s in sources:
            nominal = float(arrivals[s].sum())
            m.offered += nominal
            m.throttled += (1.0 - g) * nominal
            arrivals[s] = arrivals[s] * g
    bp_penalty_ms = (1.0 - g) * 0.5 * simulator.QUEUE_CAP_MS
    stall = sim._repartition(now_s, m)
    next_inbox = {name: np.zeros(inbox.shape[1]) for name in order}
    lat_num = 0.0
    for i, name in enumerate(order):
        out_counts, proc, offered, lat = _process_operator_reference(
            sim, i, op_layout(sim, name), sim.ops[name], arrivals[name], float(stall[i]), m
        )
        if name in sources:
            if g >= 1.0:
                m.offered += offered
            m.processed += proc
            lat += proc * bp_penalty_ms
        lat_num += lat
        for d in sim.topology.downstreams(name):
            next_inbox[d] = next_inbox[d] + out_counts * sim.topology.operator(name).selectivity
    m.latency_ms = lat_num / max(m.processed, _EPS)
    return np.stack([next_inbox[name] for name in order])


def _with_reference(cls):
    class Reference(cls):
        _advance = _advance_reference

        def setup(self, n_keys):
            super().setup(n_keys)
            # the previous engine's per-key output distribution of every
            # operator; the engine keeps only the rows of those that feed another
            self._dist = np.full((len(self._order), n_keys), 1.0 / n_keys)

    Reference.__name__ = f"Reference{cls.__name__}"
    return Reference


# ---------------------------------------------------------------------------
# one epoch from a random engine state
# ---------------------------------------------------------------------------

@contextmanager
def _caps(p):
    """Override the engine's queue and residual caps and the NIC
    bandwidth with those drawn by ``p``, for as long as the context is
    open."""
    with (
        patch.multiple(simulator, QUEUE_CAP_MS=p["queue_cap_ms"], RESID_CAP_MS=p["resid_cap_ms"]),
        patch.object(cluster, "NIC_BYTES_PER_S", p["nic"]),
    ):
        yield


def _random_sim(cls, p):
    """A sim of ``cls`` in the state drawn by ``p``: random topology with
    mixed shard counts, random task layout (remote tasks included),
    queues, residuals, pauses and, for RC, stalls and pending
    repartitions.  The caps of ``p`` apply under :func:`_caps`."""
    rng = np.random.default_rng(p["seed"])
    ops, edges = [], []
    for j in range(p["n_ops"]):
        ops.append(
            OperatorSpec(
                f"op{j}",
                cpu_cost_ms=float(rng.choice([0.05, 0.3, 1.0, 2.5])),
                tuple_bytes=int(rng.choice([64, 160, 4096])),
                n_executors=int(rng.integers(1, 4)),
                shards_per_executor=int(rng.choice([1, 3, 8, 16, 20])),
                selectivity=float(rng.choice([0.01, 0.5, 1.0, 2.0])),
            )
        )
        edges += [(f"op{u}", f"op{j}") for u in range(j) if rng.random() < 0.6]
    spec = ClusterSpec(n_nodes=p["n_nodes"], cores_per_node=8)
    sim = cls(Topology(ops, edges), EngineConfig(spec=spec))
    sim.setup(p["n_keys"])
    n = spec.n_nodes
    nodes, execs = [], []
    for i, name in enumerate(sim._order):
        lay = op_layout(sim, name)
        if i == 0 and p["crowd"]:
            # 12 tasks of executor 0, all away from its home node: one
            # (operator, home) group above pairwise summation's 8
            n_t = 12
            e = np.zeros(n_t, dtype=np.int64)
            nd = np.full(n_t, (int(lay.exec_home[0]) + 1) % n)
        else:
            n_t = int(rng.integers(1, 13))
            e = rng.integers(0, len(lay.exec_home), n_t)
            nd = rng.integers(0, n, n_t)
        nodes.append(nd.astype(np.int64))
        execs.append(e.astype(np.int64) + sim._exec_off[i])
    sim._set_tasks(np.concatenate(nodes), np.concatenate(execs))
    for name in sim._order:
        lay = op_layout(sim, name)
        set_shard_assign(sim, name, rng.integers(0, lay.n_tasks, lay.shard_assign.size))
    n_shards = sim._queue_n.size
    sim._queue_n[:] = rng.exponential(p["load"], n_shards) * (rng.random(n_shards) < 0.7)
    sim._resid_n[:] = rng.exponential(p["load"], n_shards) * (rng.random(n_shards) < 0.5)
    sim._resid_wait[:] = sim._resid_n * rng.uniform(0.0, 3000.0, n_shards)
    sim._pause_ms[:] = rng.uniform(0.0, 2000.0, n_shards) * (rng.random(n_shards) < 0.3)
    if p["idle"]:
        # an idle array holds zeros of either sign, which the engine's
        # guards read as absent
        signed_zeros = np.where(rng.random(n_shards) < 0.5, -0.0, 0.0)
        if "resid" in p["idle"]:
            sim._resid_n[:] = signed_zeros
            sim._resid_wait[:] = 0.0
        if "pause" in p["idle"]:
            sim._pause_ms[:] = signed_zeros[::-1]
    # every operator's distribution, drawn alike for the engine and the
    # reference; the engine keeps the rows of the operators that feed another
    dist = rng.random((len(sim._order), p["n_keys"]))
    dist = dist / dist.sum(axis=1, keepdims=True)
    sim._last_dist[:] = dist[sim._ups]
    if hasattr(sim, "_dist"):
        sim._dist[:] = dist
    if isinstance(sim, ResourceCentricSim):
        for name in sim._order:
            if rng.random() < 0.5:
                lay = op_layout(sim, name)
                sim._stall_until[name] = p["now_s"] + float(rng.uniform(-0.5, 2.5))
                k = int(rng.integers(1, 4))
                shards = rng.integers(0, lay.shard_assign.size, k)
                new_assign = lay.shard_assign.copy()
                for s in shards:
                    new_assign[s] = rng.integers(0, lay.n_tasks)
                sim._pending[name] = (new_assign, k, float(rng.uniform(0.0, 1e5)))
    # fractional counts, as downstream operators receive them
    shape = (len(sim._order), p["n_keys"])
    inbox = rng.poisson(p["rate"], shape) * rng.uniform(0.5, 1.5, shape)
    inbox[rng.random(len(sim._order)) < 0.25] = 0.0
    return sim, inbox


def _epoch(cls, p):
    with _caps(p):
        sim, inbox = _random_sim(cls, p)
        m = EpochMetrics(epoch=0)
        next_inbox = sim._advance(p["now_s"], inbox, sim._route(inbox), m)
    return sim, m, next_inbox


def _bits(x):
    """The bytes of ``x``: unlike ``==``, they tell -0.0 from +0.0."""
    x = np.asarray(x)
    return x.dtype.str, x.shape, x.tobytes()


def _assert_same_epoch(cls, p):
    got, m_got, next_got = _epoch(cls, p)
    ref, m_ref, next_ref = _epoch(_with_reference(cls), p)
    assert {k: _bits(v) for k, v in vars(m_got).items()} == {
        k: _bits(v) for k, v in vars(m_ref).items()
    }
    assert _bits(next_got) == _bits(next_ref)
    assert _bits(got._last_dist) == _bits(ref._dist[got._ups])
    for name in got._order:
        a, b = got.ops[name], ref.ops[name]
        for attr in STATE:
            assert _bits(getattr(a, attr)) == _bits(getattr(b, attr)), (name, attr)
        assert _bits(a.shed_total) == _bits(b.shed_total)
        la, lb = op_layout(got, name), op_layout(ref, name)
        for attr in LAYOUT:
            assert _bits(getattr(la, attr)) == _bits(getattr(lb, attr)), (name, attr)
    return got, m_ref


#: arrays drawn idle: none, the residuals, the pauses, or both
params_idle = [(), ("resid",), ("pause",), ("resid", "pause")]

params = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "n_ops": st.integers(1, 4),
        "n_nodes": st.integers(2, 4),
        "n_keys": st.integers(5, 120),
        "nic": st.sampled_from([2e3, 5e4, 125e6]),
        "queue_cap_ms": st.sampled_from([50.0, 4000.0]),
        "resid_cap_ms": st.sampled_from([20.0, 8000.0]),
        "load": st.sampled_from([0.5, 30.0, 400.0]),
        "rate": st.sampled_from([0.2, 5.0, 200.0]),
        "crowd": st.booleans(),
        "now_s": st.sampled_from([0.0, 7.0]),
        "idle": st.sampled_from(params_idle),
    }
)


class TestFusedEpochMatchesLoop:
    @settings(max_examples=150, deadline=None)
    @given(p=params, cls=st.sampled_from([StaticSim, ResourceCentricSim]))
    def test_random_states(self, p, cls):
        _assert_same_epoch(cls, p)

    def test_hazards_covered(self):
        """One drawn state that exercises every place where the fused
        pass could add in another order: 12 remote tasks in one
        (operator, home) group over a saturated NIC, pauses, shedding,
        a throttled source and a stalled operator."""
        p = {
            "seed": 39, "n_ops": 3, "n_nodes": 3, "n_keys": 60, "nic": 2e3,
            "queue_cap_ms": 50.0, "resid_cap_ms": 20.0, "load": 30.0, "rate": 200.0,
            "crowd": True, "now_s": 7.0, "idle": (),
        }
        sim, inbox = _random_sim(ResourceCentricSim, p)
        first = sim._order[0]
        home = sim._exec_home[sim._task_exec]
        home0 = op_layout(sim, first).exec_home[0]
        crowd = (sim._task_op == 0) & (sim._task_node != home) & (home == home0)
        assert crowd.sum() >= 9
        assert (sim._pause_ms > 0).any()
        stall = sim._repartition(p["now_s"], EpochMetrics(epoch=0))
        assert stall.max() > 0
        a_t = np.bincount(sim._shard_task, weights=sim._route(inbox), minlength=crowd.size)
        got, m = _assert_same_epoch(ResourceCentricSim, p)
        assert m.throttle_g < 1.0
        # the crowded group's NIC demand, even throttled, is over the cap,
        # and the cap is what crossed the NICs
        link = sim.topology.link_bytes_per_tuple(first)
        assert m.throttle_g * a_t[crowd].sum() * link > 2 * p["nic"]
        assert m.remote_bytes < m.throttle_g * a_t[crowd].sum() * link
        assert m.shed > 0
        assert m.n_shard_moves > 0

    def test_arrivals_per_task_current(self):
        """The data plane takes the throttle's per-task arrivals only
        while they hold: a throttled epoch, and an epoch in which an RC
        repartition completes, re-sum them over the current layout.  In
        every drawn epoch they equal a fresh sum, and the epoch matches
        the full pass."""
        seen = set()

        def checking(cls):
            class Checking(cls):
                def _data_plane(self, inbox, offered, arrivals, a_t, stall, m):
                    fresh = np.bincount(self._shard_task, weights=arrivals, minlength=len(self._task_op))
                    assert _bits(a_t) == _bits(fresh)
                    # m is fresh for the epoch: its moves are the repartitions completed in it
                    seen.add((m.throttle_g < 1.0, m.n_shard_moves > 0))
                    return super()._data_plane(inbox, offered, arrivals, a_t, stall, m)

            return Checking

        for cls, rate, seed in itertools.product((StaticSim, ResourceCentricSim), (0.2, 200.0), range(4)):
            p = {
                "seed": seed, "n_ops": 3, "n_nodes": 3, "n_keys": 60, "nic": 125e6,
                "queue_cap_ms": 4000.0, "resid_cap_ms": 8000.0, "load": 30.0,
                "rate": rate, "crowd": False, "now_s": 7.0, "idle": (),
            }
            _assert_same_epoch(checking(cls), p)
        # throttled; unthrottled with a completed repartition; and neither
        assert {(True, False), (False, True), (False, False)} <= seen

    def test_guards_covered(self):
        """Drawn states that take both sides of each data-plane guard:
        residuals on entry or none, each with residuals left after
        admission or none, pauses or none, a stalled operator or none."""
        seen = set()
        for cls, idle, load, queue_cap_ms, rate in itertools.product(
            (StaticSim, ResourceCentricSim), params_idle, (0.5, 400.0), (50.0, 4000.0), (0.2, 200.0)
        ):
            p = {
                "seed": 5, "n_ops": 2, "n_nodes": 3, "n_keys": 40, "nic": 125e6,
                "queue_cap_ms": queue_cap_ms, "resid_cap_ms": 8000.0, "load": load,
                "rate": rate, "crowd": False, "now_s": 7.0, "idle": idle,
            }
            with _caps(p):
                before, _ = _random_sim(cls, p)
                entry = (bool(before._resid_n.any()), bool(before._pause_ms.any()))
                stalled = bool(before._repartition(p["now_s"], EpochMetrics(epoch=0)).any())
            got, _ = _assert_same_epoch(cls, p)
            seen.add((entry[0], bool(got._resid_n.any()), entry[1], stalled))
        assert {(r, left) for r, left, _, _ in seen} == set(itertools.product((False, True), repeat=2))
        assert {paused for _, _, paused, _ in seen} == {False, True}
        assert {stalled for _, _, _, stalled in seen} == {False, True}


# ---------------------------------------------------------------------------
# whole runs
# ---------------------------------------------------------------------------

def _mixed_inputs():
    ops = [
        OperatorSpec("a", cpu_cost_ms=1.0, tuple_bytes=128, n_executors=6, shards_per_executor=16, selectivity=0.7),
        OperatorSpec("b", cpu_cost_ms=0.4, tuple_bytes=96, n_executors=3, shards_per_executor=24),
        OperatorSpec("c", cpu_cost_ms=0.2, tuple_bytes=96, n_executors=2, shards_per_executor=8),
    ]
    topo = Topology(ops, [("a", "b"), ("a", "c"), ("b", "c")])
    spec = ClusterSpec(n_nodes=6, cores_per_node=6)
    trace = micro_trace(n_epochs=20, rate=24_000, n_keys=800, omega=8, skew=1.0, seed=2)
    return spec, topo, trace


#: the mixed run's costs: a narrow NIC and fractional protocol costs
MIXED_COSTS = {"NIC_BYTES_PER_S": 2e6, "EC_SYNC_MS": 2.1, "MIGRATION_PROTO_MS": 0.7}


@pytest.mark.parametrize("inputs", ["mixed", "sse"])
@pytest.mark.parametrize("paradigm", list(PARADIGMS))
def test_runs_match_reference(paradigm, inputs, monkeypatch):
    if inputs == "sse":
        spec, topo, trace = sse_engine_inputs(n_nodes=8, n_epochs=15, seed=5)
    else:
        spec, topo, trace = _mixed_inputs()
        for name, value in MIXED_COSTS.items():
            monkeypatch.setattr(cluster, name, value)
    cfg = EngineConfig(spec=spec, warmup_epochs=2)
    cls = PARADIGMS[paradigm]
    got, ref = cls(topo, cfg), _with_reference(cls)(topo, cfg)
    r_got, r_ref = got.run(trace), ref.run(trace)
    assert r_got.to_frame().drop(columns="sched_ms").equals(r_ref.to_frame().drop(columns="sched_ms"))
    for name in topo.topo_order():
        for attr in STATE:
            assert np.array_equal(getattr(got.ops[name], attr), getattr(ref.ops[name], attr))
        la, lb = op_layout(got, name), op_layout(ref, name)
        for attr in LAYOUT:
            assert np.array_equal(getattr(la, attr), getattr(lb, attr))
