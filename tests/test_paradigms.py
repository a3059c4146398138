"""Behavioural tests for the four paradigms — the §2.2/§5 contracts:
static does nothing, RC pays global synchronisation, Elasticutor's
elasticity is executor-local, naive-EC churns state and locality."""
import numpy as np
import pytest

from repro.core import load_balancer
from repro.core.load_balancer import rebalance
from repro.engine import simulator
from repro.engine.metrics import EpochMetrics
from repro.engine.simulator import EngineConfig
from repro.paradigms.elasticutor import ElasticutorSim, _cap_allocation
from repro.paradigms.naive_ec import NaiveECSim
from repro.paradigms.resource_centric import ResourceCentricSim
from repro.paradigms.static_paradigm import StaticSim
from repro.streams.microbench import micro_trace
from repro.substrate import cluster
from repro.substrate.cluster import ClusterSpec
from repro.substrate.topology import OperatorSpec, Topology


def topo(y=4, z=16, cost=1.0):
    return Topology(
        [
            OperatorSpec(
                name="calculator",
                cpu_cost_ms=cost,
                tuple_bytes=128,
                n_executors=y,
                shards_per_executor=z,
            )
        ],
        [],
    )


def spec(n=4, c=4):
    return ClusterSpec(n_nodes=n, cores_per_node=c)


def dynamic_trace(rate=12_000, n_epochs=25, omega=8, seed=0, n_keys=500):
    return micro_trace(n_epochs=n_epochs, rate=rate, n_keys=n_keys, omega=omega, seed=seed)


class TestStatic:
    def test_no_elasticity_operations(self):
        r = StaticSim(topo(), EngineConfig(spec=spec(), warmup_epochs=0)).run(dynamic_trace())
        assert all(e.n_shard_moves == 0 for e in r.epochs)
        assert all(e.sync_ms == 0 for e in r.epochs)
        assert all(e.migrated_bytes == 0 for e in r.epochs)

    def test_one_core_per_executor(self):
        sim = StaticSim(topo(), EngineConfig(spec=spec()))
        sim.setup(100)
        rt = sim.ops["calculator"]
        assert rt.n_tasks == sim._core_split["calculator"]
        assert np.array_equal(rt.tasks_exec, np.arange(rt.n_tasks))

    def test_no_remote_tasks_ever(self):
        sim = StaticSim(topo(), EngineConfig(spec=spec(), warmup_epochs=0))
        r = sim.run(dynamic_trace())
        assert all(e.remote_bytes == 0 for e in r.epochs)


class TestResourceCentric:
    def test_repartition_stalls_operator(self):
        sim = ResourceCentricSim(topo(), EngineConfig(spec=spec(), warmup_epochs=2))
        r = sim.run(dynamic_trace(omega=8))
        stall_epochs = [e for e in r.epochs if e.sync_ms > 0]
        assert stall_epochs, "dynamic workload must trigger repartitioning"
        cfg = EngineConfig(spec=spec(), warmup_epochs=2)
        stalls = _stall_factors(ResourceCentricSim, topo(), cfg, dynamic_trace(omega=8))
        assert max(s.max() for s in stalls) > 0

    def test_sync_cost_scales_with_spout_parallelism(self, monkeypatch):
        t = dynamic_trace(omega=8)
        costs = {}
        for spout in (4, 64):
            monkeypatch.setattr(simulator, "SPOUT_EXECUTORS", spout)
            sim = ResourceCentricSim(topo(), EngineConfig(spec=spec(), warmup_epochs=2))
            r = sim.run(t)
            ops = [e.sync_ms for e in r.epochs if e.sync_ms > 0]
            costs[spout] = np.mean(ops) if ops else 0.0
        assert costs[64] > 5 * costs[4]

    def test_moves_applied_after_stall(self):
        sim = ResourceCentricSim(topo(), EngineConfig(spec=spec(), warmup_epochs=2))
        r = sim.run(dynamic_trace(omega=8))
        # at least one repartitioning completed and applied its moves
        # (one may still be in flight when the run ends)
        assert sum(e.n_shard_moves for e in r.epochs) > 0

    def test_warmup_balancing_is_free(self):
        sim = ResourceCentricSim(topo(), EngineConfig(spec=spec(), warmup_epochs=5))
        r = sim.run(dynamic_trace(omega=0, n_epochs=8))
        assert all(e.sync_ms == 0 for e in r.epochs[:5])

    def test_futile_repartition_suppressed(self):
        """Irreducible single-shard skew must not trigger repeated
        repartitioning (each one stalls the operator)."""
        from repro.streams.microbench import Trace

        counts = np.zeros((20, 50), dtype=np.int64)
        counts[:, 7] = 5000  # one irreducibly hot key
        trace = Trace(counts=counts, epoch_s=1.0, tuple_bytes=128, cpu_cost_ms=1.0)
        sim = ResourceCentricSim(topo(), EngineConfig(spec=spec(), warmup_epochs=2))
        r = sim.run(trace)
        assert sum(1 for e in r.epochs if e.sync_ms > 0) <= 2


class TestElasticutor:
    def test_executors_scale_beyond_one_core(self):
        sim = ElasticutorSim(topo(), EngineConfig(spec=spec(), warmup_epochs=0))
        sim.run(dynamic_trace())
        rt = sim.ops["calculator"]
        assert np.bincount(rt.tasks_exec).max() > 1

    def test_key_to_executor_immutable(self):
        """The executor-centric invariant: operator-level partitioning
        is static — key→shard→executor never changes."""
        sim = ElasticutorSim(topo(), EngineConfig(spec=spec(), warmup_epochs=0))
        sim.setup(500)
        before = sim.ops["calculator"].key_to_shard.copy()
        sim.run(dynamic_trace())
        after = sim.ops["calculator"].key_to_shard
        assert np.array_equal(before, after)

    def test_shard_stays_inside_its_executor(self):
        sim = ElasticutorSim(topo(), EngineConfig(spec=spec(), warmup_epochs=0))
        sim.run(dynamic_trace())
        rt = sim.ops["calculator"]
        z = rt.op.shards_per_executor
        owner_exec = rt.tasks_exec[rt.shard_assign]
        assert np.array_equal(owner_exec, np.arange(rt.op.total_shards) // z)

    def test_no_operator_stalls(self):
        """Elasticity is executor-local: no operator's capacity is ever
        cut by a stall, in any epoch."""
        cfg = EngineConfig(spec=spec(), warmup_epochs=0)
        stalls = _stall_factors(ElasticutorSim, topo(), cfg, dynamic_trace(omega=16))
        assert len(stalls) == 25
        assert all(s.tolist() == [0.0] for s in stalls)

    def test_sync_is_2ms_per_move(self):
        cfg = EngineConfig(spec=spec(), warmup_epochs=0)
        sim = ElasticutorSim(topo(), cfg)
        r = sim.run(dynamic_trace(omega=16))
        moves = sum(e.n_shard_moves for e in r.epochs)
        sync = sum(e.sync_ms for e in r.epochs)
        assert moves > 0
        assert sync == pytest.approx(moves * cluster.EC_SYNC_MS)

    def test_assignment_respects_capacity_every_epoch(self):
        sim = ElasticutorSim(topo(), EngineConfig(spec=spec(), warmup_epochs=0))
        sim.run(dynamic_trace())
        X = sim._Xg
        assert (X.sum(axis=1) <= sim.spec.cores_per_node).all()
        assert (X.sum(axis=0) >= 1).all()

    def test_scheduling_time_measured(self):
        sim = ElasticutorSim(topo(), EngineConfig(spec=spec(), warmup_epochs=0))
        r = sim.run(dynamic_trace(n_epochs=5))
        assert all(e.sched_ms > 0 for e in r.epochs)

    def test_too_many_executors_rejected(self):
        t = topo(y=64)  # 64 executors > 16 cores
        with pytest.raises(ValueError):
            ElasticutorSim(t, EngineConfig(spec=spec())).setup(100)

    def test_rebuild_with_current_cores_only_rebalances(self):
        """Re-applying an operator's current cores keeps every task in
        place, re-homes no shard, and charges exactly the moves of the
        per-executor rebalance."""
        sim = ElasticutorSim(topo(), EngineConfig(spec=spec(), warmup_epochs=0))
        trace = dynamic_trace(n_epochs=2)
        sim.setup(trace.n_keys)
        rt = sim.ops["calculator"]
        rng = np.random.default_rng(3)

        def reapply(counts):
            nodes, execs = rt.tasks_node.copy(), rt.tasks_exec.copy()
            loads = sim.shard_loads_ms(sim._route(counts[None, :]))
            want, n_moves = rt.shard_assign.copy(), 0
            z = rt.op.shards_per_executor
            for j in range(rt.op.n_executors):
                tj, sj = np.flatnonzero(rt.tasks_exec == j), np.arange(j * z, (j + 1) * z)
                loc = np.searchsorted(tj, rt.shard_assign[sj])
                new, moves = rebalance(loads[sj], loc, len(tj), load_balancer.DEFAULT_THETA)
                want[sj] = tj[new]
                n_moves += len(moves)
            m = EpochMetrics(epoch=0)
            sim._apply(sim._Xg, loads, m)
            assert np.array_equal(rt.tasks_node, nodes)
            assert np.array_equal(rt.tasks_exec, execs)
            assert np.array_equal(rt.shard_assign, want)
            assert m.n_core_changes == 0
            assert m.n_shard_moves == n_moves
            return n_moves

        counts = trace.counts[0].astype(float)
        assert reapply(counts) == 0  # one core per executor after setup
        m = EpochMetrics(epoch=0)
        sim._elasticity(0, 0.0, counts[None, :], sim._route(counts[None, :]), m)
        assert m.n_core_changes > 0
        assert reapply(rng.permutation(counts)) > 0


class TestCapAllocation:
    def test_sums_to_total(self):
        k = _cap_allocation(np.array([3.0, 1.0, 0.0]), 10)
        assert k.sum() == 10
        assert (k >= 1).all()

    def test_proportional(self):
        k = _cap_allocation(np.array([9.0, 1.0]), 12)
        assert k[0] == 10 and k[1] == 2

    def test_zero_weights_uniform(self):
        k = _cap_allocation(np.zeros(4), 8)
        assert k.tolist() == [2, 2, 2, 2]

    def test_too_few_cores_raises(self):
        with pytest.raises(ValueError):
            _cap_allocation(np.ones(5), 4)


class TestNaiveEC:
    def test_same_throughput_class_as_elasticutor(self):
        t = dynamic_trace(omega=8)
        cfg = EngineConfig(spec=spec(), warmup_epochs=3)
        r_ec = ElasticutorSim(topo(), cfg).run(t)
        r_nv = NaiveECSim(topo(), cfg).run(t)
        assert r_nv.throughput_tps() > 0.85 * r_ec.throughput_tps()

    def test_more_migration_and_remote_traffic(self):
        """Table 2's direction: naive scatters and churns more than the
        optimising scheduler.  Needs a cluster large enough that the
        naive packing cannot accidentally coincide with the round-robin
        executor homes (at 4 nodes with uniform k they align)."""
        big_spec = ClusterSpec(n_nodes=8, cores_per_node=8)
        t = micro_trace(n_epochs=25, rate=45_000, n_keys=2000, omega=8, skew=1.0, seed=0)
        cfg = EngineConfig(spec=big_spec, warmup_epochs=3)
        big_topo = topo(y=8, z=64)
        r_ec = ElasticutorSim(big_topo, cfg).run(t)
        r_nv = NaiveECSim(big_topo, cfg).run(t)
        assert r_nv.remote_rate_mbps() > r_ec.remote_rate_mbps()
        assert (
            r_nv.migration_rate_mbps() + r_nv.remote_rate_mbps()
            > r_ec.migration_rate_mbps() + r_ec.remote_rate_mbps()
        )


def _stall_factors(cls, topology, cfg, trace):
    """Each epoch's per-operator stall factors of a run of ``cls``."""
    stalls = []

    class Recording(cls):
        def _repartition(self, now_s, m):
            stall = super()._repartition(now_s, m)
            stalls.append(stall.copy())
            return stall

    Recording(topology, cfg).run(trace)
    return stalls


def _charge_move(sim, rt, m, shard, src_node, dst_node):
    """One move's §3.3 charge, added move by move: the sequential
    accumulation the engine's batched charging must equal bit for bit."""
    sync, mig = cluster.ec_shard_reassign_ms(rt.op.shard_state_bytes, src_node != dst_node)
    rt.pause_ms[shard] += sync + mig
    m.sync_ms += sync
    if src_node != dst_node:
        m.migrated_bytes += rt.op.shard_state_bytes
    m.n_shard_moves += 1


def _loop_apply(sim, X, all_loads, m):
    """Operator by operator, executor by executor and node by node: the
    loop form of ``ElasticutorSim._apply``, the reference its one
    array-built, engine-wide task list is checked against."""
    layouts, off = [], sim._exec_off
    for i, name in enumerate(sim._order):
        rt = sim.ops[name]
        Xop = X[:, off[i] : off[i + 1]]
        loads = all_loads[sim._shard_off[i] : sim._shard_off[i + 1]]
        layouts.append(_loop_rebuild(sim, rt, Xop, loads, m))
    sim._set_tasks(
        np.concatenate([nodes for nodes, _, _ in layouts]),
        np.concatenate([execs + off[i] for i, (_, execs, _) in enumerate(layouts)]),
    )
    for (_, _, assign), name in zip(layouts, sim._order):
        sim.ops[name].shard_assign[:] = assign


def _loop_rebuild(sim, rt, Xop, loads, m):
    """One operator of ``_loop_apply``; returns its new (tasks_node,
    tasks_exec, shard_assign)."""
    y, z = rt.op.n_executors, rt.op.shards_per_executor
    new_nodes, new_exec = [], []
    old_to_new = np.full(rt.n_tasks, -1, dtype=np.int64)
    for j in range(y):
        by_node = {}
        for t in np.flatnonzero(rt.tasks_exec == j):
            by_node.setdefault(int(rt.tasks_node[t]), []).append(int(t))
        for i in range(sim.spec.n_nodes):
            want, olds = int(Xop[i, j]), by_node.get(i, [])
            for r, t in enumerate(olds[:want]):
                old_to_new[t] = len(new_nodes) + r
            new_nodes += [i] * want
            new_exec += [j] * want
    nodes, execs = np.array(new_nodes), np.array(new_exec)
    new_assign = old_to_new[rt.shard_assign]
    for j in range(y):
        tj, sj = np.flatnonzero(execs == j), np.arange(j * z, (j + 1) * z)
        pos = np.full(len(nodes), -1)
        pos[tj] = np.arange(len(tj))
        glob = new_assign[sj]
        loc = np.where(glob >= 0, pos[np.maximum(glob, 0)], -1)
        lj = loads[sj]
        tl = np.bincount(loc[loc >= 0], weights=lj[loc >= 0], minlength=len(tj))
        orphans = np.flatnonzero(loc < 0)
        for s in orphans[np.argsort(-lj[orphans])]:
            d = int(np.argmin(tl))
            loc[s] = d
            tl[d] += lj[s]
            old_node = int(rt.tasks_node[rt.shard_assign[sj[s]]])
            _charge_move(sim, rt, m, int(sj[s]), old_node, int(nodes[tj[d]]))
        if len(tj) > 1:
            loc, moves = rebalance(lj, loc, len(tj), load_balancer.DEFAULT_THETA)
            for mv in moves:
                src, dst = int(nodes[tj[mv.src]]), int(nodes[tj[mv.dst]])
                _charge_move(sim, rt, m, int(sj[mv.shard]), src, dst)
        new_assign[sj] = tj[loc]
    return nodes, execs, new_assign


#: protocol costs the runs below set in ``repro.substrate.cluster``
COSTS = {"paper-costs": {}, "fractional-costs": {"EC_SYNC_MS": 2.1, "MIGRATION_PROTO_MS": 0.7}}
THETAS = (1.05, 1.2, 2.0)
#: total shard moves of the runs below at each θ of THETAS: three θ give
#: three totals, so the run reads the θ the test sets
SHARD_MOVES = {
    (ElasticutorSim, "paper-costs"): (337, 273, 223),
    (ElasticutorSim, "fractional-costs"): (339, 273, 223),
    (NaiveECSim, "paper-costs"): (848, 829, 809),
    (NaiveECSim, "fractional-costs"): (848, 829, 809),
}


class TestRebuildMatchesLoopReference:
    """The screened, batched rebuild against the per-executor loop, with
    non-integer protocol costs (batched charging must still equal the
    per-move sums) and θ on both sides of the executors' δ."""

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("costs", list(COSTS))
    @pytest.mark.parametrize("cls", [ElasticutorSim, NaiveECSim])
    def test_same_run(self, cls, costs, theta, monkeypatch):
        class Reference(cls):
            _apply = _loop_apply

        ops = [
            OperatorSpec(name=name, cpu_cost_ms=1.0, tuple_bytes=128, n_executors=y, shards_per_executor=32)
            for name, y in (("a", 8), ("b", 4))
        ]
        t = Topology(ops, [("a", "b")])
        monkeypatch.setattr(load_balancer, "DEFAULT_THETA", theta)
        for name, value in COSTS[costs].items():
            monkeypatch.setattr(cluster, name, value)
        cfg = EngineConfig(spec=spec(n=8, c=8), warmup_epochs=0)
        trace = micro_trace(n_epochs=20, rate=20_000, n_keys=2000, omega=8, skew=1.0, seed=0)
        got, ref = cls(t, cfg), Reference(t, cfg)
        r_got, r_ref = got.run(trace), ref.run(trace)
        assert sum(e.n_shard_moves for e in r_got.epochs) == SHARD_MOVES[cls, costs][THETAS.index(theta)]
        assert sum(e.n_core_changes for e in r_ref.epochs) > 0
        assert sum(e.migrated_bytes for e in r_ref.epochs) > 0
        assert r_got.to_frame().drop(columns=["sched_ms"]).equals(
            r_ref.to_frame().drop(columns=["sched_ms"])
        )
        for name in ("a", "b"):
            for f in ("tasks_node", "tasks_exec", "shard_assign", "pause_ms"):
                assert np.array_equal(getattr(got.ops[name], f), getattr(ref.ops[name], f))


    @pytest.mark.parametrize("cls", [ElasticutorSim, NaiveECSim])
    def test_same_charge_order(self, cls, monkeypatch):
        """The batched rebuild charges its moves in the loop's order:
        executor by executor, each executor's re-homed orphans in
        placement order before its balancing moves in round order."""
        got_moves, ref_moves = [], []
        charge = _charge_move

        def record(sim, rt, m, shard, src_node, dst_node):
            ref_moves.append((rt.op.name, shard, src_node != dst_node))
            charge(sim, rt, m, shard, src_node, dst_node)

        monkeypatch.setattr(f"{__name__}._charge_move", record)

        class Reference(cls):
            _apply = _loop_apply

        class Recording(cls):
            def _charge_moves(self, m, shards, inter):
                op = self._shard_op[shards]
                local = shards - self._shard_off[op]
                got_moves.extend(
                    (self._order[o], int(s), bool(x)) for o, s, x in zip(op, local, inter)
                )
                super()._charge_moves(m, shards, inter)

        ops = [
            OperatorSpec(name=name, cpu_cost_ms=1.0, tuple_bytes=128, n_executors=y, shards_per_executor=32)
            for name, y in (("a", 8), ("b", 4))
        ]
        cfg = EngineConfig(spec=spec(n=8, c=8), warmup_epochs=0)
        trace = micro_trace(n_epochs=20, rate=20_000, n_keys=2000, omega=8, skew=1.0, seed=0)
        Recording(Topology(ops, [("a", "b")]), cfg).run(trace)
        Reference(Topology(ops, [("a", "b")]), cfg).run(trace)
        assert len(ref_moves) > 0
        assert got_moves == ref_moves

class TestOrphanPlacement:
    @pytest.mark.xfail(
        strict=True,
        reason="orphans of an executor with no surviving shard are placed "
        "on running loads truncated to ints (ROADMAP: behaviour change)",
    )
    def test_all_orphaned_placed_by_float_load(self):
        """Every shard of the executor loses its task; four shards of
        0.3 ms onto two new tasks must go two and two, so δ = 1 and the
        balancer moves nothing after the four re-homing moves."""
        sim = ElasticutorSim(topo(y=1, z=4, cost=0.3), EngineConfig(spec=spec(n=2, c=2), warmup_epochs=0))
        sim.setup(200)
        rt = sim.ops["calculator"]
        counts = np.zeros(200)
        for s in range(4):
            counts[np.flatnonzero(rt.key_to_shard == s)[0]] = 1.0
        Xop = np.zeros((2, 1), dtype=np.int64)
        Xop[1 - int(rt.exec_home[0]), 0] = 2  # both cores away from the old task
        m = EpochMetrics(epoch=0)
        sim._apply(Xop, sim.shard_loads_ms(sim._route(counts[None, :])), m)
        assert np.bincount(rt.shard_assign, minlength=2).tolist() == [2, 2]
        assert m.n_shard_moves == 4
