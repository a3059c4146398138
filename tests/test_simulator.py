"""Tests for the epoch-driven cluster engine: conservation, capacity,
backpressure, latency monotonicity, determinism."""
import numpy as np
import pytest

from repro.engine import simulator
from repro.engine.simulator import EngineConfig
from repro.experiments.micro import PARADIGMS
from repro.experiments.table2 import sse_engine_inputs
from repro.paradigms.elasticutor import ElasticutorSim
from repro.paradigms.resource_centric import ResourceCentricSim
from repro.paradigms.static_paradigm import StaticSim
from repro.streams.microbench import Trace, micro_trace
from repro.substrate.cluster import ClusterSpec
from repro.substrate.topology import OperatorSpec, Topology
from tests.layout import op_layout


def tiny_spec(n_nodes=2, cores=4):
    return ClusterSpec(n_nodes=n_nodes, cores_per_node=cores)


def calc_topology(y=2, z=8, cost=1.0, tuple_bytes=128):
    return Topology(
        [
            OperatorSpec(
                name="calculator",
                cpu_cost_ms=cost,
                tuple_bytes=tuple_bytes,
                n_executors=y,
                shards_per_executor=z,
            )
        ],
        [],
    )


def recording(cls):
    """A subclass of ``cls`` that records each epoch's per-operator
    intake and processed tuples; returns (subclass, intakes, processed)."""
    seen_in, seen_proc = [], []

    class Recording(cls):
        def _data_plane(self, inbox, offered, *args):
            out = super()._data_plane(inbox, offered, *args)
            seen_in.append(offered.copy())
            seen_proc.append(np.array(out[1]))
            return out

    return Recording, seen_in, seen_proc


def run_static(trace, spec=None, topo=None):
    spec = spec or tiny_spec()
    topo = topo or calc_topology()
    cfg = EngineConfig(spec=spec, warmup_epochs=0)
    sim = StaticSim(topo, cfg)
    return sim, sim.run(trace)


class TestConservation:
    def test_tuples_accounted(self):
        """offered = processed + still-queued + residual + shed +
        throttled, per run."""
        trace = micro_trace(n_epochs=12, rate=5000, n_keys=200, omega=2, seed=0)
        sim, r = run_static(trace)
        rt = sim.ops["calculator"]
        offered = sum(e.offered for e in r.epochs)
        processed = sum(e.processed for e in r.epochs)
        shed = sum(e.shed for e in r.epochs)
        throttled = sum(e.throttled for e in r.epochs)
        left = rt.queue_n.sum() + rt.resid_n.sum()
        assert offered == pytest.approx(processed + shed + throttled + left, rel=1e-6)

    @pytest.mark.parametrize("paradigm", list(PARADIGMS))
    def test_every_operator_conserves(self, paradigm, monkeypatch):
        """Per operator of the 12-operator SSE topology, for every
        paradigm: tuples in = processed + queued + residual + shed; at
        the source the spout's offer also counts the throttled tuples,
        and downstream an operator takes in what its upstreams emitted
        one epoch earlier."""
        spec, topo, trace = sse_engine_inputs(n_nodes=8, n_epochs=20, seed=3)
        Recording, seen_in, seen_proc = recording(PARADIGMS[paradigm])
        # tight queues, so that backpressure throttles or sheds in every paradigm
        monkeypatch.setattr(simulator, "QUEUE_CAP_MS", 300.0)
        monkeypatch.setattr(simulator, "RESID_CAP_MS", 300.0)
        sim = Recording(topo, EngineConfig(spec=spec, warmup_epochs=2))
        frame = sim.run(trace).to_frame()
        assert frame.throttled.sum() > 0 or frame.shed.sum() > 0
        tin, proc = np.sum(seen_in, axis=0), np.sum(seen_proc, axis=0)
        for i, name in enumerate(sim._order):
            rt = sim.ops[name]
            left = rt.queue_n.sum() + rt.resid_n.sum()
            assert tin[i] > 0
            assert tin[i] == pytest.approx(proc[i] + left + rt.shed_total, rel=1e-9), name
            ups = [sim._order.index(u) for u in topo.upstreams(name)]
            if ups:
                emitted = sum(topo.operator(sim._order[u]).selectivity * np.sum(seen_proc[:-1], axis=0)[u] for u in ups)
                assert tin[i] == pytest.approx(emitted, rel=1e-9), name
        src = sim._sources
        assert frame.offered.sum() == pytest.approx(tin[src].sum() + frame.throttled.sum(), rel=1e-9)
        assert frame.offered.sum() == trace.total_tuples()

    def test_underload_processes_everything(self):
        trace = micro_trace(n_epochs=10, rate=1000, n_keys=200, omega=0, seed=0)
        _, r = run_static(trace)
        assert sum(e.processed for e in r.epochs) == pytest.approx(
            sum(e.offered for e in r.epochs), rel=0.01
        )

    def test_throughput_bounded_by_capacity(self):
        spec = tiny_spec()
        trace = micro_trace(n_epochs=10, rate=50_000, n_keys=200, omega=0, seed=0)
        _, r = run_static(trace, spec=spec)
        cap = spec.total_cores * 1000.0  # 1 ms per tuple
        for e in r.epochs:
            assert e.processed <= cap * 1.001

    def test_trace_epoch_must_match_config(self):
        counts = np.full((3, 50), 10, dtype=np.int64)
        trace = Trace(counts=counts, epoch_s=0.5, tuple_bytes=128, cpu_cost_ms=1.0)
        with pytest.raises(ValueError, match="epoch"):
            run_static(trace)


class TestBackpressure:
    def test_overload_throttles_spout(self):
        trace = micro_trace(n_epochs=10, rate=50_000, n_keys=200, omega=0, seed=0)
        _, r = run_static(trace)
        assert any(e.throttle_g < 1.0 for e in r.epochs)
        assert sum(e.throttled for e in r.epochs) > 0

    def test_skew_throttles_before_capacity(self):
        """A single hot key beyond one core's rate throttles the spout
        even though aggregate capacity is plentiful."""
        counts = np.zeros((5, 10), dtype=np.int64)
        counts[:, 3] = 3000  # one key at 3x a core's rate
        trace = Trace(counts=counts, epoch_s=1.0, tuple_bytes=128, cpu_cost_ms=1.0)
        _, r = run_static(trace)
        for e in r.epochs:
            assert e.throttle_g < 0.5

    def test_queue_cap_respected(self, monkeypatch):
        monkeypatch.setattr(simulator, "QUEUE_CAP_MS", 500.0)
        trace = micro_trace(n_epochs=15, rate=20_000, n_keys=100, omega=0, seed=0)
        sim, _ = run_static(trace)
        rt, lay = sim.ops["calculator"], op_layout(sim, "calculator")
        tq = np.bincount(lay.shard_assign, weights=rt.queue_n, minlength=lay.n_tasks)
        assert tq.max() <= 500.0 / 1.0 + 1e-6
        # the cap binds: a task admits at most 500 ms of work an epoch,
        # half its capacity, so the rest waits in the residual buffer
        assert rt.resid_n.sum() > 0


class TestLatencyModel:
    def test_light_load_near_service_time(self):
        trace = micro_trace(n_epochs=10, rate=500, n_keys=200, omega=0, seed=0)
        _, r = run_static(trace)
        assert r.avg_latency_ms() < 20.0
        assert r.avg_latency_ms() >= 1.0  # at least the service time

    def test_latency_increases_with_load(self):
        lat = []
        for rate in (1000, 6000, 7600):
            trace = micro_trace(n_epochs=20, rate=rate, n_keys=200, omega=0, seed=0)
            _, r = run_static(trace)
            lat.append(r.avg_latency_ms())
        assert lat[0] < lat[1] < lat[2]

    def test_overload_latency_orders_higher(self):
        light = micro_trace(n_epochs=20, rate=1000, n_keys=200, omega=0, seed=0)
        heavy = micro_trace(n_epochs=20, rate=20_000, n_keys=200, omega=0, seed=0)
        _, rl = run_static(light)
        _, rh = run_static(heavy)
        assert rh.avg_latency_ms() > 50 * rl.avg_latency_ms()


class TestDeterminism:
    def test_same_seed_same_result(self):
        trace = micro_trace(n_epochs=10, rate=6000, n_keys=200, omega=4, seed=0)
        topo = calc_topology()
        cfg = EngineConfig(spec=tiny_spec(), warmup_epochs=2)
        r1 = ElasticutorSim(topo, cfg).run(trace)
        r2 = ElasticutorSim(topo, cfg).run(trace)
        # sched_ms is measured wall-clock — everything else must match.
        a = r1.to_frame().drop(columns=["sched_ms"])
        b = r2.to_frame().drop(columns=["sched_ms"])
        assert a.equals(b)

    @pytest.mark.parametrize("paradigm", list(PARADIGMS))
    def test_second_run_matches_fresh_sim(self, paradigm):
        """All per-run state is set up by ``run``: a sim run twice gives
        a fresh sim's result both times."""
        spec, topo, trace = sse_engine_inputs(n_nodes=8, n_epochs=12, seed=3)
        cfg = EngineConfig(spec=spec)
        fresh = PARADIGMS[paradigm](topo, cfg).run(trace).to_frame().drop(columns="sched_ms")
        sim = PARADIGMS[paradigm](topo, cfg)
        for _ in range(2):
            assert sim.run(trace).to_frame().drop(columns="sched_ms").equals(fresh)


class TestCoreSplit:
    def test_split_proportional_to_demand(self):
        topo = Topology(
            [
                OperatorSpec("a", cpu_cost_ms=3.0, tuple_bytes=8, n_executors=1, shards_per_executor=4),
                OperatorSpec("b", cpu_cost_ms=1.0, tuple_bytes=8, n_executors=1, shards_per_executor=4),
            ],
            [("a", "b")],
        )
        sim = StaticSim(topo, EngineConfig(spec=tiny_spec(4, 8)))
        split = sim._core_split
        assert split["a"] == pytest.approx(24, abs=1)
        assert split["b"] == pytest.approx(8, abs=1)
        assert sum(split.values()) <= 32

    def test_selectivity_scales_downstream_demand(self):
        topo = Topology(
            [
                OperatorSpec("a", cpu_cost_ms=1.0, tuple_bytes=8, n_executors=1, shards_per_executor=4, selectivity=0.1),
                OperatorSpec("b", cpu_cost_ms=1.0, tuple_bytes=8, n_executors=1, shards_per_executor=4),
            ],
            [("a", "b")],
        )
        sim = StaticSim(topo, EngineConfig(spec=tiny_spec(4, 8)))
        assert sim._core_split["a"] > 5 * sim._core_split["b"]


class TestPlacement:
    """``setup`` places engine-wide executor ``j`` on node ``j mod
    n_nodes`` with one task, and rejects more executors than cores."""

    @staticmethod
    def chain(*n_executors):
        names = [f"op{i}" for i in range(len(n_executors))]
        ops = [
            OperatorSpec(name, cpu_cost_ms=1.0, tuple_bytes=8, n_executors=y, shards_per_executor=4)
            for name, y in zip(names, n_executors)
        ]
        return Topology(ops, list(zip(names, names[1:])))

    def test_round_robin_across_operators(self):
        sim = ElasticutorSim(self.chain(2, 3, 1), EngineConfig(spec=tiny_spec(3, 2)))
        sim.setup(10)
        layouts = [op_layout(sim, name) for name in sim._order]
        assert [lay.tasks_node.tolist() for lay in layouts] == [[0, 1], [2, 0, 1], [2]]
        for lay in layouts:
            assert np.array_equal(lay.exec_home, lay.tasks_node)
            assert np.array_equal(lay.tasks_exec, np.arange(lay.n_tasks))

    @pytest.mark.parametrize("cls", [StaticSim, ElasticutorSim])
    def test_respects_capacity(self, cls):
        """Four single-executor operators fill a 2 x 2 cluster, two
        tasks a node (the static split gives each one core); a fifth
        is rejected."""
        sim = cls(self.chain(1, 1, 1, 1), EngineConfig(spec=tiny_spec(2, 2)))
        sim.setup(10)
        assert np.bincount(sim._task_node, minlength=2).tolist() == [2, 2]
        with pytest.raises(ValueError, match="5 executors"):
            cls(self.chain(1, 1, 1, 1, 1), EngineConfig(spec=tiny_spec(2, 2))).setup(10)


class TestMultiOperator:
    def test_downstream_receives_selectivity_scaled_output(self):
        topo = Topology(
            [
                OperatorSpec("src", cpu_cost_ms=0.1, tuple_bytes=8, n_executors=1, shards_per_executor=4, selectivity=0.5),
                OperatorSpec("snk", cpu_cost_ms=0.1, tuple_bytes=8, n_executors=1, shards_per_executor=4),
            ],
            [("src", "snk")],
        )
        trace = micro_trace(n_epochs=10, rate=1000, n_keys=50, omega=0, seed=0)
        Recording, seen_in, seen_proc = recording(StaticSim)
        sim = Recording(topo, EngineConfig(spec=tiny_spec(), warmup_epochs=0))
        r = sim.run(trace)
        rt = sim.ops["snk"]
        src, snk = sim._order.index("src"), sim._order.index("snk")
        # the sink takes in half of what the source processed, one epoch later
        sink_in = np.sum(seen_in, axis=0)[snk]
        assert sink_in == pytest.approx(0.5 * np.sum(seen_proc[:-1], axis=0)[src], rel=1e-9)
        assert rt.queue_n.sum() < 10  # drained
        # source processed ≈ offered
        assert sum(e.processed for e in r.epochs) == pytest.approx(10_000, rel=0.05)

    def test_upstream_executor_count_uses_spout_for_sources(self, monkeypatch):
        monkeypatch.setattr(simulator, "SPOUT_EXECUTORS", 7)
        sim = ResourceCentricSim(calc_topology(), EngineConfig(spec=tiny_spec()))
        sim.setup(10)
        assert sim.n_upstream_executors("calculator") == 7
