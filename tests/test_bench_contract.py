"""The names and call patterns the repository benchmark (``perfbench/``)
relies on, checked against the program without editing the benchmark.

``perfbench.tracing.install`` wraps entry points by looking them up in
the owning module's or class's own ``__dict__``, and the engine
workloads time each epoch from the engine's read of ``trace.counts[t]``.
"""
import numpy as np
import pytest

from perfbench import tracing
from perfbench.engine_workloads import _conserves
from repro.engine.simulator import BaseSim, EngineConfig
from repro.experiments.micro import PARADIGMS
from repro.experiments.table2 import sse_engine_inputs
from repro.streams.microbench import Trace, micro_trace
from repro.substrate.cluster import ClusterSpec
from repro.substrate.topology import OperatorSpec, Topology


def test_tracer_installs_and_uninstalls():
    """Every wrapped name exists where the tracer looks for it, the
    engine records spans through the wrappers, and uninstalling restores
    the originals."""
    run = BaseSim.__dict__["run"]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert BaseSim.__dict__["run"] is not run
        spec, topo, trace = sse_engine_inputs(n_nodes=8, n_epochs=6, seed=3)
        for cls in PARADIGMS.values():
            cls(topo, EngineConfig(spec=spec, warmup_epochs=2)).run(trace)
    finally:
        tracer.uninstall()
    assert BaseSim.__dict__["run"] is run
    names = {span[0] for span in tracer.spans}
    for name in (
        "engine.run",
        "paradigms._init_layout",
        "paradigms._elasticity",
        "load_balancer.rebalance",
        "scheduler.allocate_cores",
        "assignment.assign_cores",
        "assignment.assign_cores_naive",
        "shards.key_to_shard",
    ):
        assert name in names
    assert tracer.counts["load_balancer.calls"] > 0


class _Reads(np.ndarray):
    """Counts that record every integer row index read from them."""

    def __getitem__(self, idx):
        if isinstance(idx, (int, np.integer)):
            self.reads.append(int(idx))
            return super().__getitem__(idx).view(np.ndarray)
        return super().__getitem__(idx)

    def __array_finalize__(self, obj):
        self.reads = getattr(obj, "reads", None)


def _two_sources():
    ops = [
        OperatorSpec("a", cpu_cost_ms=0.5, tuple_bytes=64, n_executors=2, shards_per_executor=8),
        OperatorSpec("b", cpu_cost_ms=0.5, tuple_bytes=64, n_executors=2, shards_per_executor=4),
        OperatorSpec("c", cpu_cost_ms=0.2, tuple_bytes=64, n_executors=2, shards_per_executor=8),
    ]
    topo = Topology(ops, [("a", "c"), ("b", "c")])
    trace = micro_trace(n_epochs=7, rate=3000, n_keys=100, omega=8, seed=1)
    return ClusterSpec(n_nodes=2, cores_per_node=8), topo, trace


def _inputs(inputs):
    if inputs == "sse":
        return sse_engine_inputs(n_nodes=8, n_epochs=7, seed=3)
    return _two_sources()


@pytest.mark.parametrize("inputs", ["sse", "two-sources"])
@pytest.mark.parametrize("paradigm", list(PARADIGMS))
def test_one_counts_read_per_epoch(paradigm, inputs):
    """The engine reads row ``t`` of the counts once, at the start of
    epoch ``t`` — also with several source operators."""
    spec, topo, trace = _inputs(inputs)
    counts = trace.counts.view(_Reads)
    counts.reads = []
    recorded = Trace(counts, trace.epoch_s, trace.tuple_bytes, trace.cpu_cost_ms)
    sim = PARADIGMS[paradigm](topo, EngineConfig(spec=spec, warmup_epochs=2))
    result = sim.run(recorded)
    assert counts.reads == list(range(trace.n_epochs))
    assert len(result.epochs) == trace.n_epochs


@pytest.mark.parametrize("inputs", ["sse", "two-sources"])
@pytest.mark.parametrize("paradigm", list(PARADIGMS))
def test_conservation_check_reads_the_engine(paradigm, inputs):
    """The engine workloads' conservation check finds the per-operator
    state it reads (``queue_n``, ``resid_n``, ``shed_total``) and holds
    after a run of every paradigm."""
    spec, topo, trace = _inputs(inputs)
    sim = PARADIGMS[paradigm](topo, EngineConfig(spec=spec, warmup_epochs=2))
    assert _conserves(sim, sim.run(trace).to_frame())
