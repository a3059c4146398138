"""Benchmark of one engine epoch's data plane, ``BaseSim._advance``
(spout throttle, per-task capacity, admission, processing, latency,
residual shedding and the per-key outputs of the next inbox), on two
engine states captured from a short seeded run:

* SSE-shaped — Elasticutor on the 12-operator SSE topology at 32 nodes,
  2000 keys, one operator feeding the others; a tenth of the shards
  hold residual tuples and a twentieth are paused, so every pass of the
  data plane runs;
* micro-shaped — static on the §5.1 calculator, one operator, ``N_KEYS``
  keys over 32 × 256 shards, no edge, with no residual and no pause, as
  static leaves it.

Each round restores the captured state untimed, then times one
``_advance``.

Run: ``pytest benchmarks/bench_data_plane.py --benchmark-only``
"""
from functools import partial

import numpy as np
import pytest

from repro.engine.metrics import EpochMetrics
from repro.engine.simulator import EngineConfig
from repro.experiments.micro import micro_rate, micro_topology
from repro.experiments.table2 import sse_engine_inputs
from repro.paradigms.elasticutor import ElasticutorSim
from repro.paradigms.static_paradigm import StaticSim
from repro.streams.microbench import N_KEYS, micro_trace
from repro.substrate.cluster import ClusterSpec

STATE = ("_queue_n", "_resid_n", "_resid_wait", "_pause_ms")


def _captured(cls, spec, topo, trace):
    """A sim after ``trace``, with ``cls``'s ``_advance`` bound to it and
    the inputs of its last call: (sim, advance, now_s, inbox, arrivals)."""
    seen = {}

    class Capture(cls):
        def _advance(self, now_s, inbox, arrivals, m):
            seen["args"] = (now_s, inbox.copy(), arrivals.copy())
            return super()._advance(now_s, inbox, arrivals, m)

    sim = Capture(topo, EngineConfig(spec=spec, warmup_epochs=0))
    sim.run(trace)
    return (sim, partial(cls._advance, sim), *seen["args"])


def sse_state():
    spec, topo, trace = sse_engine_inputs(n_nodes=32, n_epochs=6, seed=5)
    sim, *captured = _captured(ElasticutorSim, spec, topo, trace)
    rng = np.random.default_rng(0)
    n = sim._queue_n.size
    sim._resid_n[:] = rng.exponential(20.0, n) * (rng.random(n) < 0.1)
    sim._resid_wait[:] = sim._resid_n * 500.0
    sim._pause_ms[:] = 2.0 * (rng.random(n) < 0.05)
    return (sim, *captured)


def micro_state():
    spec = ClusterSpec()
    trace = micro_trace(n_epochs=6, rate=micro_rate(spec), n_keys=N_KEYS, omega=16, seed=5)
    return _captured(StaticSim, spec, micro_topology(), trace)


@pytest.mark.benchmark(group="data_plane")
@pytest.mark.parametrize("state", [sse_state, micro_state], ids=["sse", "micro"])
def test_advance(benchmark, state):
    sim, advance, now_s, inbox, arrivals = state()
    saved = [getattr(sim, name).copy() for name in STATE]

    def restore():
        for name, values in zip(STATE, saved):
            getattr(sim, name)[:] = values
        return (now_s, inbox.copy(), arrivals, EpochMetrics(epoch=0)), {}

    benchmark.pedantic(advance, setup=restore, rounds=200, warmup_rounds=5)
    args, _ = restore()
    advance(*args)
    assert args[-1].processed > 0
