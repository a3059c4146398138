"""Benchmark of the dynamic scheduler in isolation — the 'scheduling
time' column of Table 3, measured directly with pytest-benchmark on the
exact inputs the engine feeds it (model-based allocation + Algorithm 1)
at each cluster size.

The inputs are captured from a short Elasticutor run on the SSE engine
inputs of each cluster size (``sse_engine_inputs``), one scheduling
round per epoch after the first (whose round places the initial cores
of every executor).  Each benchmarked call replays the next captured
round: the §4.1 allocator on that epoch's rates, then Algorithm 1 on
that epoch's allocation and current assignment, so the rounds add and
release cores as the engine's do.

Run: ``pytest benchmarks/bench_scheduler.py --benchmark-only``
"""
import itertools

import numpy as np
import pytest

from repro.core.assignment import assign_cores
from repro.core.scheduler import allocate_cores
from repro.engine.simulator import EngineConfig
from repro.experiments.table2 import sse_engine_inputs
from repro.paradigms import elasticutor
from repro.paradigms.elasticutor import ElasticutorSim

N_EPOCHS = 12


def engine_rounds(n_nodes: int, n_epochs: int = N_EPOCHS, seed: int = 5) -> list[tuple]:
    """(allocator args, Algorithm 1 args) of every scheduling round of an
    Elasticutor run on ``sse_engine_inputs(n_nodes)``, first round
    dropped."""
    spec, topo, trace = sse_engine_inputs(n_nodes=n_nodes, n_epochs=n_epochs, seed=seed)
    rounds = []

    def record_alloc(*args):
        rounds.append([args, None])
        return allocate_cores(*args)

    class Recorder(ElasticutorSim):
        def _assign(self, k, state_bytes, local_node, data_intensity):
            rounds[-1][1] = (
                k.copy(), self._Xg.copy(), self._cores, state_bytes, local_node,
                data_intensity.copy(),
            )
            return super()._assign(k, state_bytes, local_node, data_intensity)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(elasticutor, "allocate_cores", record_alloc)
        Recorder(topo, EngineConfig(spec=spec, warmup_epochs=0)).run(trace)
    return [tuple(r) for r in rounds[1:]]


@pytest.mark.benchmark(group="scheduler")
@pytest.mark.parametrize("n_nodes", [8, 16, 32, 64, 128, 256])
def test_scheduling_round(benchmark, n_nodes):
    rounds = engine_rounds(n_nodes)
    # the rounds are real: Algorithm 1 adds cores in some of them
    added = [int(np.maximum(0, a[0] - a[1].sum(axis=0)).sum()) for _, a in rounds]
    assert max(added) > 0
    replay = itertools.cycle(rounds)

    def run():
        alloc_args, assign_args = next(replay)
        allocate_cores(*alloc_args)
        return assign_cores(*assign_args)

    res = benchmark(run)
    cores = rounds[0][1][2]
    assert (res.X.sum(axis=1) <= cores).all()
