"""Benchmark of the tuple-level elastic executor's per-tuple path: the
receiver (two-tier routing, one scalar XXH64 per distinct key) and the
tasks' ``step`` loop, on a fixed stream of the §5.1 keys (``N_KEYS``
keys, zipf ``ZIPF_SKEW``).

Run: ``pytest benchmarks/bench_executor.py --benchmark-only``
"""
import numpy as np
import pytest

from repro.core.elastic_executor import ElasticExecutor
from repro.streams.microbench import N_KEYS, ZIPF_SKEW, zipf_weights

N_TUPLES = 64 * 1024
N_SHARDS = 256
N_TASKS = 4


def counter(key, value, state):
    c = state.get(key, 0) + 1
    state.put(key, c)
    return c


@pytest.mark.benchmark(group="executor")
def test_receive_and_process(benchmark):
    rng = np.random.default_rng(0)
    keys = rng.choice(N_KEYS, size=N_TUPLES, p=zipf_weights(N_KEYS, ZIPF_SKEW)).tolist()

    def setup():
        ex = ElasticExecutor(0, n_shards=N_SHARDS, local_node=0, fn=counter)
        for _ in range(N_TASKS - 1):
            ex.add_core(0)
        ex.shard_to_task = [s % N_TASKS for s in range(N_SHARDS)]
        return (ex,), {}

    def run(ex):
        for i, k in enumerate(keys):
            ex.receive(k, i)
        return ex, ex.run_until_idle()

    ex, processed = benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    assert processed == N_TUPLES == len(ex.emitted)
    store = ex.store_on(0)
    assert sum(sum(store.ensure_shard(s).data.values()) for s in list(store.shard_ids())) == N_TUPLES
