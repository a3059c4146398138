"""Benchmark of the dynamic scheduler in isolation — the 'scheduling
time' column of Table 3, measured directly with pytest-benchmark on the
exact inputs the engine feeds it (model-based allocation + Algorithm 1)
at each cluster size.

Run: ``pytest benchmarks/bench_scheduler.py --benchmark-only``
"""
import numpy as np
import pytest

from repro.core.assignment import assign_cores
from repro.core.scheduler import T_MAX_MS, allocate_cores
from repro.sse_app.topology import scaled_sse_topology
from repro.substrate.cluster import CORE_CAPACITY_MS_PER_S, ClusterSpec


def scheduler_inputs(n_nodes: int, seed: int = 0):
    spec = ClusterSpec(n_nodes=n_nodes)
    topo = scaled_sse_topology(n_nodes, spec.cores_per_node)
    rng = np.random.default_rng(seed)
    execs = []
    for op in topo.operators:
        for j in range(op.n_executors):
            execs.append(op)
    m = len(execs)
    mus = np.array([CORE_CAPACITY_MS_PER_S / op.cpu_cost_ms for op in execs])
    # demand ~55 % of capacity, noisy across executors
    lams = mus * 0.55 * (0.5 + rng.random(m))
    sbytes = np.array(
        [op.shards_per_executor * op.shard_state_bytes for op in execs], float
    )
    local = np.arange(m) % n_nodes
    X_old = np.zeros((n_nodes, m), dtype=np.int64)
    X_old[local, np.arange(m)] = 1
    dint = lams * 500.0
    return spec, lams, mus, sbytes, local, dint, X_old


@pytest.mark.benchmark(group="scheduler")
@pytest.mark.parametrize("n_nodes", [8, 16, 32])
def test_scheduling_round(benchmark, n_nodes):
    spec, lams, mus, sbytes, local, dint, X_old = scheduler_inputs(n_nodes)
    cores = np.full(spec.n_nodes, spec.cores_per_node, dtype=np.int64)

    def run():
        alloc = allocate_cores(
            float(lams.sum()), lams.tolist(), mus.tolist(), spec.total_cores, T_MAX_MS
        )
        k = np.asarray(alloc.cores)
        if k.sum() > spec.total_cores:
            k = np.ones_like(k)
        return assign_cores(k, X_old, cores, sbytes, local, dint)

    res = benchmark(run)
    assert res.X.sum() >= len(lams)
