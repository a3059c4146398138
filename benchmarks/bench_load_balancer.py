"""Benchmark of the §3.1 balancer kernels on seeded rows shaped like
their callers' inputs:

* :func:`rebalance` on an RC row — the resource-centric baseline on the
  §5.1 micro workload, 8192 shards over 256 tasks, zipf-like loads with
  about 30 % of them zero;
* :func:`rebalance` on a tuple-level executor row — 256 shards of
  ``N_KEYS`` zipf(``ZIPF_SKEW``) keys over 5 tasks, the newest empty;
* :func:`rebalance_many` on a 17 × 256 batch like one epoch of
  ``engine-sse``'s Elasticutor: 2–5 tasks per executor, 256 or 64
  shards, about three quarters of the shard loads zero.

Run: ``pytest benchmarks/bench_load_balancer.py --benchmark-only``
"""
import numpy as np
import pytest

from repro.core.load_balancer import imbalance, rebalance, rebalance_many, task_loads
from repro.streams.microbench import N_KEYS, ZIPF_SKEW, zipf_weights


def rc_row() -> tuple[np.ndarray, np.ndarray, int]:
    rng = np.random.default_rng(1)
    z, k = 8192, 256
    loads = rng.permutation(zipf_weights(z, ZIPF_SKEW)) * (rng.random(z) >= 0.3)
    return loads, np.arange(z) % k, k


def executor_row() -> tuple[np.ndarray, np.ndarray, int]:
    rng = np.random.default_rng(2)
    z, k = 256, 5
    loads = np.bincount(rng.integers(0, z, N_KEYS), weights=zipf_weights(N_KEYS, ZIPF_SKEW), minlength=z)
    return loads, rng.integers(0, k - 1, z), k


def engine_batch() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(3)
    b, width = 17, 256
    k = rng.integers(2, 6, b)
    z = np.where(np.arange(b) < 8, width, 64)
    loads = rng.exponential(1.0, (b, width)) * (rng.random((b, width)) < 0.25)
    assign = rng.integers(0, k[:, None], (b, width))
    return loads, assign, k, z


@pytest.mark.benchmark(group="load_balancer")
@pytest.mark.parametrize("row", [rc_row, executor_row], ids=["rc", "executor"])
def test_rebalance(benchmark, row):
    loads, assign, k = row()
    new, moves = benchmark(rebalance, loads, assign, k)
    assert len(moves) > 10
    assert imbalance(task_loads(loads, new, k)) < imbalance(task_loads(loads, assign, k))


@pytest.mark.benchmark(group="load_balancer")
def test_rebalance_many(benchmark):
    loads, assign, k, z = engine_batch()
    _, moves = benchmark(rebalance_many, loads, assign, k, z)
    assert len(np.unique(moves[:, 0])) > 10
