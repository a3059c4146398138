"""Micro-benchmark workload of §5.1.

Tuples carry an integer key from a 10 K-value key space whose
frequencies follow a zipf distribution with skew 0.5; each tuple is
128 B and costs 1 ms of CPU.  Workload dynamics are emulated by
shuffling the key→frequency mapping with a random permutation ``omega``
times per minute.

The engine consumes a dense per-epoch key-count matrix
(:class:`Trace`).  Counts are drawn multinomially so epochs are noisy
like a real stream but fully deterministic in ``seed``.  The tuple- and
count-level Spark DataFrame views exist so shard/executor histograms
can be computed by Catalyst and cross-checked against the NumPy routing
used inside the engine (tests do exactly that through the DuckDB
oracle).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core import shards as shard_hash

#: Length of one epoch, in seconds: every trace stamps it, the engine steps by it.
EPOCH_S = 1.0


@dataclass(frozen=True)
class Trace:
    """Dense workload trace: ``counts[t, k]`` tuples of key ``k`` in epoch ``t``."""

    counts: np.ndarray  # (n_epochs, n_keys) int64
    epoch_s: float
    tuple_bytes: int
    cpu_cost_ms: float

    @property
    def n_epochs(self) -> int:
        return self.counts.shape[0]

    @property
    def n_keys(self) -> int:
        return self.counts.shape[1]

    def total_tuples(self) -> int:
        return int(self.counts.sum())


def zipf_weights(n_keys: int, skew: float) -> np.ndarray:
    """Normalised zipf frequencies: p(rank r) ∝ 1/r**skew."""
    if n_keys <= 0:
        raise ValueError("n_keys must be positive")
    w = 1.0 / np.arange(1, n_keys + 1, dtype=float) ** skew
    return w / w.sum()


def shuffle_epochs(n_epochs: int, omega: float) -> list[int]:
    """Epoch indices at which a key-frequency shuffle occurs, for
    ``omega`` shuffles per minute (ω=0 → never)."""
    if omega <= 0:
        return []
    period_s = 60.0 / omega
    out, next_t = [], period_s
    for t in range(n_epochs):
        while next_t <= (t + 1) * EPOCH_S:
            out.append(t)
            next_t += period_s
    # one shuffle per epoch at most (multiple shuffles inside one epoch
    # are indistinguishable to an epoch-granular engine)
    return sorted(set(out))


def micro_trace(
    *,
    n_epochs: int,
    rate: float,
    n_keys: int = 10_000,
    skew: float = 0.5,
    omega: float = 2.0,
    tuple_bytes: int = 128,
    cpu_cost_ms: float = 1.0,
    seed: int = 7,
) -> Trace:
    """Generate the §5.1 workload: ``rate`` tuples/s over ``n_keys``
    zipf(skew) keys, re-permuting key frequencies ω times per minute."""
    rng = np.random.default_rng(seed)
    base = zipf_weights(n_keys, skew)
    perm = rng.permutation(n_keys)
    shuffles = set(shuffle_epochs(n_epochs, omega))
    counts = np.zeros((n_epochs, n_keys), dtype=np.int64)
    n_per_epoch = int(round(rate * EPOCH_S))
    for t in range(n_epochs):
        if t in shuffles:
            perm = rng.permutation(n_keys)
        counts[t] = rng.multinomial(n_per_epoch, base[perm])
    return Trace(counts=counts, epoch_s=EPOCH_S, tuple_bytes=tuple_bytes, cpu_cost_ms=cpu_cost_ms)


# ---------------------------------------------------------------------------
# Spark views of a trace
# ---------------------------------------------------------------------------

def trace_counts_df(spark: SparkSession, trace: Trace) -> DataFrame:
    """The trace as a (epoch, k, cnt) DataFrame (zero counts dropped)."""
    t_idx, k_idx = np.nonzero(trace.counts)
    pdf = pd.DataFrame(
        {
            "epoch": t_idx.astype(np.int64),
            "k": k_idx.astype(np.int64),
            "cnt": trace.counts[t_idx, k_idx],
        }
    )
    return spark.createDataFrame(pdf)


def trace_tuples_df(spark: SparkSession, trace: Trace, seed: int = 11) -> DataFrame:
    """Tuple-level view (one row per tuple, shuffled order within an
    epoch) — only for small test traces."""
    rng = np.random.default_rng(seed)
    frames = []
    for t in range(trace.n_epochs):
        keys = np.repeat(np.arange(trace.n_keys), trace.counts[t])
        rng.shuffle(keys)
        frames.append(pd.DataFrame({"epoch": t, "k": keys}))
    pdf = pd.concat(frames, ignore_index=True)
    return spark.createDataFrame(pdf)


def shard_histogram(
    df: DataFrame, *, n_executors: int, shards_per_executor: int, count_col: str | None = "cnt"
) -> DataFrame:
    """Per-(epoch, executor, shard) tuple counts, computed by Catalyst
    with the same XXH64 hash the engine uses.

    ``count_col=None`` treats ``df`` as tuple-level (weight 1 per row).
    Output columns: epoch, executor, shard, n.
    """
    exec_col = F.expr(shard_hash.executor_expr("k", n_executors))
    shard_col = F.expr(shard_hash.shard_expr("k", shards_per_executor))
    w = F.col(count_col) if count_col else F.lit(1)
    return (
        df.withColumn("executor", exec_col)
        .withColumn("shard", shard_col)
        .groupBy("epoch", "executor", "shard")
        .agg(F.sum(w).alias("n"))
    )


def executor_load_matrix(trace: Trace, n_executors: int) -> np.ndarray:
    """NumPy twin of the tier-1 routing: (n_epochs, n_executors) tuple
    counts — used by tests to cross-check the Spark histogram."""
    key_exec = shard_hash.key_to_executor(np.arange(trace.n_keys), n_executors)
    out = np.zeros((trace.n_epochs, n_executors), dtype=np.int64)
    for t in range(trace.n_epochs):
        out[t] = np.bincount(key_exec, weights=trace.counts[t], minlength=n_executors)
    return out
