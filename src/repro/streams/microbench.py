"""Micro-benchmark workload of §5.1.

Tuples carry an integer key from a 10 K-value key space whose
frequencies follow a zipf distribution with skew 0.5; each tuple is
128 B and costs 1 ms of CPU.  Workload dynamics are emulated by
shuffling the key→frequency mapping with a random permutation ``omega``
times per minute.

The engine consumes a dense per-epoch key-count matrix
(:class:`Trace`).  Counts are drawn multinomially so epochs are noisy
like a real stream but fully deterministic in ``seed``.  Routing a
trace's keys to executors and shards is the engine's job, in NumPy
(:mod:`repro.core.shards`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Length of one epoch, in seconds: every trace stamps it, the engine steps by it.
EPOCH_S = 1.0
#: The §5.1 workload: the size of the key space, the zipf skew of the
#: key frequencies, and each tuple's size and CPU cost.
N_KEYS = 10_000
ZIPF_SKEW = 0.5
TUPLE_BYTES = 128
CPU_COST_MS = 1.0


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
    n_keys: int = N_KEYS,
    skew: float = ZIPF_SKEW,
    omega: float = 2.0,
    tuple_bytes: int = TUPLE_BYTES,
    cpu_cost_ms: float = CPU_COST_MS,
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
