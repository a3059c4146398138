"""Model-based resource allocation (§4.1).

Given measured per-executor arrival rates ``lambda_j`` and per-core
service rates ``mu_j``, the scheduler decides how many CPU cores each
elastic executor needs so the Jackson-network latency (Eq. 1) meets the
user's target ``T_max`` with the fewest cores:

1. initialise ``k_j = floor(lambda_j / mu_j) + 1`` (minimum for
   stability);
2. repeatedly give one more core to the executor whose extra core
   decreases ``E[T]`` the most, until ``E[T] <= T_max`` or the core
   budget is exhausted.

This greedy is optimal for the separable convex objective (shown in
DRS [15], which the paper cites).  The function is pure — the engine
decides how to react when even the stability minimum exceeds the
budget (it then scales the allocation down proportionally, which is
what a saturated cluster does under backpressure).
"""
from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.substrate.queueing import jackson_latency_ms, min_stable_cores, mmk_sojourn_ms

#: latency target T_max, in ms, that the engine asks of the allocator.
T_MAX_MS = 50.0


@dataclass(frozen=True)
class Allocation:
    """Result of model-based allocation."""

    cores: tuple[int, ...]
    expected_latency_ms: float
    feasible: bool  # True iff E[T] <= t_max within the budget


def allocate_cores(
    lam0: float,
    lams: Sequence[float],
    mus: Sequence[float],
    total_cores: int,
    t_max_ms: float,
) -> Allocation:
    """Compute the per-executor core counts ``k`` per §4.1.

    ``lam0``: topology input rate (tuples/s); ``lams[j]``/``mus[j]``:
    executor j's arrival rate and per-core service rate.  Executors with
    zero arrivals still get one core (a task must exist to own the key
    subspace).  If the stability minimum alone exceeds ``total_cores``
    the minimum is returned with ``feasible=False`` — the caller owns
    degradation policy.
    """
    m = len(lams)
    if m == 0:
        return Allocation(cores=(), expected_latency_ms=0.0, feasible=True)
    if len(mus) != m:
        raise ValueError("lams and mus must align")
    if total_cores < m:
        raise ValueError(f"need at least one core per executor ({m}), got {total_cores}")
    ks = [min_stable_cores(lam, mu) for lam, mu in zip(lams, mus)]
    if sum(ks) > total_cores:
        return Allocation(tuple(ks), jackson_latency_ms(max(lam0, 1e-9), lams, mus, ks), False)

    lam0 = max(lam0, 1e-9)
    # cache per-executor sojourn terms; only the incremented entry changes
    terms = [lam * mmk_sojourn_ms(lam, mu, k) for lam, mu, k in zip(lams, mus, ks)]
    et = sum(terms) / lam0
    while et > t_max_ms and sum(ks) < total_cores:
        best_j, best_drop, best_term = -1, 0.0, 0.0
        for j in range(m):
            new_term = lams[j] * mmk_sojourn_ms(lams[j], mus[j], ks[j] + 1)
            drop = terms[j] - new_term
            if drop > best_drop:
                best_j, best_drop, best_term = j, drop, new_term
        if best_j < 0:
            break  # no core addition improves E[T] (all queues near-empty)
        ks[best_j] += 1
        terms[best_j] = best_term
        et = sum(terms) / lam0
    return Allocation(tuple(ks), et, et <= t_max_ms)
