"""Intra-executor load balancing (§3.1).

The balancer refines a shard→task assignment in rounds until the
imbalance factor δ — the ratio of the maximum task workload to the mean
task workload — is below θ (default 1.2, i.e. at most 20% deviation).
Each round considers reassigning one shard from the *most loaded* task
to the *least loaded* task and picks the candidate shard whose move
reduces δ the most.  This is the paper's First-Fit-Decreasing-style
heuristic for the NP-hard multi-way partitioning problem, biased to
minimise the number of moved shards (each move costs a sync pause and
possibly a state migration).

The same routine serves three callers:

* an elastic executor balancing shards across its tasks (Elasticutor),
* the RC baseline balancing operator-level shards across executors,
* the engine, which applies the returned move list with protocol costs.
"""
from __future__ import annotations

from itertools import chain
from typing import NamedTuple

import numpy as np

#: θ (§3.1); the engine reads it here, at call time.
DEFAULT_THETA = 1.2


class Move(NamedTuple):
    """One shard reassignment: shard ``shard`` from task ``src`` to ``dst``."""

    shard: int
    src: int
    dst: int


def moves_array(moves: list[Move]) -> np.ndarray:
    """``np.array(moves)`` as int64, without NumPy's slow walk of tuple subclasses."""
    return np.fromiter(chain.from_iterable(moves), np.int64, 3 * len(moves)).reshape(-1, 3)


def imbalance(task_loads: np.ndarray) -> float:
    """δ = max(task load) / mean(task load); 1.0 for an idle executor."""
    loads = np.asarray(task_loads, dtype=float)
    if loads.size == 0:
        raise ValueError("no tasks")
    mean = loads.mean()
    if mean <= 0:
        return 1.0
    return float(loads.max() / mean)


def task_loads(shard_loads: np.ndarray, assignment: np.ndarray, n_tasks: int) -> np.ndarray:
    """Aggregate per-shard loads into per-task loads."""
    return np.bincount(assignment, weights=shard_loads, minlength=n_tasks).astype(float)


def rebalance(
    shard_loads: np.ndarray,
    assignment: np.ndarray,
    n_tasks: int,
    theta: float = DEFAULT_THETA,
) -> tuple[np.ndarray, list[Move]]:
    """Refine ``assignment`` (shard → task) until δ < ``theta``.

    Returns the new assignment and the ordered list of moves.  The input
    array is not mutated.  Shards with zero load are never moved (a move
    has cost but cannot reduce δ).  Terminates when δ < θ, when no move
    improves δ, or after 4× shard-count rounds (a generous bound that in
    practice is never hit).
    """
    loads = np.asarray(shard_loads, dtype=float)
    assign = np.asarray(assignment, dtype=np.int64).copy()
    if loads.shape != assign.shape:
        raise ValueError("shard_loads and assignment must align")
    if n_tasks <= 0:
        raise ValueError("need at least one task")
    if assign.size and (assign.min() < 0 or assign.max() >= n_tasks):
        raise ValueError("assignment references task out of range")

    tl = task_loads(loads, assign, n_tasks)
    moves: list[Move] = []
    for _ in range(4 * max(1, loads.size)):
        mean = tl.mean()
        if mean <= 0:
            break
        delta = tl.max() / mean
        if delta < theta:
            break
        src = int(tl.argmax())
        dst = int(tl.argmin())
        if src == dst:
            break
        # Candidate shards on the most-loaded task; the move that most
        # reduces δ is the one minimising the new max(src', dst') load,
        # i.e. the largest shard that still fits: we evaluate new δ for
        # each candidate directly (vectorised).
        cand = np.flatnonzero((assign == src) & (loads > 0))
        if cand.size == 0:
            break
        new_src = tl[src] - loads[cand]
        new_dst = tl[dst] + loads[cand]
        # δ after the move is determined by the global max; tasks other
        # than src/dst are unchanged, so new max = max(others, src', dst').
        mask = np.ones(n_tasks, dtype=bool)
        mask[src] = mask[dst] = False
        others_max = float(tl[mask].max()) if mask.any() else 0.0
        new_delta = np.maximum(np.maximum(new_src, new_dst), others_max) / mean
        best = int(cand[np.argmin(new_delta)])
        if new_delta.min() >= delta - 1e-12:
            break  # no improving move exists
        assign[best] = dst
        tl[src] -= loads[best]
        tl[dst] += loads[best]
        moves.append(Move(shard=best, src=src, dst=dst))
    return assign, moves

