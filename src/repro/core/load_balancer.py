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

The same rounds serve three callers:

* an elastic executor balancing shards across its tasks
  (:func:`rebalance`, one executor per call),
* the RC baseline balancing operator-level shards across executors
  (:func:`rebalance`),
* the Elasticutor engine, which balances every busy executor of an
  epoch in one call of :func:`rebalance_many` — the same rounds in
  lockstep over a padded batch, bit-identical row by row — and applies
  the returned move list with protocol costs.
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


#: NumPy sums fewer than this many values left to right, more pairwise
_PAIRWISE_FROM = 8


def rebalance_many(
    shard_loads: np.ndarray,
    assignment: np.ndarray,
    n_tasks: np.ndarray,
    n_shards: np.ndarray,
    theta: float = DEFAULT_THETA,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`rebalance` of many executors at once, in lockstep rounds.

    Row ``r`` of the ``(B, Z)`` ``shard_loads`` and ``assignment`` is one
    executor: its first ``n_shards[r]`` entries are its shards, with
    local task ids in ``[0, n_tasks[r])``; the rest of the row is padding
    and is ignored.  Returns the new assignment (padding copied through)
    and the moves as an ``(n, 4)`` int64 array of (row, shard, src, dst),
    row-major and round-minor.  Each row's assignment and moves are
    exactly those of :func:`rebalance` on that row, bit for bit.

    Each round takes every unfinished row one :func:`rebalance` step —
    row-wise argmax/argmin, the candidate mask, the new δ of each
    candidate and its first-index argmin — and then drops the rows that
    stop.  The row means must equal ``np.mean`` of each row: NumPy sums
    fewer than 8 values left to right, where zero padding is exact, and
    pairwise from 8 up, so the rows with k < 8 run as one block and each
    k ≥ 8 as a block of its own, unpadded.
    """
    loads = np.asarray(shard_loads, dtype=float)
    assign = np.array(assignment, dtype=np.int64)
    k = np.asarray(n_tasks, dtype=np.int64)
    z = np.asarray(n_shards, dtype=np.int64)
    if loads.ndim != 2 or loads.shape != assign.shape:
        raise ValueError("shard_loads and assignment must be aligned (B, Z) arrays")
    if k.shape != (len(loads),) or z.shape != k.shape:
        raise ValueError("need one n_tasks and one n_shards per row")
    if (k <= 0).any():
        raise ValueError("need at least one task per row")
    if ((z < 0) | (z > loads.shape[1])).any():
        raise ValueError("n_shards out of range")
    valid = np.arange(loads.shape[1]) < z[:, None]
    if ((assign < 0) | (assign >= k[:, None]))[valid].any():
        raise ValueError("assignment references task out of range")

    block = np.where(k < _PAIRWISE_FROM, 0, k)
    parts = []
    for key in np.unique(block).tolist():
        rows = np.flatnonzero(block == key)
        width = int(z[rows].max())
        if width == 0:
            continue
        new, mv = _lockstep(loads[rows, :width], assign[rows, :width], k[rows], z[rows], theta)
        assign[rows, :width] = new
        mv[:, 0] = rows[mv[:, 0]]
        parts.append(mv)
    moves = np.concatenate(parts) if parts else np.empty((0, 4), dtype=np.int64)
    return assign, moves[np.argsort(moves[:, 0], kind="stable")]


def _lockstep(
    loads: np.ndarray, assign: np.ndarray, k: np.ndarray, z: np.ndarray, theta: float
) -> tuple[np.ndarray, np.ndarray]:
    """The rounds of :func:`rebalance_many` over one block; the moves
    come round-major, each round's in row order."""
    b, width = loads.shape
    n_t = int(k.max())
    valid = np.arange(width) < z[:, None]
    out = assign
    loads = np.where(valid, loads, 0.0)  # a zero-load shard never moves
    flat = (np.arange(b)[:, None] * n_t + assign)[valid]
    tl = np.bincount(flat, weights=loads[valid], minlength=b * n_t).reshape(b, n_t)
    tmask = np.arange(n_t) < k[:, None]
    limit = 4 * np.maximum(z, 1)
    rows = np.arange(b)  # block rows still balancing
    moves = []
    rnd = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while rows.size:
            ar = np.arange(rows.size)
            mean = tl.sum(axis=1) / k
            hi = np.where(tmask, tl, -np.inf)
            src = hi.argmax(axis=1)
            dst = np.where(tmask, tl, np.inf).argmin(axis=1)
            tsrc, tdst = tl[ar, src], tl[ar, dst]
            delta = tsrc / mean
            go = (mean > 0) & (delta >= theta) & (src != dst) & (rnd < limit)
            # the largest load besides src and dst; 0.0 with two tasks, as in rebalance
            hi[ar, src] = hi[ar, dst] = -np.inf
            others = np.where(k > 2, hi.max(axis=1), 0.0)
            new_delta = (
                np.maximum(np.maximum(tsrc[:, None] - loads, tdst[:, None] + loads), others[:, None])
                / mean[:, None]
            )
            new_delta = np.where((assign == src[:, None]) & (loads > 0), new_delta, np.inf)
            best = new_delta.argmin(axis=1)
            go &= new_delta[ar, best] < delta - 1e-12
            g = np.flatnonzero(go)
            if g.size:
                bg, sg, dg = best[g], src[g], dst[g]
                assign[g, bg] = dg
                moved = loads[g, bg]
                tl[g, sg] -= moved
                tl[g, dg] += moved
                moves.append(np.stack([rows[g], bg, sg, dg], axis=1))
            if g.size < rows.size:
                out[rows[~go]] = assign[~go]
                rows, assign, loads, tl = rows[g], assign[g], loads[g], tl[g]
                k, tmask, limit = k[g], tmask[g], limit[g]
            rnd += 1
    return out, np.concatenate(moves) if moves else np.empty((0, 4), dtype=np.int64)

