"""CPU-to-executor assignment — Algorithm 1 of §4.2.

Maps physical cores to executors to realise an allocation ``k`` while
minimising state-migration cost ``C(X | X~)`` subject to node capacity
and a computation-locality constraint: executors whose per-core data
intensity exceeds the threshold ``phi`` may only hold cores on their
local node (remote tasks would saturate their receiver/emitter NIC).

Cost model (paper's closed forms, assuming shards spread evenly over an
executor's cores):

* allocating one core on node i to executor j:
  ``C+_ij = s_j (X_j - x_ij) / (X_j (X_j + 1))``
* deallocating one core on node i from executor j:
  ``C-_ij = s_j (X_j - x_ij) / (X_j (X_j - 1))``

Free (unassigned) cores are treated as a zero-cost donor.  The outer
driver :func:`assign_cores` doubles ``phi`` and retries whenever the
greedy fails, as prescribed at the end of §4.2.

:func:`assign_cores_naive` is the §5.4 *naive-EC* scheduler: it realises
the same allocation ``k`` but with both optimisations disabled — it
ignores the existing assignment (so every scheduling round reshuffles
state) and ignores locality (cores are spread round-robin over all
nodes, creating remote tasks freely).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_PHI_BYTES_PER_S = 512 * 1024.0  # §4.2: 512 KB/s
#: times :func:`assign_cores` doubles ``phi`` before dropping locality.
MAX_PHI_DOUBLINGS = 32


@dataclass
class AssignmentResult:
    """New assignment matrix plus the transition cost actually incurred."""

    X: np.ndarray  # (n_nodes, m) cores of executor j on node i
    migration_bytes: float  # sum over executors of state bytes leaving a node
    phi_used: float  # the (possibly doubled) locality threshold
    feasible: bool


def migration_cost_bytes(X_new: np.ndarray, X_old: np.ndarray, state_bytes: np.ndarray) -> float:
    """C(X | X~) = sum_j sum_i max(0, s_j x~_ij / X~_j - s_j x_ij / X_j).

    An executor with no cores holds no share: with no old cores it moves
    nothing, with no new cores it loses all it had."""
    s = np.asarray(state_bytes, dtype=float)

    def shares(X: np.ndarray) -> np.ndarray:
        tot = X.sum(axis=0)
        return np.where(tot > 0, s * X / np.where(tot > 0, tot, 1.0), 0.0)

    X_new = np.asarray(X_new, dtype=float)
    X_old = np.asarray(X_old, dtype=float)
    return float(np.maximum(0.0, shares(X_old) - shares(X_new)).sum())


def _alloc_cost(s_j: float, X_j: float, x_ij: float) -> float:
    return s_j * (X_j - x_ij) / (X_j * (X_j + 1.0)) if X_j > 0 else 0.0


def _dealloc_cost(s_j: float, X_j: float, x_ij: float) -> float:
    if X_j <= 1.0:
        return np.inf  # would leave the executor with no core
    return s_j * (X_j - x_ij) / (X_j * (X_j - 1.0))


def _greedy(
    k: np.ndarray,
    X_old: np.ndarray,
    cores: np.ndarray,
    state_bytes: np.ndarray,
    local_node: np.ndarray,
    data_intensity: np.ndarray,
    phi: float,
) -> np.ndarray | None:
    """One run of Algorithm 1 at a fixed phi; None on FAIL."""
    n, m = X_old.shape
    X = X_old.astype(np.int64).copy()
    Xj = X.sum(axis=0)
    free = cores - X.sum(axis=1)
    if (free < 0).any():
        raise ValueError("existing assignment exceeds node capacity")
    intensive = data_intensity > phi
    under = np.flatnonzero(Xj < k)
    # data-intensive first (descending intensity): they are the most
    # constrained, so serve them while local cores are still available.
    under = under[np.argsort(-data_intensity[under], kind="stable")]
    for j in under:
        while Xj[j] < k[j]:
            nodes = [int(local_node[j])] if intensive[j] else list(range(n))
            over = np.flatnonzero(Xj > k)  # Xj is fixed while nodes are scanned
            # key = (cost, not-local, node): on cost ties prefer the
            # executor's local node, improving computation locality at
            # zero migration cost.
            best = None  # (key, node, donor or None)
            for i in nodes:
                tie = (i != local_node[j], i)
                if free[i] > 0:
                    c = _alloc_cost(state_bytes[j], Xj[j], X[i, j])
                    key = (c, *tie)
                    if best is None or key < best[0]:
                        best = (key, i, None)
                for jp in over:
                    if jp == j or X[i, jp] <= 0:
                        continue
                    c = _dealloc_cost(state_bytes[jp], Xj[jp], X[i, jp]) + _alloc_cost(
                        state_bytes[j], Xj[j], X[i, j]
                    )
                    key = (c, *tie)
                    if np.isfinite(c) and (best is None or key < best[0]):
                        best = (key, i, int(jp))
            if best is None:
                return None  # FAIL — caller doubles phi
            _, i, donor = best
            if donor is None:
                free[i] -= 1
            else:
                X[i, donor] -= 1
                Xj[donor] -= 1
            X[i, j] += 1
            Xj[j] += 1
    # release any remaining over-provisioned cores back to the pool
    for jp in np.flatnonzero(Xj > k):
        while Xj[jp] > k[jp]:
            # cheapest node to vacate
            cand = np.flatnonzero(X[:, jp] > 0)
            costs = [_dealloc_cost(state_bytes[jp], Xj[jp], X[i, jp]) for i in cand]
            i = int(cand[int(np.argmin(costs))])
            X[i, jp] -= 1
            Xj[jp] -= 1
            free[i] += 1
    return X


def assign_cores(
    k: np.ndarray,
    X_old: np.ndarray,
    cores_per_node: np.ndarray,
    state_bytes: np.ndarray,
    local_node: np.ndarray,
    data_intensity: np.ndarray,
    phi: float = DEFAULT_PHI_BYTES_PER_S,
) -> AssignmentResult:
    """Algorithm 1 with the §4.2 outer loop: double ``phi`` until a
    feasible assignment is found (relaxing locality), finally dropping
    the locality constraint entirely.

    Shapes: ``k``, ``state_bytes``, ``local_node``, ``data_intensity``
    are length-m; ``X_old`` is (n_nodes, m); ``cores_per_node`` length-n.
    """
    k = np.asarray(k, dtype=np.int64)
    X_old = np.asarray(X_old, dtype=np.int64)
    cores_per_node = np.asarray(cores_per_node, dtype=np.int64)
    state_bytes = np.asarray(state_bytes, dtype=float)
    local_node = np.asarray(local_node, dtype=np.int64)
    data_intensity = np.asarray(data_intensity, dtype=float)
    if k.sum() > cores_per_node.sum():
        raise ValueError("allocation exceeds cluster capacity; cap k first")
    cur_phi = phi
    for _ in range(MAX_PHI_DOUBLINGS):
        X = _greedy(k, X_old, cores_per_node, state_bytes, local_node, data_intensity, cur_phi)
        if X is not None:
            return AssignmentResult(
                X=X,
                migration_bytes=migration_cost_bytes(X, X_old, state_bytes),
                phi_used=cur_phi,
                feasible=True,
            )
        cur_phi *= 2.0
    X = _greedy(k, X_old, cores_per_node, state_bytes, local_node, np.zeros_like(data_intensity), np.inf)
    if X is None:
        raise RuntimeError("assignment infeasible even without locality constraint")
    return AssignmentResult(
        X=X,
        migration_bytes=migration_cost_bytes(X, X_old, state_bytes),
        phi_used=np.inf,
        feasible=False,
    )


def assign_cores_naive(
    k: np.ndarray,
    X_old: np.ndarray,
    cores_per_node: np.ndarray,
    state_bytes: np.ndarray,
) -> AssignmentResult:
    """naive-EC (§5.4): realise ``k`` with the scheduler's migration-cost
    and computation-locality optimisations *disabled*.

    The naive scheduler simply bin-packs the allocation onto the
    cluster: executors in index order, nodes filled sequentially,
    completely ignoring both the existing assignment and where each
    executor's main process lives.  Consequences (what Table 2
    measures): placement is uncorrelated with executor homes, so most
    tasks are remote; and any change in ``k`` shifts the packing of
    every later executor, churning state across nodes.
    """
    k = np.asarray(k, dtype=np.int64)
    X_old = np.asarray(X_old, dtype=np.int64)
    cores_per_node = np.asarray(cores_per_node, dtype=np.int64)
    n, m = X_old.shape
    if k.sum() > cores_per_node.sum():
        raise ValueError("allocation exceeds cluster capacity; cap k first")
    X = np.zeros_like(X_old)
    free = cores_per_node.copy()
    i = 0
    for j in range(m):
        need = int(k[j])
        while need > 0:
            if free[i] > 0:
                take = min(need, int(free[i]))
                X[i, j] += take
                free[i] -= take
                need -= take
            else:
                i = (i + 1) % n
    return AssignmentResult(
        X=X,
        migration_bytes=migration_cost_bytes(X, X_old, np.asarray(state_bytes, dtype=float)),
        phi_used=np.inf,
        feasible=True,
    )
