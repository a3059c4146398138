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
greedy fails, as prescribed at the end of §4.2; a doubling that leaves
the set of data-intensive executors as it was is not retried, because
the greedy would fail on it again.

Each added core is one ``argmin`` over a cost matrix whose rows are the
candidate nodes (the executor's local node alone when it is
data-intensive, else every node) and whose columns are the free core
(``C+``, inf where the node is full) and then the donors, the
over-provisioned executors in index order (``C- + C+``, inf where the
donor holds no core there).  Ties go, in order, to the local node, the
lowest node, the free core, the lowest donor: the first minimum in
row-major order, unless the local row holds the minimum too.  FAIL is a
matrix of inf.  Releasing a core left over is one ``argmin`` of ``C-``
over the nodes where the executor holds cores.

:func:`migration_cost_bytes` is ``C(X | X~)`` itself, the reporting
function of the objective; the scheduling round does not compute it.

:func:`assign_cores_naive` is the §5.4 *naive-EC* scheduler: it realises
the same allocation ``k`` but with both optimisations disabled — it
ignores the existing assignment (so every change in ``k`` reshuffles
state) and ignores locality: executors in index order fill the nodes in
order, one interval overlap per (node, executor).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_PHI_BYTES_PER_S = 512 * 1024.0  # §4.2: 512 KB/s
#: times :func:`assign_cores` doubles ``phi`` before dropping locality.
MAX_PHI_DOUBLINGS = 32


@dataclass
class AssignmentResult:
    """New assignment matrix and the locality threshold it was found at."""

    X: np.ndarray  # (n_nodes, m) cores of executor j on node i
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


def _alloc_cost(s_j, X_j, x_ij) -> np.ndarray:
    """C+_ij for nodes holding ``x_ij`` of executor j's ``X_j`` cores."""
    if X_j > 0:
        return s_j * (X_j - x_ij) / (X_j * (X_j + 1.0))
    return np.zeros(len(x_ij))


def _dealloc_cost(s_j, X_j, x_ij) -> np.ndarray:
    """C-_ij for nodes holding ``x_ij`` of executor j's ``X_j`` cores;
    ``X_j`` must exceed 1 (the last core is never taken)."""
    return s_j * (X_j - x_ij) / (X_j * (X_j - 1.0))


def _donors(
    X: np.ndarray, Xj: np.ndarray, k: np.ndarray, state_bytes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The over-provisioned executors that can spare a core, in index
    order, and the (n_nodes, donors) matrix of C-_ij (inf where the
    donor holds no core on the node)."""
    donors = np.flatnonzero((Xj > k) & (Xj > 1))
    Xd = X[:, donors]
    cost = _dealloc_cost(state_bytes[donors], Xj[donors], Xd)
    return donors, np.where(Xd > 0, cost, np.inf)


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
    X = X_old.copy()
    Xj = X.sum(axis=0)
    free = cores - X.sum(axis=1)
    if (free < 0).any():
        raise ValueError("existing assignment exceeds node capacity")
    intensive = data_intensity > phi
    under = np.flatnonzero(Xj < k)
    # data-intensive first (descending intensity): they are the most
    # constrained, so serve them while local cores are still available.
    under = under[np.argsort(-data_intensity[under], kind="stable")]
    # C- >= 0 (state bytes are non-negative), so on a node with a free
    # core no donor costs less, and a tie goes to the free core: donors
    # matter on full nodes only.  Their matrix is built when first
    # needed, and again after each donation.
    donors = don_cost = None
    for j in under:
        home = int(local_node[j])
        s_j = state_bytes[j]
        col = X[:, j]
        # candidate rows: the home node alone, or every node; row r of
        # the cost matrix is node row0 + r
        if intensive[j]:
            row0, rows = home, slice(home, home + 1)
        else:
            row0, rows = 0, slice(None)
        home_row = home - row0
        while Xj[j] < k[j]:
            if intensive[j] and free[home] > 0:
                i, c = home, 0  # the one candidate node has a free core
            else:
                fr = free[rows]
                alloc = _alloc_cost(s_j, Xj[j], col[rows])
                # column 0: a free core; then one column per donor
                cost = np.where(fr > 0, alloc, np.inf)[:, None]
                if not fr.all():
                    if don_cost is None:
                        donors, don_cost = _donors(X, Xj, k, state_bytes)
                    cost = np.concatenate((cost, don_cost[rows] + alloc[:, None]), axis=1)
                # Tie order of the loop's strict ``<`` over (cost,
                # not-home, node), free core before donors in index
                # order: the first minimum in row-major order, unless
                # the home row ties it.
                r, c = divmod(int(cost.argmin()), cost.shape[1])
                best = cost[r, c]
                if best == np.inf:
                    return None  # FAIL — caller doubles phi
                if r != home_row:
                    c_home = int(cost[home_row].argmin())
                    if cost[home_row, c_home] == best:
                        r, c = home_row, c_home
                i = row0 + r
            if c == 0:
                free[i] -= 1
            else:
                X[i, donors[c - 1]] -= 1
                Xj[donors[c - 1]] -= 1
                don_cost = None
            X[i, j] += 1
            Xj[j] += 1
    # release any remaining over-provisioned cores back to the pool,
    # each from the node where C-_ij is least (first such node)
    for jp in np.flatnonzero(Xj > k):
        s_jp = state_bytes[jp]
        col = X[:, jp]
        while Xj[jp] > k[jp]:
            cand = np.flatnonzero(col > 0)
            i = cand[0]
            if len(cand) > 1:  # then Xj[jp] > 1 and every C-_ij is finite
                i = cand[_dealloc_cost(s_jp, Xj[jp], col[cand]).argmin()]
            col[i] -= 1
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
) -> AssignmentResult:
    """Algorithm 1 with the §4.2 outer loop: starting from φ̃
    (``DEFAULT_PHI_BYTES_PER_S``, read at call time), double ``phi``
    until a feasible assignment is found (relaxing locality), finally
    dropping the locality constraint entirely.

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
    cur_phi = DEFAULT_PHI_BYTES_PER_S
    failed = None  # the data-intensive set of the last failed run
    for _ in range(MAX_PHI_DOUBLINGS):
        # _greedy reads phi only through this set, so a run on the set
        # that last failed would fail again: skip it, doubling phi still
        intensive = data_intensity > cur_phi
        if failed is None or (intensive != failed).any():
            X = _greedy(k, X_old, cores_per_node, state_bytes, local_node, data_intensity, cur_phi)
            if X is not None:
                return AssignmentResult(X=X, phi_used=cur_phi, feasible=True)
            failed = intensive
        cur_phi *= 2.0
    X = _greedy(k, X_old, cores_per_node, state_bytes, local_node, np.zeros_like(data_intensity), np.inf)
    if X is None:
        raise RuntimeError("assignment infeasible even without locality constraint")
    return AssignmentResult(X=X, phi_used=np.inf, feasible=False)


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
    every later executor, churning state across nodes.  ``X_old`` and
    ``state_bytes`` are not read; they keep the signature of
    :func:`assign_cores`.
    """
    k = np.asarray(k, dtype=np.int64)
    cores_per_node = np.asarray(cores_per_node, dtype=np.int64)
    if k.sum() > cores_per_node.sum():
        raise ValueError("allocation exceeds cluster capacity; cap k first")
    # Node i holds the cluster's cores [node_start, node_end) and
    # executor j takes [exec_start, exec_end) of the same sequence, so
    # x_ij is the overlap of the two intervals.
    node_end = np.cumsum(cores_per_node)
    exec_end = np.cumsum(k)
    X = np.minimum(node_end[:, None], exec_end) - np.maximum(
        (node_end - cores_per_node)[:, None], exec_end - k
    )
    return AssignmentResult(X=np.maximum(X, 0), phi_used=np.inf, feasible=True)
