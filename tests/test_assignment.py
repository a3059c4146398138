"""Unit tests for Algorithm 1 (CPU-to-executor assignment, §4.2) and
the naive-EC assignment."""
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import assignment
from repro.core.assignment import (
    MAX_PHI_DOUBLINGS,
    _greedy,
    assign_cores,
    assign_cores_naive,
    migration_cost_bytes,
)


def simple_cluster(n_nodes=4, cores=8):
    return np.full(n_nodes, cores, dtype=np.int64)


def _migration_cost_loop(X_new, X_old, state_bytes):
    """Per-executor loop form of ``migration_cost_bytes``: the reference
    the vectorised form is checked against."""
    X_new = np.asarray(X_new, dtype=float)
    X_old = np.asarray(X_old, dtype=float)
    tot_new = X_new.sum(axis=0)
    tot_old = X_old.sum(axis=0)
    cost = 0.0
    for j in range(X_new.shape[1]):
        if tot_old[j] <= 0:
            continue
        old_share = state_bytes[j] * X_old[:, j] / tot_old[j]
        new_share = (
            state_bytes[j] * X_new[:, j] / tot_new[j]
            if tot_new[j] > 0
            else np.zeros_like(old_share)
        )
        cost += np.maximum(0.0, old_share - new_share).sum()
    return float(cost)


@st.composite
def _layouts(draw):
    """(X_new, X_old, state_bytes) with cores drawn from 0..4 per cell,
    so whole columns are often zero on either side."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 6))
    cells = st.lists(st.integers(0, 4), min_size=n * m, max_size=n * m)
    X_new = np.array(draw(cells), dtype=np.int64).reshape(n, m)
    X_old = np.array(draw(cells), dtype=np.int64).reshape(n, m)
    for X in (X_new, X_old):
        for j in draw(st.lists(st.integers(0, m - 1), max_size=m)):
            X[:, j] = 0
    s = np.array(draw(st.lists(st.floats(0.0, 1e9), min_size=m, max_size=m)))
    return X_new, X_old, s


class TestMigrationCost:
    @given(_layouts())
    @settings(max_examples=300, deadline=None)
    def test_matches_loop_reference(self, layout):
        X_new, X_old, s = layout
        assert migration_cost_bytes(X_new, X_old, s) == pytest.approx(
            _migration_cost_loop(X_new, X_old, s), rel=1e-12, abs=0.0
        )
        assert migration_cost_bytes(X_old, X_old, s) == 0.0

    def test_no_change_no_cost(self):
        X = np.array([[2, 0], [0, 2]])
        s = np.array([100.0, 100.0])
        assert migration_cost_bytes(X, X, s) == 0.0

    def test_full_move_costs_full_state(self):
        X_old = np.array([[2, 0], [0, 1]])
        X_new = np.array([[0, 0], [2, 1]])
        s = np.array([64.0, 10.0])
        # executor 0 moves all state off node 0
        assert migration_cost_bytes(X_new, X_old, s) == pytest.approx(64.0)

    def test_partial_move_proportional(self):
        # 2 cores on node0 -> 1 on node0 + 1 on node1: half the state moves.
        X_old = np.array([[2], [0]])
        X_new = np.array([[1], [1]])
        s = np.array([100.0])
        assert migration_cost_bytes(X_new, X_old, s) == pytest.approx(50.0)

    def test_growth_on_same_node_free(self):
        X_old = np.array([[1], [0]])
        X_new = np.array([[3], [0]])
        assert migration_cost_bytes(X_new, X_old, np.array([99.0])) == 0.0


def _alloc_cost(s_j, X_j, x_ij):
    return s_j * (X_j - x_ij) / (X_j * (X_j + 1.0)) if X_j > 0 else 0.0


def _dealloc_cost(s_j, X_j, x_ij):
    if X_j <= 1.0:
        return np.inf  # would leave the executor with no core
    return s_j * (X_j - x_ij) / (X_j * (X_j - 1.0))


def _greedy_loop(k, X_old, cores, state_bytes, local_node, data_intensity, phi):
    """Per-node, per-donor loop form of ``_greedy`` (one run of
    Algorithm 1 at a fixed phi; None on FAIL): the reference the array
    form is checked against."""
    n, m = X_old.shape
    X = X_old.astype(np.int64).copy()
    Xj = X.sum(axis=0)
    free = cores - X.sum(axis=1)
    if (free < 0).any():
        raise ValueError("existing assignment exceeds node capacity")
    intensive = data_intensity > phi
    under = np.flatnonzero(Xj < k)
    under = under[np.argsort(-data_intensity[under], kind="stable")]
    for j in under:
        while Xj[j] < k[j]:
            nodes = [int(local_node[j])] if intensive[j] else list(range(n))
            over = np.flatnonzero(Xj > k)
            # key = (cost, not-local, node); strict < keeps the first of
            # equal keys, so a free core beats a donor, and a lower donor
            # a higher one, on the same node
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
                return None
            _, i, donor = best
            if donor is None:
                free[i] -= 1
            else:
                X[i, donor] -= 1
                Xj[donor] -= 1
            X[i, j] += 1
            Xj[j] += 1
    for jp in np.flatnonzero(Xj > k):
        while Xj[jp] > k[jp]:
            cand = np.flatnonzero(X[:, jp] > 0)
            costs = [_dealloc_cost(state_bytes[jp], Xj[jp], X[i, jp]) for i in cand]
            i = int(cand[int(np.argmin(costs))])
            X[i, jp] -= 1
            Xj[jp] -= 1
            free[i] += 1
    return X


def _assign_cores_loop(k, X_old, cores, state_bytes, local_node, data_intensity, phi):
    """The §4.2 φ-doubling driver over ``_greedy_loop``: (X, phi_used,
    feasible), as ``assign_cores`` returns them."""
    cur_phi = phi
    for _ in range(MAX_PHI_DOUBLINGS):
        X = _greedy_loop(k, X_old, cores, state_bytes, local_node, data_intensity, cur_phi)
        if X is not None:
            return X, cur_phi, True
        cur_phi *= 2.0
    X = _greedy_loop(
        k, X_old, cores, state_bytes, local_node, np.zeros_like(data_intensity), np.inf
    )
    if X is None:
        raise RuntimeError("assignment infeasible even without locality constraint")
    return X, np.inf, False


def _naive_loop(k, cores):
    """Sequential-fill loop form of ``assign_cores_naive``: executors in
    index order onto nodes filled in order."""
    n, m = len(cores), len(k)
    X = np.zeros((n, m), dtype=np.int64)
    free = np.array(cores, dtype=np.int64)
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
    return X


def _fit(k, capacity):
    """Trim ``k`` (largest first) until it fits ``capacity`` cores."""
    k = np.array(k, dtype=np.int64)
    while k.sum() > capacity:
        k[int(np.argmax(k))] -= 1
    return k


@st.composite
def _alg1_inputs(draw):
    """(k, X_old, cores, state_bytes, local_node, data_intensity, phi) on
    up to 5 nodes of 0..4 cores, some full.  State bytes come from a
    small set (equal and zero values tie), and intensities from far
    below to far above phi, so locality FAILs, φ doubles, and an
    intensity of 1e30 outlasts every doubling (feasible=False)."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 6))
    cores = np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)), dtype=np.int64)
    X_old = np.zeros((n, m), dtype=np.int64)
    for i in range(n):
        for j in range(m):
            X_old[i, j] = draw(st.integers(0, int(cores[i] - X_old[i].sum())))
    k = _fit(draw(st.lists(st.integers(0, 5), min_size=m, max_size=m)), int(cores.sum()))
    s = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 1e6, 3e6]), min_size=m, max_size=m)))
    local = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)), dtype=np.int64)
    dint = np.array(
        draw(st.lists(st.sampled_from([0.0, 1.0, 5.0, 1e3, 1e30]), min_size=m, max_size=m))
    )
    phi = draw(st.sampled_from([0.5, 2.0, 100.0]))
    return k, X_old, cores, s, local, dint, phi


def _case(k, X_old, cores, s, local, dint, phi):
    """One hand-written ``_alg1_inputs`` draw."""
    return (
        np.array(k, dtype=np.int64),
        np.array(X_old, dtype=np.int64),
        np.array(cores, dtype=np.int64),
        np.array(s, dtype=float),
        np.array(local, dtype=np.int64),
        np.array(dint, dtype=float),
        phi,
    )


# intensive executor 0, home node 0 full of executor 1 (at its k): FAIL
# until phi passes 1e3
_FAIL = _case([2, 1], [[1, 1], [0, 0]], [2, 2], [1e6, 1e6], [0, 0], [1e3, 0.0], 1.0)
# zero and equal state bytes: every candidate ties
_TIES_ZERO = _case([3, 1], [[0, 2], [1, 0], [0, 0]], [4, 4, 4], [0.0, 0.0], [2, 0], [0.0, 0.0], 1.0)
_TIES_EQUAL = _case(
    [2, 2, 1], [[1, 1, 2], [0, 0, 0], [0, 1, 0]], [4, 4, 4], [1e6, 1e6, 1e6], [1, 1, 0],
    [0.0, 0.0, 0.0], 1.0,
)
# intensive executor 0 on its full home node takes a core from donor 1
_FULL_HOME = _case([2, 1], [[1, 1], [0, 1]], [2, 2], [1e6, 1e6], [0, 1], [1e3, 0.0], 1.0)
# home node too small even after every doubling: locality dropped
_INFEASIBLE = _case([2], [[1], [0]], [1, 3], [1e6], [0], [1e30], 1.0)
# _FAIL plus executor 2 (intensity 5) on node 1: the data-intensive set
# is {0, 2} up to phi = 4, {0} up to 512 and empty from 1024, so only
# three of the eleven phi values need a run of the greedy
_REPEATED = _case(
    [2, 1, 1], [[1, 1, 0], [0, 0, 1]], [2, 2], [1e6, 1e6, 1e6], [0, 0, 1], [1e3, 0.0, 5.0], 1.0
)


def _assign_cores_at(*inputs):
    """``assign_cores`` on an ``_alg1_inputs`` draw, whose last item,
    phi, stands in for φ̃ during the call."""
    *args, phi = inputs
    with patch.object(assignment, "DEFAULT_PHI_BYTES_PER_S", phi):
        return assign_cores(*args)


def _outcome(f, *args):
    try:
        return f(*args)
    except (RuntimeError, ValueError) as exc:
        return type(exc)


class TestArrayMatchesLoop:
    """The array forms of Algorithm 1 and naive-EC packing against their
    loop references."""

    @given(_alg1_inputs())
    @example(_FAIL)
    @example(_TIES_ZERO)
    @example(_TIES_EQUAL)
    @example(_FULL_HOME)
    @example(_INFEASIBLE)
    @settings(max_examples=300, deadline=None)
    def test_greedy_matches_loop(self, inputs):
        got = _outcome(_greedy, *inputs)
        want = _outcome(_greedy_loop, *inputs)
        if want is None or isinstance(want, type):
            assert got is want
        else:
            assert np.array_equal(got, want)
            assert got.dtype == np.int64

    @given(_alg1_inputs())
    @example(_FAIL)
    @example(_TIES_ZERO)
    @example(_TIES_EQUAL)
    @example(_FULL_HOME)
    @example(_INFEASIBLE)
    @example(_REPEATED)
    @settings(max_examples=300, deadline=None)
    def test_assign_cores_matches_loop(self, inputs):
        got = _outcome(_assign_cores_at, *inputs)
        want = _outcome(_assign_cores_loop, *inputs)
        if isinstance(want, type):
            assert got is want
        else:
            X, phi_used, feasible = want
            assert np.array_equal(got.X, X)
            assert got.phi_used == phi_used
            assert got.feasible is feasible

    def test_examples_cover_each_branch(self):
        assert _greedy_loop(*_FAIL) is None
        assert _assign_cores_loop(*_FAIL)[1:] == (1024.0, True)
        assert _assign_cores_loop(*_FULL_HOME)[0][0].tolist() == [2, 0]
        assert _assign_cores_loop(*_INFEASIBLE)[1:] == (np.inf, False)

    def test_unchanged_set_not_rerun(self):
        """A doubling that keeps the data-intensive set skips the greedy
        run, which would fail again, and still doubles phi."""
        runs = []

        def counted(*args):
            runs.append(args[-1])
            return _greedy(*args)

        with patch.object(assignment, "_greedy", counted):
            res = _assign_cores_at(*_REPEATED)
        assert runs == [1.0, 8.0, 1024.0]
        assert (res.phi_used, res.feasible) == _assign_cores_loop(*_REPEATED)[1:] == (1024.0, True)

    @given(
        cores=st.lists(st.integers(0, 4), min_size=1, max_size=6),
        k=st.lists(st.integers(0, 6), min_size=1, max_size=7),
    )
    @settings(max_examples=300, deadline=None)
    def test_naive_matches_loop(self, cores, k):
        cores = np.array(cores, dtype=np.int64)
        k = _fit(k, int(cores.sum()))
        X_old = np.zeros((len(cores), len(k)), dtype=np.int64)
        res = assign_cores_naive(k, X_old, cores, np.ones(len(k)))
        assert np.array_equal(res.X, _naive_loop(k, cores))
        assert res.X.dtype == np.int64


class TestAssignCores:
    def _base(self, m=3, n=4):
        X_old = np.zeros((n, m), dtype=np.int64)
        for j in range(m):
            X_old[j % n, j] = 1
        return X_old

    def test_realises_allocation(self):
        X_old = self._base()
        k = np.array([4, 2, 1])
        res = assign_cores(
            k,
            X_old,
            simple_cluster(),
            state_bytes=np.full(3, 1e6),
            local_node=np.array([0, 1, 2]),
            data_intensity=np.zeros(3),
        )
        assert np.array_equal(res.X.sum(axis=0), k)
        assert res.feasible

    def test_respects_node_capacity(self):
        X_old = self._base()
        k = np.array([10, 10, 10])
        res = assign_cores(
            k,
            X_old,
            simple_cluster(4, 8),
            np.full(3, 1e6),
            np.array([0, 1, 2]),
            np.zeros(3),
        )
        assert (res.X.sum(axis=1) <= 8).all()

    def test_over_capacity_raises(self):
        with pytest.raises(ValueError):
            assign_cores(
                np.array([100]),
                np.zeros((2, 1), dtype=np.int64),
                np.array([4, 4]),
                np.array([1.0]),
                np.array([0]),
                np.array([0.0]),
            )

    def test_prefers_growing_where_state_lives(self):
        # Non-intensive executor growing by 1: cheapest is its own node.
        X_old = np.array([[2, 1], [0, 1], [0, 0], [0, 0]], dtype=np.int64)
        res = assign_cores(
            np.array([3, 2]),
            X_old,
            simple_cluster(),
            np.array([1e6, 1e6]),
            np.array([0, 1]),
            np.zeros(2),
        )
        assert res.X[0, 0] == 3  # grew on node 0
        assert migration_cost_bytes(res.X, X_old, np.array([1e6, 1e6])) == 0.0

    def test_data_intensive_stays_local(self):
        # Executor 0 is data-intensive: all its cores must be on node 0.
        X_old = self._base(m=2)
        res = assign_cores(
            np.array([5, 2]),
            X_old,
            simple_cluster(),
            np.array([1e6, 1e6]),
            np.array([0, 1]),
            data_intensity=np.array([1e9, 0.0]),
        )
        assert res.X[0, 0] == 5
        assert res.X[1:, 0].sum() == 0

    def test_phi_doubles_when_local_infeasible(self):
        # Two intensive executors share a home that cannot hold both
        # allocations: phi must relax for a feasible result.
        X_old = np.zeros((2, 2), dtype=np.int64)
        X_old[0, 0] = X_old[0, 1] = 1
        res = assign_cores(
            np.array([3, 3]),
            X_old,
            np.array([4, 4]),
            np.array([1e6, 1e6]),
            np.array([0, 0]),
            data_intensity=np.array([1e9, 1e9]),
        )
        assert np.array_equal(res.X.sum(axis=0), [3, 3])
        assert res.phi_used > 512 * 1024.0

    def test_deallocates_over_provisioned(self):
        X_old = np.zeros((2, 2), dtype=np.int64)
        X_old[0, 0] = 4
        X_old[1, 1] = 1
        res = assign_cores(
            np.array([1, 3]),
            X_old,
            np.array([4, 4]),
            np.array([1e6, 1e6]),
            np.array([0, 1]),
            np.zeros(2),
        )
        assert np.array_equal(res.X.sum(axis=0), [1, 3])

    def test_migration_bytes_reported(self):
        X_old = np.zeros((2, 1), dtype=np.int64)
        X_old[0, 0] = 2
        res = assign_cores(
            np.array([4]),
            X_old,
            np.array([2, 4]),
            np.array([100.0]),
            np.array([0]),
            np.zeros(1),
        )
        # forced to grow on node 1 → half the state migrates
        assert migration_cost_bytes(res.X, X_old, np.array([100.0])) == pytest.approx(50.0)

    @given(
        seed=st.integers(min_value=0, max_value=200),
        m=st.integers(min_value=1, max_value=6),
        n=st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_valid_assignment(self, seed, m, n):
        rng = np.random.default_rng(seed)
        cores = np.full(n, 4, dtype=np.int64)
        X_old = np.zeros((n, m), dtype=np.int64)
        for j in range(m):
            # place the initial core on a node with capacity left
            open_nodes = np.flatnonzero(X_old.sum(axis=1) < cores)
            X_old[int(rng.choice(open_nodes)), j] = 1
        total = int(cores.sum())
        k = np.ones(m, dtype=np.int64)
        extra = max(0, min(total - m, int(rng.integers(0, total - m + 1))))
        for _ in range(extra):
            k[int(rng.integers(0, m))] += 1
        res = assign_cores(
            k,
            X_old,
            cores,
            rng.random(m) * 1e6,
            rng.integers(0, n, m),
            rng.random(m) * 1e6,
        )
        assert np.array_equal(res.X.sum(axis=0), k)
        assert (res.X.sum(axis=1) <= cores).all()
        assert (res.X >= 0).all()


class TestNaive:
    def test_realises_allocation(self):
        X_old = np.zeros((4, 3), dtype=np.int64)
        res = assign_cores_naive(
            np.array([5, 3, 2]), X_old, simple_cluster(), np.full(3, 1e6)
        )
        assert np.array_equal(res.X.sum(axis=0), [5, 3, 2])
        assert (res.X.sum(axis=1) <= 8).all()

    def test_ignores_existing_assignment(self):
        # Packing is deterministic in k, regardless of X_old.
        k = np.array([3, 3])
        a = assign_cores_naive(k, np.zeros((4, 2), dtype=np.int64), simple_cluster(), np.ones(2))
        X_other = np.zeros((4, 2), dtype=np.int64)
        X_other[3, 0] = 3
        X_other[2, 1] = 3
        b = assign_cores_naive(k, X_other, simple_cluster(), np.ones(2))
        assert np.array_equal(a.X, b.X)
        assert migration_cost_bytes(b.X, X_other, np.ones(2)) > 0  # …so it churns state

    def test_stable_k_stable_packing(self):
        k = np.array([4, 4])
        first = assign_cores_naive(k, np.zeros((4, 2), dtype=np.int64), simple_cluster(), np.ones(2))
        again = assign_cores_naive(k, first.X, simple_cluster(), np.ones(2))
        assert migration_cost_bytes(again.X, first.X, np.ones(2)) == 0.0

    def test_k_shift_cascades(self):
        # Growing executor 0 shifts every later executor's packing.
        cluster = np.full(8, 2, dtype=np.int64)
        k1 = np.array([2, 2, 2, 2])
        base = assign_cores_naive(k1, np.zeros((8, 4), dtype=np.int64), cluster, np.ones(4))
        k2 = np.array([4, 2, 2, 2])
        shifted = assign_cores_naive(k2, base.X, cluster, np.ones(4))
        assert migration_cost_bytes(shifted.X, base.X, np.ones(4)) > 0

    def test_over_capacity_raises(self):
        with pytest.raises(ValueError):
            assign_cores_naive(
                np.array([100]), np.zeros((2, 1), dtype=np.int64), np.array([4, 4]), np.ones(1)
            )
