"""Unit tests for Algorithm 1 (CPU-to-executor assignment, §4.2) and
the naive-EC assignment."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import (
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
        assert res.migration_bytes == 0.0

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
            phi=512 * 1024.0,
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
            phi=512 * 1024.0,
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
        assert res.migration_bytes == pytest.approx(50.0)

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
        assert b.migration_bytes > 0  # …so it churns state

    def test_stable_k_stable_packing(self):
        k = np.array([4, 4])
        first = assign_cores_naive(k, np.zeros((4, 2), dtype=np.int64), simple_cluster(), np.ones(2))
        again = assign_cores_naive(k, first.X, simple_cluster(), np.ones(2))
        assert again.migration_bytes == 0.0

    def test_k_shift_cascades(self):
        # Growing executor 0 shifts every later executor's packing.
        cluster = np.full(8, 2, dtype=np.int64)
        k1 = np.array([2, 2, 2, 2])
        base = assign_cores_naive(k1, np.zeros((8, 4), dtype=np.int64), cluster, np.ones(4))
        k2 = np.array([4, 2, 2, 2])
        shifted = assign_cores_naive(k2, base.X, cluster, np.ones(4))
        assert shifted.migration_bytes > 0

    def test_over_capacity_raises(self):
        with pytest.raises(ValueError):
            assign_cores_naive(
                np.array([100]), np.zeros((2, 1), dtype=np.int64), np.array([4, 4]), np.ones(1)
            )
