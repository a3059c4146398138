"""Unit + property tests for the intra-executor load balancer (§3.1)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.load_balancer import imbalance, rebalance, task_loads


class TestImbalance:
    def test_balanced_is_one(self):
        assert imbalance(np.array([5.0, 5.0, 5.0])) == pytest.approx(1.0)

    def test_paper_delta_definition(self):
        # δ = max / mean  (§3.1)
        assert imbalance(np.array([9.0, 1.0, 2.0])) == pytest.approx(9.0 / 4.0)

    def test_idle_executor(self):
        assert imbalance(np.array([0.0, 0.0])) == 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            imbalance(np.array([]))


class TestTaskLoads:
    def test_aggregation(self):
        loads = np.array([1.0, 2.0, 3.0, 4.0])
        assign = np.array([0, 1, 0, 1])
        assert np.array_equal(task_loads(loads, assign, 2), [4.0, 6.0])

    def test_empty_tasks_zero(self):
        tl = task_loads(np.array([1.0]), np.array([0]), 3)
        assert np.array_equal(tl, [1.0, 0.0, 0.0])


class TestRebalance:
    def test_reaches_theta(self):
        rng = np.random.default_rng(0)
        loads = rng.random(64)
        assign = np.zeros(64, dtype=np.int64)  # everything on task 0
        new, moves = rebalance(loads, assign, 4, theta=1.2)
        assert imbalance(task_loads(loads, new, 4)) < 1.2
        assert moves

    def test_already_balanced_no_moves(self):
        loads = np.ones(8)
        assign = np.arange(8) % 4
        new, moves = rebalance(loads, assign, 4)
        assert moves == []
        assert np.array_equal(new, assign)

    def test_moves_are_consistent_with_result(self):
        rng = np.random.default_rng(1)
        loads = rng.random(32)
        assign = np.zeros(32, dtype=np.int64)
        new, moves = rebalance(loads, assign, 3)
        replay = assign.copy()
        for mv in moves:
            assert replay[mv.shard] == mv.src
            replay[mv.shard] = mv.dst
        assert np.array_equal(replay, new)

    def test_input_not_mutated(self):
        loads = np.array([5.0, 1.0, 1.0, 1.0])
        assign = np.zeros(4, dtype=np.int64)
        orig = assign.copy()
        rebalance(loads, assign, 2)
        assert np.array_equal(assign, orig)

    def test_irreducible_skew_terminates(self):
        # One shard holds nearly all load: δ cannot reach θ, but the
        # algorithm must stop without futile oscillation.
        loads = np.array([100.0] + [0.1] * 15)
        assign = np.arange(16) % 4
        new, moves = rebalance(loads, assign, 4)
        assert len(moves) <= 16

    def test_zero_load_shards_never_move(self):
        loads = np.array([10.0, 0.0, 0.0, 0.0])
        assign = np.zeros(4, dtype=np.int64)
        _, moves = rebalance(loads, assign, 2)
        assert all(loads[m.shard] > 0 for m in moves)

    def test_single_task_noop(self):
        loads = np.array([1.0, 2.0])
        new, moves = rebalance(loads, np.zeros(2, dtype=np.int64), 1)
        assert moves == []

    def test_bad_inputs_raise(self):
        with pytest.raises(ValueError):
            rebalance(np.ones(3), np.zeros(2, dtype=np.int64), 2)
        with pytest.raises(ValueError):
            rebalance(np.ones(2), np.array([0, 5]), 2)
        with pytest.raises(ValueError):
            rebalance(np.ones(2), np.zeros(2, dtype=np.int64), 0)

    @given(
        n_shards=st.integers(min_value=1, max_value=60),
        n_tasks=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_never_worse(self, n_shards, n_tasks, seed):
        rng = np.random.default_rng(seed)
        loads = rng.random(n_shards) * 10
        assign = rng.integers(0, n_tasks, n_shards)
        before = imbalance(task_loads(loads, assign, n_tasks))
        new, moves = rebalance(loads, assign, n_tasks)
        after = imbalance(task_loads(loads, new, n_tasks))
        assert after <= before + 1e-9

    @given(
        n_tasks=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_theta_or_irreducible(self, n_tasks, seed):
        # Either δ < θ, or a single shard exceeds θ·mean (irreducible),
        # or no single move improves δ (local optimum of the heuristic).
        rng = np.random.default_rng(seed)
        loads = rng.random(48)
        assign = rng.integers(0, n_tasks, 48)
        new, _ = rebalance(loads, assign, n_tasks, theta=1.2)
        tl = task_loads(loads, new, n_tasks)
        mean = tl.mean()
        if imbalance(tl) >= 1.2:
            assert loads.max() >= 1.2 * mean - 1e-9

