"""Unit + property tests for the intra-executor load balancer (§3.1)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.load_balancer import imbalance, rebalance, rebalance_many, task_loads


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



def _row_loads(rng: np.random.Generator, z: int, kind: str) -> np.ndarray:
    """Shard loads of one executor: plain, half zero, tiny (subnormal
    up), repeated decimals whose running sums round, or tiny signed
    loads that leave task loads below zero."""
    if kind == "plain":
        return rng.random(z) * 10
    if kind == "zeros":
        return np.where(rng.random(z) < 0.5, 0.0, rng.random(z))
    if kind == "tiny":
        return rng.random(z) * 10.0 ** rng.integers(-320, -10)
    if kind == "decimals":
        return rng.choice([0.1, 0.2, 0.3, 0.7, 1e-17, 0.0], z)
    return rng.normal(size=z) * 1e-17


class TestRebalanceMany:
    """The lockstep batch against the one-row loop, row by row."""

    @staticmethod
    def check(rows, theta, pad=0, seed=0):
        """``rows`` = [(k, z, kind)]; pads each row to the widest z plus
        ``pad`` with garbage the batch must ignore."""
        rng = np.random.default_rng(seed)
        width = max(z for _, z, _ in rows) + pad
        loads = rng.random((len(rows), width)) * 100  # padding: ignored
        assign = rng.integers(-5, 50, (len(rows), width))
        for r, (k, z, kind) in enumerate(rows):
            loads[r, :z] = _row_loads(rng, z, kind)
            assign[r, :z] = rng.integers(0, k, z) if rng.random() < 0.7 else 0
        k = np.array([k for k, _, _ in rows])
        z = np.array([z for _, z, _ in rows])
        before = (loads.copy(), assign.copy())
        new, moves = rebalance_many(loads, assign, k, z, theta)
        assert np.array_equal(loads, before[0]) and np.array_equal(assign, before[1])
        assert moves.dtype == np.int64 and moves.shape[1] == 4
        assert (np.diff(moves[:, 0]) >= 0).all()  # row-major
        for r in range(len(rows)):
            want, want_moves = rebalance(loads[r, : z[r]], assign[r, : z[r]], int(k[r]), theta)
            assert np.array_equal(new[r, : z[r]], want)
            assert np.array_equal(new[r, z[r] :], assign[r, z[r] :])  # padding copied through
            assert moves[moves[:, 0] == r, 1:].tolist() == [list(mv) for mv in want_moves]
        return new, moves

    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 20]),
                st.integers(min_value=0, max_value=48),
                st.sampled_from(["plain", "zeros", "tiny", "decimals", "signed"]),
            ),
            min_size=1,
            max_size=12,
        ),
        theta=st.sampled_from([1.0, 1.05, 1.2, 2.0]),
        pad=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_loop(self, rows, theta, pad, seed):
        self.check(rows, theta, pad, seed)

    def test_mixed_blocks(self):
        """Rows below and above the pairwise-sum width, of every k from
        1 to 12, in one call; the engine's shape mostly moves shards."""
        rows = [(k, z, "plain") for k in range(1, 13) for z in (0, 3, 32)]
        _, moves = self.check(rows, 1.2, pad=2)
        assert len(moves) > 0

    @pytest.mark.parametrize("k", [8, 9, 11, 13])
    def test_theta_at_exact_delta(self, k):
        """θ set to a row's δ bit for bit, next to a row of 20 tasks:
        the row moves only if its mean is ``np.mean``'s to the last bit,
        which a pairwise sum over zero padding to 16 or more values is
        not always."""
        rng = np.random.default_rng(k)
        for _ in range(40):
            z = 3 * k
            loads = np.zeros((2, 40))
            assign = np.zeros((2, 40), dtype=np.int64)
            loads[0, :z] = rng.random(z) * 10.0 ** rng.integers(-3, 4, z)
            assign[0, :z] = rng.integers(0, k, z)
            loads[1, :40], assign[1, :40] = rng.random(40), rng.integers(0, 20, 40)
            tl = task_loads(loads[0, :z], assign[0, :z], k)
            theta = float(tl.max() / tl.mean())
            new, moves = rebalance_many(loads, assign, np.array([k, 20]), np.array([z, 40]), theta)
            want, want_moves = rebalance(loads[0, :z], assign[0, :z], k, theta)
            assert np.array_equal(new[0, :z], want)
            assert moves[moves[:, 0] == 0, 1:].tolist() == [list(mv) for mv in want_moves]

    def test_no_improving_move(self):
        """δ ≥ θ, yet moving the one big shard only raises δ: no move,
        in the batch as in the loop."""
        loads = np.array([[10.0, 1.0], [3.0, 1.0]])
        assign = np.array([[0, 1], [0, 0]])
        new, moves = rebalance_many(loads, assign, np.array([2, 2]), np.array([2, 2]))
        assert moves.tolist() == [[1, 0, 0, 1]]
        assert new.tolist() == [[0, 1], [1, 0]]

    def test_empty_batch(self):
        new, moves = rebalance_many(np.empty((0, 4)), np.empty((0, 4), dtype=np.int64), [], [])
        assert new.shape == (0, 4) and moves.shape == (0, 4)

    def test_bad_inputs_raise(self):
        one, two = np.array([2]), np.array([2])
        with pytest.raises(ValueError):  # misaligned
            rebalance_many(np.ones((1, 3)), np.zeros((1, 2), dtype=np.int64), one, two)
        with pytest.raises(ValueError):  # task out of range
            rebalance_many(np.ones((1, 2)), np.array([[0, 5]]), one, two)
        with pytest.raises(ValueError):  # no task
            rebalance_many(np.ones((1, 2)), np.zeros((1, 2), dtype=np.int64), np.array([0]), two)
        with pytest.raises(ValueError):  # one row, not a batch
            rebalance_many(np.ones(2), np.zeros(2, dtype=np.int64), one, two)
        with pytest.raises(ValueError):  # one k per row
            rebalance_many(np.ones((1, 2)), np.zeros((1, 2), dtype=np.int64), np.array([2, 2]), two)
        with pytest.raises(ValueError):  # more shards than the row holds
            rebalance_many(np.ones((1, 2)), np.zeros((1, 2), dtype=np.int64), one, np.array([3]))
        # a task id past k in the padding is ignored
        new, _ = rebalance_many(np.ones((1, 2)), np.array([[0, 5]]), one, np.array([1]))
        assert new.tolist() == [[0, 5]]
