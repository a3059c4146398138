"""Unit tests for key → executor/shard hashing, including the
NumPy-vs-Spark-SQL equivalence of the splitmix hash."""
import warnings

import numpy as np
import pytest

from repro.core import shards


class TestHashing:
    def test_deterministic(self):
        keys = np.arange(1000)
        a = shards.key_to_shard(keys, 64)
        b = shards.key_to_shard(keys, 64)
        assert np.array_equal(a, b)

    def test_range(self):
        keys = np.arange(10_000)
        s = shards.key_to_shard(keys, 37)
        assert s.min() >= 0 and s.max() < 37
        e = shards.key_to_executor(keys, 13)
        assert e.min() >= 0 and e.max() < 13

    def test_scalar_input(self):
        assert isinstance(shards.key_to_shard(42, 8), int)
        assert 0 <= shards.key_to_executor(42, 8) < 8

    def test_covers_all_shards(self):
        s = shards.key_to_shard(np.arange(10_000), 64)
        assert len(np.unique(s)) == 64

    def test_roughly_uniform(self):
        s = shards.key_to_shard(np.arange(100_000), 16)
        counts = np.bincount(s, minlength=16)
        assert counts.min() > 0.9 * counts.mean()
        assert counts.max() < 1.1 * counts.mean()

    def test_tiers_are_decorrelated(self):
        # Keys of one executor must spread over all shards, not a subset.
        keys = np.arange(100_000)
        e = shards.key_to_executor(keys, 8)
        mine = keys[e == 3]
        local = shards.key_to_shard(mine, 32)
        assert len(np.unique(local)) == 32

    def test_global_shard_composition(self):
        keys = np.arange(5000)
        g = shards.global_shard(keys, 4, 16)
        e = shards.key_to_executor(keys, 4)
        s = shards.key_to_shard(keys, 16)
        assert np.array_equal(g, e * 16 + s)
        assert g.max() < 64

    def test_invalid_counts_raise(self):
        with pytest.raises(ValueError):
            shards.key_to_shard(np.array([1]), 0)
        with pytest.raises(ValueError):
            shards.key_to_executor(np.array([1]), -1)


class TestScalarTwin:
    """One integer key hashes through the Python-int twin of ``_xxh64``
    in :func:`key_to_shard`; it must agree bit for bit with the NumPy
    path, the reference."""

    EDGES = [-(2**63), -1, 0, 2**63 - 1, 2**63, 2**64 - 1]

    @staticmethod
    def as_u64(keys):
        """The keys as NumPy casts them to uint64 (two's complement)."""
        return np.array([k % 2**64 for k in keys], dtype=np.uint64)

    @pytest.mark.parametrize("n", [1, 7, 64, 256])
    @pytest.mark.parametrize("salt", [0x51ED, 0, 0xDEADBEEF, 2**64 - 1])
    def test_key_to_shard_matches_numpy(self, n, salt):
        keys = list(range(-1000, 100_000)) + self.EDGES
        expected = shards.key_to_shard(self.as_u64(keys), n, salt).tolist()
        assert [shards.key_to_shard(k, n, salt) for k in keys] == expected

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_numpy_integer_scalars(self, dtype):
        info = np.iinfo(dtype)
        keys = [info.min, info.max, 0, 1, 12345]
        for n in (7, 256):
            expected = shards.key_to_shard(np.array(keys, dtype=dtype), n).tolist()
            assert [shards.key_to_shard(dtype(k), n) for k in keys] == expected

    def test_scalar_results_are_python_ints(self):
        for k in [5, np.int64(5), np.uint64(5), np.int32(-5), 2**64 - 1]:
            assert isinstance(shards.key_to_shard(k, 8), int)

    @pytest.mark.parametrize("key", [2**64, 2**70, -(2**63) - 1, -(2**80)])
    def test_out_of_range_ints_raise(self, key):
        with pytest.raises(OverflowError):
            shards.key_to_shard(key, 8)


class TestScalarExecutor:
    """:func:`key_to_executor` has no scalar twin: one key takes the same
    NumPy path as an array of keys.  The scalar and array forms must
    agree, and a scalar result must be a Python ``int``."""

    @pytest.mark.parametrize("n", [1, 7, 64, 256])
    def test_matches_array(self, n):
        keys = list(range(-1000, 1000)) + TestScalarTwin.EDGES
        expected = shards.key_to_executor(TestScalarTwin.as_u64(keys), n).tolist()
        assert [shards.key_to_executor(k, n) for k in keys] == expected

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_numpy_integer_scalars(self, dtype):
        info = np.iinfo(dtype)
        keys = [info.min, info.max, 0, 1, 12345]
        for n in (7, 256):
            expected = shards.key_to_executor(np.array(keys, dtype=dtype), n).tolist()
            assert [shards.key_to_executor(dtype(k), n) for k in keys] == expected

    def test_scalar_results_are_python_ints(self):
        for k in [5, np.int64(5), np.uint64(5), np.int32(-5), 2**64 - 1]:
            assert isinstance(shards.key_to_executor(k, 8), int)

    @pytest.mark.parametrize("key", [2**64, 2**70, -(2**63) - 1, -(2**80)])
    def test_out_of_range_ints_raise(self, key):
        with pytest.raises(OverflowError):
            shards.key_to_executor(key, 8)

    def test_negative_ints_cast_without_warning(self):
        """Negative Python ints, alone or in a list, hash as their two's
        complement with no NumPy deprecation warning of the cast."""
        keys = [-1, -(2**63), 2**63 + 1, 5]
        want = TestScalarTwin.as_u64(keys)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert shards.key_to_executor(keys, 256).tolist() == shards.key_to_executor(want, 256).tolist()
            assert [shards.key_to_executor(k, 256) for k in keys] == shards.key_to_executor(want, 256).tolist()
            assert shards.key_to_shard(keys, 256).tolist() == shards.key_to_shard(want, 256).tolist()

    @pytest.mark.parametrize("keys", [[2**64], [-(2**63) - 1, 1]])
    def test_out_of_range_lists_raise(self, keys):
        for fn in (shards.key_to_executor, shards.key_to_shard):
            with pytest.raises(OverflowError):
                fn(keys, 8)


class TestSqlTwin:
    """The Spark SQL expressions must match NumPy bit-for-bit — shard
    histograms computed by Catalyst feed the same engine arithmetic."""

    @pytest.mark.parametrize("n", [2, 7, 32, 255, 8192])
    def test_shard_expr_matches_numpy(self, spark, n):
        keys = np.concatenate([np.arange(2000), [10**9, 10**12, 2**40 + 7]])
        import pandas as pd

        df = spark.createDataFrame(pd.DataFrame({"k": keys}))
        got = (
            df.selectExpr("k", f"{shards.shard_expr('k', n)} AS s")
            .toPandas()
            .sort_values("k")
        )
        expected = shards.key_to_shard(np.sort(keys), n)
        assert np.array_equal(got["s"].to_numpy(), expected)

    @pytest.mark.parametrize("n", [3, 8, 100])
    def test_executor_expr_matches_numpy(self, spark, n):
        import pandas as pd

        keys = np.arange(3000)
        df = spark.createDataFrame(pd.DataFrame({"k": keys}))
        got = (
            df.selectExpr("k", f"{shards.executor_expr('k', n)} AS e")
            .toPandas()
            .sort_values("k")
        )
        expected = shards.key_to_executor(keys, n)
        assert np.array_equal(got["e"].to_numpy(), expected)
