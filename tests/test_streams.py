"""Tests for the workload stream generators (micro + SSE)."""
import numpy as np
import pytest

from repro.streams.microbench import micro_trace, shuffle_epochs, zipf_weights
from repro.streams.sse import ORDER_BYTES, sse_orders_pdf, sse_trace


class TestZipfWeights:
    def test_normalised(self):
        assert zipf_weights(100, 0.5).sum() == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        w = zipf_weights(50, 0.8)
        assert (np.diff(w) <= 0).all()

    def test_zero_skew_uniform(self):
        w = zipf_weights(10, 0.0)
        assert np.allclose(w, 0.1)

    def test_paper_skew_top_key_share(self):
        # zipf 0.5 over 10K keys: top key ≈ 0.5 % of the stream.
        w = zipf_weights(10_000, 0.5)
        assert 0.003 < w[0] < 0.007

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 0.5)


class TestShuffleEpochs:
    def test_omega_zero_never(self):
        assert shuffle_epochs(100, 0.0) == []

    def test_omega_two_every_30s(self):
        # ω=2 → one shuffle every 30 s (§5.1).
        out = shuffle_epochs(90, 2.0)
        assert out == [29, 59, 89]

    def test_omega_sixteen_density(self):
        out = shuffle_epochs(60, 16.0)
        # 16/min = every 3.75 s → 16 shuffle epochs in 60 s
        assert len(out) == 16

    def test_at_most_one_per_epoch(self):
        out = shuffle_epochs(10, 600.0)
        assert out == sorted(set(out))


class TestMicroTrace:
    def test_shape_and_rate(self):
        t = micro_trace(n_epochs=10, rate=5000, n_keys=100, omega=0, seed=0)
        assert t.counts.shape == (10, 100)
        assert t.counts.sum(axis=1).tolist() == [5000] * 10

    def test_deterministic_in_seed(self):
        a = micro_trace(n_epochs=5, rate=1000, n_keys=50, omega=2, seed=42)
        b = micro_trace(n_epochs=5, rate=1000, n_keys=50, omega=2, seed=42)
        assert np.array_equal(a.counts, b.counts)

    def test_different_seeds_differ(self):
        a = micro_trace(n_epochs=5, rate=1000, n_keys=50, omega=2, seed=1)
        b = micro_trace(n_epochs=5, rate=1000, n_keys=50, omega=2, seed=2)
        assert not np.array_equal(a.counts, b.counts)

    def test_shuffle_moves_hot_keys(self):
        t = micro_trace(n_epochs=62, rate=50_000, n_keys=100, skew=1.2, omega=2, seed=0)
        hot_before = int(t.counts[:29].sum(axis=0).argmax())
        hot_after = int(t.counts[30:58].sum(axis=0).argmax())
        assert hot_before != hot_after

    def test_no_shuffle_stable_distribution(self):
        t = micro_trace(n_epochs=30, rate=50_000, n_keys=100, skew=1.2, omega=0, seed=0)
        hot = t.counts.sum(axis=0).argmax()
        per_epoch_hot = t.counts.argmax(axis=1)
        assert (per_epoch_hot == hot).mean() > 0.9

    def test_defaults_match_paper(self):
        t = micro_trace(n_epochs=1, rate=10)
        assert t.tuple_bytes == 128
        assert t.cpu_cost_ms == 1.0
        assert t.n_keys == 10_000

    def test_total_tuples(self):
        t = micro_trace(n_epochs=4, rate=100, n_keys=10, omega=0)
        assert t.total_tuples() == 400


class TestSSETrace:
    def test_shape_and_bytes(self):
        t = sse_trace(n_epochs=5, rate=1000, n_stocks=100, seed=0)
        assert t.counts.shape == (5, 100)
        assert t.tuple_bytes == ORDER_BYTES

    def test_deterministic(self):
        a = sse_trace(n_epochs=5, rate=1000, n_stocks=100, seed=9)
        b = sse_trace(n_epochs=5, rate=1000, n_stocks=100, seed=9)
        assert np.array_equal(a.counts, b.counts)

    def test_rate_modulation_bounded(self):
        t = sse_trace(n_epochs=60, rate=10_000, n_stocks=200, seed=0)
        sums = t.counts.sum(axis=1)
        assert sums.min() > 10_000 * 0.75
        assert sums.max() < 10_000 * 1.25

    def test_no_stock_exceeds_single_core_share(self):
        """Calibration invariant: a single stock (key) must stay within
        one matching core's capacity — ordered stateful processing
        cannot parallelise one key (§2.1)."""
        t = sse_trace(n_epochs=60, rate=150_000, n_stocks=2000, seed=17)
        per_core = 1000.0 / t.cpu_cost_ms
        assert t.counts.max() < per_core

    def test_bursts_change_hot_set(self):
        t = sse_trace(n_epochs=40, rate=50_000, n_stocks=500, seed=3)
        top_early = set(np.argsort(-t.counts[:5].sum(axis=0))[:20])
        top_late = set(np.argsort(-t.counts[35:].sum(axis=0))[:20])
        assert top_early != top_late


class TestSSEOrders:
    def test_schema(self):
        pdf = sse_orders_pdf(n_epochs=3, rate=500, n_stocks=20, seed=1)
        assert list(pdf.columns) == [
            "epoch", "seq", "stock", "side", "price", "volume", "trader",
        ]
        assert set(pdf["side"].unique()) <= {"B", "S"}

    def test_seq_strictly_increasing(self):
        pdf = sse_orders_pdf(n_epochs=3, rate=500, n_stocks=20, seed=1)
        assert pdf["seq"].is_monotonic_increasing
        assert pdf["seq"].nunique() == len(pdf)

    def test_positive_prices_and_volumes(self):
        pdf = sse_orders_pdf(n_epochs=2, rate=300, n_stocks=10, seed=2)
        assert (pdf["price"] > 0).all()
        assert (pdf["volume"] > 0).all()

    def test_deterministic(self):
        a = sse_orders_pdf(n_epochs=2, rate=200, n_stocks=10, seed=5)
        b = sse_orders_pdf(n_epochs=2, rate=200, n_stocks=10, seed=5)
        assert a.equals(b)

    def test_epochs_ordered(self):
        pdf = sse_orders_pdf(n_epochs=4, rate=100, n_stocks=5, seed=1)
        assert pdf["epoch"].is_monotonic_increasing
