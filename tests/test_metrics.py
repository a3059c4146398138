"""Tests for run-metric aggregation (the quantities the tables report)."""
import math

import pytest

from repro.engine.metrics import EpochMetrics, RunResult


def make_result(n=10, warmup=2, **overrides):
    r = RunResult("test", warmup=warmup)
    for i in range(n):
        e = EpochMetrics(epoch=i, offered=100.0, processed=80.0, latency_ms=10.0)
        for k, v in overrides.items():
            setattr(e, k, v)
        r.epochs.append(e)
    return r


class TestSummaries:
    def test_throughput_excludes_warmup(self):
        r = make_result(n=10, warmup=2)
        r.epochs[0].processed = 1e9  # garbage during warmup must not count
        assert r.throughput_tps() == pytest.approx(80.0)

    def test_avg_latency_processing_weighted(self):
        r = RunResult("t", warmup=0)
        r.epochs.append(EpochMetrics(0, processed=100.0, latency_ms=10.0))
        r.epochs.append(EpochMetrics(1, processed=300.0, latency_ms=50.0))
        assert r.avg_latency_ms() == pytest.approx((100 * 10 + 300 * 50) / 400)

    def test_latency_skips_idle_epochs(self):
        r = RunResult("t", warmup=0)
        r.epochs.append(EpochMetrics(0, processed=0.0, latency_ms=999.0))
        r.epochs.append(EpochMetrics(1, processed=10.0, latency_ms=5.0))
        assert r.avg_latency_ms() == pytest.approx(5.0)

    def test_latency_infinite_when_nothing_processed(self):
        r = make_result(n=3, warmup=0, processed=0.0)
        assert math.isinf(r.avg_latency_ms())

    def test_migration_rate_mbps(self):
        r = make_result(n=7, warmup=2, migrated_bytes=5e6)
        assert r.migration_rate_mbps() == pytest.approx(5.0)

    def test_remote_rate_mbps(self):
        r = make_result(n=6, warmup=2, remote_bytes=2e6)
        assert r.remote_rate_mbps() == pytest.approx(2.0)

    def test_sched_ms_averages_nonzero_epochs(self):
        r = RunResult("t", warmup=0)
        r.epochs.append(EpochMetrics(0, sched_ms=4.0))
        r.epochs.append(EpochMetrics(1, sched_ms=0.0))
        r.epochs.append(EpochMetrics(2, sched_ms=6.0))
        assert r.avg_sched_ms() == pytest.approx(5.0)

    def test_shed_fraction(self):
        r = make_result(n=4, warmup=0, shed=25.0)
        assert r.shed_fraction() == pytest.approx(0.25)

    def test_short_run_uses_all_epochs(self):
        r = make_result(n=2, warmup=5)
        assert r.throughput_tps() == pytest.approx(80.0)

    def test_to_frame_columns(self):
        df = make_result().to_frame()
        for col in ("epoch", "processed", "latency_ms", "migrated_bytes", "sched_ms"):
            assert col in df.columns
        assert len(df) == 10

    def test_summary_keys(self):
        s = make_result().summary()
        assert s["paradigm"] == "test"
        assert set(s) >= {
            "throughput_tps", "avg_latency_ms", "migration_rate_mbps",
            "remote_rate_mbps", "avg_sched_ms", "shed_fraction",
        }

    def test_empty_run(self):
        r = RunResult("t")
        assert r.throughput_tps() == 0.0
        assert r.migration_rate_mbps() == 0.0
        assert r.shed_fraction() == 0.0
