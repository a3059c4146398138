"""Benchmark of the SSE data plane on Spark: order matching (one
``mapInPandas`` matcher per stock partition) plus the analytics aggregations, at benchmark scale
(~SF 0.1-equivalent order volume).

Run: ``pytest benchmarks/bench_sse_pipeline.py --benchmark-only``
"""
import pytest
from pyspark.sql import functions as F

from repro.sse_app import analytics
from repro.sse_app.transactor import transactions
from repro.streams.sse import sse_orders_pdf


@pytest.mark.benchmark(group="sse-pipeline")
def test_sse_matching_throughput(benchmark, spark, capsys):
    orders = spark.createDataFrame(
        sse_orders_pdf(n_epochs=30, rate=10_000, n_stocks=500, seed=17)
    ).cache()
    n_orders = orders.count()  # materialise outside the timed region

    def run():
        tx = transactions(orders)
        return tx.count()

    n_tx = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    with capsys.disabled():
        print(f"\n== SSE data plane: {n_orders} orders -> {n_tx} fills ==")
    assert n_tx > 0


@pytest.mark.benchmark(group="sse-pipeline")
def test_sse_analytics_throughput(benchmark, spark, capsys):
    orders = spark.createDataFrame(
        sse_orders_pdf(n_epochs=30, rate=10_000, n_stocks=500, seed=17)
    )
    tx = transactions(orders).cache()
    tx.count()

    def run():
        a = analytics.stock_stats(tx).agg(F.sum("n_trades")).collect()[0][0]
        b = analytics.composite_index(tx).count()
        c = analytics.moving_average(tx).count()
        return a, b, c

    a, b, c = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    with capsys.disabled():
        print(f"\n== SSE analytics: {a} trades, {b} index points, {c} MA rows ==")
    assert a > 0 and b > 0 and c > 0
