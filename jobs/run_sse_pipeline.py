"""Run the SSE application data plane end to end on Spark: synthetic
order stream → limit-order-book transactor (one mapInPandas matcher per
stock partition) → three statistics operators (composite index,
per-stock stats, moving average) and two event operators (price alarms,
large trades) in Spark SQL, printing a sample of each output.

Usage: ``spark-submit jobs/run_sse_pipeline.py [n_epochs] [rate]``
"""
from __future__ import annotations

import sys

from pyspark.sql import functions as F

from _common import get_spark
from repro.sse_app import analytics, events
from repro.sse_app.transactor import transactions
from repro.streams.sse import sse_orders_pdf


def main() -> None:
    n_epochs = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    rate = float(sys.argv[2]) if len(sys.argv) > 2 else 5000.0
    spark = get_spark("sse-pipeline")
    orders = spark.createDataFrame(
        sse_orders_pdf(n_epochs=n_epochs, rate=rate, n_stocks=200)
    ).cache()
    tx = transactions(orders).cache()
    print(f"orders={orders.count()} transactions={tx.count()}")
    print("\n== composite index (first epochs) ==")
    analytics.composite_index(tx).orderBy("epoch").show(5)
    print("== per-stock stats (top by turnover) ==")
    analytics.stock_stats(tx).orderBy(F.desc("turnover")).show(5)
    print("== moving average (sample) ==")
    analytics.moving_average(tx).orderBy("stock", "epoch").show(5)
    thresholds = tx.groupBy("stock").agg(
        (F.avg("price") * 1.01).alias("threshold")
    )
    print("== price alarms ==")
    events.price_alarms(tx, thresholds).show(5)
    print("== large trades ==")
    events.large_trades(tx).show(5)
    spark.stop()


if __name__ == "__main__":
    main()
