"""SSE data-plane tests on Spark: the transactor (order matching in one
``mapInPandas`` matcher per stock partition) and every statistics/event
operator, each diffed against a DuckDB twin through
``repro.oracle.assert_equivalent``."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent
from repro.sse_app import analytics, events
from repro.sse_app.order_book import OrderBook
from repro.sse_app.transactor import match_orders_pdf, transactions
from repro.streams.sse import sse_orders_pdf


@pytest.fixture(scope="module")
def orders_pdf():
    return sse_orders_pdf(n_epochs=8, rate=800, n_stocks=30, seed=11)


@pytest.fixture(scope="module")
def orders(spark, orders_pdf):
    return spark.createDataFrame(orders_pdf).cache()


@pytest.fixture(scope="module")
def tx(orders):
    return transactions(orders).cache()


@pytest.fixture(scope="module")
def tx_pdf(orders_pdf):
    """The pandas reference path: same matching code, single process."""
    return match_orders_pdf(orders_pdf)


class TestTransactor:
    def test_spark_matches_pandas_reference(self, tx, tx_pdf):
        got = tx.toPandas().sort_values(["stock", "seq", "price", "volume"]).reset_index(drop=True)
        exp = tx_pdf.sort_values(["stock", "seq", "price", "volume"]).reset_index(drop=True)
        exp = exp[got.columns]
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_produces_fills(self, tx):
        assert tx.count() > 0

    def test_fill_ratio_near_half(self, orders, tx):
        # the synthetic stream is calibrated so ~half the order flow crosses
        ratio = tx.count() / orders.count()
        assert 0.2 < ratio < 0.9

    def test_fill_prices_and_volumes_positive(self, tx):
        bad = tx.filter((F.col("volume") <= 0) | (F.col("price") <= 0)).count()
        assert bad == 0

    def test_volume_conservation_per_stock(self, orders_pdf, tx):
        """2·filled + resting == submitted, per stock: every submitted
        share is on one side of a Spark fill or still rests in the book
        of a single-process replay."""
        resting = {}
        for row in orders_pdf.sort_values("seq").itertuples(index=False):
            book = resting.setdefault(row.stock, OrderBook(row.stock))
            book.submit(row.side, row.price, row.volume, row.trader, row.seq)
        resting = pd.Series({k: sum(b.depth()) for k, b in resting.items()})
        submitted = orders_pdf.groupby("stock")["volume"].sum()
        filled = (
            tx.groupBy("stock").agg(F.sum("volume").alias("filled"))
            .toPandas().set_index("stock")["filled"]
            .reindex(submitted.index, fill_value=0)
        )
        assert (filled > 0).all()
        pd.testing.assert_series_equal(
            2 * filled + resting.reindex(submitted.index), submitted,
            check_names=False, check_dtype=False,
        )

    def test_fewer_stocks_than_partitions(self, spark, orders_pdf):
        """With 3 stocks over many shuffle partitions most matchers see no
        orders at all; the fills still equal the single-process ones.
        Arrow batches of 50 rows split each stock's orders over many
        batches, so this also checks that a matcher keeps its books from
        one batch of its partition to the next."""
        few = orders_pdf[orders_pdf["stock"] < 3]
        assert int(spark.conf.get("spark.sql.shuffle.partitions")) > 3
        assert few.groupby("stock").size().min() > 4 * 50
        batch_rows = "spark.sql.execution.arrow.maxRecordsPerBatch"
        old = spark.conf.get(batch_rows)
        spark.conf.set(batch_rows, "50")
        try:
            got = transactions(spark.createDataFrame(few)).toPandas()
        finally:
            spark.conf.set(batch_rows, old)
        key = ["stock", "seq", "price", "volume", "buyer", "seller"]
        got = got.sort_values(key).reset_index(drop=True)
        exp = match_orders_pdf(few).sort_values(key).reset_index(drop=True)
        assert len(exp) > 0
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)


class TestAnalyticsOracle:
    def test_stock_stats(self, tx):
        assert_equivalent(
            analytics.stock_stats(tx),
            """
            SELECT stock,
                   count(*) AS n_trades,
                   sum(volume) AS total_volume,
                   round(sum(price * volume), 4) AS turnover
            FROM tx GROUP BY stock
            """,
            tx=tx,
        )

    def test_vwap_per_epoch(self, tx):
        assert_equivalent(
            analytics.vwap_per_epoch(tx),
            """
            SELECT stock, epoch,
                   round(sum(price * volume) / sum(volume), 6) AS vwap,
                   sum(volume) AS volume
            FROM tx GROUP BY stock, epoch
            """,
            tx=tx,
        )

    def test_moving_average(self, tx):
        assert_equivalent(
            analytics.moving_average(tx, window_epochs=3),
            """
            WITH v AS (
                SELECT stock, epoch,
                       round(sum(price * volume) / sum(volume), 6) AS vwap
                FROM tx GROUP BY stock, epoch
            )
            SELECT stock, epoch,
                   round(avg(vwap) OVER (
                       PARTITION BY stock ORDER BY epoch
                       ROWS BETWEEN 2 PRECEDING AND CURRENT ROW), 6) AS ma
            FROM v
            """,
            tx=tx,
        )

    def test_composite_index(self, tx):
        assert_equivalent(
            analytics.composite_index(tx),
            """
            SELECT epoch,
                   round(sum(price * volume) / sum(volume), 6) AS "index"
            FROM tx GROUP BY epoch
            """,
            tx=tx,
        )

    def test_trader_positions(self, tx):
        assert_equivalent(
            analytics.trader_positions(tx),
            """
            WITH b AS (SELECT buyer AS trader, sum(volume) AS bv FROM tx GROUP BY buyer),
                 s AS (SELECT seller AS trader, sum(volume) AS sv FROM tx GROUP BY seller)
            SELECT coalesce(b.trader, s.trader) AS trader,
                   coalesce(bv, 0) - coalesce(sv, 0) AS position
            FROM b FULL OUTER JOIN s ON b.trader = s.trader
            """,
            tx=tx,
        )

    def test_price_range(self, tx):
        assert_equivalent(
            analytics.price_range(tx),
            """
            WITH last AS (
                SELECT stock, price AS last_price,
                       row_number() OVER (PARTITION BY stock
                                          ORDER BY seq DESC, price DESC) AS rn
                FROM tx
            )
            SELECT t.stock, max(t.price) AS high, min(t.price) AS low,
                   any_value(l.last_price) AS last_price
            FROM tx t JOIN last l ON t.stock = l.stock AND l.rn = 1
            GROUP BY t.stock
            """,
            tx=tx,
        )


class TestEventsOracle:
    def test_price_alarms(self, spark, tx):
        th = tx.groupBy("stock").agg((F.avg("price") * 1.005).alias("threshold"))
        assert_equivalent(
            events.price_alarms(tx, th),
            """
            WITH th AS (SELECT stock, avg(price) * 1.005 AS threshold
                        FROM tx GROUP BY stock)
            SELECT t.stock, t.seq, t.price, t.volume
            FROM tx t JOIN th ON t.stock = th.stock
            WHERE t.price > th.threshold
            """,
            tx=tx,
        )

    def test_large_trades(self, tx):
        assert_equivalent(
            events.large_trades(tx, min_volume=800),
            """
            SELECT stock, seq, price, volume, buyer, seller
            FROM tx WHERE volume >= 800
            """,
            tx=tx,
        )

    def test_price_jumps(self, tx):
        assert_equivalent(
            events.price_jumps(tx, ratio=1.002),
            """
            WITH o AS (
                SELECT stock, seq, price,
                       lag(price) OVER (PARTITION BY stock
                                        ORDER BY seq, price) AS prev_price
                FROM tx
            )
            SELECT stock, seq, price, prev_price
            FROM o
            WHERE prev_price IS NOT NULL
              AND (price > prev_price * 1.002 OR price * 1.002 < prev_price)
            """,
            tx=tx,
        )

    def test_volume_surges(self, tx):
        assert_equivalent(
            events.volume_surges(tx, factor=2.0),
            """
            WITH pe AS (SELECT stock, epoch, sum(volume) AS v
                        FROM tx GROUP BY stock, epoch),
                 m AS (SELECT stock, avg(v) AS mean_v FROM pe GROUP BY stock)
            SELECT pe.stock, pe.epoch, pe.v AS volume
            FROM pe JOIN m ON pe.stock = m.stock
            WHERE pe.v > 2.0 * m.mean_v
            """,
            tx=tx,
        )

    def test_self_trades(self, tx):
        assert_equivalent(
            events.self_trades(tx),
            """
            SELECT stock, seq, price, volume, buyer AS trader
            FROM tx WHERE buyer = seller
            """,
            tx=tx,
        )


class TestOracleNegative:
    """The oracle must fail on a wrong result, not only pass a right one."""

    def test_oracle_catches_wrong_result(self, tx):
        wrong = tx.groupBy("stock").agg((F.sum("volume") + 1).alias("volume"))
        with pytest.raises(AssertionError):
            assert_equivalent(
                wrong, "SELECT stock, sum(volume) AS volume FROM tx GROUP BY stock", tx=tx
            )

    def test_oracle_catches_column_mismatch(self, tx):
        got = tx.groupBy("stock").agg(F.count(F.lit(1)).alias("wrong_name"))
        with pytest.raises(AssertionError):
            assert_equivalent(
                got, "SELECT stock, count(*) AS n FROM tx GROUP BY stock", tx=tx
            )
