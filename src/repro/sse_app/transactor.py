"""The transactor operator on the Spark data plane.

Orders are hash-partitioned by stock (the operator's key space), sorted
by arrival (``seq``) within each partition, and every partition runs one
matcher over its Arrow batches through ``mapInPandas``.  The matcher
keeps a :class:`~repro.sse_app.order_book.OrderBook` per stock across
the batches of its partition, so each stock is matched in ``seq`` order
by exactly one worker: the per-key ordered, stateful processing
contract of §2.1, with a static key subspace per executor.
"""
from __future__ import annotations

from operator import itemgetter
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.types import (
    DoubleType,
    LongType,
    StructField,
    StructType,
)

from repro.sse_app.order_book import OrderBook

TRANSACTION_SCHEMA = StructType(
    [
        StructField("stock", LongType()),
        StructField("price", DoubleType()),
        StructField("volume", LongType()),
        StructField("buyer", LongType()),
        StructField("seller", LongType()),
        StructField("seq", LongType()),
        StructField("epoch", LongType()),
    ]
)


def _validate(side: np.ndarray, price: np.ndarray, volume: np.ndarray) -> None:
    """Raise :meth:`OrderBook.submit`'s ``ValueError`` for the first
    invalid order, checking side before price and volume as it does."""
    bad_side = (side != "B") & (side != "S")
    bad_size = (volume <= 0) | (price <= 0)
    bad = bad_side | bad_size
    if bad.any():
        i = int(np.argmax(bad))
        if bad_side[i]:
            raise ValueError(f"side must be 'B' or 'S', got {side[i]!r}")
        raise ValueError("price and volume must be positive")


def _match(orders: pd.DataFrame, books: dict[int, OrderBook]) -> pd.DataFrame:
    """Match ``orders`` (already in ``seq`` order) through ``books``,
    adding a book for each stock seen for the first time; returns the
    fills in the order they happened."""
    stock = orders["stock"].to_numpy(np.int64)
    side = orders["side"].to_numpy()
    price = orders["price"].to_numpy(np.float64)
    volume = orders["volume"].to_numpy(np.int64)
    seq = orders["seq"].to_numpy(np.int64)
    _validate(side, price, volume)
    fills: list[tuple] = []
    ends: list[int] = []  # len(fills) after each order
    for k, buy, p, v, t, s in zip(
        stock.tolist(),
        (side == "B").tolist(),
        price.tolist(),
        volume.tolist(),
        orders["trader"].to_numpy(np.int64).tolist(),
        seq.tolist(),
    ):
        book = books.get(k)
        if book is None:
            book = books[k] = OrderBook(k)
        book.match(buy, p, v, t, s, fills)
        ends.append(len(fills))
    per_order = np.diff(np.asarray(ends, dtype=np.int64), prepend=0)

    def fill_column(i: int, dtype) -> np.ndarray:
        return np.fromiter(map(itemgetter(i), fills), dtype=dtype, count=len(fills))

    return pd.DataFrame(
        {
            "stock": np.repeat(stock, per_order),
            "price": fill_column(0, np.float64),
            "volume": fill_column(1, np.int64),
            "buyer": fill_column(2, np.int64),
            "seller": fill_column(3, np.int64),
            "seq": np.repeat(seq, per_order),
            "epoch": np.repeat(orders["epoch"].to_numpy(np.int64), per_order),
        }
    )


def match_orders_pdf(orders: pd.DataFrame) -> pd.DataFrame:
    """Single-process transactor: every stock's orders, matched in
    ``seq`` order.  The oracle tests and the benchmark use it as the
    single source of truth for matching semantics."""
    return _match(orders.sort_values("seq"), {})


def _match_partition(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
    """One partition's matcher: its books live across its batches."""
    books: dict[int, OrderBook] = {}
    for orders in batches:
        yield _match(orders, books)


def transactions(orders: DataFrame) -> DataFrame:
    """Spark transactor: orders → transaction records, keyed by stock.

    ``repartition("stock")`` keeps each stock in one of
    ``spark.sql.shuffle.partitions`` partitions (adaptive execution only
    merges whole partitions), and ``sortWithinPartitions("seq")`` puts
    each partition's orders in arrival order before its matcher sees them.
    """
    return (
        orders.repartition("stock")
        .sortWithinPartitions("seq")
        .mapInPandas(_match_partition, schema=TRANSACTION_SCHEMA)
    )
