"""The columnar transactor against the matcher it replaced.

``_RefBook.submit`` and ``_ref_match_orders_pdf`` keep the order-book
crossing loop and the ``itertuples`` transactor loop as they were before
matching moved into ``OrderBook.match`` over NumPy columns; every random
multi-stock order stream must give the same fills, frame for frame.
"""
import heapq

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sse_app.order_book import OrderBook, Transaction
from repro.sse_app.transactor import TRANSACTION_SCHEMA, match_orders_pdf


class _RefBook:
    """The book with its crossing loop as it was before ``OrderBook.match``."""

    def __init__(self, stock):
        self.stock = stock
        self.bids = []
        self.asks = []

    def submit(self, side, price, volume, trader, seq):
        if side not in ("B", "S"):
            raise ValueError(f"side must be 'B' or 'S', got {side!r}")
        if volume <= 0 or price <= 0:
            raise ValueError("price and volume must be positive")
        fills = []
        if side == "B":
            book, crosses = self.asks, lambda best: best <= price
            mine, opp_sign = self.bids, 1.0
        else:
            book, crosses = self.bids, lambda best: -best >= price
            mine, opp_sign = self.asks, -1.0
        remaining = volume
        while remaining > 0 and book and crosses(book[0][0]):
            entry = book[0]
            take = min(remaining, entry[3])
            rest_price = entry[2]
            buyer, seller = (trader, entry[4]) if side == "B" else (entry[4], trader)
            fills.append(Transaction(self.stock, rest_price, take, buyer, seller, seq))
            remaining -= take
            entry[3] -= take
            if entry[3] == 0:
                heapq.heappop(book)
        if remaining > 0:
            heapq.heappush(mine, [-opp_sign * price, seq, price, remaining, trader])
        return fills


def _ref_match_orders_pdf(orders):
    """The ``itertuples`` transactor loop as it was before the columnar one."""
    out = {c.name: [] for c in TRANSACTION_SCHEMA.fields}
    books = {}
    for row in orders.sort_values("seq").itertuples(index=False):
        book = books.setdefault(int(row.stock), _RefBook(int(row.stock)))
        for f in book.submit(
            row.side, float(row.price), int(row.volume), int(row.trader), int(row.seq)
        ):
            out["stock"].append(f.stock)
            out["price"].append(f.price)
            out["volume"].append(f.volume)
            out["buyer"].append(f.buyer)
            out["seller"].append(f.seller)
            out["seq"].append(f.seq)
            out["epoch"].append(int(row.epoch))
    return pd.DataFrame(out)


def _orders_frame(rows, seqs):
    """Orders in the shape of ``sse_orders_pdf``; ``seqs`` shuffles the
    arrival order against the row order."""
    stock, side, price, volume, trader = zip(*rows) if rows else ((),) * 5
    seq = np.asarray(seqs, dtype=np.int64)
    return pd.DataFrame(
        {
            "epoch": seq // 8,
            "seq": seq,
            "stock": np.asarray(stock, dtype=np.int64),
            "side": np.asarray(side, dtype=object),
            "price": np.asarray(price, dtype=np.float64),
            "volume": np.asarray(volume, dtype=np.int64),
            "trader": np.asarray(trader, dtype=np.int64),
        }
    )


# a narrow price grid gives many price ties; small volumes against the
# occasional large one give partial fills and sweeps through many levels
_order = st.tuples(
    st.integers(0, 3),
    st.sampled_from(["B", "S"]),
    st.sampled_from([9.98, 9.99, 10.0, 10.01, 10.02]),
    st.one_of(st.integers(1, 5).map(lambda v: 100 * v), st.integers(10, 40).map(lambda v: 100 * v)),
    st.integers(0, 5),
)


@st.composite
def _streams(draw):
    rows = draw(st.lists(_order, max_size=80))
    seqs = draw(st.permutations(range(len(rows))))
    return _orders_frame(rows, seqs)


class TestAgainstOldMatcher:
    @given(_streams())
    @settings(max_examples=200, deadline=None)
    def test_match_orders_pdf_equals_itertuples_loop(self, orders):
        got = match_orders_pdf(orders)
        ref = _ref_match_orders_pdf(orders)
        if ref.empty:
            # the old loop built an empty frame from empty lists, which
            # pandas types as object; the columnar one keeps the schema types
            ref = ref.astype(got.dtypes.to_dict())
        pd.testing.assert_frame_equal(got, ref, check_exact=True)

    @given(st.lists(_order, max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_submit_equals_old_submit(self, rows):
        """Same fills and the same resting heaps, order by order."""
        new, old = {}, {}
        for seq, (k, side, price, volume, trader) in enumerate(rows):
            got = new.setdefault(k, OrderBook(k)).submit(side, price, volume, trader, seq)
            exp = old.setdefault(k, _RefBook(k)).submit(side, price, volume, trader, seq)
            assert got == exp
            assert new[k].bids == old[k].bids and new[k].asks == old[k].asks


class TestEdgeCases:
    @pytest.mark.parametrize(
        "side,price,volume,message",
        [
            ("X", 10.0, 100, "side must be 'B' or 'S', got 'X'"),
            ("B", 10.0, 0, "price and volume must be positive"),
            ("S", -1.0, 100, "price and volume must be positive"),
        ],
    )
    def test_invalid_order_raises(self, side, price, volume, message):
        rows = [(0, "B", 10.0, 100, 1), (0, side, price, volume, 2), (1, "S", 9.0, 100, 3)]
        with pytest.raises(ValueError, match=message):
            match_orders_pdf(_orders_frame(rows, range(len(rows))))

    def test_first_invalid_order_in_seq_order_decides_the_error(self):
        # row order puts the bad side first, arrival order the bad volume
        rows = [(0, "X", 10.0, 100, 1), (0, "B", 10.0, 0, 2)]
        with pytest.raises(ValueError, match="price and volume"):
            match_orders_pdf(_orders_frame(rows, [1, 0]))

    def test_zero_orders_give_empty_typed_frame(self):
        fills = match_orders_pdf(_orders_frame([], []))
        assert fills.empty
        assert list(fills.columns) == [f.name for f in TRANSACTION_SCHEMA.fields]
        assert fills.dtypes.astype(str).tolist() == ["int64", "float64"] + ["int64"] * 5
