"""Limit-order-book matching engine — the *transactor* operator of the
SSE application (§5.4).

Implements continuous double-auction matching with price-time priority,
the market-clearing mechanism of a stock exchange:

* an incoming **buy** matches resting asks with ``ask price <= bid``,
  lowest price first, FIFO within a price level;
* an incoming **sell** matches resting bids with ``bid price >= ask``,
  highest price first, FIFO within a price level;
* fills execute at the *resting* order's price; partial remainders rest
  in the book.

The book is the per-stock state held by the stream operator: in the
tuple-level elastic executor it lives in the shared
:class:`~repro.core.state.StateStore`, and on the Spark data plane each
stock partition's ``mapInPandas`` matcher keeps one book per stock
across the partition's Arrow batches (:mod:`repro.sse_app.transactor`).
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush


@dataclass(frozen=True)
class Transaction:
    """One fill: the 160-byte transaction record of §5.4."""

    stock: int
    price: float
    volume: int
    buyer: int
    seller: int
    seq: int  # arrival sequence of the incoming (aggressor) order


class OrderBook:
    """Price-time-priority book for one stock.

    Heaps hold ``[sort_key, seq, price, volume, trader]`` entries;
    bids use negated price so heapq's min-heap pops the best bid first.
    Volume is mutated in place on partial fills.
    """

    __slots__ = ("stock", "bids", "asks")

    def __init__(self, stock: int) -> None:
        self.stock = stock
        self.bids: list = []
        self.asks: list = []

    def submit(
        self, side: str, price: float, volume: int, trader: int, seq: int
    ) -> list[Transaction]:
        """Execute an incoming limit order; returns the fills it caused."""
        if side not in ("B", "S"):
            raise ValueError(f"side must be 'B' or 'S', got {side!r}")
        if volume <= 0 or price <= 0:
            raise ValueError("price and volume must be positive")
        fills: list[tuple] = []
        self.match(side == "B", price, volume, trader, seq, fills)
        return [Transaction(self.stock, p, v, b, s, seq) for p, v, b, s in fills]

    def match(
        self, buy: bool, price: float, volume: int, trader: int, seq: int, fills: list
    ) -> None:
        """Cross one already-validated order against the opposite side,
        appending a ``(price, volume, buyer, seller)`` tuple per fill to
        ``fills``; an unfilled remainder rests in the book.

        This is the one matching loop: :meth:`submit` and the columnar
        transactor (:mod:`repro.sse_app.transactor`) both call it.
        """
        # asks are keyed by price, bids by -price: the order crosses the
        # opposite side's best entry while that key is <= ``limit``
        book, mine, limit = (self.asks, self.bids, price) if buy else (self.bids, self.asks, -price)
        while book and book[0][0] <= limit:
            entry = book[0]
            rest = entry[3]
            buyer, seller = (trader, entry[4]) if buy else (entry[4], trader)
            if rest > volume:
                entry[3] = rest - volume
                fills.append((entry[2], volume, buyer, seller))
                return
            fills.append((entry[2], rest, buyer, seller))
            heappop(book)
            volume -= rest
            if not volume:
                return
        heappush(mine, [-limit, seq, price, volume, trader])

    def best_bid(self) -> float | None:
        return self.bids[0][2] if self.bids else None

    def best_ask(self) -> float | None:
        return self.asks[0][2] if self.asks else None

    def depth(self) -> tuple[int, int]:
        """(resting bid volume, resting ask volume)."""
        return (
            sum(e[3] for e in self.bids),
            sum(e[3] for e in self.asks),
        )
