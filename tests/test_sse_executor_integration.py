"""Integration: the SSE matching engine running *inside* a tuple-level
elastic executor — per-stock order books as operator state, with shard
reassignments (core scaling) happening mid-stream.

This is the §5 `ElasticBolt` scenario end to end: the transactor's
state (an order book per stock) lives in the executor's shared state
store, and the §3.3 protocol must keep matching results identical to a
single-threaded reference run.
"""
import numpy as np
import pytest

from repro.core.elastic_executor import ElasticExecutor
from repro.sse_app.order_book import OrderBook
from repro.sse_app.transactor import match_orders_pdf
from repro.streams.sse import sse_orders_pdf


def transactor_fn(key, value, state):
    """ElasticBolt-style transactor: value = (side, price, volume,
    trader, seq); state holds the stock's order book."""
    book = state.get(key)
    if book is None:
        book = OrderBook(key)
    fills = book.submit(*value)
    state.put(key, book)
    return fills or None


@pytest.fixture(scope="module")
def orders():
    return sse_orders_pdf(n_epochs=6, rate=400, n_stocks=12, seed=23)


@pytest.fixture(scope="module")
def reference(orders):
    """Single-threaded ground truth from the pandas transactor."""
    return match_orders_pdf(orders)


def run_elastic(orders, schedule):
    """Feed orders through an elastic executor, applying the given
    (at_index, action) schedule of scaling events mid-stream."""
    ex = ElasticExecutor(0, n_shards=8, local_node=0, fn=transactor_fn)
    events = dict()
    for at, action in schedule:
        events.setdefault(at, []).append(action)
    tasks = [ex.tasks[0].task_id]
    for i, row in enumerate(orders.itertuples(index=False)):
        for action in events.get(i, []):
            if action[0] == "add":
                tasks.append(ex.add_core(action[1]))
            elif action[0] == "move":
                shard, dst_i = action[1], action[2]
                if shard not in ex._pending_reassign:
                    ex.reassign_shard(shard, tasks[dst_i % len(tasks)])
        ex.receive(
            int(row.stock),
            (row.side, float(row.price), int(row.volume), int(row.trader), int(row.seq)),
        )
        if i % 7 == 0:
            ex.step(max_tuples=2)
    ex.run_until_idle()
    fills = []
    for t in ex.emitted:
        fills.extend(t.value)
    return ex, fills


def fills_frame(fills):
    import pandas as pd

    return (
        pd.DataFrame(
            [(f.stock, f.price, f.volume, f.buyer, f.seller, f.seq) for f in fills],
            columns=["stock", "price", "volume", "buyer", "seller", "seq"],
        )
        .sort_values(["stock", "seq", "price", "volume"])
        .reset_index(drop=True)
    )


class TestElasticTransactor:
    def test_no_scaling_matches_reference(self, orders, reference):
        _, fills = run_elastic(orders, schedule=[])
        got = fills_frame(fills)
        exp = (
            reference[["stock", "price", "volume", "buyer", "seller", "seq"]]
            .sort_values(["stock", "seq", "price", "volume"])
            .reset_index(drop=True)
        )
        import pandas as pd

        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_scaling_mid_stream_matches_reference(self, orders, reference):
        """Cores added and shards reassigned (incl. to a remote node)
        while orders are in flight: the fills must be identical —
        matching is order-sensitive, so this is a strong §3.3 check."""
        schedule = [
            (50, ("add", 0)),
            (120, ("add", 1)),  # remote process
            (150, ("move", 0, 1)),
            (300, ("move", 3, 2)),
            (600, ("move", 0, 2)),
            (900, ("move", 5, 0)),
        ]
        _, fills = run_elastic(orders, schedule)
        got = fills_frame(fills)
        exp = (
            reference[["stock", "price", "volume", "buyer", "seller", "seq"]]
            .sort_values(["stock", "seq", "price", "volume"])
            .reset_index(drop=True)
        )
        import pandas as pd

        pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    def test_remote_migration_carried_book_state(self, orders):
        ex, _ = run_elastic(
            orders, schedule=[(100, ("add", 2)), (200, ("move", 1, 1))]
        )
        # shard 1's books now live in the node-2 process
        assert ex.migrated_bytes > 0
        assert ex.store_on(2).has_shard(1)
