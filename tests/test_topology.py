"""Unit tests for the topology substrate."""
import pytest

from repro.sse_app.topology import (
    EVENT_OPS,
    STATS_OPS,
    scaled_sse_topology,
    sse_cost_per_order_ms,
    sse_topology,
)
from repro.substrate.topology import OperatorSpec, Topology


def op(name, y=2, z=4, **kw):
    defaults = dict(cpu_cost_ms=1.0, tuple_bytes=128)
    defaults.update(kw)
    return OperatorSpec(name=name, n_executors=y, shards_per_executor=z, **defaults)


class TestTopology:
    def test_total_shards(self):
        assert op("a", y=3, z=5).total_shards == 15

    def test_output_bytes_defaults_to_input(self):
        assert op("a").output_bytes == 128
        assert op("a", out_tuple_bytes=64).output_bytes == 64

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Topology([op("a"), op("a")], [])

    def test_unknown_edge_rejected(self):
        with pytest.raises(ValueError):
            Topology([op("a")], [("a", "b")])

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            Topology([op("a"), op("b")], [("a", "b"), ("b", "a")])

    def test_cycle_behind_source_rejected(self):
        with pytest.raises(ValueError):
            Topology(
                [op("s"), op("a"), op("b"), op("c")],
                [("s", "a"), ("a", "b"), ("b", "c"), ("c", "a")],
            )

    def test_link_bytes_per_tuple(self):
        # input plus selectivity x output bytes, replicated to each
        # downstream operator (at least one: the sink's emitter)
        t = Topology(
            [op("a", selectivity=0.5, out_tuple_bytes=100), op("b"), op("c")],
            [("a", "b"), ("a", "c")],
        )
        assert t.link_bytes_per_tuple("a") == 128 + 0.5 * 100 * 2
        assert t.link_bytes_per_tuple("b") == 128 + 1.0 * 128 * 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Topology([op("a")], [("a", "a")])

    def test_sources_and_downstreams(self):
        t = Topology([op("a"), op("b"), op("c")], [("a", "b"), ("a", "c")])
        assert t.sources() == ["a"]
        assert sorted(t.downstreams("a")) == ["b", "c"]
        assert t.upstreams("c") == ["a"]

    def test_topo_order_respects_edges(self):
        t = Topology([op("c"), op("a"), op("b")], [("a", "b"), ("b", "c")])
        order = t.topo_order()
        assert order.index("a") < order.index("b") < order.index("c")

    def test_operator_lookup(self):
        t = Topology([op("a")], [])
        assert t.operator("a").name == "a"
        with pytest.raises(KeyError):
            t.operator("nope")


class TestSSETopology:
    def test_fig14_shape(self):
        t = sse_topology()
        assert t.sources() == ["transactor"]
        assert len(STATS_OPS) == 6 and len(EVENT_OPS) == 5
        assert sorted(t.downstreams("transactor")) == sorted(STATS_OPS + EVENT_OPS)

    def test_order_and_transaction_sizes(self):
        # §5.4: orders 96 B, transaction records 160 B.
        t = sse_topology()
        tx = t.operator("transactor")
        assert tx.tuple_bytes == 96
        assert tx.output_bytes == 160

    def test_cost_per_order_composition(self):
        t = sse_topology()
        c = sse_cost_per_order_ms(t)
        tx = t.operator("transactor")
        assert c > tx.cpu_cost_ms  # downstream work adds on top
        assert c == pytest.approx(
            tx.cpu_cost_ms
            + tx.selectivity
            * sum(t.operator(n).cpu_cost_ms for n in STATS_OPS + EVENT_OPS)
        )

    @pytest.mark.parametrize("n_nodes", [8, 16, 32])
    def test_scaled_topology_fits_cluster(self, n_nodes):
        t = scaled_sse_topology(n_nodes)
        total_execs = sum(o.n_executors for o in t.operators)
        assert total_execs <= n_nodes * 8

    def test_full_scale_uses_paper_parallelism(self):
        t = scaled_sse_topology(32)
        assert t.operator("transactor").n_executors == 32
        assert t.operator("transactor").shards_per_executor == 256
