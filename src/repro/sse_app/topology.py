"""The SSE application topology (Fig. 14) for the cluster engine.

``spout → transactor → {6 statistics operators, 5 event operators}``.

All operators are keyed by stock id.  Order tuples are 96 B, transaction
records 160 B (§5.4).  The transactor's selectivity is the fill ratio
(transactions emitted per order, ≈0.5 for the synthetic stream — about
half of all orders cross).  CPU costs model order-book matching as the
heavy step and the analytics as cheap aggregation updates.

Executor counts keep the §5 default (32 elastic executors) for the
transactor, and 4 for each of the 11 light downstream operators —
76 executors total.  Every executor needs at least one core, and the
§4.1 allocator's ``floor(λ/μ)+1`` stability floor adds roughly one
spare core per executor, so this parallelism leaves the 256-core
cluster feasible headroom at the sustainable operating point.  Smaller
clusters (Table 3 sweeps 8/16 nodes) get proportionally scaled
executor counts via :func:`scaled_sse_topology`.
"""
from __future__ import annotations

from repro.substrate.topology import DEFAULT_SHARD_STATE_BYTES, OperatorSpec, Topology

STATS_OPS = ["ma", "index", "vwap", "stats", "positions", "range"]
EVENT_OPS = ["alarms", "large", "jumps", "surges", "selftrade"]

ORDER_BYTES = 96
TRANSACTION_BYTES = 160
FILL_RATIO = 0.5


def sse_topology(*, transactor_executors: int = 32, downstream_executors: int = 4) -> Topology:
    """Build the Fig. 14 topology with configurable parallelism."""
    ops = [
        OperatorSpec(
            name="transactor",
            cpu_cost_ms=0.5,
            tuple_bytes=ORDER_BYTES,
            n_executors=transactor_executors,
            shards_per_executor=256,
            selectivity=FILL_RATIO,
            out_tuple_bytes=TRANSACTION_BYTES,
        )
    ]
    # the light downstream operators hold a quarter of the shards and
    # smaller per-shard state
    downstream_z = 256 // 4
    for name in STATS_OPS:
        ops.append(
            OperatorSpec(
                name=name,
                cpu_cost_ms=0.1,
                tuple_bytes=TRANSACTION_BYTES,
                n_executors=downstream_executors,
                shards_per_executor=downstream_z,
                selectivity=0.1,
                out_tuple_bytes=64,
                shard_state_bytes=DEFAULT_SHARD_STATE_BYTES // 4,
            )
        )
    for name in EVENT_OPS:
        ops.append(
            OperatorSpec(
                name=name,
                cpu_cost_ms=0.05,
                tuple_bytes=TRANSACTION_BYTES,
                n_executors=downstream_executors,
                shards_per_executor=downstream_z,
                selectivity=0.01,
                out_tuple_bytes=64,
                shard_state_bytes=DEFAULT_SHARD_STATE_BYTES // 8,
            )
        )
    edges = [("transactor", n) for n in STATS_OPS + EVENT_OPS]
    return Topology(ops, edges)


def sse_cost_per_order_ms(topo: Topology) -> float:
    """Expected CPU-ms per input order across the whole topology — used
    to pick offered rates relative to cluster capacity."""
    tx = topo.operator("transactor")
    downstream = sum(
        topo.operator(n).cpu_cost_ms for n in STATS_OPS + EVENT_OPS
    )
    return tx.cpu_cost_ms + tx.selectivity * downstream


def scaled_sse_topology(n_nodes: int, cores_per_node: int = 8) -> Topology:
    """SSE topology scaled so every executor can own at least one core
    on an ``n_nodes`` cluster (Table 3 sweeps 8/16/32 nodes)."""
    total = n_nodes * cores_per_node
    if total >= 240:
        return sse_topology()
    if total >= 120:
        return sse_topology(transactor_executors=16, downstream_executors=2)
    return sse_topology(transactor_executors=8, downstream_executors=1)
