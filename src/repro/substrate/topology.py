"""Topology substrate: operators, edges, and per-operator workload
characteristics.

A topology is a DAG of operators (§2.1).  Each operator carries the
workload parameters the engine needs: per-tuple CPU cost, tuple size,
output selectivity (output tuples emitted per input tuple processed),
and its parallelism/sharding configuration.
"""
from __future__ import annotations

from dataclasses import dataclass, field

#: per-shard state size (§5.1 default 32 KB).
DEFAULT_SHARD_STATE_BYTES = 32 * 1024


@dataclass(frozen=True)
class OperatorSpec:
    """One operator in the topology.

    ``n_executors`` (y) and ``shards_per_executor`` (z) follow the
    paper's notation; RC/static repartition at ``y*z`` shards per
    operator, the same granularity (§5 setup).
    """

    name: str
    cpu_cost_ms: float
    tuple_bytes: int
    n_executors: int
    shards_per_executor: int
    #: output tuples per processed input tuple (1.0 = pass-through).
    selectivity: float = 1.0
    #: bytes per *output* tuple (defaults to input size).
    out_tuple_bytes: int | None = None
    #: per-shard state size.
    shard_state_bytes: int = DEFAULT_SHARD_STATE_BYTES

    @property
    def total_shards(self) -> int:
        return self.n_executors * self.shards_per_executor

    @property
    def output_bytes(self) -> int:
        return self.tuple_bytes if self.out_tuple_bytes is None else self.out_tuple_bytes


@dataclass
class Topology:
    """DAG of operators with explicit edges (upstream -> downstream).

    The source operator(s) receive the external input stream; the
    engine pushes each operator's output to all its downstream
    operators one epoch later.
    """

    operators: list[OperatorSpec]
    #: edges as (upstream_name, downstream_name)
    edges: list[tuple[str, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [op.name for op in self.operators]
        if len(set(names)) != len(names):
            raise ValueError("duplicate operator names")
        byname = set(names)
        for u, d in self.edges:
            if u not in byname or d not in byname:
                raise ValueError(f"edge ({u},{d}) references unknown operator")
        # operators on a cycle never reach in-degree 0
        if len(self.topo_order()) < len(self.operators):
            raise ValueError("topology must be a DAG")

    def operator(self, name: str) -> OperatorSpec:
        for op in self.operators:
            if op.name == name:
                return op
        raise KeyError(name)

    def upstreams(self, name: str) -> list[str]:
        return [u for u, d in self.edges if d == name]

    def downstreams(self, name: str) -> list[str]:
        return [d for u, d in self.edges if u == name]

    def link_bytes_per_tuple(self, name: str) -> float:
        """Bytes one input tuple of ``name`` puts on a remote task's
        link: the input, plus its outputs, which the emitter replicates
        to every downstream operator."""
        op = self.operator(name)
        fanout = max(1, len(self.downstreams(name)))
        return op.tuple_bytes + op.selectivity * op.output_bytes * fanout

    def sources(self) -> list[str]:
        has_in = {d for _, d in self.edges}
        return [op.name for op in self.operators if op.name not in has_in]

    def topo_order(self) -> list[str]:
        """Operators in a topological order (sources first)."""
        indeg = {op.name: 0 for op in self.operators}
        for _, d in self.edges:
            indeg[d] += 1
        order, frontier = [], [n for n, k in indeg.items() if k == 0]
        while frontier:
            n = frontier.pop(0)
            order.append(n)
            for m in self.downstreams(n):
                indeg[m] -= 1
                if indeg[m] == 0:
                    frontier.append(m)
        return order
