"""Spans around the calls into each layer, recorded from the benchmark's
side only.

:func:`install` wraps public functions of the program (and the two
documented paradigm hooks ``_init_layout`` / ``_elasticity``) by
rebinding the names their callers look up; :meth:`Tracer.uninstall`
restores the originals.  Nothing in ``src/`` is edited and the untraced
run executes no wrapper at all.

Spans are kept in memory as ``[name, start, end, parent, run_id]`` and
written out once, at the end of the run.  A span's self time is its
duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import json
import math
import time
from collections import defaultdict
from pathlib import Path

_now = time.perf_counter


class Tracer:
    """Spans and counters of one traced run.  ``run_id`` is the index of
    the timed pass in progress, -1 outside the timed passes."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.run_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), 0.0, parent, self.run_id])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = _now()
        self._stack.pop()

    def span(self, name: str):
        return _SpanContext(self, name)

    # -- wrappers -------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Rebind ``owner.attr`` to a wrapper recording span ``name``.

        ``on_result(counts, args, kwargs, result)`` updates counters after
        each call.  For a class, only an attribute defined on that class
        itself is wrapped, so subclasses sharing it are not wrapped twice.
        """
        orig = owner.__dict__[attr]
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_result is not None:
                on_result(tracer.counts, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- aggregation ----------------------------------------------------
    def totals_ms(self) -> tuple[dict[str, float], dict[str, float]]:
        """(total ms, self ms) per span name, over spans whose run id is
        non-negative (the timed passes)."""
        total: dict[str, float] = defaultdict(float)
        self_ms: dict[str, float] = defaultdict(float)
        for name, start, end, parent, run_id in self.spans:
            if run_id < 0:
                continue
            dur = (end - start) * 1000.0
            total[name] += dur
            self_ms[name] += dur
            if parent >= 0:
                self_ms[self.spans[parent][0]] -= dur
        return total, self_ms

    def span_ms(self, name: str) -> float:
        """Total ms of every span called ``name``, set-up spans included."""
        return sum((end - start) * 1000.0 for n, start, end, _, _ in self.spans if n == name)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for name, start, end, parent, run_id in self.spans:
                f.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "run": run_id}
                    )
                    + "\n"
                )


class _SpanContext:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.close(self.idx)


# ---------------------------------------------------------------------------
# counters updated from call results
# ---------------------------------------------------------------------------

def _count_hash(counts, args, kwargs, result) -> None:
    counts["shards.hash_calls"] += 1
    counts["shards.hash_keys"] += getattr(result, "size", 1)


def _count_allocate(counts, args, kwargs, result) -> None:
    counts["scheduler.calls"] += 1
    counts["scheduler.infeasible_calls"] += not result.feasible


def _count_assign(counts, args, kwargs, result) -> None:
    from repro.core.assignment import DEFAULT_PHI_BYTES_PER_S

    counts["assignment.calls"] += 1
    counts["assignment.infeasible_calls"] += not result.feasible
    phi = kwargs.get("phi", args[6] if len(args) > 6 else DEFAULT_PHI_BYTES_PER_S)
    if math.isfinite(result.phi_used):
        counts["assignment.phi_doublings"] += round(math.log2(result.phi_used / phi))
    else:  # locality dropped after every doubling failed
        counts["assignment.phi_doublings"] += kwargs.get("max_phi_doublings", 32)


def _count_assign_naive(counts, args, kwargs, result) -> None:
    counts["assignment.calls"] += 1
    counts["assignment.infeasible_calls"] += not result.feasible


def _count_rebalance(counts, args, kwargs, result) -> None:
    moves = result[1]
    counts["load_balancer.calls"] += 1
    counts["load_balancer.moves"] += len(moves)
    counts["load_balancer.useful_calls"] += bool(moves)


def install(tracer: Tracer) -> None:
    """Wrap the entry points of every layer the workloads call into."""
    from repro.core import load_balancer, shards
    from repro.core.elastic_executor import ElasticExecutor
    from repro.engine.simulator import BaseSim
    from repro.experiments import table2
    from repro.paradigms import elasticutor, naive_ec, resource_centric
    from repro.paradigms.elasticutor import ElasticutorSim
    from repro.paradigms.resource_centric import ResourceCentricSim
    from repro.paradigms.static_paradigm import StaticSim
    from repro.sse_app import analytics, transactor
    from repro.streams import microbench, sse

    w = tracer.wrap
    # core: hashing, §4.1 allocator, Algorithm 1, §3.1 balancer
    w(shards, "key_to_shard", "shards.key_to_shard", _count_hash)
    w(elasticutor, "allocate_cores", "scheduler.allocate_cores", _count_allocate)
    w(elasticutor, "assign_cores", "assignment.assign_cores", _count_assign)
    w(naive_ec, "assign_cores_naive", "assignment.assign_cores_naive", _count_assign_naive)
    for mod in (load_balancer, elasticutor, resource_centric):
        w(mod, "rebalance", "load_balancer.rebalance", _count_rebalance)
    # engine and the documented paradigm hooks
    w(BaseSim, "run", "engine.run")
    for cls in (StaticSim, ElasticutorSim):
        w(cls, "_init_layout", "paradigms._init_layout")
    for cls in (StaticSim, ResourceCentricSim, ElasticutorSim):
        w(cls, "_elasticity", "paradigms._elasticity")
    # tuple-level executor
    for meth in ("receive", "step", "reassign_shard", "add_core", "remove_core", "run_until_idle"):
        w(ElasticExecutor, meth, f"executor.{meth}")
    # Spark SSE plane (plan construction; the actions are timed by the workload)
    w(transactor, "transactions", "sse_app.transactions")
    for fn in ("stock_stats", "composite_index", "moving_average"):
        w(analytics, fn, f"sse_app.analytics.{fn}")
    # input generators
    w(sse, "sse_trace", "streams.sse_trace")
    w(table2, "sse_trace", "streams.sse_trace")
    w(sse, "sse_orders_pdf", "streams.sse_orders_pdf")
    w(microbench, "micro_trace", "streams.micro_trace")
