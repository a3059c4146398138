"""Micro-benchmark experiment (§5.1, Fig. 6/7 shape).

Runs the single-operator calculator topology (Fig. 5: spout →
calculator) under the four paradigms across a sweep of workload
dynamics ω, and reports throughput / average latency per cell — the
data behind Fig. 6 and the transient behaviour of Fig. 7.
"""
from __future__ import annotations

import pandas as pd

from repro.engine.metrics import RunResult
from repro.engine.simulator import EngineConfig
from repro.paradigms.elasticutor import ElasticutorSim
from repro.paradigms.naive_ec import NaiveECSim
from repro.paradigms.resource_centric import ResourceCentricSim
from repro.paradigms.static_paradigm import StaticSim
from repro.streams.microbench import CPU_COST_MS, N_KEYS, TUPLE_BYTES, ZIPF_SKEW, micro_trace
from repro.substrate.cluster import CORE_CAPACITY_MS_PER_S, ClusterSpec
from repro.substrate.topology import OperatorSpec, Topology

PARADIGMS = {
    "static": StaticSim,
    "resource-centric": ResourceCentricSim,
    "elasticutor": ElasticutorSim,
    "naive-ec": NaiveECSim,
}

#: offered load relative to ideal cluster capacity for micro runs —
#: high enough to expose static's skew ceiling, low enough that
#: Elasticutor stays stable (§5.1 runs near saturation).
DEFAULT_LOAD_FACTOR = 0.76


def micro_topology(
    *,
    n_executors: int = 32,
    shards_per_executor: int = 256,
    tuple_bytes: int = TUPLE_BYTES,
) -> Topology:
    """The Fig. 5 calculator operator with §5.1 defaults."""
    return Topology(
        [
            OperatorSpec(
                name="calculator",
                cpu_cost_ms=CPU_COST_MS,
                tuple_bytes=tuple_bytes,
                n_executors=n_executors,
                shards_per_executor=shards_per_executor,
            )
        ],
        [],
    )


def micro_rate(spec: ClusterSpec, cpu_cost_ms: float = CPU_COST_MS) -> float:
    """Offered tuples/s for a given cluster and per-tuple cost, at
    ``DEFAULT_LOAD_FACTOR`` of its ideal capacity."""
    return DEFAULT_LOAD_FACTOR * spec.total_cores * CORE_CAPACITY_MS_PER_S / cpu_cost_ms


def run_micro_cell(
    paradigm: str,
    *,
    omega: float,
    spec: ClusterSpec | None = None,
    topology: Topology | None = None,
    n_epochs: int = 60,
    n_keys: int = N_KEYS,
    skew: float = ZIPF_SKEW,
    seed: int = 1,
    warmup: int = 8,
) -> RunResult:
    """One (paradigm, ω) cell of the Fig. 6 sweep, offered
    :func:`micro_rate` for its cluster."""
    spec = spec or ClusterSpec()
    topo = topology or micro_topology()
    op = topo.operator("calculator")
    trace = micro_trace(
        n_epochs=n_epochs,
        rate=micro_rate(spec, op.cpu_cost_ms),
        n_keys=n_keys,
        skew=skew,
        omega=omega,
        cpu_cost_ms=op.cpu_cost_ms,
        tuple_bytes=op.tuple_bytes,
        seed=seed,
    )
    cfg = EngineConfig(spec=spec, warmup_epochs=warmup)
    return PARADIGMS[paradigm](topo, cfg).run(trace)


def micro_sweep(
    omegas=(0, 1, 2, 4, 8, 16),
    paradigms=("static", "resource-centric", "elasticutor"),
    **kwargs,
) -> pd.DataFrame:
    """The full Fig. 6 grid as a tidy DataFrame."""
    rows = []
    for omega in omegas:
        for p in paradigms:
            r = run_micro_cell(p, omega=omega, **kwargs)
            rows.append({"omega": omega, **r.summary()})
    return pd.DataFrame(rows)


def instantaneous_throughput(paradigm: str, *, omega: float = 2.0, **kwargs) -> pd.DataFrame:
    """Fig. 7: per-epoch throughput trajectory at ω=2."""
    r = run_micro_cell(paradigm, omega=omega, **kwargs)
    df = r.to_frame()[["epoch", "processed", "latency_ms", "throttle_g"]]
    df.insert(0, "paradigm", paradigm)
    return df
