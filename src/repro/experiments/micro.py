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
from repro.streams.microbench import Trace, micro_trace
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
    tuple_bytes: int = 128,
) -> Topology:
    """The Fig. 5 calculator operator with §5.1 defaults (1 ms of CPU
    per tuple)."""
    return Topology(
        [
            OperatorSpec(
                name="calculator",
                cpu_cost_ms=1.0,
                tuple_bytes=tuple_bytes,
                n_executors=n_executors,
                shards_per_executor=shards_per_executor,
            )
        ],
        [],
    )


def micro_rate(spec: ClusterSpec, cpu_cost_ms: float = 1.0, load: float = DEFAULT_LOAD_FACTOR) -> float:
    """Offered tuples/s for a given cluster and per-tuple cost."""
    return load * spec.total_cores * CORE_CAPACITY_MS_PER_S / cpu_cost_ms


def run_micro_cell(
    paradigm: str,
    *,
    omega: float,
    spec: ClusterSpec | None = None,
    topology: Topology | None = None,
    n_epochs: int = 60,
    rate: float | None = None,
    n_keys: int = 10_000,
    skew: float = 0.5,
    seed: int = 1,
    warmup: int = 8,
) -> RunResult:
    """One (paradigm, ω) cell of the Fig. 6 sweep."""
    spec = spec or ClusterSpec()
    topo = topology or micro_topology()
    cost = topo.operator("calculator").cpu_cost_ms
    trace = micro_trace(
        n_epochs=n_epochs,
        rate=rate if rate is not None else micro_rate(spec, cost),
        n_keys=n_keys,
        skew=skew,
        omega=omega,
        cpu_cost_ms=cost,
        tuple_bytes=topo.operator("calculator").tuple_bytes,
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
