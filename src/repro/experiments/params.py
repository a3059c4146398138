"""Parameter sensitivity (§5.3, Fig. 13 shape): the impact of the
number of executors per operator (y) and shards per executor (z) on
Elasticutor's throughput.

Claims reproduced:

* too few shards → poor intra-executor balancing → low throughput;
  beyond a few dozen shards per executor the gain saturates;
* y = #cores degrades Elasticutor to the static approach (each executor
  pinned to exactly one core, no elasticity);
* small y under a data-intensive workload (large tuples) collapses,
  because a single executor must scale to many *remote* cores and its
  receiver/emitter NIC saturates.
"""
from __future__ import annotations

import pandas as pd

from repro.experiments.micro import micro_topology, run_micro_cell
from repro.streams.microbench import N_KEYS, TUPLE_BYTES
from repro.substrate.cluster import ClusterSpec


def run_params_cell(
    *,
    y: int,
    z: int,
    spec: ClusterSpec | None = None,
    omega: float = 2.0,
    tuple_bytes: int = TUPLE_BYTES,
    n_epochs: int = 40,
    n_keys: int = N_KEYS,
) -> dict:
    """One (y, z) cell of Fig. 13 under a given workload flavour: an
    Elasticutor micro run of ``y`` executors with ``z`` shards each."""
    r = run_micro_cell(
        "elasticutor",
        omega=omega,
        spec=spec,
        topology=micro_topology(n_executors=y, shards_per_executor=z, tuple_bytes=tuple_bytes),
        n_epochs=n_epochs,
        n_keys=n_keys,
        seed=5,
        warmup=6,
    )
    return {
        "y": y,
        "z": z,
        "tuple_bytes": tuple_bytes,
        "omega": omega,
        "throughput_tps": r.throughput_tps(),
        "avg_latency_ms": r.avg_latency_ms(),
        "remote_rate_mbps": r.remote_rate_mbps(),
    }


def params_sweep(
    ys=(1, 8, 32, 256),
    zs=(1, 8, 64, 256),
    *,
    workload: str = "default",
    **kwargs,
) -> pd.DataFrame:
    """The Fig. 13 grid for one of the three §5.3 workloads:
    ``default`` (128 B, ω=2), ``data-intensive`` (8 KB, ω=2),
    ``highly-dynamic`` (128 B, ω=16)."""
    flavours = {
        "default": {"tuple_bytes": TUPLE_BYTES, "omega": 2.0},
        "data-intensive": {"tuple_bytes": 8192, "omega": 2.0},
        "highly-dynamic": {"tuple_bytes": TUPLE_BYTES, "omega": 16.0},
    }
    fl = flavours[workload]
    rows = []
    for y in ys:
        for z in zs:
            rows.append(run_params_cell(y=y, z=z, **fl, **kwargs))
    df = pd.DataFrame(rows)
    df.insert(0, "workload", workload)
    return df
