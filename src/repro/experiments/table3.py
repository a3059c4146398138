"""Table 3 (§5.4): Elasticutor scalability under the SSE workload.

Paper numbers:

    =============================  =====  ======  ======
    nodes in the cluster               8      16      32
    =============================  =====  ======  ======
    throughput (10^3 tuples/s)      66.6   121.3   218.6
    scheduling time (ms)             4.1     5.2     5.7
    =============================  =====  ======  ======

We run Elasticutor on the SSE stream at 8/16/32 nodes with the offered
rate scaled to cluster capacity, and report measured throughput plus
the *actual wall-clock* time of our scheduler implementation
(model-based allocation + Algorithm 1) per scheduling round.  The
claims reproduced: throughput grows near-linearly with the cluster and
scheduling stays at a few milliseconds, growing only mildly with size.
"""
from __future__ import annotations

import pandas as pd

from repro.engine.simulator import EngineConfig
from repro.experiments.table2 import SSE_WARMUP_EPOCHS, sse_engine_inputs
from repro.paradigms.elasticutor import ElasticutorSim

PAPER_TABLE3 = pd.DataFrame(
    {
        "n_nodes": [8, 16, 32],
        "throughput_ktps": [66.6, 121.3, 218.6],
        "scheduling_ms": [4.1, 5.2, 5.7],
    }
)


def run_table3(node_counts=(8, 16, 32), *, n_epochs: int = 60) -> pd.DataFrame:
    """Measured Table 3: throughput (10^3 tuples/s) and mean scheduler
    wall-clock (ms) per cluster size."""
    rows = []
    for n in node_counts:
        spec, topo, trace = sse_engine_inputs(n_nodes=n, n_epochs=n_epochs)
        r = ElasticutorSim(topo, EngineConfig(spec=spec, warmup_epochs=SSE_WARMUP_EPOCHS)).run(trace)
        rows.append(
            {
                "n_nodes": n,
                "throughput_ktps": r.throughput_tps() / 1e3,
                "scheduling_ms": r.avg_sched_ms(),
                "avg_latency_ms": r.avg_latency_ms(),
            }
        )
    return pd.DataFrame(rows)


def format_table3(measured: pd.DataFrame) -> str:
    merged = PAPER_TABLE3.merge(measured, on="n_nodes", suffixes=(" (paper)", " (ours)"))
    return merged.to_string(index=False, float_format=lambda v: f"{v:.1f}")
