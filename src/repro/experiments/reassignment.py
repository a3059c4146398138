"""Shard-reassignment cost experiments (Fig. 8 / Fig. 9 shape).

Three views of the §3.3 protocol cost, combining the analytic cost
model (the same :mod:`repro.substrate.cluster` functions the engine
charges) with *measured* behaviour of the tuple-level elastic executor:

* ``reassignment_breakdown`` — Fig. 8: per-shard reassignment time,
  intra- vs inter-node, split into synchronisation and state-migration
  components, EC vs RC.
* ``sync_vs_upstream`` — Fig. 9(a): synchronisation time as the number
  of upstream executors grows.  EC is flat (~2 ms, executor-local
  labeling-tuple protocol, verified on the tuple-level executor); RC
  grows linearly with upstream parallelism.
* ``migration_vs_state`` — Fig. 9(b): state-migration time vs shard
  state size; intra-node is ~0 under intra-process state sharing.
"""
from __future__ import annotations

import pandas as pd

from repro.core.elastic_executor import ElasticExecutor
from repro.substrate import cluster
from repro.substrate.topology import DEFAULT_SHARD_STATE_BYTES


def measured_ec_sync_ms() -> float:
    """Run a real labeling-tuple reassignment with in-flight tuples on
    the tuple-level executor and report the charged sync time."""
    ex = ElasticExecutor(0, n_shards=8, local_node=0, fn=lambda k, v, st: v)
    t1 = ex.add_core(0)
    for i in range(50):  # tuples in flight when the move starts
        ex.receive(i, i)
    shard = 0
    ex.reassign_shard(shard, t1)
    ex.run_until_idle()
    return ex.sync_ms / max(1, ex.n_reassignments)


def reassignment_breakdown() -> pd.DataFrame:
    """Fig. 8: per-shard reassignment time (ms), sync vs migration, for
    the default shard state."""
    state_bytes = DEFAULT_SHARD_STATE_BYTES
    rows = []
    for scope, inter in (("intra-node", False), ("inter-node", True)):
        ec_sync, ec_mig = cluster.ec_shard_reassign_ms(state_bytes, inter)
        rows.append(
            {
                "approach": "elasticutor",
                "scope": scope,
                "sync_ms": ec_sync,
                "migration_ms": ec_mig,
                "total_ms": ec_sync + ec_mig,
            }
        )
        # RC amortises one global barrier (64 upstream executors) over
        # the 100 shards one repartitioning moves
        rc_sync = cluster.rc_sync_ms(64) / 100
        rc_mig = cluster.rc_shard_migration_ms(state_bytes, inter)
        rows.append(
            {
                "approach": "resource-centric",
                "scope": scope,
                "sync_ms": rc_sync,
                "migration_ms": rc_mig,
                "total_ms": rc_sync + rc_mig,
            }
        )
    return pd.DataFrame(rows)


def sync_vs_upstream(upstream_counts=(1, 4, 16, 64, 256)) -> pd.DataFrame:
    """Fig. 9(a): sync time vs #upstream executors.

    The EC number is *measured* on the tuple-level executor (it must be
    independent of upstream parallelism — no upstream ever participates
    in the protocol); the RC number is the barrier cost model.
    """
    ec = measured_ec_sync_ms()
    return pd.DataFrame(
        {
            "n_upstream": list(upstream_counts),
            "elasticutor_ms": [ec] * len(upstream_counts),
            "resource_centric_ms": [cluster.rc_sync_ms(u) for u in upstream_counts],
        }
    )


def migration_vs_state(
    state_sizes=(DEFAULT_SHARD_STATE_BYTES, 1 << 20, 1 << 23, 1 << 25)
) -> pd.DataFrame:
    """Fig. 9(b): migration time vs shard state size, intra/inter-node."""
    rows = []
    for s in state_sizes:
        _, ec_inter = cluster.ec_shard_reassign_ms(s, True)
        _, ec_intra = cluster.ec_shard_reassign_ms(s, False)
        rows.append(
            {
                "state_bytes": s,
                "ec_intra_ms": ec_intra,
                "ec_inter_ms": ec_inter,
                "rc_intra_ms": cluster.rc_shard_migration_ms(s, False),
                "rc_inter_ms": cluster.rc_shard_migration_ms(s, True),
            }
        )
    return pd.DataFrame(rows)
