"""Cluster substrate: nodes, CPU cores, and the network cost model.

The paper's testbed is 32 EC2 ``t2.2xlarge`` nodes (8 cores, 32 GB) on
1 Gbps Ethernet.  We model exactly the quantities its cost arguments
depend on:

* per-core compute capacity (CPU-ms of work per wall-clock second),
* per-node NIC bandwidth (all of an elastic executor's remote-task
  traffic funnels through its main process, §3.2/§5.2),
* network RTT (per-message protocol overheads),
* the elasticity protocol costs (sync and migration) for the
  executor-centric and resource-centric paradigms.

:class:`ClusterSpec` holds only the cluster's shape, which callers
vary.  The cost model is fixed for the whole evaluation, so it is module
constants and the functions below; each function reads the constants at
call time, so a test that overrides one changes every layer that
charges it (the engine, the paradigms and the tuple-level executor).
"""
from __future__ import annotations

from dataclasses import dataclass

#: CPU-ms of work one core completes per wall-clock second.
CORE_CAPACITY_MS_PER_S = 1000.0
#: per-node NIC: 1 Gbps Ethernet ~= 125 MB/s usable.
NIC_BYTES_PER_S = 125e6
#: one-way network round-trip, ms (fast LAN).
RTT_MS = 0.5
#: Elasticutor shard-reassignment synchronisation (§5.1: ~2 ms,
#: independent of upstream count — a purely executor-local pause).
EC_SYNC_MS = 2.0
#: per-shard migration protocol overhead on top of wire transfer.
MIGRATION_PROTO_MS = 1.0
#: RC barrier cost *per upstream executor*, paid twice per
#: repartitioning (pause + routing-table update).  Produces the
#: Fig. 9(a) scaling of sync time with upstream parallelism.
RC_BARRIER_MS_PER_UPSTREAM = 5.0
#: RC migrates shards serially under the operator-wide pause.
RC_MIGRATION_PROTO_MS = 5.0


@dataclass(frozen=True)
class ClusterSpec:
    """The simulated cluster's shape (§5's setup): the nodes, and the
    cores on each that the allocator and Algorithm 1 pack into."""

    n_nodes: int = 32
    cores_per_node: int = 8

    @property
    def total_cores(self) -> int:
        return self.n_nodes * self.cores_per_node


def transfer_ms(nbytes: float) -> float:
    """Wall-clock ms to push ``nbytes`` through one NIC."""
    return RTT_MS + 1000.0 * nbytes / NIC_BYTES_PER_S


def ec_shard_reassign_ms(state_bytes: float, inter_node: bool) -> tuple[float, float]:
    """(sync_ms, migration_ms) for one Elasticutor shard reassignment.

    Intra-node moves migrate nothing thanks to intra-process state
    sharing (§3.2); inter-node moves pay protocol + wire transfer.
    """
    migration = 0.0
    if inter_node:
        migration = MIGRATION_PROTO_MS + transfer_ms(state_bytes)
    return EC_SYNC_MS, migration


def rc_sync_ms(n_upstream: int) -> float:
    """RC operator-level repartitioning synchronisation time.

    Two global barriers across all upstream executors: pause
    emission, and (after migration) routing-table update.
    """
    return 2.0 * RC_BARRIER_MS_PER_UPSTREAM * max(1, n_upstream)


def rc_shard_migration_ms(state_bytes: float, inter_node: bool) -> float:
    """Per-shard migration cost inside an RC repartitioning."""
    if not inter_node:
        return 0.0  # RC gets the same intra-process sharing (§5 setup)
    return RC_MIGRATION_PROTO_MS + transfer_ms(state_bytes)
