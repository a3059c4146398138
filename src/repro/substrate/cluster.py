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

Size, NIC and Elasticutor protocol costs are :class:`ClusterSpec` fields,
which tests vary; the costs no caller varies are module constants.
"""
from __future__ import annotations

from dataclasses import dataclass

#: CPU-ms of work one core completes per wall-clock second.
CORE_CAPACITY_MS_PER_S = 1000.0
#: one-way network round-trip, ms (fast LAN).
RTT_MS = 0.5
#: RC barrier cost *per upstream executor*, paid twice per
#: repartitioning (pause + routing-table update).  Produces the
#: Fig. 9(a) scaling of sync time with upstream parallelism.
RC_BARRIER_MS_PER_UPSTREAM = 5.0
#: RC migrates shards serially under the operator-wide pause.
RC_MIGRATION_PROTO_MS = 5.0


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of the simulated cluster and its cost model.

    Attributes mirror §5's experimental setup; all times are in
    milliseconds, sizes in bytes, rates in bytes/second.
    """

    n_nodes: int = 32
    cores_per_node: int = 8
    #: 1 Gbps Ethernet ~= 125 MB/s usable.
    nic_bytes_per_s: float = 125e6
    #: Elasticutor shard-reassignment synchronisation (§5.1: ~2 ms,
    #: independent of upstream count — a purely executor-local pause).
    ec_sync_ms: float = 2.0
    #: per-shard migration protocol overhead on top of wire transfer.
    migration_proto_ms: float = 1.0

    @property
    def total_cores(self) -> int:
        return self.n_nodes * self.cores_per_node

    def transfer_ms(self, nbytes: float) -> float:
        """Wall-clock ms to push ``nbytes`` through one NIC."""
        return RTT_MS + 1000.0 * nbytes / self.nic_bytes_per_s

    def ec_shard_reassign_ms(self, state_bytes: float, inter_node: bool) -> tuple[float, float]:
        """(sync_ms, migration_ms) for one Elasticutor shard reassignment.

        Intra-node moves migrate nothing thanks to intra-process state
        sharing (§3.2); inter-node moves pay protocol + wire transfer.
        """
        sync = self.ec_sync_ms
        migration = 0.0
        if inter_node:
            migration = self.migration_proto_ms + self.transfer_ms(state_bytes)
        return sync, migration

    def rc_sync_ms(self, n_upstream: int) -> float:
        """RC operator-level repartitioning synchronisation time.

        Two global barriers across all upstream executors: pause
        emission, and (after migration) routing-table update.
        """
        return 2.0 * RC_BARRIER_MS_PER_UPSTREAM * max(1, n_upstream)

    def rc_shard_migration_ms(self, state_bytes: float, inter_node: bool) -> float:
        """Per-shard migration cost inside an RC repartitioning."""
        if not inter_node:
            return 0.0  # RC gets the same intra-process sharing (§5 setup)
        return RC_MIGRATION_PROTO_MS + self.transfer_ms(state_bytes)

