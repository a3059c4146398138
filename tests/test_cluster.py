"""Unit tests for the cluster substrate and protocol cost model."""
import pytest

from repro.substrate import cluster
from repro.substrate.cluster import ClusterSpec


class TestClusterSpec:
    def test_paper_defaults(self):
        spec = ClusterSpec()
        assert spec.n_nodes == 32
        assert spec.cores_per_node == 8
        assert spec.total_cores == 256
        assert cluster.NIC_BYTES_PER_S == pytest.approx(125e6)

    def test_transfer_time_includes_rtt(self):
        assert cluster.transfer_ms(0) == pytest.approx(cluster.RTT_MS)
        # 125 MB at 125 MB/s = 1 s + rtt
        assert cluster.transfer_ms(125e6) == pytest.approx(1000.0 + cluster.RTT_MS)

    def test_ec_intra_node_migration_free(self):
        # Intra-process state sharing (§3.2): same-node moves migrate nothing.
        sync, mig = cluster.ec_shard_reassign_ms(32 * 1024, inter_node=False)
        assert sync == pytest.approx(cluster.EC_SYNC_MS)
        assert mig == 0.0

    def test_ec_inter_node_pays_transfer(self):
        _, mig = cluster.ec_shard_reassign_ms(32 * 1024, inter_node=True)
        assert mig > cluster.MIGRATION_PROTO_MS

    def test_ec_sync_independent_of_state(self):
        s1, _ = cluster.ec_shard_reassign_ms(1024, True)
        s2, _ = cluster.ec_shard_reassign_ms(1 << 25, True)
        assert s1 == s2 == cluster.EC_SYNC_MS

    def test_rc_sync_scales_with_upstream(self):
        # Fig. 9(a): RC sync grows with upstream parallelism.
        assert cluster.rc_sync_ms(64) == pytest.approx(4 * cluster.rc_sync_ms(16))
        assert cluster.rc_sync_ms(1) > 0

    def test_rc_sync_orders_of_magnitude_above_ec(self):
        assert cluster.rc_sync_ms(64) / cluster.EC_SYNC_MS > 100

    def test_rc_migration_intra_node_free(self):
        # The §5 fair-comparison setup gives RC the same state sharing.
        assert cluster.rc_shard_migration_ms(1 << 20, inter_node=False) == 0.0

    def test_migration_grows_with_state_size(self):
        # Fig. 9(b): wire transfer dominates at 32 MB.
        small = cluster.rc_shard_migration_ms(32 * 1024, True)
        big = cluster.rc_shard_migration_ms(1 << 25, True)
        assert big > 10 * small

    def test_costs_read_at_call_time(self, monkeypatch):
        # an override of a constant reaches every function that charges it
        monkeypatch.setattr(cluster, "NIC_BYTES_PER_S", 2e6)
        monkeypatch.setattr(cluster, "EC_SYNC_MS", 2.1)
        monkeypatch.setattr(cluster, "MIGRATION_PROTO_MS", 0.7)
        assert cluster.transfer_ms(2e6) == pytest.approx(1000.0 + cluster.RTT_MS)
        assert cluster.ec_shard_reassign_ms(0, True) == (2.1, 0.7 + cluster.RTT_MS)
        assert cluster.rc_shard_migration_ms(2e6, True) == pytest.approx(
            cluster.RC_MIGRATION_PROTO_MS + 1000.0 + cluster.RTT_MS
        )
