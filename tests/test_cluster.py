"""Unit tests for the cluster substrate and protocol cost model."""
import pytest

from repro.substrate.cluster import RTT_MS, ClusterSpec


class TestClusterSpec:
    def test_paper_defaults(self):
        spec = ClusterSpec()
        assert spec.n_nodes == 32
        assert spec.cores_per_node == 8
        assert spec.total_cores == 256
        assert spec.nic_bytes_per_s == pytest.approx(125e6)

    def test_transfer_time_includes_rtt(self):
        spec = ClusterSpec()
        assert spec.transfer_ms(0) == pytest.approx(RTT_MS)
        # 125 MB at 125 MB/s = 1 s + rtt
        assert spec.transfer_ms(125e6) == pytest.approx(1000.0 + RTT_MS)

    def test_ec_intra_node_migration_free(self):
        # Intra-process state sharing (§3.2): same-node moves migrate nothing.
        spec = ClusterSpec()
        sync, mig = spec.ec_shard_reassign_ms(32 * 1024, inter_node=False)
        assert sync == pytest.approx(spec.ec_sync_ms)
        assert mig == 0.0

    def test_ec_inter_node_pays_transfer(self):
        spec = ClusterSpec()
        _, mig = spec.ec_shard_reassign_ms(32 * 1024, inter_node=True)
        assert mig > spec.migration_proto_ms

    def test_ec_sync_independent_of_state(self):
        spec = ClusterSpec()
        s1, _ = spec.ec_shard_reassign_ms(1024, True)
        s2, _ = spec.ec_shard_reassign_ms(1 << 25, True)
        assert s1 == s2 == spec.ec_sync_ms

    def test_rc_sync_scales_with_upstream(self):
        # Fig. 9(a): RC sync grows with upstream parallelism.
        spec = ClusterSpec()
        assert spec.rc_sync_ms(64) == pytest.approx(4 * spec.rc_sync_ms(16))
        assert spec.rc_sync_ms(1) > 0

    def test_rc_sync_orders_of_magnitude_above_ec(self):
        spec = ClusterSpec()
        assert spec.rc_sync_ms(64) / spec.ec_sync_ms > 100

    def test_rc_migration_intra_node_free(self):
        # The §5 fair-comparison setup gives RC the same state sharing.
        spec = ClusterSpec()
        assert spec.rc_shard_migration_ms(1 << 20, inter_node=False) == 0.0

    def test_migration_grows_with_state_size(self):
        # Fig. 9(b): wire transfer dominates at 32 MB.
        spec = ClusterSpec()
        small = spec.rc_shard_migration_ms(32 * 1024, True)
        big = spec.rc_shard_migration_ms(1 << 25, True)
        assert big > 10 * small

