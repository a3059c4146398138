"""Smoke + shape tests for the experiment harnesses at reduced scale.

Full-scale numbers live in EXPERIMENTS.md (regenerated by the
benchmarks); these tests assert the *orderings* the paper claims, on
configurations small enough for CI.
"""
import numpy as np
import pytest

from repro.experiments import micro as xmicro
from repro.experiments import params as xparams
from repro.experiments import reassignment as xreassign
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import PAPER_TABLE2, format_table2, run_table2
from repro.experiments.table3 import PAPER_TABLE3, format_table3, run_table3
from repro.substrate import cluster
from repro.substrate.cluster import ClusterSpec


#: 64-core test-scale configuration.  Skew is raised from the paper's
#: 0.5 to 0.65: at 64 cores the law of large numbers smooths executor
#: loads, so a slightly hotter head is needed to expose the same
#: static-paradigm imbalance the paper sees at 256 cores.
SMALL = dict(
    spec=ClusterSpec(n_nodes=8, cores_per_node=8),
    topology=xmicro.micro_topology(n_executors=8, shards_per_executor=64),
    n_epochs=30,
    n_keys=5000,
    skew=0.65,
    warmup=5,
)


class TestMicro:
    @pytest.fixture(scope="class")
    def cells(self):
        out = {}
        for p in ("static", "resource-centric", "elasticutor"):
            for omega in (2, 16):
                out[(p, omega)] = xmicro.run_micro_cell(p, omega=omega, **SMALL)
        return out

    def test_elasticutor_beats_static_throughput(self, cells):
        # Fig. 6: roughly a 2x gap under skewed keys
        assert (
            cells[("elasticutor", 2)].throughput_tps()
            > 1.3 * cells[("static", 2)].throughput_tps()
        )

    def test_elasticutor_latency_orders_below_static(self, cells):
        # full order-of-magnitude gaps appear at 256 cores (bench_micro);
        # at 64 cores the hot-key shard keeps EC's tail up
        assert (
            cells[("elasticutor", 2)].avg_latency_ms()
            < 0.25 * cells[("static", 2)].avg_latency_ms()
        )

    def test_rc_collapses_at_high_omega(self, cells):
        # Fig. 6: RC becomes useless as ω reaches 16
        # (the collapse deepens with cluster scale; at this small test
        # scale RC retains ~60 % of Elasticutor's throughput, at the
        # paper's 256 cores it drops to ~35 % — see EXPERIMENTS.md)
        assert (
            cells[("resource-centric", 16)].throughput_tps()
            < 0.7 * cells[("elasticutor", 16)].throughput_tps()
        )

    def test_rc_latency_orders_above_elasticutor(self, cells):
        assert (
            cells[("resource-centric", 16)].avg_latency_ms()
            > 20 * cells[("elasticutor", 16)].avg_latency_ms()
        )

    def test_elasticutor_robust_to_omega(self, cells):
        # Fig. 6: Elasticutor's degradation with ω is marginal
        t2 = cells[("elasticutor", 2)].throughput_tps()
        t16 = cells[("elasticutor", 16)].throughput_tps()
        assert t16 > 0.85 * t2

    def test_sweep_dataframe_shape(self):
        df = xmicro.micro_sweep(omegas=(0,), paradigms=("static",), **SMALL)
        assert len(df) == 1
        assert {"omega", "paradigm", "throughput_tps"} <= set(df.columns)

    def test_instantaneous_trajectory(self):
        df = xmicro.instantaneous_throughput("elasticutor", omega=2, **SMALL)
        assert len(df) == SMALL["n_epochs"]
        assert (df["processed"] >= 0).all()


class TestTable1:
    def test_paper_cells(self):
        df = run_table1(n_nodes=4, n_epochs=20)
        rows = {r["paradigm"]: r for _, r in df.iterrows()}
        assert rows["static"]["operator_level_partitioning"] == "static"
        assert rows["static"]["cpu_to_executor"] == "one-to-one"
        assert rows["static"]["elasticity"] == "N/A"
        assert rows["resource-centric"]["operator_level_partitioning"] == "dynamic"
        assert rows["resource-centric"]["elasticity"] == "slow"
        assert rows["elasticutor"]["operator_level_partitioning"] == "static"
        assert rows["elasticutor"]["cpu_to_executor"] == "many-to-one"
        assert rows["elasticutor"]["elasticity"] == "rapid"


class TestTable2:
    @pytest.fixture(scope="class")
    def measured(self):
        return run_table2(n_nodes=16, n_epochs=25)

    def test_direction_matches_paper(self, measured):
        m = measured.set_index("metric")
        assert (
            m.loc["remote_transfer_mbps", "naive-ec"]
            > m.loc["remote_transfer_mbps", "elasticutor"]
        )
        total_naive = m["naive-ec"].sum()
        total_ec = m["elasticutor"].sum()
        assert total_naive > 1.5 * total_ec

    def test_format_includes_paper_numbers(self, measured):
        out = format_table2(measured)
        assert "13.9" in out and "235.3" in out

    def test_paper_reference_table(self):
        assert PAPER_TABLE2.shape == (2, 3)


class TestTable3:
    @pytest.fixture(scope="class")
    def measured(self):
        return run_table3(node_counts=(4, 8), n_epochs=25)

    def test_throughput_scales_with_cluster(self, measured):
        t = measured.set_index("n_nodes")["throughput_ktps"]
        assert t[8] > 1.6 * t[4]

    def test_scheduling_stays_milliseconds(self, measured):
        assert (measured["scheduling_ms"] < 50).all()
        assert (measured["scheduling_ms"] > 0).all()

    def test_format_includes_paper_numbers(self, measured):
        out = format_table3(run_table3(node_counts=(8,), n_epochs=10))
        assert "66.6" in out

    def test_paper_reference_table(self):
        assert list(PAPER_TABLE3["n_nodes"]) == [8, 16, 32]


class TestReassignment:
    def test_breakdown_shape(self):
        df = xreassign.reassignment_breakdown()
        assert len(df) == 4
        ec_intra = df[(df.approach == "elasticutor") & (df.scope == "intra-node")]
        assert float(ec_intra["migration_ms"].iloc[0]) == 0.0

    def test_sync_vs_upstream_fig9a(self):
        df = xreassign.sync_vs_upstream((1, 64))
        # EC flat, RC grows and dwarfs EC at 64 upstream executors
        assert df["elasticutor_ms"].nunique() == 1
        assert df["resource_centric_ms"].iloc[-1] > 50 * df["elasticutor_ms"].iloc[-1]

    def test_measured_ec_sync_matches_model(self):
        assert xreassign.measured_ec_sync_ms() == pytest.approx(cluster.EC_SYNC_MS)

    def test_migration_vs_state_fig9b(self):
        df = xreassign.migration_vs_state((32 * 1024, 1 << 25))
        assert (df["ec_intra_ms"] == 0).all()  # intra-process sharing
        assert df["ec_inter_ms"].iloc[-1] > 100  # 32 MB over 1 Gbps
        # EC migrates no slower than RC for the same state
        assert (df["ec_inter_ms"] <= df["rc_inter_ms"]).all()


class TestParams:
    def test_z_one_hurts(self):
        small = dict(spec=ClusterSpec(n_nodes=8, cores_per_node=8), n_epochs=20, n_keys=5000)
        coarse = xparams.run_params_cell(y=8, z=1, **small)
        fine = xparams.run_params_cell(y=8, z=64, **small)
        assert fine["throughput_tps"] > 1.2 * coarse["throughput_tps"]

    def test_y_equals_cores_degrades(self):
        small = dict(spec=ClusterSpec(n_nodes=8, cores_per_node=8), n_epochs=20, n_keys=5000)
        pinned = xparams.run_params_cell(y=64, z=16, **small)
        elastic = xparams.run_params_cell(y=8, z=64, **small)
        # at 64 cores the static penalty is milder than at 256 (fewer
        # keys per executor amplify skew at scale); the ordering holds
        assert elastic["throughput_tps"] > 1.1 * pinned["throughput_tps"]

    def test_data_intensive_small_y_collapses(self):
        small = dict(spec=ClusterSpec(n_nodes=8, cores_per_node=8), n_epochs=20, n_keys=5000)
        thin = xparams.run_params_cell(y=1, z=256, tuple_bytes=8192, **small)
        wide = xparams.run_params_cell(y=8, z=64, tuple_bytes=8192, **small)
        assert wide["throughput_tps"] > 1.5 * thin["throughput_tps"]
        # the single executor is NIC-bound
        assert thin["remote_rate_mbps"] > 50.0

    def test_sweep_grid(self):
        df = xparams.params_sweep(
            ys=(2, 4), zs=(4, 16), workload="default",
            spec=ClusterSpec(n_nodes=4, cores_per_node=4), n_epochs=10, n_keys=500,
        )
        assert len(df) == 4
        assert (df["workload"] == "default").all()
