"""Tests for the tuple-level elastic executor (§3.2–§3.3): routing,
scaling, and the labeling-tuple consistent-reassignment protocol."""
import numpy as np
import pytest

from repro.core import shards as shard_hash
from repro.core.elastic_executor import ElasticExecutor
from repro.engine.metrics import EpochMetrics
from repro.engine.simulator import EngineConfig
from repro.paradigms.elasticutor import ElasticutorSim
from repro.substrate.cluster import ClusterSpec
from repro.substrate.topology import OperatorSpec, Topology


def counter_fn(key, value, state):
    """Stateful per-key counter: returns (count_so_far, value)."""
    n = (state.get(key) or 0) + 1
    state.put(key, n)
    return (n, value)


def make_exec(n_shards=8, fn=counter_fn, **kw):
    return ElasticExecutor(
        0, n_shards=n_shards, local_node=0, fn=fn, spec=ClusterSpec(), **kw
    )


class TestBasicProcessing:
    def test_processes_all_tuples(self):
        ex = make_exec()
        for i in range(100):
            ex.receive(i % 10, i)
        n = ex.run_until_idle()
        assert n == 100
        assert len(ex.emitted) == 100

    def test_stateful_counting(self):
        ex = make_exec()
        for _ in range(5):
            ex.receive(7, "x")
        ex.run_until_idle()
        counts = [t.value[0] for t in ex.emitted]
        assert counts == [1, 2, 3, 4, 5]

    def test_none_output_not_emitted(self):
        ex = make_exec(fn=lambda k, v, s: None)
        ex.receive(1, "a")
        ex.run_until_idle()
        assert ex.emitted == []

    def test_receiver_assigns_monotone_seq(self):
        ex = make_exec()
        ex.receive(1, "a")
        ex.receive(2, "b")
        ex.run_until_idle()
        seqs = sorted(t.seq for t in ex.emitted)
        assert seqs == [0, 1]

    def test_routing_follows_shard_map(self):
        ex = make_exec(n_shards=4)
        t1 = ex.add_core(0)
        ex.shard_to_task = [0, t1, 0, t1]
        key = 123
        shard = shard_hash.key_to_shard(key, 4)
        ex.receive(key, "v")
        owner = ex.shard_to_task[shard]
        assert ex.queue_sizes()[owner] == 1


class TestScaling:
    def test_add_core_creates_task(self):
        ex = make_exec()
        assert len(ex.tasks) == 1
        ex.add_core(0)
        ex.add_core(1)  # remote process
        assert len(ex.tasks) == 3
        assert {t.node for t in ex.tasks} == {0, 1}

    def test_remove_core_drains_and_deletes(self):
        ex = make_exec(n_shards=4)
        t1 = ex.add_core(0)
        ex.shard_to_task = [0, t1, 0, t1]
        for i in range(20):
            ex.receive(i, i)
        ex.remove_core(t1)
        ex.run_until_idle()
        assert len(ex.tasks) == 1
        assert len(ex.emitted) == 20  # nothing lost
        assert all(t == 0 for t in ex.shard_to_task)

    def test_cannot_remove_last_core(self):
        ex = make_exec()
        with pytest.raises(ValueError):
            ex.remove_core(ex.tasks[0].task_id)

    def test_remote_process_has_own_store(self):
        ex = make_exec()
        ex.add_core(2)
        assert ex.store_on(0) is not ex.store_on(2)

    def test_reassign_onto_draining_task_rejected(self):
        ex = make_exec()
        t1 = ex.add_core(0)
        ex.remove_core(t1)
        with pytest.raises(ValueError):
            ex.reassign_shard(0, t1)
        for i in range(20):
            ex.receive(i, i)
        assert ex.run_until_idle() == 20
        assert [t.task_id for t in ex.tasks] == [0]

    def test_drained_task_is_gone(self):
        ex = make_exec(n_shards=4)
        t1 = ex.add_core(0)
        ex.shard_to_task = [0, t1, 0, t1]
        for i in range(8):
            ex.receive(i, i)
        ex.remove_core(t1)
        ex.run_until_idle()
        with pytest.raises(KeyError, match=f"task {t1}"):
            ex._task(t1)
        with pytest.raises(KeyError, match=f"task {t1}"):
            ex.remove_core(t1)

    def test_remove_core_retargets_inflight_move(self):
        """Removing the destination of an in-flight reassignment sends
        the shard to the shortest-queue survivor, with FIFO order and
        state intact."""
        ex = make_exec(n_shards=4)
        t1 = ex.add_core(0)
        t2 = ex.add_core(1)
        key = 5
        shard = shard_hash.key_to_shard(key, 4)
        for i in range(3):
            ex.receive(key, i)
        ex.reassign_shard(shard, t1)  # label queued behind 3 tuples on task 0
        ex.remove_core(t1)
        ex.step(t2)  # collects the drained t1 before the label is processed
        for i in range(3, 6):
            ex.receive(key, i)
        assert ex.run_until_idle() == 6
        assert ex.shard_to_task[shard] == t2
        assert [t.value for t in ex.emitted] == [(n, n - 1) for n in range(1, 7)]
        assert ex.store_on(1).get(shard, key) == 6
        assert not ex.store_on(0).has_shard(shard)
        assert {t.task_id for t in ex.tasks} == {0, t2}


class TestConsistentReassignment:
    def test_per_key_fifo_order_preserved(self):
        """§3.3: tuples of one key must be processed in arrival order
        even when their shard moves mid-stream with tuples in flight."""
        ex = make_exec(n_shards=2)
        t1 = ex.add_core(0)
        key = 5
        shard = shard_hash.key_to_shard(key, 2)
        src = ex.shard_to_task[shard]
        # queue some tuples on the source task (t1, the pending queue)
        for i in range(10):
            ex.receive(key, i)
        dst = t1 if src != t1 else 0
        ex.reassign_shard(shard, dst)
        # more tuples arrive during the reassignment — they are buffered
        for i in range(10, 20):
            ex.receive(key, i)
        ex.run_until_idle()
        got = [t.value[1] for t in ex.emitted if t.key == key]
        assert got == list(range(20))
        # and the state saw every update exactly once, in order
        counts = [t.value[0] for t in ex.emitted if t.key == key]
        assert counts == list(range(1, 21))

    def test_no_lost_state_updates_on_remote_move(self):
        """Pending tuples are processed before the state migrates, so
        their updates travel with the shard (the t1-loss scenario of
        Fig. 4)."""
        ex = make_exec(n_shards=1)
        key = 9
        for i in range(5):
            ex.receive(key, i)
        remote = ex.add_core(3)  # remote node, new process
        ex.reassign_shard(0, remote)
        for i in range(5, 8):
            ex.receive(key, i)
        ex.run_until_idle()
        counts = [t.value[0] for t in ex.emitted]
        assert counts == list(range(1, 9))
        # state now lives in the remote process only
        assert ex.store_on(3).get(0, key) == 8
        assert not ex.store_on(0).has_shard(0)

    def test_intra_node_move_migrates_nothing(self):
        """§3.2 intra-process state sharing: same-node reassignments
        must not serialize state."""
        ex = make_exec(n_shards=1)
        ex.receive(1, "a")
        ex.run_until_idle()
        local = ex.add_core(0)
        ex.reassign_shard(0, local)
        ex.run_until_idle()
        assert ex.migrated_bytes == 0
        assert ex.migration_ms == 0.0

    def test_inter_node_move_charges_migration(self):
        ex = make_exec(n_shards=1)
        ex.receive(1, "a")
        ex.run_until_idle()
        remote = ex.add_core(1)
        ex.reassign_shard(0, remote)
        ex.run_until_idle()
        assert ex.migrated_bytes == ex.shard_state_bytes
        assert ex.migration_ms > 0

    def test_sync_cost_constant_per_reassignment(self):
        ex = make_exec(n_shards=4)
        t1 = ex.add_core(0)
        ex.reassign_shard(0, t1)
        ex.run_until_idle()
        ex.reassign_shard(1, t1)
        ex.run_until_idle()
        assert ex.sync_ms == pytest.approx(2 * ex.spec.ec_sync_ms)
        assert ex.n_reassignments == 2

    def test_reassign_to_same_task_noop(self):
        ex = make_exec(n_shards=2)
        owner = ex.shard_to_task[0]
        ex.reassign_shard(0, owner)
        assert ex.n_reassignments == 0

    def test_double_reassign_same_shard_rejected(self):
        ex = make_exec(n_shards=2)
        t1 = ex.add_core(0)
        ex.receive(5, "x")  # leave something pending so protocol is open
        ex.reassign_shard(0, t1)
        with pytest.raises(ValueError):
            ex.reassign_shard(0, 0)

    def test_routing_table_updated_after_completion(self):
        ex = make_exec(n_shards=2)
        t1 = ex.add_core(0)
        ex.reassign_shard(0, t1)
        ex.run_until_idle()
        assert ex.shard_to_task[0] == t1

    def test_stateless_fn_creates_no_shard(self):
        """A shard appears in a store on the first state access only, so
        moving a shard no tuple touched state of migrates nothing."""
        ex = make_exec(n_shards=4, fn=lambda k, v, s: v)
        remote = ex.add_core(1)
        key = 5
        shard = shard_hash.key_to_shard(key, 4)
        for i in range(3):
            ex.receive(key, i)
        ex.reassign_shard(shard, remote)
        ex.receive(key, 3)
        ex.run_until_idle()
        assert [t.value for t in ex.emitted] == [0, 1, 2, 3]
        assert ex.shard_to_task[shard] == remote
        assert not ex.store_on(0).has_shard(shard)
        assert not ex.store_on(1).has_shard(shard)
        assert ex.migrated_bytes == 0

    def test_outstanding_reassignment_without_label_raises(self):
        """Every outstanding reassignment has its label queued; one left
        with every queue empty is a protocol bug, not more work."""
        from repro.core.elastic_executor import _Reassignment

        ex = make_exec(n_shards=2)
        t1 = ex.add_core(0)
        ex._pending_reassign[0] = _Reassignment(0, 0, t1)
        with pytest.raises(RuntimeError, match="labeling tuple"):
            ex.run_until_idle()

    def test_buffered_tuples_not_processed_before_label(self):
        """While the shard is paused, buffered tuples must not overtake
        the labeling tuple (order inversion of Fig. 4)."""
        ex = make_exec(n_shards=1)
        t1 = ex.add_core(0)
        for i in range(3):
            ex.receive(1, i)
        ex.reassign_shard(0, t1)
        ex.receive(1, 3)  # buffered at the receiver
        # step only the destination: nothing should process (shard
        # tuples are all either pending on src or buffered)
        n = ex.step(task_id=t1, max_tuples=10)
        assert n == 0
        ex.run_until_idle()
        assert [t.value[1] for t in ex.emitted] == [0, 1, 2, 3]

    def test_many_shards_many_moves_all_consistent(self):
        rng = np.random.default_rng(0)
        ex = make_exec(n_shards=16)
        tasks = [ex.tasks[0].task_id, ex.add_core(0), ex.add_core(1), ex.add_core(2)]
        expected_per_key: dict[int, int] = {}
        for round_ in range(6):
            for i in range(200):
                k = int(rng.integers(0, 50))
                expected_per_key[k] = expected_per_key.get(k, 0) + 1
                ex.receive(k, round_ * 200 + i)
            movable = [
                s for s in range(16) if s not in ex._pending_reassign
            ]
            s = int(rng.choice(movable))
            ex.reassign_shard(s, int(rng.choice(tasks)))
            ex.step(max_tuples=3)
        ex.run_until_idle()
        got: dict[int, int] = {}
        for t in ex.emitted:
            got[t.key] = max(got.get(t.key, 0), t.value[0])
        assert got == expected_per_key


class TestCostMatchesEngine:
    """The executor and the engine charge a shard move from one cost
    model, :meth:`ClusterSpec.ec_shard_reassign_ms`.  Fractional costs
    and an odd state size make any second formula show."""

    SPEC = ClusterSpec(n_nodes=2, cores_per_node=2, ec_sync_ms=2.1, migration_proto_ms=0.7)
    NBYTES = 12_345

    def executor_move(self, dst_node):
        ex = ElasticExecutor(
            0, n_shards=1, local_node=0, fn=counter_fn, spec=self.SPEC,
            shard_state_bytes=self.NBYTES,
        )
        ex.receive(1, "a")
        ex.run_until_idle()
        ex.reassign_shard(0, ex.add_core(dst_node))
        ex.run_until_idle()
        return ex

    def engine_move(self, inter):
        topo = Topology(
            [OperatorSpec("op", cpu_cost_ms=1.0, tuple_bytes=128, n_executors=1,
                          shards_per_executor=4, shard_state_bytes=self.NBYTES)],
            [],
        )
        sim = ElasticutorSim(topo, EngineConfig(spec=self.SPEC))
        sim.setup(10)
        rt, m = sim.ops["op"], EpochMetrics(epoch=0)
        sim._charge_moves(m, np.array([0]), np.array([inter]))
        return rt, m

    def test_inter_node_move(self):
        ex = self.executor_move(1)
        assert (ex.sync_ms, ex.migration_ms) == self.SPEC.ec_shard_reassign_ms(self.NBYTES, True)
        assert ex.migrated_bytes == self.NBYTES
        rt, m = self.engine_move(True)
        assert (m.sync_ms, m.migrated_bytes) == (ex.sync_ms, ex.migrated_bytes)
        assert rt.pause_ms[0] == ex.sync_ms + ex.migration_ms

    def test_intra_node_move(self):
        ex = self.executor_move(0)
        assert (ex.sync_ms, ex.migration_ms) == (self.SPEC.ec_sync_ms, 0.0)
        assert ex.migrated_bytes == 0
        rt, m = self.engine_move(False)
        assert (m.sync_ms, m.migrated_bytes) == (ex.sync_ms, ex.migrated_bytes)
        assert rt.pause_ms[0] == ex.sync_ms + ex.migration_ms
