"""Tests for the tuple-level elastic executor (§3.2–§3.3): routing,
scaling, and the labeling-tuple consistent-reassignment protocol."""
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import shards as shard_hash
from repro.core.elastic_executor import ElasticExecutor
from repro.core.state import StateAccessor
from repro.engine.metrics import EpochMetrics
from repro.engine.simulator import EngineConfig
from repro.experiments.micro import micro_topology
from repro.paradigms.elasticutor import ElasticutorSim
from repro.streams.microbench import micro_trace
from repro.substrate import cluster
from repro.substrate.cluster import ClusterSpec
from repro.substrate.topology import OperatorSpec, Topology


def counter_fn(key, value, state):
    """Stateful per-key counter: returns (count_so_far, value)."""
    n = (state.get(key) or 0) + 1
    state.put(key, n)
    return (n, value)


def make_exec(n_shards=8, fn=counter_fn, **kw):
    return ElasticExecutor(0, n_shards=n_shards, local_node=0, fn=fn, **kw)


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

    def test_shard_map_assignment_checked(self):
        ex = make_exec(n_shards=4)
        t1 = ex.add_core(0)
        with pytest.raises(ValueError, match="one owner per shard"):
            ex.shard_to_task = [0, t1]
        ex.receive(key_of_shard(0, 4), "v")
        ex.reassign_shard(0, t1)
        with pytest.raises(ValueError, match="in flight"):
            ex.shard_to_task = [t1] * 4
        assert ex.shard_to_task == [0] * 4


#: keys the receiver accepts: Python ints in [-2**63, 2**64), NumPy
#: integer scalars, bools and integral floats (equal keys of different
#: types share one memo entry, so their shards must agree)
ROUTABLE_KEYS = st.one_of(
    st.integers(-(2**63), 2**64 - 1),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.booleans(),
    st.integers(-(2**63), 2**64 - 1).map(float).filter(lambda f: f < 2**64),
    st.sampled_from([0, 1, -1, -(2**63), 2**63, 2**64 - 2**11]).flatmap(
        lambda k: st.sampled_from([k, float(k), np.uint64(k % 2**64)])
    ),
)


class TestShardMemo:
    """The receiver hashes a key on its first arrival only; every
    arrival must still be queued under ``key_to_shard(key, n_shards)``."""

    @given(keys=st.lists(ROUTABLE_KEYS, max_size=40), n_shards=st.integers(1, 300))
    @settings(max_examples=200, deadline=None)
    def test_queued_shard_is_the_hash(self, keys, n_shards):
        ex = make_exec(n_shards=n_shards)
        for k in keys + keys:
            ex.receive(k, None)
        queued = [shard for shard, *_ in ex.tasks[0].pending]
        assert queued == [shard_hash.key_to_shard(k, n_shards) for k in keys + keys]
        assert len(ex._shard_of) == len(set(keys))

    @given(key=st.integers(2**64, 2**80) | st.integers(-(2**80), -(2**63) - 1))
    @settings(max_examples=50, deadline=None)
    def test_out_of_range_key_raises_every_time(self, key):
        ex = make_exec()
        for _ in range(3):
            with pytest.raises(OverflowError):
                ex.receive(key, None)
            assert ex._shard_of == {}
        assert ex.queue_sizes() == {0: 0}


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

    def test_shard_map_onto_draining_task_rejected(self):
        """A draining task is collected once its queue empties, so a
        shard mapped to it would lose every later tuple."""
        ex = make_exec(n_shards=4)
        t1 = ex.add_core(0)
        ex.remove_core(t1)
        with pytest.raises(ValueError, match=f"task {t1} is being removed"):
            ex.shard_to_task = [t1] * 4
        assert ex.shard_to_task == [0] * 4
        ex.run_until_idle()
        for i in range(20):
            ex.receive(i, i)
        assert ex.run_until_idle() == 20
        assert len(ex.emitted) == 20

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
        assert StateAccessor(ex.store_on(1), shard).get(key) == 6
        assert not ex.store_on(0).has_shard(shard)
        assert {t.task_id for t in ex.tasks} == {0, t2}

    def test_remove_core_retargets_past_the_source(self):
        """A move re-targeted by ``remove_core`` never lands on its own
        source, even when the source has the shortest queue."""
        ex = make_exec(n_shards=4)
        t1, t2 = ex.add_core(0), ex.add_core(0)
        ex.shard_to_task = [0, t2, 0, 0]
        for i in range(3):
            ex.receive(key_of_shard(1, 4), i)  # t2's queue is the longest
        ex.reassign_shard(0, t1)
        ex.remove_core(t1)
        assert ex._pending_reassign[0].dst_task == t2
        ex.run_until_idle()
        assert ex.shard_to_task == [t2, t2, 0, 0]
        assert ex.n_reassignments == 1
        assert ex.sync_ms == cluster.EC_SYNC_MS

    def test_remove_core_cancels_move_onto_only_survivor(self):
        """With the source as the only survivor, a move onto the removed
        task is cancelled: its label is withdrawn, its buffered tuples
        join the source queue in order and its sync charge is refunded."""
        ex = make_exec(n_shards=4)
        t1 = ex.add_core(0)
        key = key_of_shard(0, 4)
        for i in range(3):
            ex.receive(key, i)
        ex.reassign_shard(0, t1)
        ex.receive(key, 3)  # buffered at the receiver
        ex.remove_core(t1)
        assert ex._pending_reassign == {}
        assert ex._route[0] is ex._task(0).pending
        assert [value for _, _, value, _ in ex._task(0).pending] == [0, 1, 2, 3]
        ex.receive(key, 4)
        assert ex.run_until_idle() == 5
        assert [t.value for t in ex.emitted] == [(n, n - 1) for n in range(1, 6)]
        assert ex.shard_to_task == [0] * 4
        assert (ex.n_reassignments, ex.sync_ms) == (0, 0.0)
        assert [t.task_id for t in ex.tasks] == [0]

    def test_cancel_finds_label_by_identity(self):
        """A key equal to anything must not be taken for the label when
        a cancelled move withdraws it from the source queue."""

        class EqualsAll(int):
            __hash__ = int.__hash__

            def __eq__(self, other):
                return True

        ex = make_exec(n_shards=4)
        t1 = ex.add_core(0)
        key = EqualsAll(key_of_shard(0, 4))
        for i in range(3):
            ex.receive(key, i)
        ex.reassign_shard(0, t1)
        ex.receive(key, 3)  # buffered at the receiver
        ex.remove_core(t1)
        assert [(shard, value, seq) for shard, _, value, seq in ex._task(0).pending] == [
            (0, i, i) for i in range(4)
        ]
        assert ex.run_until_idle() == 4
        assert [t.value for t in ex.emitted] == [(n, n - 1) for n in range(1, 5)]


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
        assert StateAccessor(ex.store_on(3), 0).get(key) == 8
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
        assert ex.sync_ms == pytest.approx(2 * cluster.EC_SYNC_MS)
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

    def test_shard_moved_away_and_back_across_nodes(self):
        """A → B → A, twice, with writes at every stop: each store's cached
        accessor goes with the exported state, so no update lands in a
        store the shard has left."""
        ex = make_exec(n_shards=4)
        remote = ex.add_core(1)
        key = key_of_shard(0, 4)
        received = 0
        for dst in (remote, 0, remote, 0):
            for _ in range(3):
                ex.receive(key, received)
                received += 1
            ex.reassign_shard(0, dst)
            ex.receive(key, received)  # buffered, then written at dst
            received += 1
            ex.run_until_idle()
        assert [t.value[0] for t in ex.emitted] == list(range(1, received + 1))
        local, far = ex.store_on(0), ex.store_on(1)
        assert local.ensure_shard(0).data == {key: received}
        assert not far.has_shard(0) and 0 not in far.accessors
        assert local.accessors[0]._data is local.ensure_shard(0).data
        assert ex.migrated_bytes == 4 * ex.shard_state_bytes

    def test_stateless_fn_reuses_accessor_without_creating_shard(self):
        """Every tuple of a shard gets the store's one accessor, and
        reusing it without a ``get``/``put`` creates no shard."""
        handles = []
        ex = make_exec(n_shards=4, fn=lambda k, v, s: handles.append(s))
        key = key_of_shard(2, 4)
        for i in range(5):
            ex.receive(key, i)
        assert ex.run_until_idle() == 5
        store = ex.store_on(0)
        assert len(handles) == 5 and all(h is store.accessors[2] for h in handles)
        assert list(store.shard_ids()) == []

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
    model, :func:`repro.substrate.cluster.ec_shard_reassign_ms`.
    Fractional costs, set once for both, and an odd state size make any
    second formula show."""

    SPEC = ClusterSpec(n_nodes=2, cores_per_node=2)
    NBYTES = 12_345
    SYNC_MS = 2.1

    @pytest.fixture(autouse=True)
    def fractional_costs(self, monkeypatch):
        monkeypatch.setattr(cluster, "EC_SYNC_MS", self.SYNC_MS)
        monkeypatch.setattr(cluster, "MIGRATION_PROTO_MS", 0.7)

    def executor_move(self, dst_node):
        ex = ElasticExecutor(
            0, n_shards=1, local_node=0, fn=counter_fn, shard_state_bytes=self.NBYTES
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
        assert (ex.sync_ms, ex.migration_ms) == cluster.ec_shard_reassign_ms(self.NBYTES, True)
        assert ex.migrated_bytes == self.NBYTES
        rt, m = self.engine_move(True)
        assert (m.sync_ms, m.migrated_bytes) == (ex.sync_ms, ex.migrated_bytes)
        assert rt.pause_ms[0] == ex.sync_ms + ex.migration_ms

    def test_intra_node_move(self):
        ex = self.executor_move(0)
        assert (ex.sync_ms, ex.migration_ms) == (self.SYNC_MS, 0.0)
        assert ex.migrated_bytes == 0
        rt, m = self.engine_move(False)
        assert (m.sync_ms, m.migrated_bytes) == (ex.sync_ms, ex.migrated_bytes)
        assert rt.pause_ms[0] == ex.sync_ms + ex.migration_ms


def key_of_shard(shard, n_shards):
    """The smallest key that hashes to ``shard``."""
    return next(k for k in range(100 * n_shards) if shard_hash.key_to_shard(k, n_shards) == shard)


class RecordingElasticutor(ElasticutorSim):
    """Keeps, per call of ``_apply``, the node of each shard's task
    before and after it, and the move lists it charges."""

    def setup(self, n_keys):
        super().setup(n_keys)
        self.applied = []

    def _apply(self, X, loads, m):
        before = self._task_node[self._shard_task]
        charged = []

        def record(m, shards, inter):
            charged.append((shards, inter))
            ElasticutorSim._charge_moves(self, m, shards, inter)

        self._charge_moves = record
        super()._apply(X, loads, m)
        del self._charge_moves
        self.applied.append((before, self._task_node[self._shard_task], charged))


class TestEngineMoveListReplay:
    """A whole move list of the engine, replayed through the tuple-level
    executor, costs what the engine charges for it.  The fractional
    costs are set once, in ``repro.substrate.cluster``, for both layers."""

    def engine_moves(self):
        """The largest single-executor move list of a micro run that has
        both intra- and inter-node moves and moves each shard once, as
        (sim, executor, shards, inter, src nodes, dst nodes)."""
        topo = micro_topology(n_executors=4, shards_per_executor=16)
        cfg = EngineConfig(spec=ClusterSpec(n_nodes=4, cores_per_node=4), warmup_epochs=0)
        sim = RecordingElasticutor(topo, cfg)
        sim.run(micro_trace(n_epochs=25, rate=12_000, n_keys=500, omega=8, seed=0))
        best = None
        for before, after, charged in sim.applied:
            for shards, inter in charged:
                for j in np.unique(sim._shard_exec[shards]).tolist():
                    mine = sim._shard_exec[shards] == j
                    s, f = shards[mine], inter[mine]
                    if len(set(s.tolist())) == s.size and 0 < f.sum() < f.size:
                        if best is None or s.size > best[2].size:
                            best = (sim, j, s, f, before[s], after[s])
        assert best is not None
        return best

    def test_replayed_moves_cost_what_the_engine_charges(self):
        with patch.multiple(cluster, EC_SYNC_MS=2.1, MIGRATION_PROTO_MS=0.7):
            sim, j, shards, inter, src, dst = self.engine_moves()
            assert np.array_equal(src != dst, inter)
            engine = EpochMetrics(epoch=0)
            sim._charge_moves(engine, shards, inter)

            z = int(sim._exec_z[j])
            local = (shards - sim._exec_shard0[j]).tolist()
            ex = ElasticExecutor(
                j, n_shards=z, local_node=int(sim._exec_home[j]), fn=counter_fn,
                shard_state_bytes=int(sim._state_bytes[sim._shard_op[shards[0]]]),
            )
            # each shard on a task of its source node, with state there
            task_on = {ex.local_node: ex.tasks[0].task_id}
            for s, node in zip(local, src.tolist()):
                if node not in task_on:
                    task_on[node] = ex.add_core(node)
                ex.reassign_shard(s, task_on[node])
                ex.receive(key_of_shard(s, z), "x")
            ex.run_until_idle()
            ex.sync_ms, ex.migrated_bytes = 0.0, 0  # charge only the replay
            n_before = ex.n_reassignments
            for s, node in zip(local, dst.tolist()):
                ex.reassign_shard(s, ex.add_core(node))
            ex.run_until_idle()
        assert shards.size >= 4
        assert ex.n_reassignments - n_before == shards.size
        assert (ex.sync_ms, ex.migrated_bytes) == (engine.sync_ms, engine.migrated_bytes)
        assert ex.sync_ms == pytest.approx(2.1 * shards.size)
        assert ex.migrated_bytes == inter.sum() * ex.shard_state_bytes


class ExecutorMachine(RuleBasedStateMachine):
    """Any interleaving of the executor's public operations, with the
    §3.3 guarantees checked after every step.  A ``ValueError`` the API
    documents (last core, shard already moving, draining destination)
    is a legal outcome."""

    N_SHARDS, N_NODES = 4, 3

    def __init__(self):
        super().__init__()
        self.ex = ElasticExecutor(0, n_shards=self.N_SHARDS, local_node=0, fn=counter_fn)
        for node in range(1, self.N_NODES):  # start with a core on every node
            self.ex.add_core(node)
        self.received = 0
        self.keys = set()
        self.completed = 0
        complete = self.ex._complete_reassignment

        def counted(shard):
            self.completed += 1
            complete(shard)

        self.ex._complete_reassignment = counted

    def task(self, pick):
        return self.ex.tasks[pick % len(self.ex.tasks)].task_id

    @rule(key=st.integers(0, 11))
    def receive(self, key):
        self.ex.receive(key, self.received)
        self.received += 1
        self.keys.add(key)

    @rule(pick=st.none() | st.integers(0, 7), n=st.integers(1, 3))
    def step(self, pick, n):
        self.ex.step(None if pick is None else self.task(pick), max_tuples=n)

    @rule(shard=st.integers(0, N_SHARDS - 1), pick=st.integers(0, 7))
    def reassign_shard(self, shard, pick):
        try:
            self.ex.reassign_shard(shard, self.task(pick))
        except ValueError:
            pass

    @rule(node=st.integers(0, N_NODES - 1))
    def add_core(self, node):
        self.ex.add_core(node)

    @rule(pick=st.integers(0, 7))
    def remove_core(self, pick):
        self.remove_core_id(self.task(pick))

    def remove_core_id(self, task_id):
        try:
            self.ex.remove_core(task_id)
        except ValueError:
            pass

    @rule(pick=st.integers(0, 7))
    def remove_move_destination(self, pick):
        """Remove the destination of an in-flight move, which
        ``remove_core`` must re-target or cancel."""
        moves = list(self.ex._pending_reassign.values())
        if moves:
            self.remove_core_id(moves[pick % len(moves)].dst_task)

    @rule()
    def run_until_idle(self):
        self.ex.run_until_idle()
        self.check_idle()

    @invariant()
    def per_key_fifo(self):
        counts, last = {}, {}
        for t in self.ex.emitted:
            n, value = t.value
            assert n == counts.get(t.key, 0) + 1, (t.key, n)
            assert value > last.get(t.key, -1)
            counts[t.key], last[t.key] = n, value

    @invariant()
    def shards_route_to_live_tasks(self):
        ex = self.ex
        for shard, owner in enumerate(ex.shard_to_task):
            r = ex._pending_reassign.get(shard)
            target = owner if r is None else r.dst_task
            assert target in ex._task_by_id and target not in ex._draining, shard

    @invariant()
    def route_matches_owner(self):
        """Each shard's route is its move's buffer while it moves, else
        its owner's queue; and no move goes from a task to itself."""
        ex = self.ex
        for shard, owner in enumerate(ex.shard_to_task):
            r = ex._pending_reassign.get(shard)
            want = ex._task(owner).pending if r is None else r.buffered
            assert ex._route[shard] is want, shard
            assert r is None or r.src_task != r.dst_task, shard

    @invariant()
    def accessors_bound_to_resident_state(self):
        """A bound cached accessor of node n refers to the shard state
        resident in n's store: no handle survives an inter-node move."""
        for store in self.ex._stores.values():
            for shard, acc in store.accessors.items():
                if acc._data is not None:
                    assert store.has_shard(shard), shard
                    assert acc._data is store.ensure_shard(shard).data, shard

    @invariant()
    def one_charge_per_move(self):
        """Every completed or in-flight move is counted and charged once;
        a cancelled one is not."""
        ex = self.ex
        assert ex.n_reassignments == self.completed + len(ex._pending_reassign)
        assert ex.sync_ms == pytest.approx(cluster.EC_SYNC_MS * ex.n_reassignments)

    def check_idle(self):
        ex = self.ex
        resident, total = {}, 0
        for node, store in ex._stores.items():
            for shard in store.shard_ids():
                resident.setdefault(shard, []).append(node)
                total += sum(store._shards[shard].data.values())
        assert total == self.received
        touched = {shard_hash.key_to_shard(k, self.N_SHARDS) for k in self.keys}
        assert set(resident) == touched
        for shard in touched:
            assert resident[shard] == [ex._task(ex.shard_to_task[shard]).node], shard

    def teardown(self):
        self.ex.run_until_idle()
        self.check_idle()


TestExecutorStateMachine = ExecutorMachine.TestCase
TestExecutorStateMachine.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)
