"""Tuple-level elastic executor (§3.2–§3.3).

A faithful, single-host implementation of the paper's elastic executor
used to *verify* its consistency and efficiency claims on real tuple
streams:

* **Receiver / emitter daemons** — the single entrance and exit of the
  executor.  Upstream operators only ever talk to the receiver, so shard
  reassignments never require inter-operator synchronisation.
* **Two-tier routing table** — tier 1 statically hashes keys to shards
  (:func:`repro.core.shards.key_to_shard`, on a Python-int key its
  scalar XXH64 twin); tier 2 is the dynamic shard→task map updated by
  reassignments.  Tier 1 never changes, so the receiver hashes each
  distinct key once and remembers its shard; tier 2 is kept as one
  queue per shard, the one a new tuple of the shard joins.  Routing a
  tuple is two lookups: key → shard, shard → queue.  A queue entry is a
  flat ``(shard, key, value, seq)`` tuple; :class:`Tuple` objects are
  built only for emitted output.
* **Tasks** — one data-processing "thread" per assigned CPU core, each
  with a FIFO pending queue, hosted by a per-node process that owns a
  shared :class:`~repro.core.state.StateStore`.  Every tuple of a shard
  gets the store's one :class:`~repro.core.state.StateAccessor` for it,
  dropped when the shard's state is exported to another node.
* **Labeling-tuple protocol** — consistent shard reassignment: routing
  for the shard is paused, a labeling tuple is enqueued on the source
  task; tuples queued ahead of it are processed first (FIFO), then the
  state migrates (only if the destination is in a different process),
  the routing table is updated and buffered tuples are re-routed.

Execution is cooperatively scheduled: tests call :meth:`step` /
:meth:`run_until_idle` to advance tasks, which lets them interleave
reassignments with in-flight tuples and check the §3.3 guarantees
(per-key FIFO order, no lost state updates).  Protocol costs (sync ms,
migrated bytes) are charged by the cost model of
:mod:`repro.substrate.cluster`, the one the cluster engine charges.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core import shards as shard_hash
from repro.core.state import StateAccessor, StateStore
from repro.substrate import cluster
from repro.substrate.topology import DEFAULT_SHARD_STATE_BYTES

#: sentinel in the key slot of a labeling tuple ``(shard, _LABEL)`` in a
#: pending queue; data entries are ``(shard, key, value, seq)``.
_LABEL = object()
#: bound on the rounds of :meth:`ElasticExecutor.run_until_idle`, each
#: one :meth:`ElasticExecutor.step` of up to 16 tuples per task.
MAX_IDLE_STEPS = 1_000_000


@dataclass(slots=True)
class Tuple:
    """One data tuple: key, payload, and a monotone arrival sequence
    number assigned by the receiver (used to verify FIFO order)."""

    key: int
    value: Any
    seq: int = -1


@dataclass
class _Reassignment:
    shard: int
    src_task: int
    dst_task: int
    #: ``(shard, key, value, seq)`` entries that arrived while the shard was paused
    buffered: deque = field(default_factory=deque)


@dataclass
class Task:
    """A data-processing thread bound to one CPU core."""

    task_id: int
    node: int
    pending: deque = field(default_factory=deque)

    def queue_len(self) -> int:
        return sum(1 for item in self.pending if item[1] is not _LABEL)


class ElasticExecutor:
    """One elastic executor over a fixed key subspace, hashed into
    ``n_shards`` shards, processing with ``fn(key, value, state) -> out``.

    The receiver remembers the shard of every key it has seen: one int
    per distinct key for the executor's lifetime.  The key subspace is
    static by design (§3.1), and a stateful ``fn`` already keeps per-key
    state in the store for the same keys.

    ``shard_to_task`` is the source of truth for shard ownership; assign
    a whole new list to it (not item by item) to re-home shards at once.
    """

    def __init__(
        self,
        executor_id: int,
        *,
        n_shards: int,
        local_node: int,
        fn: Callable[[int, Any, StateAccessor], Any],
        shard_state_bytes: int = DEFAULT_SHARD_STATE_BYTES,
    ) -> None:
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        self.executor_id = executor_id
        self.n_shards = n_shards
        self.local_node = local_node
        self.fn = fn
        self.shard_state_bytes = shard_state_bytes
        # one process (and shared state store) per node hosting tasks;
        # the local node's process is the main process.
        self._stores: dict[int, StateStore] = {
            local_node: StateStore(f"exec{executor_id}@n{local_node}", shard_state_bytes)
        }
        self.tasks: list[Task] = []
        #: task id -> task, for every task in ``self.tasks``
        self._task_by_id: dict[int, Task] = {}
        self._next_task_id = 0
        #: tier 1: key -> shard of every key seen so far
        self._shard_of: dict[Any, int] = {}
        self._shard_to_task: list[int] = []
        #: tier 2 as queues: the deque a new tuple of each shard joins —
        #: its owner's ``pending``, or ``buffered`` while the shard moves
        self._route: list[deque] = []
        self._pending_reassign: dict[int, _Reassignment] = {}
        #: removed tasks still finishing their queues; never a destination.
        self._draining: set[int] = set()
        self._seq = 0
        self.emitted: list[Tuple] = []
        # protocol cost metrics (ms / bytes), mirroring Fig. 8 breakdown
        self.sync_ms = 0.0
        self.migration_ms = 0.0
        self.migrated_bytes = 0
        self.n_reassignments = 0
        self.add_core(local_node)
        self.shard_to_task = [0] * n_shards

    @property
    def shard_to_task(self) -> list[int]:
        """Owner task id of each shard (tier 2 of the routing table)."""
        return self._shard_to_task

    @shard_to_task.setter
    def shard_to_task(self, owners: list[int]) -> None:
        owners = list(owners)
        if len(owners) != self.n_shards:
            raise ValueError(f"need one owner per shard, got {len(owners)}")
        if self._pending_reassign:
            raise ValueError("cannot re-home shards while reassignments are in flight")
        if not self._draining.isdisjoint(owners):
            raise ValueError(f"task {min(self._draining.intersection(owners))} is being removed")
        self._route = [self._task(tid).pending for tid in owners]
        self._shard_to_task = owners

    # ------------------------------------------------------------------
    # core (task) lifecycle
    # ------------------------------------------------------------------
    def add_core(self, node: int) -> int:
        """Allocate a CPU core on ``node``: creates a task (and a remote
        process with its own state store if this is the node's first)."""
        if node not in self._stores:
            self._stores[node] = StateStore(
                f"exec{self.executor_id}@n{node}", self.shard_state_bytes
            )
        t = Task(task_id=self._next_task_id, node=node)
        self._next_task_id += 1
        self.tasks.append(t)
        self._task_by_id[t.task_id] = t
        return t.task_id

    def remove_core(self, task_id: int) -> None:
        """Deallocate a core: reassign its shards away, then delete the
        task.  Pending tuples are drained through the reassignment
        protocol (labeling tuples), so call :meth:`run_until_idle`
        afterwards to complete in-flight work.  Shards already moving
        to the task are re-targeted to the least-queued survivor other
        than their source; a move whose source is the only survivor is
        cancelled."""
        self._task(task_id)  # validate
        survivors = [
            t.task_id
            for t in self.tasks
            if t.task_id != task_id and t.task_id not in self._draining
        ]
        if not survivors:
            raise ValueError("cannot remove the last core of an executor")
        queued = {tid: self._task(tid).queue_len() for tid in survivors}
        dst = min(survivors, key=queued.__getitem__)
        for r in list(self._pending_reassign.values()):
            if r.dst_task == task_id:
                others = [tid for tid in survivors if tid != r.src_task]
                if others:
                    r.dst_task = min(others, key=queued.__getitem__)
                else:
                    self._cancel_reassignment(r.shard)
        for shard, owner in enumerate(self.shard_to_task):
            if owner == task_id and shard not in self._pending_reassign:
                self.reassign_shard(shard, dst)
        # The task object stays until its queue (incl. labels) drains;
        # marking it draining removes it from routing targets only.
        self._draining.add(task_id)

    def _gc_drained_tasks(self) -> None:
        done = {tid for tid in self._draining if not self._task(tid).pending}
        if done:
            self.tasks = [t for t in self.tasks if t.task_id not in done]
            for tid in done:
                del self._task_by_id[tid]
            self._draining -= done

    def _task(self, task_id: int) -> Task:
        try:
            return self._task_by_id[task_id]
        except KeyError:
            raise KeyError(f"task {task_id}") from None

    # ------------------------------------------------------------------
    # receiver / routing (single entrance, §3.3)
    # ------------------------------------------------------------------
    def receive(self, key: int, value: Any) -> None:
        """Receiver daemon: assign an arrival sequence number and route
        by the two-tier table.  Tuples of a shard under reassignment are
        buffered until the protocol completes.  A key is hashed on its
        first arrival only; a key that cannot be hashed raises every
        time and is not remembered."""
        seq = self._seq
        self._seq = seq + 1
        try:
            shard = self._shard_of[key]
        except KeyError:
            shard = self._shard_of[key] = shard_hash.key_to_shard(key, self.n_shards)
        self._route[shard].append((shard, key, value, seq))

    # ------------------------------------------------------------------
    # consistent shard reassignment (§3.3)
    # ------------------------------------------------------------------
    def reassign_shard(self, shard: int, dst_task: int) -> None:
        """Start the labeling-tuple protocol moving ``shard`` to
        ``dst_task``.  Completes asynchronously when the source task
        processes the labeling tuple (see :meth:`step`)."""
        if not (0 <= shard < self.n_shards):
            raise ValueError("shard out of range")
        if shard in self._pending_reassign:
            raise ValueError(f"shard {shard} already being reassigned")
        src_task = self.shard_to_task[shard]
        self._task(dst_task)  # validate destination exists
        if dst_task in self._draining:
            raise ValueError(f"task {dst_task} is being removed")
        if dst_task == src_task:
            return
        # pause routing for the shard, then label the source queue
        r = self._pending_reassign[shard] = _Reassignment(shard, src_task, dst_task)
        self._route[shard] = r.buffered
        self._task(src_task).pending.append((shard, _LABEL))
        self.sync_ms += cluster.EC_SYNC_MS
        self.n_reassignments += 1

    def _cancel_reassignment(self, shard: int) -> None:
        """Undo a move that has not completed: its label leaves the
        source queue, its buffered tuples join the source queue in
        arrival order, and its sync charge is refunded.  The label is
        found by identity, so no user key's ``__eq__`` can match it."""
        r = self._pending_reassign.pop(shard)
        src = self._task(r.src_task).pending
        del src[next(i for i, e in enumerate(src) if e[1] is _LABEL and e[0] == shard)]
        src.extend(r.buffered)
        self._route[shard] = src
        self.sync_ms -= cluster.EC_SYNC_MS
        self.n_reassignments -= 1

    def _complete_reassignment(self, shard: int) -> None:
        r = self._pending_reassign.pop(shard)
        src_node = self._task(r.src_task).node
        dst_node = self._task(r.dst_task).node
        src_store = self._stores[src_node]
        if src_node != dst_node:
            if src_store.has_shard(shard):
                state = src_store.export_shard(shard)
                self._stores[dst_node].import_shard(state)
                self.migrated_bytes += state.nominal_bytes
                _, migration_ms = cluster.ec_shard_reassign_ms(state.nominal_bytes, True)
                self.migration_ms += migration_ms
        # routing-table update, then resume: flush buffered tuples in
        # arrival order to the destination task.
        self._shard_to_task[shard] = r.dst_task
        dst = self._task(r.dst_task).pending
        dst.extend(r.buffered)
        self._route[shard] = dst

    # ------------------------------------------------------------------
    # task execution
    # ------------------------------------------------------------------
    def step(self, task_id: int | None = None, max_tuples: int = 1) -> int:
        """Advance one task (or round-robin all tasks) by up to
        ``max_tuples`` queue entries each, FIFO.  Returns the number of
        data tuples processed."""
        targets = [self._task(task_id)] if task_id is not None else list(self.tasks)
        fn, emitted = self.fn, self.emitted
        processed = 0
        for t in targets:
            pending, store = t.pending, self._stores[t.node]
            popleft, accessors = pending.popleft, store.accessors
            for _ in range(max_tuples):
                if not pending:
                    break
                entry = popleft()
                if entry[1] is _LABEL:
                    self._complete_reassignment(entry[0])
                    continue
                shard, key, value, seq = entry
                try:
                    state = accessors[shard]
                except KeyError:
                    state = accessors[shard] = StateAccessor(store, shard)
                out = fn(key, value, state)
                if out is not None:
                    emitted.append(Tuple(key, out, seq))
                processed += 1
        self._gc_drained_tasks()
        return processed

    def run_until_idle(self) -> int:
        """Process until every pending queue is empty.  An outstanding
        reassignment always has its labeling tuple queued on a live task
        (a draining task is collected only once its queue is empty), so
        one left over with every queue empty is a protocol bug."""
        total = 0
        for _ in range(MAX_IDLE_STEPS):
            total += self.step(max_tuples=16)
            if not any(t.pending for t in self.tasks):
                if self._pending_reassign:
                    raise RuntimeError(
                        f"shards {sorted(self._pending_reassign)} are being "
                        "reassigned but no labeling tuple is queued"
                    )
                break
        return total

    # ------------------------------------------------------------------
    # introspection (tests and benchmarks)
    # ------------------------------------------------------------------
    def store_on(self, node: int) -> StateStore:
        return self._stores[node]

    def queue_sizes(self) -> dict[int, int]:
        return {t.task_id: t.queue_len() for t in self.tasks}
