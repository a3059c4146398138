"""``executor-stream``: the tuple-level elastic executor on a keyed stream.

One :class:`ElasticExecutor` with 256 shards processes zipf(0.5) keys
over 10 k values with a stateful per-key counter.  A pass is a fresh
executor fed ``EPOCHS`` epochs of ``EPOCH_TUPLES`` tuples each, from one
of ``N_TRACES`` key streams drawn from the seed.  Within
an epoch tuples arrive in chunks; after each chunk every task processes
its queue.  Halfway through the epoch, while a chunk is still queued, the
§3.1 balancer's new shard -> task map is applied through
``reassign_shard``.  At epoch boundaries the core count per node follows
``CORE_SCHEDULE`` over two nodes, the way the engine applies a new
assignment: add cores, then remove one core at a time and drain it.

A host-speed probe runs before each epoch, outside the timed region.
Each tuple's value is the ``perf_counter`` reading taken when it was
handed to ``receive``; the counter function reads the clock again, so a
latency sample spans receive -> routing -> queueing -> the ``fn`` call.
"""
from __future__ import annotations

import sys
import time

import numpy as np

from perfbench.common import Outcome, scale_samples
from repro.core import load_balancer, shards
from repro.core.elastic_executor import ElasticExecutor
from repro.streams import microbench

N_SHARDS = 256
N_KEYS = 10_000
SKEW = 0.5
#: key-frequency shuffles per minute of stream time (one epoch = 1 s).
OMEGA = 16.0
EPOCHS = 32
#: key streams per run; pass ``i`` replays stream ``i mod N_TRACES``, so
#: one run averages over several draws of the workload
N_TRACES = 4
EPOCH_TUPLES = 4096
CHUNK = 256
THETA = 1.2
#: an epoch is scaled by the host-speed probes within this many seconds of it
PROBE_PAD_S = 0.2
#: cores on (node 0, node 1) at the start of each epoch, cycled.
CORE_SCHEDULE = ((1, 0), (2, 0), (2, 1), (2, 2), (3, 2), (3, 1), (2, 1), (1, 1))
NODES = (0, 1)

_now = time.perf_counter


class ExecutorStream:
    warmup_passes = 1
    #: set-up is scaled by (probe scale) ** this; see common.HostSpeed
    scale_exponent = 1.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: the executors of the traced passes, for their protocol counters
        self.executors: list[ElasticExecutor] = []
        self.backlog_max = 0
        #: set by a traced run: sample the queued-tuple count before each step.
        self.tracer = None

    def generate(self) -> None:
        self.key_shard = np.asarray(shards.key_to_shard(np.arange(N_KEYS), N_SHARDS))
        self.traces = [self._make_trace(self.seed * N_TRACES + j) for j in range(N_TRACES)]

    def _make_trace(self, seed: int) -> tuple[list[list[int]], list[np.ndarray]]:
        """(keys in arrival order, per-shard load) of every epoch."""
        trace = microbench.micro_trace(
            n_epochs=EPOCHS,
            rate=EPOCH_TUPLES,
            n_keys=N_KEYS,
            skew=SKEW,
            omega=OMEGA,
            seed=seed,
        )
        rng = np.random.default_rng(seed)
        epochs, loads = [], []
        for row in trace.counts:
            keys = np.repeat(np.arange(N_KEYS), row)
            rng.shuffle(keys)
            epochs.append(keys.tolist())
            loads.append(np.bincount(self.key_shard[keys], minlength=N_SHARDS).astype(float))
        return epochs, loads

    def prepare(self) -> None:
        pass

    def prepare_checks(self) -> None:
        """The checks need no reference beyond the generated keys."""

    def close(self) -> None:
        pass

    # ------------------------------------------------------------------
    def run_pass(self, i: int, out: Outcome) -> tuple[int, float, float]:
        """One fresh executor through every epoch of trace ``i mod
        N_TRACES``, with a host-speed probe
        before each epoch and after the last.  Returns (tuples, timed
        seconds, the same scaled epoch by epoch); each epoch's latency
        samples are scaled like its time."""
        latencies = out.latency_ms

        def counter(key, value, state):
            c = state.get(key, 0) + 1
            state.put(key, c)
            latencies.append((_now() - value) * 1000.0)
            return c

        ex = ElasticExecutor(0, n_shards=N_SHARDS, local_node=0, fn=counter)
        if self.tracer is not None:
            self.executors.append(ex)
        seen = _Seen(self.key_shard)
        timed = 0.0
        #: (start, end, timed seconds, first and past-last latency sample) per epoch
        epochs = []
        n_chunks = EPOCH_TUPLES // CHUNK
        epoch_keys, loads = self.traces[i % N_TRACES]
        for e, keys in enumerate(epoch_keys):
            out.speed.probe()
            start, timed_before, n_lat = _now(), timed, len(latencies)
            t0 = start
            _apply_cores(ex, CORE_SCHEDULE[e % len(CORE_SCHEDULE)])
            timed += _now() - t0
            for c in range(n_chunks):
                chunk = keys[c * CHUNK:(c + 1) * CHUNK]
                t0 = _now()
                for k in chunk:
                    ex.receive(k, _now())
                if c == n_chunks // 2:
                    _rebalance(ex, loads[e])
                timed += _now() - t0
                if self.tracer is not None:
                    with self.tracer.span("bench.untimed"):
                        self.backlog_max = max(self.backlog_max, sum(ex.queue_sizes().values()))
                t0 = _now()
                ex.step(max_tuples=CHUNK)
                timed += _now() - t0
            t0 = _now()
            ex.run_until_idle()
            end = _now()
            timed += end - t0
            epochs.append((start, end, timed - timed_before, n_lat, len(latencies)))
            out.check(f"pass {i} epoch {e}: FIFO, state sum, residency", seen.verify, ex, keys)
        out.speed.probe()
        scaled = 0.0
        for start, end, seconds, lat0, lat1 in epochs:
            s = out.speed.scale_between(start, end, PROBE_PAD_S)
            scaled += seconds * s
            scale_samples(latencies, lat0, lat1, s)
        return EPOCHS * EPOCH_TUPLES, timed, scaled

    def layers(self, n_traced: int) -> dict[str, float]:
        """Per-pass protocol and state counts of the traced passes."""
        exs = self.executors
        stores = [store for ex in exs for store in _stores(ex).values()]
        return {
            "executor.reassignments": sum(ex.n_reassignments for ex in exs) / len(exs),
            "executor.migrated_bytes": sum(ex.migrated_bytes for ex in exs) / len(exs),
            "executor.sync_ms": sum(ex.sync_ms for ex in exs) / len(exs),
            "executor.max_backlog": float(self.backlog_max),
            "state.resident_shards": sum(len(list(s.shard_ids())) for s in stores) / len(exs),
            "state.bytes": sum(s.total_bytes() for s in stores) / len(exs),
        }


def _apply_cores(ex: ElasticExecutor, want: tuple[int, ...]) -> None:
    """Add cores first, then remove one at a time (newest first), draining
    each removed task before the next removal."""
    for node, n in zip(NODES, want):
        for _ in range(n - sum(t.node == node for t in ex.tasks)):
            ex.add_core(node)
    for node, n in zip(NODES, want):
        while sum(t.node == node for t in ex.tasks) > n:
            victim = max(t.task_id for t in ex.tasks if t.node == node)
            ex.remove_core(victim)
            ex.run_until_idle()


def _rebalance(ex: ElasticExecutor, loads: np.ndarray) -> None:
    """Move every shard whose balanced task differs from its current one."""
    task_ids = [t.task_id for t in ex.tasks]
    pos = {tid: j for j, tid in enumerate(task_ids)}
    loc = np.array([pos[t] for t in ex.shard_to_task], dtype=np.int64)
    new, _ = load_balancer.rebalance(loads, loc, len(task_ids), THETA)
    for s in np.flatnonzero(new != loc):
        ex.reassign_shard(int(s), task_ids[new[s]])


def _stores(ex: ElasticExecutor) -> dict:
    """The state store of every node that ever hosted one of ``ex``'s tasks."""
    out = {}
    for n in NODES:
        try:
            out[n] = ex.store_on(n)
        except KeyError:
            pass
    return out


class _Seen:
    """Running per-key state of the output checks for one executor."""

    def __init__(self, key_shard: np.ndarray) -> None:
        self.key_shard = key_shard
        self.count: dict[int, int] = {}
        self.last_seq: dict[int, int] = {}
        self.received = 0
        self.touched = np.zeros(N_SHARDS, dtype=bool)

    def verify(self, ex: ElasticExecutor, keys: list[int]) -> bool:
        """Per-key FIFO (counter runs 1..n in ``seq`` order), state sum
        equals tuples received, every touched shard resident in exactly
        one store, the store of its owning task's node."""
        ok = True
        for tup in ex.emitted:
            if tup.value != self.count.get(tup.key, 0) + 1 or tup.seq <= self.last_seq.get(tup.key, -1):
                print(f"executor-stream: key {tup.key} out of order at seq {tup.seq}", file=sys.stderr)
                ok = False
            self.count[tup.key] = tup.value
            self.last_seq[tup.key] = tup.seq
        ex.emitted.clear()
        self.received += len(keys)
        if sum(self.count.values()) != self.received:
            print("executor-stream: emitted counters do not cover every tuple", file=sys.stderr)
            ok = False
        stores = _stores(ex)
        state_sum = sum(
            sum(store.ensure_shard(s).data.values()) for store in stores.values() for s in list(store.shard_ids())
        )
        if state_sum != self.received:
            print(f"executor-stream: state sum {state_sum} != received {self.received}", file=sys.stderr)
            ok = False
        self.touched[self.key_shard[keys]] = True
        node_of = {t.task_id: t.node for t in ex.tasks}
        for s in range(N_SHARDS):
            holders = [n for n, store in stores.items() if store.has_shard(s)]
            expected = [node_of[ex.shard_to_task[s]]] if self.touched[s] else []
            if holders != expected:
                print(f"executor-stream: shard {s} held by {holders}, expected {expected}", file=sys.stderr)
                ok = False
        return ok
