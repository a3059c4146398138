"""Intra-process shared state store (§3.2).

Each *process* of an elastic executor keeps the states of all its tasks
in one lightweight in-memory key-value store and exposes per-key
read/update access to the tasks.  Because the store is process-wide,
reassigning a shard between two tasks of the same process migrates
nothing; only cross-process (cross-node) moves serialize and ship the
shard's state.

:class:`StateStore` models one process's store; :class:`ShardState`
is the unit of migration, and :class:`StateAccessor` a task's handle on
one shard, reused until the shard leaves the process.  Sizes are
tracked in bytes so the engine and scheduler (whose cost model is
byte-proportional, §4.2) can account migration costs exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.substrate.topology import DEFAULT_SHARD_STATE_BYTES


@dataclass
class ShardState:
    """State of one shard: a per-key dict plus a nominal byte size.

    ``nominal_bytes`` models the paper's fixed shard-state sizes (32 KB
    default, swept to 32 MB in Fig. 9b/12); the per-key dict holds the
    actual application state (e.g. SSE order books) for correctness
    tests.
    """

    shard_id: int
    nominal_bytes: int
    data: dict[Any, Any] = field(default_factory=dict)


class StateAccessor:
    """Per-key state interface handed to user processing functions —
    the ``ElasticBolt`` state API of §5 — for one shard of one store.
    It binds to the shard's ``data`` dict on its first ``get``/``put``,
    never when built, so a tuple that touches no state leaves no shard
    behind; after that each call is one dict operation."""

    __slots__ = ("_store", "_shard", "_data")

    def __init__(self, store: StateStore, shard_id: int) -> None:
        self._store = store
        self._shard = shard_id
        self._data: dict | None = None

    def _bind(self) -> dict:
        self._data = self._store.ensure_shard(self._shard).data
        return self._data

    def get(self, key: Any, default: Any = None) -> Any:
        return (self._data if self._data is not None else self._bind()).get(key, default)

    def put(self, key: Any, value: Any) -> None:
        (self._data if self._data is not None else self._bind())[key] = value


class StateStore:
    """One process's shared KV store, keyed (shard_id, key).

    Tasks never hold private state; they read/update it through a
    :class:`StateAccessor` per shard, which is what makes intra-process
    shard reassignment migration-free.
    """

    def __init__(self, process_id: str, default_shard_bytes: int = DEFAULT_SHARD_STATE_BYTES) -> None:
        self.process_id = process_id
        self.default_shard_bytes = default_shard_bytes
        self._shards: dict[int, ShardState] = {}
        #: shard -> its reusable accessor, dropped when the shard is exported
        self.accessors: dict[int, StateAccessor] = {}

    # -- shard lifecycle ------------------------------------------------
    def ensure_shard(self, shard_id: int) -> ShardState:
        shard = self._shards.get(shard_id)
        if shard is None:
            shard = self._shards[shard_id] = ShardState(shard_id, self.default_shard_bytes)
        return shard

    def has_shard(self, shard_id: int) -> bool:
        return shard_id in self._shards

    def shard_ids(self) -> Iterator[int]:
        return iter(self._shards)

    # -- migration ------------------------------------------------------
    def export_shard(self, shard_id: int) -> ShardState:
        """Remove and return a shard's state for migration to another
        process.  Raises ``KeyError`` if the shard is not resident —
        migrating state you do not own is a protocol bug."""
        state = self._shards.pop(shard_id)
        self.accessors.pop(shard_id, None)
        return state

    def import_shard(self, state: ShardState) -> None:
        if state.shard_id in self._shards:
            raise ValueError(
                f"shard {state.shard_id} already resident in {self.process_id}"
            )
        self._shards[state.shard_id] = state

    def total_bytes(self) -> int:
        return sum(s.nominal_bytes for s in self._shards.values())
