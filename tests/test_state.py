"""Unit tests for the intra-process shared state store (§3.2)."""
import pytest

from repro.core.state import ShardState, StateAccessor, StateStore
from repro.substrate.topology import DEFAULT_SHARD_STATE_BYTES


class TestStateStore:
    def test_get_put_roundtrip(self):
        st = StateStore("p0")
        StateAccessor(st, 3).put("k1", 42)
        state = StateAccessor(st, 3)
        assert state.get("k1") == 42
        assert state.get("missing", "dflt") == "dflt"
        assert st.ensure_shard(3).data == {"k1": 42}

    def test_shards_isolated(self):
        st = StateStore("p0")
        StateAccessor(st, 0).put("k", "a")
        StateAccessor(st, 1).put("k", "b")
        assert StateAccessor(st, 0).get("k") == "a"
        assert StateAccessor(st, 1).get("k") == "b"

    def test_export_removes_shard(self):
        st = StateStore("p0")
        StateAccessor(st, 7).put("k", 1)
        state = st.export_shard(7)
        assert isinstance(state, ShardState)
        assert not st.has_shard(7)
        assert state.data == {"k": 1}

    def test_export_unknown_raises(self):
        st = StateStore("p0")
        with pytest.raises(KeyError):
            st.export_shard(99)

    def test_import_after_export_preserves_data(self):
        # The migration path of §3.3: export on the source process,
        # import on the destination — no data lost.
        src, dst = StateStore("p0"), StateStore("p1")
        StateAccessor(src, 4).put("x", [1, 2, 3])
        dst.import_shard(src.export_shard(4))
        assert StateAccessor(dst, 4).get("x") == [1, 2, 3]

    def test_import_duplicate_raises(self):
        src, dst = StateStore("p0"), StateStore("p1")
        StateAccessor(src, 4).put("x", 1)
        dst.ensure_shard(4)
        with pytest.raises(ValueError):
            dst.import_shard(src.export_shard(4))

    def test_shard_bytes_nominal(self):
        st = StateStore("p0")
        assert st.ensure_shard(0).nominal_bytes == DEFAULT_SHARD_STATE_BYTES == 32 * 1024

    def test_total_bytes(self):
        st = StateStore("p0", default_shard_bytes=100)
        st.ensure_shard(0)
        st.ensure_shard(1)
        assert st.total_bytes() == 200

    def test_shard_ids(self):
        st = StateStore("p0")
        st.ensure_shard(5)
        st.ensure_shard(2)
        assert sorted(st.shard_ids()) == [2, 5]
