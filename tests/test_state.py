"""Unit tests for the intra-process shared state store (§3.2)."""
import pytest

from repro.core.state import ShardState, StateStore
from repro.substrate.topology import DEFAULT_SHARD_STATE_BYTES


class TestStateStore:
    def test_get_put_roundtrip(self):
        st = StateStore("p0")
        st.put(3, "k1", 42)
        assert st.get(3, "k1") == 42
        assert st.get(3, "missing", "dflt") == "dflt"

    def test_shards_isolated(self):
        st = StateStore("p0")
        st.put(0, "k", "a")
        st.put(1, "k", "b")
        assert st.get(0, "k") == "a"
        assert st.get(1, "k") == "b"

    def test_export_removes_shard(self):
        st = StateStore("p0")
        st.put(7, "k", 1)
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
        src.put(4, "x", [1, 2, 3])
        dst.import_shard(src.export_shard(4))
        assert dst.get(4, "x") == [1, 2, 3]

    def test_import_duplicate_raises(self):
        src, dst = StateStore("p0"), StateStore("p1")
        src.put(4, "x", 1)
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
