"""Golden-output gate for the epoch engine.

The engine is deterministic in its inputs, and refactors of the engine
and the paradigms must leave its outputs bit-identical.  Each case runs
one paradigm on a small workload and hashes the per-epoch trajectory
(``to_frame()`` without the wall-clock ``sched_ms`` column) together with
every operator's final layout and queues.  The digests were recorded
from the engine as it stood before the cost-model facts were given one
definition each; a change that alters any output bit fails here.
"""
import hashlib
from contextlib import nullcontext
from unittest.mock import patch

import numpy as np
import pytest

from repro.engine.simulator import EngineConfig
from repro.experiments.micro import PARADIGMS, micro_topology
from repro.experiments.table2 import sse_engine_inputs
from repro.paradigms import elasticutor
from repro.streams.microbench import micro_trace
from repro.substrate import cluster
from repro.substrate.cluster import ClusterSpec
from tests.layout import op_layout

#: each operator's final layout (through ``op_layout``), then its queues
LAYOUT_ARRAYS = ("tasks_node", "tasks_exec", "shard_assign")
STATE_ARRAYS = ("queue_n", "resid_n")

GOLDEN = {
    ("static", "sse"): "e7e16c508448dd799796ebf8f9615d0caf4fa1a97aa8f95148d0a80555ac4ee9",
    ("resource-centric", "sse"): "d30e6c37660d5477ac04c6b95bbdc824d2232dc08a6936454f0f4be5a2a22f8d",
    ("elasticutor", "sse"): "4996589914e75100b870c2fca5ef0a8090d35d5c826ceb58309437db43d457a8",
    ("naive-ec", "sse"): "3b7d6b1051987bdad538a73791b80ec47edbfe7060f166657b3afc64166469bf",
    ("static", "micro"): "bb78dcb50962cee49f2e3b6ca8c08637eba3c4479e8efe95591370a6057c16eb",
    ("resource-centric", "micro"): "4b0e8de82de362beeb61cf1dd5af408611222ce8cde295fe3f81e9f5532bb25d",
    ("elasticutor", "micro"): "2f77829098157072777cd8164f6a06eaa69369b728753c8fa5be0ed838baf32b",
    ("naive-ec", "micro"): "995c31a4ca39204c079139057c3da52c821baf79f1d498e08a799ac63d22d490",
}


def _inputs(workload):
    if workload == "sse":
        return sse_engine_inputs(n_nodes=8, n_epochs=20, seed=3)
    spec = ClusterSpec(n_nodes=4, cores_per_node=4)
    topo = micro_topology(n_executors=4, shards_per_executor=16)
    trace = micro_trace(n_epochs=25, rate=12_000, n_keys=500, omega=8, seed=0)
    return spec, topo, trace


def _costs(workload):
    """The micro case runs with fractional protocol costs, so the order
    of cost accumulation shows; the SSE case with the paper's."""
    if workload == "sse":
        return nullcontext()
    return patch.multiple(cluster, EC_SYNC_MS=2.1, MIGRATION_PROTO_MS=0.7)


def run_digest(paradigm, workload):
    """SHA-256 over the run's trajectory and final operator arrays."""
    spec, topo, trace = _inputs(workload)
    sim = PARADIGMS[paradigm](topo, EngineConfig(spec=spec))
    with _costs(workload):
        frame = sim.run(trace).to_frame().drop(columns="sched_ms")
    h = hashlib.sha256()
    arrays = [(col, frame[col].to_numpy()) for col in frame.columns]
    for name in topo.topo_order():
        layout, state = op_layout(sim, name), sim.ops[name]
        arrays += [(f"{name}.{attr}", getattr(layout, attr)) for attr in LAYOUT_ARRAYS]
        arrays += [(f"{name}.{attr}", getattr(state, attr)) for attr in STATE_ARRAYS]
    for label, a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{label}:{a.dtype.str}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("workload", ["sse", "micro"])
@pytest.mark.parametrize("paradigm", list(PARADIGMS))
def test_outputs_match_recorded_digest(paradigm, workload):
    assert run_digest(paradigm, workload) == GOLDEN[(paradigm, workload)]


class _TieOrder:
    """NumPy as ``elasticutor`` sees it, except that ``argsort`` without a
    ``kind`` puts equal keys in a fixed order: first index first, or
    with ``reverse`` last index first."""

    def __init__(self, reverse: bool) -> None:
        self.reverse = reverse

    def __getattr__(self, name):
        return getattr(np, name)

    def argsort(self, a, kind=None):
        if kind is not None:
            return np.argsort(a, kind=kind)
        if self.reverse:
            return len(a) - 1 - np.argsort(a[::-1], kind="stable")
        return np.argsort(a, kind="stable")


@pytest.mark.xfail(
    strict=True,
    reason="orphan re-homing sorts loads with an unstable argsort, so the "
    "order of equal loads, and with it naive-EC's output, depends on "
    "NumPy's sort implementation (ROADMAP item 7)",
)
def test_naive_ec_independent_of_tie_order():
    digests = []
    for reverse in (False, True):
        with patch.object(elasticutor, "np", _TieOrder(reverse)):
            digests.append(run_digest("naive-ec", "sse"))
    assert digests[0] == digests[1]
