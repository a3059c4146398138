"""The two epoch-engine workloads.

``engine-sse``: Elasticutor and naive-EC on one SSE trace, 12-operator
topology on 32 nodes x 8 cores (the Table 2/3 setting).  The control
plane does most of the work.

``micro-baselines``: static and resource-centric on the §5.1 calculator
topology (32 executors x 256 shards, 10 k zipf(0.5) keys) at ω = 16, the
right-hand column of Fig. 6.  The shared data plane does nearly all the
work; the allocator and Algorithm 1 are never called.

One pass runs every paradigm of the workload once on one of the
workload's traces; successive passes cycle through the traces.
"""
from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np
import pandas as pd

from perfbench.common import Outcome
from repro.engine.simulator import EngineConfig
from repro.experiments import micro, table2
from repro.paradigms.elasticutor import ElasticutorSim
from repro.paradigms.naive_ec import NaiveECSim
from repro.paradigms.resource_centric import ResourceCentricSim
from repro.paradigms.static_paradigm import StaticSim
from repro.streams import microbench
from repro.streams.microbench import Trace
from repro.substrate.cluster import ClusterSpec

#: relative tolerance of the source-tuple conservation check.
CONSERVATION_RTOL = 1e-9
#: steady-state start, as in the Table 2/3 and Fig. 6 harnesses.
WARMUP_EPOCHS = 8
N_EPOCHS = 60
#: an epoch is scaled by the host-speed probes within this many seconds of it
PROBE_PAD_S = 0.1


class EpochClock(np.ndarray):
    """Trace counts that note when the engine first reads each epoch's
    row, and probe the host speed there every ``probe_every`` epochs.
    The engine reads row ``t`` once per source at the start of epoch
    ``t``; ``stamps`` holds (row, time before the probe, time after it),
    so the engine's own time in epoch ``t`` runs from the second time of
    row ``t`` to the first of row ``t + 1``."""

    def __getitem__(self, idx):
        if isinstance(idx, (int, np.integer)):
            if not self.stamps or self.stamps[-1][0] != idx:
                before = time.perf_counter()
                if idx % self.probe_every == 0:
                    self.speed.probe()
                self.stamps.append((int(idx), before, time.perf_counter()))
            return super().__getitem__(idx).view(np.ndarray)
        return super().__getitem__(idx)

    def __array_finalize__(self, obj) -> None:
        self.stamps = getattr(obj, "stamps", [])
        self.speed = getattr(obj, "speed", None)
        self.probe_every = getattr(obj, "probe_every", 1)

    @classmethod
    def of(cls, counts: np.ndarray, speed, probe_every: int) -> "EpochClock":
        clock = np.asarray(counts).view(cls)
        clock.stamps = []
        clock.speed = speed
        clock.probe_every = probe_every
        return clock

    def epochs(self, end: float) -> list[tuple[float, float]]:
        """(start, end) of the engine's own time in each epoch; the last
        epoch ends at ``end``."""
        starts = [after for _, _, after in self.stamps]
        ends = [before for _, before, _ in self.stamps[1:]] + [end]
        return list(zip(starts, ends))


class EngineWorkload:
    """Runs ``paradigms`` in order on one of ``n_traces`` traces per
    pass, cycling through them.

    The traces come from seeds ``seed * n_traces + j``, so one run
    averages over several draws of the same workload."""

    paradigms: tuple = ()
    n_traces = 1
    warmup_passes = 1
    #: set-up is scaled by (probe scale) ** this; see common.HostSpeed
    scale_exponent = 1.0
    #: epochs between host-speed probes
    probe_every = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.tracer = None
        self.traces: list[Trace] = []
        self.reference: dict[tuple[int, str], pd.DataFrame] = {}
        self.last_frames: list[pd.DataFrame] = []

    def generate(self) -> None:
        self.traces = [self.make_trace(self.seed * self.n_traces + j) for j in range(self.n_traces)]

    def make_trace(self, seed: int) -> Trace:
        raise NotImplementedError

    def prepare(self) -> None:
        """Nothing is started once per process beyond the imports."""

    def prepare_checks(self) -> None:
        """The reference outputs are the first pass's own."""

    def close(self) -> None:
        pass

    def latency_samples(self, frame: pd.DataFrame, epoch_ms: np.ndarray, scales: np.ndarray) -> list[float]:
        """Scaled latency samples of one paradigm run, given each epoch's
        scaled engine milliseconds and its scale."""
        raise NotImplementedError

    def cross_check(self, frames: dict[str, pd.DataFrame]) -> bool:
        raise NotImplementedError

    def run_pass(self, i: int, out: Outcome) -> tuple[int, float, float]:
        """Runs every paradigm on trace ``i mod n_traces``, checks every
        output and adds the scaled latency samples to ``out``.  Returns
        (source tuples simulated, wall seconds without the probes, the
        same scaled epoch by epoch)."""
        j = i % self.n_traces
        trace = self.traces[j]
        speed = out.speed
        wall = scaled = 0.0
        tuples = 0
        frames: dict[str, pd.DataFrame] = {}
        for cls in self.paradigms:
            clock = EpochClock.of(trace.counts, speed, self.probe_every)
            run_trace = Trace(clock, trace.epoch_s, trace.tuple_bytes, trace.cpu_cost_ms)
            span = self.tracer.span(f"bench.paradigm.{cls.name}") if self.tracer else nullcontext()
            t0 = time.perf_counter()
            with span:
                sim = cls(self.topo, self.cfg)
                result = sim.run(run_trace)
            t1 = time.perf_counter()
            speed.probe()
            epochs = clock.epochs(t1)
            scales = np.array([speed.scale_between(a, b, PROBE_PAD_S) for a, b in epochs])
            epoch_s = np.array([b - a for a, b in epochs])
            # set-up and layout before the first epoch count at its scale
            before = clock.stamps[0][1] - t0
            wall += before + epoch_s.sum()
            scaled += before * scales[0] + float(epoch_s @ scales)
            tuples += trace.total_tuples()
            frame = result.to_frame()
            frames[cls.name] = frame
            label = f"{cls.name} pass {i} trace {j}"
            if out.check(f"{label}: one clock stamp per epoch", lambda: len(epochs) == len(frame)):
                out.latency_ms.extend(self.latency_samples(frame, epoch_s * 1000.0 * scales, scales))
            out.check(f"{label}: source-tuple conservation", _conserves, sim, frame)
            out.check(f"{label}: output identical across passes", self._repeats, (j, cls.name), frame)
        out.check(f"pass {i} trace {j}: {self.cross_label}", self.cross_check, frames)
        self.last_frames = list(frames.values())
        return tuples, wall, scaled

    def _repeats(self, key: tuple[int, str], frame: pd.DataFrame) -> bool:
        frame = frame.drop(columns="sched_ms")
        ref = self.reference.setdefault(key, frame)
        return ref.equals(frame)

    def layers(self, n_traced: int) -> dict[str, float]:
        """Exact counts of the last (traced) pass."""
        f = pd.concat(self.last_frames)
        offered = float(f.offered.sum())
        return {
            "engine.processed_tuples": float(f.processed.sum()),
            "engine.shed_frac": float(f.shed.sum()) / offered,
            "engine.throttled_frac": float(f.throttled.sum()) / offered,
            "paradigms.shard_moves": float(f.n_shard_moves.sum()),
            "paradigms.core_changes": float(f.n_core_changes.sum()),
            "paradigms.migrated_mb": float(f.migrated_bytes.sum()) / 1e6,
            "paradigms.remote_mb": float(f.remote_bytes.sum()) / 1e6,
        }


def _conserves(sim, frame: pd.DataFrame) -> bool:
    """offered = processed + throttled + shed + left queued or residual,
    over the source operators."""
    sources = sim.topology.sources()
    left = sum(float(sim.ops[s].queue_n.sum() + sim.ops[s].resid_n.sum()) for s in sources)
    shed = sum(sim.ops[s].shed_total for s in sources)
    offered = float(frame.offered.sum())
    accounted = float(frame.processed.sum() + frame.throttled.sum()) + shed + left
    return offered > 0 and abs(offered - accounted) <= CONSERVATION_RTOL * offered


class EngineSSE(EngineWorkload):
    paradigms = (ElasticutorSim, NaiveECSim)
    cross_label = "naive-EC migrates over 2x Elasticutor"
    n_traces = 2

    def make_trace(self, seed: int) -> Trace:
        spec, self.topo, trace = table2.sse_engine_inputs(n_nodes=32, n_epochs=N_EPOCHS, seed=seed)
        self.cfg = EngineConfig(spec=spec, warmup_epochs=WARMUP_EPOCHS)
        return trace

    def latency_samples(self, frame, epoch_ms, scales):
        # the scheduler's wall clock per steady epoch (Table 3 column)
        return list(frame.sched_ms.to_numpy()[WARMUP_EPOCHS:] * scales[WARMUP_EPOCHS:])

    def cross_check(self, frames) -> bool:
        mig = {n: float(f.migrated_bytes.iloc[WARMUP_EPOCHS:].sum()) for n, f in frames.items()}
        return mig["naive-ec"] > 2.0 * mig["elasticutor"] > 0


class MicroBaselines(EngineWorkload):
    paradigms = (StaticSim, ResourceCentricSim)
    cross_label = "resource-centric throughput below static at omega=16"
    omega = 16.0
    n_traces = 8
    # an epoch takes about as long as a probe here
    probe_every = 4

    def make_trace(self, seed: int) -> Trace:
        spec = ClusterSpec()
        self.topo = micro.micro_topology()
        self.cfg = EngineConfig(spec=spec, warmup_epochs=WARMUP_EPOCHS)
        op = self.topo.operator("calculator")
        return microbench.micro_trace(
            n_epochs=N_EPOCHS,
            rate=micro.micro_rate(spec, op.cpu_cost_ms),
            n_keys=10_000,
            skew=0.5,
            omega=self.omega,
            cpu_cost_ms=op.cpu_cost_ms,
            tuple_bytes=op.tuple_bytes,
            seed=seed,
        )

    def latency_samples(self, frame, epoch_ms, scales):
        # wall time the engine takes to simulate one epoch
        return list(epoch_ms)

    def cross_check(self, frames) -> bool:
        steady = {n: float(f.processed.iloc[WARMUP_EPOCHS:].sum()) for n, f in frames.items()}
        return 0 < steady["resource-centric"] < steady["static"]
