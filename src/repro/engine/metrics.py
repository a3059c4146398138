"""Run metrics: per-epoch counters and paper-style summaries.

Everything the evaluation tables report is derived from these counters:
throughput (processed source tuples/s), Eq. 1-weighted average latency,
state-migration rate and remote-data-transfer rate (Table 2), and
scheduling wall-clock time (Table 3).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.streams.microbench import EPOCH_S

if TYPE_CHECKING:
    import pandas as pd


@dataclass
class EpochMetrics:
    """Counters for one simulated epoch."""

    epoch: int
    offered: float = 0.0  # tuples offered to the source operator
    processed: float = 0.0  # source tuples fully processed (throughput)
    shed: float = 0.0  # tuples dropped by backpressure
    throttled: float = 0.0  # tuples the spout was backpressured out of emitting
    throttle_g: float = 1.0  # global spout admission factor this epoch
    latency_ms: float = 0.0  # Eq. 1-weighted average processing latency
    migrated_bytes: float = 0.0  # state bytes crossing the network
    remote_bytes: float = 0.0  # receiver/emitter <-> remote-task traffic
    sync_ms: float = 0.0  # aggregate protocol synchronisation time
    sched_ms: float = 0.0  # wall-clock of the dynamic scheduler
    n_shard_moves: int = 0
    n_core_changes: int = 0


@dataclass
class RunResult:
    """Full trajectory of one simulated run plus summary accessors.

    ``warmup`` epochs are excluded from steady-state summaries (the
    scheduler needs a few epochs to ramp allocations from the initial
    one-core-per-executor layout).
    """

    paradigm: str
    epochs: list[EpochMetrics] = field(default_factory=list)
    warmup: int = 5

    def _steady(self) -> list[EpochMetrics]:
        if len(self.epochs) <= self.warmup:
            return self.epochs
        return self.epochs[self.warmup:]

    @property
    def duration_s(self) -> float:
        return len(self._steady()) * EPOCH_S

    def throughput_tps(self) -> float:
        d = self.duration_s
        return sum(e.processed for e in self._steady()) / d if d else 0.0

    def avg_latency_ms(self) -> float:
        es = [e for e in self._steady() if e.processed > 0]
        if not es:
            return float("inf")
        total = sum(e.processed for e in es)
        return sum(e.latency_ms * e.processed for e in es) / total

    def migration_rate_mbps(self) -> float:
        d = self.duration_s
        return sum(e.migrated_bytes for e in self._steady()) / d / 1e6 if d else 0.0

    def remote_rate_mbps(self) -> float:
        d = self.duration_s
        return sum(e.remote_bytes for e in self._steady()) / d / 1e6 if d else 0.0

    def avg_sched_ms(self) -> float:
        es = [e for e in self._steady() if e.sched_ms > 0]
        return sum(e.sched_ms for e in es) / len(es) if es else 0.0

    def shed_fraction(self) -> float:
        offered = sum(e.offered for e in self._steady())
        return sum(e.shed for e in self._steady()) / offered if offered else 0.0

    def to_frame(self) -> pd.DataFrame:
        """Per-epoch trajectory as a DataFrame (for Fig. 7-style plots
        and Spark/DuckDB cross-checks).  pandas is imported here, so an
        engine run that asks for no frame does not load it."""
        import pandas as pd

        return pd.DataFrame([vars(e) for e in self.epochs])

    def summary(self) -> dict:
        return {
            "paradigm": self.paradigm,
            "throughput_tps": self.throughput_tps(),
            "avg_latency_ms": self.avg_latency_ms(),
            "migration_rate_mbps": self.migration_rate_mbps(),
            "remote_rate_mbps": self.remote_rate_mbps(),
            "avg_sched_ms": self.avg_sched_ms(),
            "shed_fraction": self.shed_fraction(),
        }
