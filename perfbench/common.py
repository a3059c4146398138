"""Measurement helpers shared by the workloads: the per-workload result,
the host-speed probe, percentiles, the pass loop and process-tree
memory."""
from __future__ import annotations

import os
import sys
import time
import traceback
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

#: Interpreter-loop iterations and small-array NumPy rounds of one
#: host-speed probe; each half takes about half a millisecond.
PROBE_ITERS = 3000
PROBE_NP_ROUNDS = 10
#: Probe time, in seconds, of the reference host.  Times are reported as
#: they would read on a host where one probe takes this long.
PROBE_REF_S = 1.0e-3
_PROBE_X = np.random.default_rng(0).random(4096)
_PROBE_BINS = (_PROBE_X * 64).astype(np.int64)

#: Minimum number of timed passes, even when one pass outlasts ``--seconds``;
#: three, so that the median discounts one slow pass.
MIN_PASSES = 3


def _probe_work() -> float:
    """The fixed work of one probe: an interpreter loop over a small dict,
    then NumPy calls on a 4096-element array, the two kinds of work the
    workloads do in the benchmark process."""
    d: dict[int, int] = {}
    acc = 0
    for i in range(PROBE_ITERS):
        k = i & 255
        d[k] = d.get(k, 0) + 1
        acc += (i * i) % 7
    x = _PROBE_X
    for _ in range(PROBE_NP_ROUNDS):
        b = x * 1.5 + 0.25
        acc += float(np.cumsum(b)[-1]) + float(np.bincount(_PROBE_BINS, weights=b, minlength=64).max())
        acc += int(np.argsort(b[:512])[0])
    return acc


class HostSpeed:
    """Times a fixed piece of work at points the workload chooses.

    On a virtual machine that shares its physical cores, single-thread
    speed can switch between levels far apart for seconds to minutes at
    a time (about 1.7x on a 4-vCPU Firecracker VM), and interpreter and
    NumPy code slow down by different amounts, hence a probe of both.
    A workload probes at its natural boundaries (each engine epoch, each
    executor epoch, each Spark stage) outside its timed regions;
    :meth:`scale_between` and :meth:`scale` turn a time measured over a
    stretch into the time it would take at the reference speed
    (:data:`PROBE_REF_S`), from the probes around that stretch.  The
    program never runs the probe, so a change to the program moves the
    scaled times exactly as much as the raw ones.
    """

    def __init__(self) -> None:
        #: duration of every probe, in seconds
        self.samples: list[float] = []
        #: when each probe ended (``perf_counter``), increasing
        self.ends: list[float] = []
        #: set during a traced run: probes record a ``bench.untimed`` span.
        self.tracer = None

    def probe(self) -> float:
        """Run one probe; returns its wall seconds."""
        idx = self.tracer.open("bench.untimed") if self.tracer is not None else None
        t0 = time.perf_counter()
        _probe_work()
        t1 = time.perf_counter()
        if idx is not None:
            self.tracer.close(idx)
        self.samples.append(t1 - t0)
        self.ends.append(t1)
        return t1 - t0

    def scale(self) -> float:
        """Reference seconds per measured second, from the median of all
        probes so far."""
        return PROBE_REF_S / median(self.samples)

    def scale_between(self, t0: float, t1: float, pad: float) -> float:
        """Reference seconds per measured second over ``[t0, t1]``, from
        the median of the probes that ended within ``pad`` seconds of it,
        and at least the last one before it and the first one after it."""
        ends = self.ends
        lo = min(bisect_left(ends, t0 - pad), max(bisect_left(ends, t0) - 1, 0))
        hi = max(bisect_right(ends, t1 + pad), min(bisect_right(ends, t1) + 1, len(ends)))
        return PROBE_REF_S / median(self.samples[lo:hi])


@dataclass
class Outcome:
    """What one workload measured.

    ``latency_ms`` holds the workload's latency samples (their meaning is
    per workload, see README.md); ``pass_rates`` one throughput value per
    timed pass.  Both are scaled to the reference host speed;
    ``raw_rates`` and ``pass_scales`` keep the rates as measured and each
    pass's scale.  ``attempted`` and ``failed`` count output checks.
    """

    setup_s: float = 0.0
    pass_rates: list[float] = field(default_factory=list)
    raw_rates: list[float] = field(default_factory=list)
    pass_scales: list[float] = field(default_factory=list)
    #: compact, so that memory does not grow with the number of passes
    latency_ms: array = field(default_factory=lambda: array("d"))
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    #: set during a traced run: checks then record a ``bench.untimed`` span.
    tracer: object = None
    speed: HostSpeed = field(default_factory=HostSpeed)

    def check(self, label: str, fn, *args) -> bool:
        """Run one output check for one operation.

        The operation counts as attempted; it counts as failed when the
        check returns a falsy value or raises.  Failures are reported on
        stderr with their traceback, never skipped silently.
        """
        self.attempted += 1
        idx = self.tracer.open("bench.untimed") if self.tracer is not None else None
        try:
            ok = bool(fn(*args))
            if not ok:
                print(f"check failed: {label}", file=sys.stderr)
        except Exception:  # noqa: BLE001 - a raising check is a failed operation
            print(f"check raised: {label}", file=sys.stderr)
            traceback.print_exc()
            ok = False
        finally:
            if idx is not None:
                self.tracer.close(idx)
        if not ok:
            self.failed += 1
        return ok


def percentile(samples, q: float) -> float:
    if len(samples) == 0:
        raise ValueError("no samples")
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def median(values) -> float:
    return percentile(values, 50)


def scale_samples(samples: array, start: int, stop: int, factor: float) -> None:
    """Multiply ``samples[start:stop]`` in place by ``factor``."""
    view = np.frombuffer(samples, dtype=float)
    view[start:stop] *= factor
    del view  # an exported buffer would stop the array from growing


def scaled_pass(workload, i: int, out: Outcome) -> float:
    """Run timed pass ``i`` of ``workload`` and record its rates.

    ``workload.run_pass(i, out)`` returns (work units, wall seconds
    without probes, the same scaled to the reference speed) and appends
    its latency samples already scaled.  Returns the scaled seconds."""
    units, wall, scaled = workload.run_pass(i, out)
    out.pass_rates.append(units / scaled)
    out.raw_rates.append(units / wall)
    out.pass_scales.append(scaled / wall)
    return scaled


def timed_passes(seconds: float, run_pass, min_passes: int = MIN_PASSES) -> int:
    """Call ``run_pass(i)`` until ``seconds`` of wall time have passed and
    at least ``min_passes`` passes ran.  Returns the number of passes."""
    t_end = time.perf_counter() + seconds
    i = 0
    while i < min_passes or time.perf_counter() < t_end:
        run_pass(i)
        i += 1
    return i


def _status_field(pid: str, field_name: str) -> int | None:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(field_name + ":"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def descendants(root: int) -> list[str]:
    children: dict[str, list[str]] = {}
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        ppid = _status_field(pid, "PPid")
        if ppid is not None:
            children.setdefault(str(ppid), []).append(pid)
    out, todo = [], [str(root)]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, []))
    return out


def peak_rss_mb() -> float:
    """Sum over this process and its live descendants of each one's peak
    resident memory (VmHWM), in MB.  Falls back to this process's own
    ``ru_maxrss`` where ``/proc`` has no VmHWM."""
    total_kb = 0
    for pid in descendants(os.getpid()):
        total_kb += _status_field(pid, "VmHWM") or 0
    if total_kb == 0:
        import resource

        total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return total_kb / 1024.0
