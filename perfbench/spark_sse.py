"""``spark-sse``: the SSE order stream through the Spark data plane.

``sse_orders_pdf`` (30 epochs x 10 k orders/s x 500 stocks, about 338 k
orders) goes through ``createDataFrame`` (ingest), ``transactions``
(order matching in ``applyInPandas``), then ``stock_stats``,
``composite_index`` and ``moving_average``.  Each stage is an action
timed on its own.  The single-process ``match_orders_pdf`` over the same
orders is the correctness reference for the fills, and DuckDB twins are
the reference for the analytics.
"""
from __future__ import annotations

import os
import shlex
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import pandas as pd

from perfbench.common import Outcome, descendants, median
from repro.oracle import assert_equivalent
from repro.sse_app import analytics, transactor
from repro.streams import sse

ORDERS = dict(n_epochs=30, rate=10_000, n_stocks=500)
#: a small heap reaches its high-water mark within the warm-up and first
#: timed passes, so peak memory does not depend on the number of passes.
DRIVER_MEMORY = "1g"
ANALYTICS = ("stock_stats", "composite_index", "moving_average")
FILL_KEY = ["stock", "seq", "buyer", "seller", "price", "volume", "epoch"]
#: a stage is scaled by the host-speed probes just before and after it
PROBE_PAD_S = 0.05

TWIN_SQL = {
    "stock_stats": """
        SELECT stock, count(*) AS n_trades, sum(volume) AS total_volume,
               round(sum(price * volume), 4) AS turnover
        FROM tx GROUP BY stock""",
    "composite_index": """
        SELECT epoch, round(sum(price * volume) / sum(volume), 6) AS "index"
        FROM tx GROUP BY epoch""",
    "moving_average": """
        WITH v AS (
            SELECT stock, epoch, round(sum(price * volume) / sum(volume), 6) AS vwap
            FROM tx GROUP BY stock, epoch)
        SELECT stock, epoch,
               round(avg(vwap) OVER (PARTITION BY stock ORDER BY epoch
                                     ROWS BETWEEN 4 PRECEDING AND CURRENT ROW), 6) AS ma
        FROM v""",
}

_now = time.perf_counter


class _Collected:
    """A result already collected from Spark, in the shape
    :func:`assert_equivalent` reads."""

    def __init__(self, pdf: pd.DataFrame) -> None:
        self._pdf = pdf

    def toPandas(self) -> pd.DataFrame:  # noqa: N802 - Spark's name
        return self._pdf


class SparkSSE:
    #: the first pass starts the Python workers and is about twice as slow
    warmup_passes = 1
    #: Spark spreads a stage over every vCPU, while the probe measures the
    #: driver's alone: over runs of one seed, stage times moved with about
    #: half the probe's swing, so stages (and set-up) are scaled by the
    #: square root of the probe scale
    scale_exponent = 0.5

    def __init__(self, seed: int, root: Path, work_dir: Path) -> None:
        self.seed = seed
        self.root = root
        self.work_dir = work_dir
        self.spark = None
        self.tracer = None
        self.reference: pd.DataFrame | None = None
        self.reference_s = 0.0
        self.stage_s: list[dict[str, float]] = []
        self.n_fills = 0

    def generate(self) -> None:
        self.orders = sse.sse_orders_pdf(seed=self.seed, **ORDERS)

    def prepare(self) -> None:
        self.spark = _start_spark(self.root, self.work_dir)

    def prepare_checks(self) -> None:
        """The single-process reference fills, computed once per run."""
        t = _now()
        self.reference = _canon(transactor.match_orders_pdf(self.orders))
        self.reference_s = _now() - t

    def close(self) -> None:
        if self.spark is not None:
            _stop_spark(self.spark)
            self.spark = None

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    # ------------------------------------------------------------------
    def _pipeline(self, pdf: pd.DataFrame, speed):
        """Ingest, match and the three analytics, each an action timed on
        its own, with a host-speed probe before each stage and after the
        last.  Returns ({stage: (start, end)}, cached orders, cached
        fills, collected analytics)."""
        stage: dict[str, tuple[float, float]] = {}
        speed.probe()
        t = _now()
        with self._span("sse_app.ingest"):
            orders = self.spark.createDataFrame(pdf).cache()
            orders.count()
        stage["ingest"] = (t, _now())
        speed.probe()
        t = _now()
        with self._span("sse_app.match"):
            tx = transactor.transactions(orders).cache()
            self.n_fills = tx.count()
        stage["match"] = (t, _now())
        results = {}
        for name in ANALYTICS:
            speed.probe()
            t = _now()
            with self._span(f"sse_app.analytics.{name}.collect"):
                results[name] = getattr(analytics, name)(tx).toPandas()
            stage[name] = (t, _now())
        speed.probe()
        return stage, orders, tx, results

    def run_pass(self, i: int, out: Outcome) -> tuple[int, float, float]:
        """Returns (orders, seconds of the timed stages, the same scaled
        stage by stage); the pass's latency sample is the scaled time."""
        stage, orders, tx, results = self._pipeline(self.orders, out.speed)
        wall = sum(b - a for a, b in stage.values())
        scaled = sum(
            (b - a) * out.speed.scale_between(a, b, PROBE_PAD_S) ** self.scale_exponent
            for a, b in stage.values()
        )
        self.stage_s.append({name: b - a for name, (a, b) in stage.items()})
        out.latency_ms.append(scaled * 1000.0)

        with self._span("bench.untimed"):
            fills = tx.toPandas()
            tx.unpersist()
            orders.unpersist()
            out.check(f"pass {i}: fills equal match_orders_pdf", self._fills_match, fills)
            for name in ANALYTICS:
                out.check(
                    f"pass {i}: {name} equals its DuckDB twin",
                    _twin_matches, results[name], TWIN_SQL[name], fills,
                )
        return len(self.orders), wall, scaled

    def _fills_match(self, fills: pd.DataFrame) -> bool:
        pd.testing.assert_frame_equal(_canon(fills), self.reference, check_dtype=False)
        return len(fills) > 0

    def layers(self, n_traced: int) -> dict[str, float]:
        """Stage timings and rates, medians over the traced passes."""
        st = self.stage_s[-n_traced:]
        n = float(len(self.orders))
        out = {
            "sse_app.ingest_ms": median([s["ingest"] for s in st]) * 1000.0,
            "sse_app.match_ms": median([s["match"] for s in st]) * 1000.0,
            "sse_app.orders": n,
            "sse_app.fills": float(self.n_fills),
            "sse_app.reference_orders_per_s": n / self.reference_s,
            "sse_app.ingest_orders_per_s": median([n / s["ingest"] for s in st]),
            "sse_app.match_orders_per_s": median([n / s["match"] for s in st]),
            "sse_app.analytics_fills_per_s": median(
                [self.n_fills / sum(s[a] for a in ANALYTICS) for s in st]
            ),
        }
        for a in ANALYTICS:
            out[f"sse_app.analytics_ms.{a}"] = median([s[a] for s in st]) * 1000.0
        return out


def _canon(fills: pd.DataFrame) -> pd.DataFrame:
    return fills[FILL_KEY].sort_values(FILL_KEY).reset_index(drop=True)


def _twin_matches(result: pd.DataFrame, sql: str, fills: pd.DataFrame) -> bool:
    assert_equivalent(_Collected(result), sql, tx=fills)
    return len(result) > 0


def _start_spark(root: Path, work_dir: Path):
    """Local Spark whose JVM, Python workers and scratch files stay inside
    ``work_dir``; workers import ``repro`` from the checkout's ``src``."""
    tmp = work_dir / "tmp"
    local = work_dir / "spark-local"
    tmp.mkdir(parents=True, exist_ok=True)
    local.mkdir(parents=True, exist_ok=True)
    src = str(root / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    cores = min(4, os.cpu_count() or 1)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{cores}]",
            f"--driver-memory {DRIVER_MEMORY}",
            "--driver-java-options",
            shlex.quote(f"-Djava.io.tmpdir={tmp}"),
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            "--conf spark.driver.host=127.0.0.1",
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(2 * cores))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.local.dir", str(local))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _stop_spark(spark, timeout_s: float = 60.0) -> None:
    """Stop Spark, end the JVM and wait until every process it started
    (the JVM and its Python workers) has exited."""
    from pyspark import SparkContext

    started = [int(p) for p in descendants(os.getpid()) if int(p) != os.getpid()]
    spark.stop()
    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    deadline = _now() + timeout_s
    alive = started
    while alive:
        alive = [p for p in alive if _exists(p)]
        if alive and _now() > deadline:
            for p in alive:
                os.kill(p, signal.SIGKILL)
            deadline = _now() + timeout_s
        time.sleep(0.05)
    print(f"spark-sse: stopped {len(started)} child processes", file=sys.stderr)


def _exists(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().split(") ", 1)[1][0] != "Z"
    except (OSError, IndexError):
        return False
