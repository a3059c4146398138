"""The experiments and the stream generators run on NumPy traces and
must not load Spark; the engine, the paradigms, the tuple-level executor
and the micro-benchmark stream load neither Spark nor pandas.

Each check imports in a fresh interpreter, because this test session
has already imported pyspark (the root ``conftest.py``)."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

NO_SPARK = [
    "repro.experiments.table1",
    "repro.experiments.table2",
    "repro.experiments.table3",
    "repro.experiments.micro",
    "repro.experiments.reassignment",
    "repro.experiments.params",
    "repro.streams.sse",
]
NO_SPARK_NO_PANDAS = [
    "repro.engine.simulator",
    "repro.paradigms.elasticutor",
    "repro.paradigms.naive_ec",
    "repro.paradigms.resource_centric",
    "repro.paradigms.static_paradigm",
    "repro.core.elastic_executor",
    "repro.core.load_balancer",
    "repro.core.assignment",
    "repro.streams.microbench",
]


def _loaded_after_import(modules: list[str], banned: list[str]) -> list[str]:
    """The ``banned`` top-level packages found in ``sys.modules`` after
    a fresh interpreter imports ``modules``."""
    code = (
        f"import sys, {', '.join(modules)}\n"
        f"print(','.join(m for m in {banned!r} if m in sys.modules))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return [m for m in out.stdout.strip().split(",") if m]


@pytest.mark.parametrize(
    "modules, banned",
    [(NO_SPARK, ["pyspark"]), (NO_SPARK_NO_PANDAS, ["pyspark", "pandas"])],
    ids=["no-pyspark", "no-pyspark-no-pandas"],
)
def test_imports_load_no_banned_package(modules, banned):
    assert _loaded_after_import(modules, banned) == []
