"""Shared session bootstrap for the Spark job, ``run_sse_pipeline.py``.

The other jobs are thin wrappers over functions in ``repro.experiments``
that run on NumPy traces and start no Spark session.  Under pytest the
session comes from ``conftest.py`` instead.
"""
from __future__ import annotations

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
