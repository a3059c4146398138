"""Golden fills of the single-process transactor.

The Spark fills check of ``perfbench`` and
``test_spark_matches_pandas_reference`` both compare Spark's fills with
``match_orders_pdf``, so a defect in the matching loop they share would
pass both.  These digests pin ``match_orders_pdf``'s output (column
names, dtypes and values, in row order) on two fixed order streams;
they were recorded with the ``itertuples`` matcher that preceded the
column-based one.
"""
import hashlib

import pandas as pd
import pytest

from repro.sse_app.transactor import match_orders_pdf
from repro.streams.sse import sse_orders_pdf

GOLDEN = [
    # 120 stocks, ~25 k orders: many small books
    (dict(n_epochs=4, rate=6000, n_stocks=120, seed=5), 19164,
     "197ba920fef3ac043a09e9ab811658987179e35327d4f7fcc1b2513b11b0f7e4"),
    # 6 stocks, ~16 k orders: deep books, long sweeps
    (dict(n_epochs=10, rate=1500, n_stocks=6, seed=29), 13700,
     "2e1ff503951c3301b93b56ff3d5aa8cddb245ead428597fb665ec621722c1b4a"),
]


def frame_digest(df: pd.DataFrame) -> str:
    h = hashlib.sha256()
    for name in df.columns:
        col = df[name].to_numpy()
        h.update(f"{name}:{col.dtype.str}:{len(col)};".encode())
        h.update(col.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("kwargs,n_fills,digest", GOLDEN, ids=["120-stocks", "6-stocks"])
def test_fills_match_golden_digest(kwargs, n_fills, digest):
    fills = match_orders_pdf(sse_orders_pdf(**kwargs))
    assert len(fills) == n_fills
    assert frame_digest(fills) == digest
