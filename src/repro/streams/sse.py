"""Synthetic Shanghai Stock Exchange (SSE) order stream (§5.4).

The paper replays three months of anonymised SSE limit orders
(~8 M records per trading hour, 96 B orders, 160 B transaction
records).  That trace is proprietary, so we synthesise a stream with
the two properties the evaluation exploits (Fig. 15):

* **temporal dynamics** — per-stock arrival rates burst: stocks enter a
  "hot" regime (rate multiplied ~8x) for geometrically-distributed
  durations, and the aggregate rate is modulated by a slow sinusoid
  (open/close activity waves);
* **spatial dynamics** — the stock-popularity ranking drifts: every
  ``DRIFT_EVERY_S`` a random subset of stocks swaps popularity ranks,
  shifting the key distribution like the paper's ω-shuffles but
  gentler.

Two products share one seed and agree by construction:

* :func:`sse_trace` — the dense per-epoch per-stock order-count matrix
  driving the cluster engine;
* :func:`sse_orders_pdf` — an order-level pandas frame (stock, side,
  price, volume, …) sampled from the same count matrix; its Spark
  callers turn it into a DataFrame for the matching engine in
  :mod:`repro.sse_app`.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.sse_app.topology import ORDER_BYTES
from repro.streams.microbench import EPOCH_S, Trace, zipf_weights

#: zipf skew of the base stock popularity.
SKEW = 0.3
#: per-epoch probability that a stock enters / leaves the hot regime.
HOT_PROB = 0.03
HOT_EXIT_PROB = 0.25
#: rate multiplier of a hot stock.
HOT_BOOST = 6.0
#: only stocks at this popularity rank or lower (0 = most popular) turn hot.
BOOST_MIN_RANK = 50
#: every ``DRIFT_EVERY_S`` seconds a ``DRIFT_FRAC`` share of the stocks
#: swap popularity ranks.
DRIFT_EVERY_S = 20.0
DRIFT_FRAC = 0.1


def sse_trace(
    *,
    n_epochs: int,
    rate: float,
    n_stocks: int = 2000,
    cpu_cost_ms: float = 0.5,
    seed: int = 17,
) -> Trace:
    """Per-epoch per-stock order counts with bursty, drifting popularity,
    in epochs of :data:`~repro.streams.microbench.EPOCH_S`.

    ``rate`` is the *mean* aggregate orders/s; the instantaneous rate is
    modulated by a ±20 % sinusoid.  ``cpu_cost_ms`` is the transactor's
    per-order matching cost in the engine's cost model.

    Calibration notes: the base skew is mild (no single stock above
    ~0.4 % of the stream) and bursts only hit stocks ranked below
    ``BOOST_MIN_RANK``, so even a boosted stock stays below one core's
    matching capacity — a single key cannot be parallelised under
    ordered stateful processing (§2.1), and the real SSE trace respects
    the same bound (Fig. 15 tops out around a few hundred orders/s per
    stock).  The burst Markov chain (≈10 % of stocks hot at any time,
    mean burst ~4 s) is what drives per-executor demand fluctuation and
    hence scheduler activity.
    """
    rng = np.random.default_rng(seed)
    base = zipf_weights(n_stocks, SKEW)
    perm = rng.permutation(n_stocks)
    hot = np.zeros(n_stocks, dtype=bool)
    counts = np.zeros((n_epochs, n_stocks), dtype=np.int64)
    drift_period = max(1, int(round(DRIFT_EVERY_S / EPOCH_S)))
    for t in range(n_epochs):
        if t > 0 and t % drift_period == 0:
            k = max(2, int(DRIFT_FRAC * n_stocks))
            idx = rng.choice(n_stocks, size=k, replace=False)
            perm[idx] = perm[rng.permutation(idx)]
        # hot-regime Markov chain per stock (only mid/low-rank eligible)
        eligible = perm >= BOOST_MIN_RANK
        hot = np.where(
            hot, rng.random(n_stocks) >= HOT_EXIT_PROB, rng.random(n_stocks) < HOT_PROB
        ) & eligible
        w = base[perm] * np.where(hot, HOT_BOOST, 1.0)
        w = w / w.sum()
        inst_rate = rate * (1.0 + 0.2 * np.sin(2 * np.pi * t / max(n_epochs, 60)))
        counts[t] = rng.multinomial(int(round(inst_rate * EPOCH_S)), w)
    return Trace(counts=counts, epoch_s=EPOCH_S, tuple_bytes=ORDER_BYTES, cpu_cost_ms=cpu_cost_ms)


def sse_orders_pdf(
    *,
    n_epochs: int,
    rate: float,
    n_stocks: int = 100,
    seed: int = 17,
) -> pd.DataFrame:
    """Order-level pandas frame sampled from :func:`sse_trace`.

    Columns: ``epoch, seq, stock, side ('B'/'S'), price, volume,
    trader``.  Prices random-walk per stock around a per-stock base so
    bids and asks actually cross and the matching engine trades.
    Deterministic in ``seed``.
    """
    trace = sse_trace(n_epochs=n_epochs, rate=rate, n_stocks=n_stocks, seed=seed)
    rng = np.random.default_rng(seed + 1)
    base_price = 10.0 + 90.0 * rng.random(n_stocks)
    frames = []
    seq0 = 0
    for t in range(n_epochs):
        stocks = np.repeat(np.arange(n_stocks), trace.counts[t])
        n = len(stocks)
        if n == 0:
            continue
        order = rng.permutation(n)
        stocks = stocks[order]
        side = rng.random(n) < 0.5
        # ±1% noise around the base price; buys bid slightly above,
        # sells ask slightly below, so the book crosses ~half the time.
        noise = 1.0 + 0.01 * rng.standard_normal(n)
        px = base_price[stocks] * noise * np.where(side, 1.002, 0.998)
        frames.append(
            pd.DataFrame(
                {
                    "epoch": np.full(n, t, dtype=np.int64),
                    "seq": np.arange(seq0, seq0 + n, dtype=np.int64),
                    "stock": stocks.astype(np.int64),
                    "side": np.where(side, "B", "S"),
                    "price": np.round(px, 2),
                    "volume": rng.integers(1, 20, n) * 100,
                    "trader": rng.integers(0, 10_000, n),
                }
            )
        )
        seq0 += n
    if not frames:
        return pd.DataFrame(
            columns=["epoch", "seq", "stock", "side", "price", "volume", "trader"]
        )
    return pd.concat(frames, ignore_index=True)
