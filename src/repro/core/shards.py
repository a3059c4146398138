"""Two-tier key routing (§3.1/§3.2, first tier).

Tier 1 is a *static* hash of the key space: operator-level key → executor
(the executor-centric paradigm never changes this), and within an
executor key → shard.  Tier 2 — the dynamic shard → task map — lives in
the routing table of :mod:`repro.core.elastic_executor` and in the
engine's per-executor state.

Hashes must be deterministic across processes and runs, so they use no
Python ``hash``.  We use **XXH64 of the key as one little-endian long**
(seed 42) — exactly what Spark's built-in ``xxhash64(BIGINT)``
computes — implemented twice:

* ``_xxh64`` in vectorised NumPy ``uint64`` arithmetic, for arrays of
  keys.  It is the reference: ``tests/test_shards.py`` checks it
  against known answers computed once by Spark SQL.
* ``_xxh64_int``, its scalar twin in Python ints masked to 64 bits, for
  one integer key.  On a scalar the NumPy path is almost all per-call
  overhead, which dominated a tuple's cost in the elastic executor's
  receiver; the twin is several times cheaper.  ``tests/test_shards.py``
  checks the two agree bit-for-bit.

:func:`key_to_shard` — the hash the receiver runs once per distinct
key, on its first arrival — takes the scalar twin for a Python ``int`` or NumPy integer scalar in
[−2⁶³, 2⁶⁴) — the range NumPy casts to ``uint64`` — and the NumPy path
for everything else, so an out-of-range int raises ``OverflowError``
in the NumPy cast.  :func:`key_to_executor` always takes the NumPy
path: its callers hash whole arrays of keys.

The 64-bit hash is truncated to 63 bits (``>> 1``) before the modulo,
so it is a non-negative BIGINT in SQL as well
(``shiftrightunsigned(xxhash64(CAST(k AS BIGINT)), 1)``).
"""
from __future__ import annotations

import numpy as np

_P1 = np.uint64(0x9E3779B185EBCA87)
_P2 = np.uint64(0xC2B2AE3D27D4EB4F)
_P3 = np.uint64(0x165667B19E3779F9)
_P4 = np.uint64(0x85EBCA77C2B2AE63)
_P5 = np.uint64(0x27D4EB2F165667C5)
_SEED = np.uint64(42)  # Spark's xxhash64 default seed
_U64 = np.uint64

# The same constants as Python ints, for the scalar twin.
_MASK = (1 << 64) - 1
_IP1, _IP2, _IP3, _IP4 = (int(p) for p in (_P1, _P2, _P3, _P4))
_IACC0 = (int(_SEED) + int(_P5) + 8) & _MASK
_INT_SCALAR = (int, np.integer)
_INT_LO, _INT_HI = -(1 << 63), 1 << 64


def _rotl(x: np.ndarray, r: int) -> np.ndarray:
    r64 = _U64(r)
    return (x << r64) | (x >> (_U64(64) - r64))


def _xxh64(x: np.ndarray) -> np.ndarray:
    """XXH64 of one 8-byte little-endian long, seed 42 — bit-identical
    to Spark's ``xxhash64(CAST(x AS BIGINT))``.  Truncated to 63 bits."""
    with np.errstate(over="ignore"):  # wraparound is the hash semantics
        x = np.asarray(x, dtype=np.uint64)
        acc = _SEED + _P5 + _U64(8)
        k1 = _rotl(x * _P2, 31) * _P1
        acc = acc ^ k1
        acc = _rotl(acc, 27) * _P1 + _P4
        acc = acc ^ (acc >> _U64(33))
        acc = acc * _P2
        acc = acc ^ (acc >> _U64(29))
        acc = acc * _P3
        acc = acc ^ (acc >> _U64(32))
        return acc >> _U64(1)


def _xxh64_int(key: object, salt: object) -> int | None:
    """:func:`_xxh64` of ``key ^ salt`` in Python ints, when both are
    integer scalars in [−2⁶³, 2⁶⁴) (the range NumPy casts to uint64,
    negative ones as two's complement); ``None`` otherwise, and the
    caller takes the NumPy path.

    Each rotation leaves bits above 2⁶⁴; they vanish under the mask that
    follows its multiply, since (a + b·2⁶⁴)·p ≡ a·p (mod 2⁶⁴)."""
    if not (isinstance(key, _INT_SCALAR) and isinstance(salt, _INT_SCALAR)):
        return None
    key, salt = int(key), int(salt)
    if not (_INT_LO <= key < _INT_HI and _INT_LO <= salt < _INT_HI):
        return None
    k1 = ((key ^ salt) * _IP2) & _MASK
    k1 = (((k1 << 31) | (k1 >> 33)) * _IP1) & _MASK
    acc = _IACC0 ^ k1
    acc = (((acc << 27) | (acc >> 37)) * _IP1 + _IP4) & _MASK
    acc ^= acc >> 33
    acc = (acc * _IP2) & _MASK
    acc ^= acc >> 29
    acc = (acc * _IP3) & _MASK
    acc ^= acc >> 32
    return acc >> 1


def _wrap(key: object) -> object:
    """A Python int in [−2⁶³, 0) as its 64-bit two's complement."""
    return key & _MASK if isinstance(key, int) and _INT_LO <= key < 0 else key


def _as_u64(keys: np.ndarray | int) -> np.ndarray:
    """``np.asarray(keys, dtype=np.uint64)``, negative keys as two's
    complement, without NumPy's deprecated cast of a negative Python
    int: such ints (alone or in a list) are masked to 64 bits first,
    and a signed integer array is reinterpreted.  A key outside
    [−2⁶³, 2⁶⁴) still raises ``OverflowError`` in the cast."""
    if isinstance(keys, (list, tuple)):
        return np.asarray([_wrap(k) for k in keys], dtype=np.uint64)
    arr = np.asarray(_wrap(keys))
    return arr.astype(np.uint64) if arr.dtype.kind == "i" else np.asarray(arr, dtype=np.uint64)


def key_to_executor(keys: np.ndarray | int, n_executors: int) -> np.ndarray | int:
    """Tier-1 static operator-level partitioning: key → executor id."""
    if n_executors <= 0:
        raise ValueError("n_executors must be positive")
    arr = _as_u64(keys)
    out = _xxh64(arr) % np.uint64(n_executors)
    return int(out) if np.isscalar(keys) or arr.shape == () else out.astype(np.int64)


def key_to_shard(keys: np.ndarray | int, n_shards: int, salt: int = 0x51ED) -> np.ndarray | int:
    """Static key → shard hash within an executor (or operator for RC).

    XORing a salt before hashing decorrelates this tier from
    :func:`key_to_executor` (XXH64 is non-linear), so the keys of one
    executor spread over all shards.
    """
    if n_shards <= 0:
        raise ValueError("n_shards must be positive")
    h = _xxh64_int(keys, salt)
    if h is not None:
        return h % int(n_shards)
    arr = _as_u64(keys)
    out = _xxh64(arr ^ np.uint64(salt)) % np.uint64(n_shards)
    return int(out) if np.isscalar(keys) or arr.shape == () else out.astype(np.int64)


def global_shard(keys: np.ndarray | int, n_executors: int, shards_per_executor: int) -> np.ndarray | int:
    """Operator-global shard id = executor * z + local shard."""
    e = key_to_executor(keys, n_executors)
    s = key_to_shard(keys, shards_per_executor)
    return e * shards_per_executor + s
