"""Mergeable sketches for approximate distributed aggregation.

HyperLogLog (Flajolet et al. 2007, with the small-range linear-counting
correction) in the partial/combine shape every other aggregate here uses:
per-batch register arrays are the partials, register-wise ``max`` is the
combiner — associative and commutative, so pre-reduce and salted two-stage
shuffles are safe, and the exchange carries ``m`` bytes per (key, batch)
regardless of row count.  This is the 100 TB path for COUNT(DISTINCT);
``relational.distinct_count_by`` is the exact twin a SQL oracle can verify.
"""

from __future__ import annotations

import numpy as np

from .hashing import stable_hash_array


def _clz64(x: np.ndarray) -> np.ndarray:
    """Exact vectorized count-leading-zeros for uint64 (binary search over
    shift widths — no float rounding hazards)."""
    n = np.zeros(x.shape, dtype=np.int64)
    y = x.copy()
    for s in (32, 16, 8, 4, 2, 1):
        zero_top = (y >> np.uint64(64 - s)) == 0
        n[zero_top] += s
        y[zero_top] <<= np.uint64(s)
    n[x == 0] = 64
    return n


def _regs_from_hashes(h: np.ndarray, p: int) -> np.ndarray:
    m = 1 << p
    reg_idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = h << np.uint64(p)
    # rank = leading zeros of the remaining (64-p)-bit stream, +1; capped
    rank = np.minimum(_clz64(rest) + 1, 64 - p + 1).astype(np.uint8)
    regs = np.zeros(m, dtype=np.uint8)
    np.maximum.at(regs, reg_idx, rank)
    return regs


def hll_merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.maximum(a, b)


# ---------------------------------------------------------------------------
# distinct sketch with sparse-exact mode (Theta/CPC-style contract)
# ---------------------------------------------------------------------------
# Below ``sparse_threshold`` distinct hashes, the sketch IS the sorted hash
# set (one tag byte + 8 bytes/hash) and the estimate is exact; past the
# threshold it degrades to HLL registers.  Merges stay associative and
# commutative in both modes and across the mode boundary (hash-set union,
# register max, set→register conversion).  This is the standard
# exact-until-compression contract (DataSketches sparse mode): small keys
# get exact COUNT(DISTINCT) — SQL-oracle-checkable — while hot keys cost a
# bounded 2**p bytes.


def distinct_sketch_partial(
    values, *, p: int = 12, sparse_threshold: int = 4096
) -> bytes:
    h = np.unique(stable_hash_array(values))
    if len(h) <= sparse_threshold:
        return b"S" + np.ascontiguousarray(h, dtype="<u8").tobytes()
    return b"H" + _regs_from_hashes(h, p).tobytes()


def distinct_sketch_merge(
    a: bytes, b: bytes, *, p: int = 12, sparse_threshold: int = 4096
) -> bytes:
    if a[:1] == b"S" and b[:1] == b"S":
        u = np.union1d(
            np.frombuffer(a, "<u8", offset=1), np.frombuffer(b, "<u8", offset=1)
        )
        if len(u) <= sparse_threshold:
            return b"S" + np.ascontiguousarray(u, dtype="<u8").tobytes()
        return b"H" + _regs_from_hashes(u.astype(np.uint64), p).tobytes()

    def regs_of(x: bytes) -> np.ndarray:
        if x[:1] == b"H":
            return np.frombuffer(x, np.uint8, offset=1)
        return _regs_from_hashes(
            np.frombuffer(x, "<u8", offset=1).astype(np.uint64), p
        )

    return b"H" + hll_merge(regs_of(a), regs_of(b)).tobytes()


def distinct_sketch_estimate(buf: bytes) -> int:
    if buf[:1] == b"S":
        return (len(buf) - 1) // 8
    return int(round(hll_estimate(np.frombuffer(buf, np.uint8, offset=1))))


# ---------------------------------------------------------------------------
# merging quantile digest (t-digest-style, uniform scale function)
# ---------------------------------------------------------------------------


def qdigest_compress(
    means: np.ndarray, weights: np.ndarray, delta: int = 256
) -> tuple[np.ndarray, np.ndarray]:
    """Compress weighted centroids to ≤ ``delta`` by bucketing on the
    weighted quantile midpoint (Dunning's merging t-digest with a uniform
    scale function — ~1/delta accuracy in q-space; fully vectorized, no
    per-centroid loop).  Compress(concat(a, b)) is the merge, so partials
    combine associatively up any reduction tree."""
    o = np.argsort(means, kind="stable")
    m, w = means[o].astype(np.float64), weights[o].astype(np.float64)
    total = w.sum()
    if total <= 0 or len(m) <= 1:
        return m, w
    mid = np.cumsum(w) - w / 2
    bucket = np.minimum((mid / total * delta).astype(np.int64), delta - 1)
    starts = np.nonzero(np.concatenate(([True], bucket[1:] != bucket[:-1])))[0]
    ws = np.add.reduceat(w, starts)
    ms = np.add.reduceat(m * w, starts) / ws
    return ms, ws


def qdigest_from_values(values: np.ndarray, delta: int = 256):
    return qdigest_compress(
        np.asarray(values, dtype=np.float64),
        np.ones(len(values), dtype=np.float64),
        delta,
    )


def qdigest_merge(a, b, delta: int = 256):
    return qdigest_compress(
        np.concatenate([a[0], b[0]]), np.concatenate([a[1], b[1]]), delta
    )


def qdigest_quantile(digest, q) -> np.ndarray:
    """Interpolated quantile(s) from the digest.

    While the digest is UNCOMPRESSED (every centroid weight 1 — true
    whenever the group's value count never exceeded ``delta``), the result
    is the exact SQL ``quantile_cont``, computed with the same
    ``lo·(1−frac) + hi·frac`` expression as the exact operator so the two
    agree bit-for-bit (exact-until-compression, the DataSketches-style
    contract).  Once compression engages, estimation falls back to the
    t-digest centroid-midpoint rule (~1/delta accuracy in q-space)."""
    means, weights = digest
    if len(means) == 0:
        return np.full(np.shape(q), np.nan)
    if np.all(weights == 1.0):
        n = len(means)
        rel = np.asarray(q, dtype=np.float64) * (n - 1)
        lo = np.floor(rel).astype(np.int64)
        hi = np.ceil(rel).astype(np.int64)
        frac = rel - lo
        return means[lo] * (1 - frac) + means[hi] * frac
    total = weights.sum()
    mid = np.cumsum(weights) - weights / 2
    return np.interp(np.asarray(q, dtype=np.float64) * total, mid, means)


def qdigest_pack(digest) -> bytes:
    means, weights = digest
    return np.concatenate([means, weights]).astype("<f8").tobytes()


def qdigest_unpack(buf: bytes):
    arr = np.frombuffer(buf, dtype="<f8")
    half = len(arr) // 2
    return arr[:half].copy(), arr[half:].copy()


def hll_estimate(regs: np.ndarray) -> float:
    """Cardinality estimate with the standard small-range correction."""
    m = len(regs)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    if est <= 2.5 * m:
        zeros = int(np.count_nonzero(regs == 0))
        if zeros:
            return m * np.log(m / zeros)
    return float(est)
