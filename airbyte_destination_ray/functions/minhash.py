"""Vectorized MinHash signatures over token shingles.

MinHash (Broder 1997) as used for web-scale near-dup detection (the
SlimPajama / RefinedWeb recipe): k-token shingles → per-permutation minimum
hash → LSH banding.  All numpy over flat token arrays — the per-permutation
row minimum uses ``np.minimum.reduceat`` over the (sorted) row segments, no
Python loops.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .simhash import _mix64, token_hashes

_SEED_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_EMPTY_SENTINEL = np.uint64(0xFFFFFFFFFFFFFFFF)


def _shingle_hashes(
    hashes: np.ndarray, row_id: np.ndarray, k: int, n_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Combine k consecutive token hashes within each row into shingle
    hashes — one shingle per token.

    The token stream is re-laid-out with k-1 constant BOUNDARY sentinels
    after each row, so every shingle (including those of rows shorter than
    k, which pad with sentinels) is a pure function of its own row's tokens
    — signatures can never depend on neighboring documents or batch
    composition.
    """
    n = len(hashes)
    if n == 0:
        return hashes, row_id
    if k <= 1:
        return _mix64(hashes), row_id
    pad = k - 1
    counts = np.bincount(row_id, minlength=n_rows)
    new_counts = counts + pad
    new_offsets = np.concatenate(([0], np.cumsum(new_counts)))
    padded = np.zeros(new_offsets[-1], dtype=np.uint64)  # sentinel = 0
    old_starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
    pos = np.arange(n) + (new_offsets[:-1] - old_starts)[row_id]
    padded[pos] = hashes

    sh = padded.copy()
    m = len(padded)
    for j in range(1, k):
        rolled = np.zeros_like(padded)
        rolled[: m - j] = padded[j:]
        sh = sh * np.uint64(1099511628211) + rolled  # FNV-ish combine
    # exactly the original token positions start a shingle
    return _mix64(sh[pos]), row_id


def minhash_signatures(
    texts, *, num_perm: int = 64, shingle_k: int = 5
) -> np.ndarray:
    """(n_rows, num_perm) uint64 MinHash signature matrix.

    Empty/null docs get all-``0xFF..`` sentinel signatures (match nothing).
    """
    hashes, row_id, n_rows = token_hashes(texts)
    sh, srow = _shingle_hashes(hashes, row_id, shingle_k, n_rows)
    sig = np.full((n_rows, num_perm), _EMPTY_SENTINEL, dtype=np.uint64)
    if len(sh) == 0:
        return sig
    row_starts = np.searchsorted(srow, np.arange(n_rows), side="left")
    present = np.bincount(srow, minlength=n_rows) > 0
    # exclude trailing empty rows rather than clamping (a clamped index
    # would truncate the previous row's segment)
    valid = row_starts < len(sh)
    idx = row_starts[valid]
    for p in range(num_perm):
        seed = np.uint64(((p + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
        vals = _mix64(sh ^ seed)
        mins = np.full(n_rows, _EMPTY_SENTINEL, dtype=np.uint64)
        mins[valid] = np.minimum.reduceat(vals, idx)
        sig[present, p] = mins[present]
    return sig


def band_keys(
    sig: np.ndarray, *, bands: int = 16
) -> tuple[np.ndarray, np.ndarray]:
    """LSH banding: hash each signature band to one uint64 bucket key.

    Returns (band_idx, key) arrays of shape (n_rows * bands,), row-major —
    caller pairs them with ``np.repeat(ids, bands)``.  Two docs agreeing on
    any band key are near-dup candidates.
    """
    n_rows, num_perm = sig.shape
    assert num_perm % bands == 0, "num_perm must divide evenly into bands"
    r = num_perm // bands
    banded = sig.reshape(n_rows, bands, r)
    key = np.zeros((n_rows, bands), dtype=np.uint64)
    for j in range(r):
        key = key * np.uint64(1099511628211) + banded[:, :, j]
    key = _mix64(key.ravel())
    band_idx = np.tile(np.arange(bands, dtype=np.int64), n_rows)
    return band_idx, key
