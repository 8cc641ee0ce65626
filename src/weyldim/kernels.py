"""Box-counting kernels in numpy.

The box rows are enumerated once per bound and cached; the counts are
chunked broadcast comparisons over small nonnegative int64 data, so
every result is exact.  All rational arithmetic lives outside this
module.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb, prod

import numpy as np

# no compiled backend: result stamps in the benchmark harness read this
USING_NUMBA = False


@lru_cache(maxsize=4096)
def _sum_bounded(q: int, r: int) -> np.ndarray:
    """All vectors in N^q with coordinate sum <= r, one per row."""
    if r < 0:
        out = np.empty((0, q), dtype=np.int64)
        out.flags.writeable = False
        return out
    if q == 1:
        out = np.arange(r + 1, dtype=np.int64).reshape(-1, 1)
        out.flags.writeable = False
        return out
    parts = []
    for first in range(r + 1):
        rest = _sum_bounded(q - 1, r - first)
        col = np.full((rest.shape[0], 1), first, dtype=np.int64)
        parts.append(np.hstack([col, rest]))
    out = np.vstack(parts)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=2048)
def box_vectors(sizes: tuple[int, ...], r: tuple[int, ...]) -> np.ndarray:
    """All v in N^q with blockwise coordinate sums bounded by r.

    sizes gives the widths of the consecutive coordinate blocks; rows come
    out in lexicographic order by construction.
    """
    if len(sizes) != len(r):
        raise ValueError("sizes and bounds disagree")
    if any(v < 0 for v in r):
        out = np.empty((0, sum(sizes)), dtype=np.int64)
        out.flags.writeable = False
        return out
    blocks = [_sum_bounded(q, b) for q, b in zip(sizes, r)]
    counts = [blk.shape[0] for blk in blocks]
    total = prod(counts)
    assert total == prod(comb(b + q, q) for q, b in zip(sizes, r))
    out = np.empty((total, sum(sizes)), dtype=np.int64)
    col = 0
    reps_after = total
    for blk, cnt in zip(blocks, counts):
        reps_after //= cnt
        reps_before = total // (cnt * reps_after)
        tiled = np.repeat(blk, reps_after, axis=0)
        tiled = np.tile(tiled, (reps_before, 1))
        out[:, col:col + blk.shape[1]] = tiled
        col += blk.shape[1]
    out.flags.writeable = False
    return out


def block_sum_matrix(V: np.ndarray, sizes: tuple[int, ...]) -> np.ndarray:
    """Blockwise coordinate sums of each row; shape (len(V), len(sizes))."""
    ind = np.zeros((V.shape[1], len(sizes)), dtype=np.int64)
    start = 0
    for j, s in enumerate(sizes):
        ind[start:start + s, j] = 1
        start += s
    return V @ ind


def count_not_dominated(V: np.ndarray, A: np.ndarray) -> int:
    """Rows of V that componentwise dominate no row of A."""
    if A.shape[0] == 0:
        return int(V.shape[0])
    if V.shape[0] == 0:
        return 0
    count = 0
    chunk = 1 << 16
    for lo in range(0, V.shape[0], chunk):
        part = V[lo:lo + chunk]
        dom = (part[:, None, :] >= A[None, :, :]).all(axis=2).any(axis=1)
        count += int((~dom).sum())
    return count


def classify_box(V, BS, L, SL, r) -> tuple[int, int]:
    """Split box rows into staircase complement and overshoot counts.

    V: box exponent rows; BS: their blockwise sums; L: leader exponent
    rows for one generator; SL: per-leader order slack (columns are the
    p orders, column 0 unused); r: the order bounds.  Returns the number
    of rows divisible by no leader, then the number of rows all of whose
    dividing leaders overshoot some later order bound.
    """
    if L.shape[0] == 0:
        return int(V.shape[0]), 0
    if V.shape[0] == 0:
        return 0, 0
    r = np.asarray(r, dtype=np.int64)
    card_v = 0
    card_vp = 0
    chunk = 1 << 15
    for lo in range(0, V.shape[0], chunk):
        part = V[lo:lo + chunk]
        bs = BS[lo:lo + chunk]
        div = (part[:, None, :] >= L[None, :, :]).all(axis=2)
        if BS.shape[1] > 1:
            shifted = bs[:, None, 1:] + SL[None, :, 1:]
            viol = (shifted > r[None, None, 1:]).any(axis=2)
        else:
            viol = np.zeros(div.shape, dtype=bool)
        no_div = ~div.any(axis=1)
        survives = (~div | viol).all(axis=1)
        card_v += int(no_div.sum())
        card_vp += int((survives & ~no_div).sum())
    return card_v, card_vp
