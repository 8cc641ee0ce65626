"""Box-counting kernels in numpy.

The box at bound r is a product of one simplex per block, and a term
dominates a leader exactly when each of its blocks dominates that block
of the leader.  The engine therefore never enumerates a box.  It groups
each block simplex into classes of rows with equal coordinate sum and
equal set of dominated leader blocks, and keeps per class only what the
count reads: its sum, a packed leader mask and its size
(`block_classes`).  It multiplies the classes of all blocks out into one
weighted table of block sums and masks, a joined mask being the AND of
its blocks' masks (`class_table`), and reads every bound it needs off
that table in one `classify_box` call, which tests no divisibility
again: a row has no divisor when its mask is zero.  Nor does it
enumerate a block simplex: which leaders a row dominates depends only
on the row clamped to the largest leader exponent of each column, so
the classes and their sizes follow from the clamped vectors and
binomial counts.  One cached enumerator (`_capped`) lists the vectors
under per-column caps; the simplex is its uncapped case.

The rank oracle reads the full box (`box_vectors`, built and cached)
and the blockwise sums of its rows (`block_sum_matrix`); the engine
reads neither.  The box and the table's block sums are products of
per-block tables formed in one place (`_product`), and the masks and
weights are joined across blocks in another (`_join`).

Every array counting builds is bounded by MAX_CELLS int64 cells, rows
times width, checked from counts known before it is allocated: a full
box, the clamped vectors of a block and their (u, s) pairs
(`block_classes`), and the combined class table at its real width of
p block sums, the mask words and one weight.  No simplex is built, so
none is priced.  Every integer the counting forms, a class weight or
size, a table weight or a count, counts terms of the box, so exactness
is checked in one place, `check_exact`: a box whose term count would
leave int64 is refused before it is counted, and past that check every
count is exact.  The counts are broadcast comparisons over chunks of
rows, and a chunk shrinks as more bounds are read at once, so no
temporary grows with the table times the bounds.  All rational
arithmetic lives outside this module.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb, prod
from typing import Sequence

import numpy as np

from .errors import InputError

# no compiled backend: result stamps in the benchmark harness read this
USING_NUMBA = False

# Most int64 cells (rows times width, 128 MiB) any counting array may
# have: a full box, the clamped vectors of a block, their (u, s) pairs or
# the combined class table, each at its real width.  The largest the test
# suite admits is a 4,002,000-row combined class table of 4 columns,
# 16.0 M cells (a test's `eval` at (1000, 1000), just under the budget);
# the largest pairs are 2,000,001 rows of 3 columns, the largest clamped
# vectors 1,002,001 rows of 3 columns and the largest box 84,000 rows of
# 4 columns.  The benchmark workloads admit at most 2,691 rows of 4
# columns (a class table at seed 0).
MAX_CELLS = 1 << 24

_INT64_MAX = int(np.iinfo(np.int64).max)


def _check_cells(rows: int, width: int, what: str, least: bool = False) -> None:
    """Refuse rows x width int64 cells past the budget; least: rows is a bound."""
    if rows * width > MAX_CELLS:
        try:
            text = str(rows)
        except ValueError:  # past the interpreter's int-to-str digit limit
            text, least = f"2^{rows.bit_length() - 1}", True
        raise InputError(
            f"box counting: {what} would have {'at least ' * least}{text} rows "
            f"of {width} columns, over the budget kernels.MAX_CELLS = {MAX_CELLS}"
        )


def check_exact(widths: Sequence[int], r: Sequence[int]) -> None:
    """Refuse a box at bound r >= 0 whose counts would leave int64.

    Block j has C(b_j + q_j, q_j) terms, and the box their product.
    A binomial with min(b, q) >= 63 is at least 2^63, so it is never taken.
    """
    total = 1
    for q, b in zip(widths, r):
        total *= comb(b + q, q) if min(b, q) < 63 else _INT64_MAX + 1
        if total > _INT64_MAX:
            raise InputError(
                f"box counting: the box of block widths {tuple(widths)} at bound "
                f"{tuple(r)} overflows the exact int64 counts"
            )


def check_grid(sizes: tuple[int, ...]) -> None:
    """Refuse a sample grid past the cell budget.

    The grid has one axis per block, sizes[j] + 1 points along axis j and
    two more points past its corner per axis, each a row of len(sizes)
    cells.  The product stops growing once it alone breaks the budget.
    """
    points = 1
    for q in sizes:
        points *= q + 1
        if points > MAX_CELLS:
            break
    p = len(sizes)
    _check_cells(points + 2 * p, p, "the sample grid", least=points > MAX_CELLS)


@lru_cache(maxsize=4096)
def _capped(caps: tuple[int, ...], r: int) -> np.ndarray:
    """All u in N^q with u_c <= caps[c] and |u| <= r, one per row.

    Built one column at a time: each prefix is extended by every next
    value up to its cap and the bound it has left, so rows come out in
    lexicographic order and no prefix level has more rows than the
    result.  A level keeps only each row's prefix and value; the columns
    are read back from the last level, and columns capped at 0 stay zero
    and take no step.  The arrays are cached, so they are read-only.
    """
    levels = []
    left = np.full(int(r >= 0), r, dtype=np.int64)
    for c in np.flatnonzero(caps):
        rows, vals = np.nonzero(np.arange(caps[c] + 1) <= left[:, None])
        levels.append((c, rows, vals))
        left = left[rows] - vals
    out = np.zeros((len(left), len(caps)), dtype=np.int64)
    idx = np.arange(len(left))
    for c, rows, vals in reversed(levels):
        out[:, c] = vals[idx]
        idx = rows[idx]
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
    total = prod(comb(b + q, q) for q, b in zip(sizes, r))
    _check_cells(total, sum(sizes), f"the box of block widths {sizes} at bound {r}")
    # no block simplex has more cells than the box just checked
    out = _product([_capped((b,) * q, b) for q, b in zip(sizes, r)])
    out.flags.writeable = False
    return out


def _product(tables: list[np.ndarray]) -> np.ndarray:
    """Every row that joins one row of each 2-d table, in table order.

    The first table varies slowest, so sorted tables give sorted rows.
    Each table is broadcast into its columns of the result, so nothing
    but the result is allocated.
    """
    shape = tuple(len(t) for t in tables)
    out = np.empty((*shape, sum(t.shape[1] for t in tables)), dtype=np.int64)
    col = 0
    for j, t in enumerate(tables):
        axes = [1] * len(shape)
        axes[j] = len(t)
        out[..., col:col + t.shape[1]] = t.reshape(*axes, t.shape[1])
        col += t.shape[1]
    return out.reshape(-1, out.shape[-1])


def block_sum_matrix(V: np.ndarray, sizes: tuple[int, ...]) -> np.ndarray:
    """Blockwise coordinate sums of each row; shape (len(V), len(sizes))."""
    return np.add.reduceat(V, np.cumsum((0, *sizes[:-1])), axis=1)


def block_classes(q: int, r: int, L: np.ndarray) -> tuple[np.ndarray, ...]:
    """Classes of the simplex {v in N^q : |v| <= r}: sums, leader masks, sizes.

    Two rows share a class when they have the same coordinate sum and
    dominate the same rows of L (k x q).  Returns, per class, that sum,
    its leader mask, and the number of simplex rows in it.  A mask has
    -(-k // 64) uint64 words; bit g % 64 of word g // 64 is set when the
    class dominates row g of L.  Classes come sorted by sum.

    The simplex is never built.  Whether v dominates a row of L depends
    only on its clamp u = min(v, caps), where caps_c = min(M_c, r) and M_c
    is the largest entry of column c of L.  Column c is saturated in u
    when u_c = caps_c.  If u has k >= 1 saturated columns, then for each
    sum s in |u|..r exactly C(s - |u| + k - 1, k - 1) simplex rows of sum
    s clamp to u; if it has none, only u itself does.  The classes are
    therefore read off the pairs (u, s).  The clamped vectors (q columns
    and the mask words) and the pairs (the mask words, a sum and a
    weight) are checked against the cell budget before they are built;
    the caller checks exactness (`check_exact`) at (q, r) or past it.
    """
    words = -(-L.shape[0] // 64)
    caps = np.minimum(L.max(axis=0, initial=0), r)
    what = f"of the block of width {q} at bound {r}"
    # no more than the simplex's rows, an int64 after `check_exact`, nor
    # than prod(caps_c + 1); 63 factors of 2 or more already pass 2^63
    vectors = min(prod((caps[caps > 0][:63] + 1).tolist()), comb(r + q, q))
    _check_cells(vectors, q + words, f"the clamped vectors {what}")
    U = _capped(tuple(caps.tolist()), r)
    k = (U == caps).sum(axis=1)
    size = U.sum(axis=1)
    # one pair (u, s) per sum s that u's rows reach; t = s - |u|
    spans = np.where(k > 0, r - size + 1, 1)
    _check_cells(int(spans.sum()), words + 2, f"the (u, s) pairs {what}")
    idx = np.repeat(np.arange(U.shape[0]), spans)
    t = np.arange(idx.shape[0]) - np.repeat(np.cumsum(spans) - spans, spans)
    # C(t + k - 1, t) as C(hi + lo, lo), the shorter of its two symmetric
    # forms, by Pascal's rule: after pass i entry h of col is C(h + i, i),
    # at most C(r + q - 1, q - 1) simplex rows, in int64 past `check_exact`
    kk = k[idx] - 1
    lo, hi = np.minimum(kk, t), np.maximum(kk, t)
    weights = np.ones(idx.shape[0], dtype=np.int64)
    col = np.ones(hi.max(initial=0) + 1, dtype=np.int64)
    for i in range(1, min(q - 1, r) + 1):
        col = np.cumsum(col)
        weights = np.where(lo == i, col[hi], weights)
    # bit g of a row's mask: the row dominates leader row g; built one
    # leader and one column at a time, so every temporary is one column
    masks = np.zeros((U.shape[0], words), dtype=np.uint64)
    for g, lead in enumerate(L.tolist()):
        div = np.ones(U.shape[0], dtype=bool)
        for c, e in enumerate(lead):
            if e:
                div &= U[:, c] >= e
        masks[:, g // 64] |= div.astype(np.uint64) << np.uint64(g % 64)
    masks, sums = masks[idx], size[idx] + t
    order = np.lexsort((*masks.T, sums))
    masks, sums = masks[order], sums[order]
    new = np.ones(order.shape[0], dtype=bool)
    new[1:] = (sums[1:] != sums[:-1]) | (masks[1:] != masks[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    return sums[starts], masks[starts], np.add.reduceat(weights[order], starts)


def _join(tables: list[np.ndarray], ufunc) -> np.ndarray:
    """ufunc across one row of each table, for every pick, in `_product`'s order."""
    out = tables[0]
    for t in tables[1:]:
        out = ufunc(out[:, None], t[None]).reshape(len(out) * len(t), *t.shape[1:])
    return out


def class_table(blocks: list[tuple]) -> tuple[np.ndarray, ...]:
    """Per-block class records joined into one weighted table (BS, masks, weights).

    blocks holds (sums, masks, sizes) per block, as `block_classes` gives
    them.  Each row of the result joins one class per block.  Its block
    sums BS are those of its classes.  Its mask is the AND of theirs,
    since a leader divides a term exactly when each block of the term
    dominates that block of the leader.  Its weight is the product of
    their sizes, so the weights sum to the size of the whole box.  The
    table is checked against the cell budget at its width: p block sums,
    the mask words and one weight.
    """
    width = len(blocks) + blocks[0][1].shape[1] + 1
    _check_cells(prod(len(s) for *_, s in blocks), width, "the combined class table")
    BS = _product([sums[:, None] for sums, _, _ in blocks])
    masks = _join([m for _, m, _ in blocks], np.bitwise_and)
    return BS, masks, _join([sizes for *_, sizes in blocks], np.multiply)


def classify_box(BS, masks, SL, weights, points) -> tuple[np.ndarray, np.ndarray]:
    """Split weighted class rows into staircase complement and overshoot counts.

    BS: blockwise sums of rows that each stand for weights[i] box terms;
    masks: their packed leader masks, as `class_table` gives them; SL:
    per-leader order slack (columns are the later orders 2..p);
    points: the order bounds r, one per row.  At each r, only rows with
    BS <= r are in the box.  Returns, per point, the weight of box rows
    divisible by no leader, then the weight of box rows all of whose
    dividing leaders overshoot some later order bound.
    """
    points = np.asarray(points, dtype=np.int64).reshape(-1, BS.shape[1])
    card_v = np.zeros(points.shape[0], dtype=np.int64)
    card_vp = np.zeros(points.shape[0], dtype=np.int64)
    # rows per chunk shrink with the points, so inbox stays bounded
    chunk = max(1, (1 << 15) // max(1, points.shape[0]))
    for lo in range(0, BS.shape[0], chunk):
        bs = BS[lo:lo + chunk]
        w = weights[lo:lo + chunk]
        inbox = (bs[:, None, :] <= points[None, :, :]).all(axis=2)
        m = masks[lo:lo + chunk]
        no_div = ~m.any(axis=1)
        card_v += (w * no_div) @ inbox
        if BS.shape[1] == 1 or no_div.all():
            continue  # no later order to overshoot, or no divided row
        # bit g of a divided row's mask, as column g: leader g divides it
        bits = m[~no_div].astype("<u8", copy=False).view(np.uint8)
        div = np.unpackbits(bits, axis=1, count=len(SL), bitorder="little").view(bool)
        inbox, w = inbox[~no_div], w[~no_div]
        # a dividing leader fits at r when no later order bound is exceeded
        need = bs[~no_div, None, 1:] + SL
        for i, r in enumerate(points):
            fits = (need <= r[1:]).all(axis=2) & div
            card_vp[i] += w[inbox[:, i] & ~fits.any(axis=1)].sum()
    return card_v, card_vp
