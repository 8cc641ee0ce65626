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

Every simplex, box and class table is bounded by MAX_CELLS int64
cells (rows times width; a class table counts the width of the box it
stands for), checked from binomials before anything is allocated;
`block_classes` is held to the budget of the simplex it stands for,
which also bounds everything it allocates.  The counts are broadcast
comparisons over chunks of rows, and a chunk shrinks as more bounds are
read at once, so no temporary grows with the table times the bounds.
The data are small nonnegative int64, so every result is exact.  All
rational arithmetic lives outside this module.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb, prod

import numpy as np

from .errors import InputError

# no compiled backend: result stamps in the benchmark harness read this
USING_NUMBA = False

# Most int64 cells (rows times width, 128 MiB) any counting array may
# have: a block simplex, a full box or a combined class table, counted at
# the width of the box it stands for.  The largest the test suite and the
# benchmark workloads build is a 4,002,000-row combined class table of
# 4 columns, 16.0 M cells (a test's `eval` at (1000, 1000), just under the
# budget); the largest box has 84,000 rows of 4 columns, and the largest
# simplex 43,758 rows of 8 columns (bound 10), a test's reference for
# `block_classes`.
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


def check_simplex(q: int, r: int) -> None:
    """Refuse the simplex {v in N^q : |v| <= r} if it breaks the cell budget."""
    if r < 0:
        return  # the empty simplex
    what = f"the simplex of width {q} at bound {r}"
    if r >= 1:
        # it has at least C(r + q, 1) = r + q rows; past the budget, the
        # exact C(r + q, q), which may run to millions of digits, is not taken
        _check_cells(r + q, q, what, least=True)
    _check_cells(comb(r + q, q), q, what)


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

    Rows come out in lexicographic order.  Every cap must be at most r;
    the recursion clamps the caps of the later columns to the bound left,
    so the simplex caps = (r,) * q shares its parts with the smaller
    simplices.  The arrays are cached, so they are read-only.
    """
    if r < 0:
        out = np.empty((0, len(caps)), dtype=np.int64)
    elif len(caps) == 1:
        out = np.arange(caps[0] + 1, dtype=np.int64).reshape(-1, 1)
    else:
        parts = []
        for first in range(caps[0] + 1):
            left = r - first
            rest = _capped(tuple(min(c, left) for c in caps[1:]), left)
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
    therefore read off the pairs (u, s).  Each pair stands for at least
    one distinct simplex row, so there are no more pairs than simplex
    rows, and no temporary here is larger than the simplex that is not
    built.
    """
    check_simplex(q, r)
    caps = np.minimum(L.max(axis=0, initial=0), r)
    U = _capped(tuple(caps.tolist()), r)
    k = (U == caps).sum(axis=1)
    size = U.sum(axis=1)
    # one pair (u, s) per sum s that u's rows reach; t = s - |u|
    spans = np.where(k > 0, r - size + 1, 1)
    idx = np.repeat(np.arange(U.shape[0]), spans)
    t = np.arange(idx.shape[0]) - np.repeat(np.cumsum(spans) - spans, spans)
    # C(t + k - 1, k - 1) as a product of ratios, each step exact: the
    # partial C(t + i, i) never passes the simplex's row count
    kk = k[idx]
    weights = np.ones(idx.shape[0], dtype=np.int64)
    for i in range(1, q):
        weights = np.where(i < kk, weights * (t + i) // i, weights)
    # bit g of a row's mask: the row dominates leader row g; built one
    # leader and one column at a time, so every temporary is one column
    masks = np.zeros((U.shape[0], -(-L.shape[0] // 64)), dtype=np.uint64)
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


def class_table(blocks: list[tuple], width: int) -> tuple[np.ndarray, ...]:
    """Per-block class records joined into one weighted table (BS, masks, weights).

    blocks holds (sums, masks, sizes) per block, as `block_classes` gives
    them; width is the number of exponent columns of the box, which the
    cell budget counts per row.  Each row of the result joins one class
    per block.  Its block sums BS are those of its classes.  Its mask is
    the AND of theirs, since a leader divides a term exactly when each
    block of the term dominates that block of the leader.  Its weight is
    the product of their sizes, so the weights sum to the size of the
    whole box.
    """
    box = prod(int(sizes.sum()) for *_, sizes in blocks)
    if box > _INT64_MAX:
        raise InputError(
            f"box counting: a box of {box} terms overflows the exact int64 counts"
        )
    _check_cells(prod(len(s) for *_, s in blocks), width, "the combined class table")
    BS = _product([sums[:, None] for sums, _, _ in blocks])
    masks = _join([m for _, m, _ in blocks], np.bitwise_and)
    return BS, masks, _join([sizes for *_, sizes in blocks], np.multiply)


def classify_box(BS, masks, SL, weights, points) -> tuple[np.ndarray, np.ndarray]:
    """Split weighted class rows into staircase complement and overshoot counts.

    BS: blockwise sums of rows that each stand for weights[i] box terms;
    masks: their packed leader masks, as `class_table` gives them; SL:
    per-leader order slack (columns are the p orders, column 0 unused);
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
        need = bs[~no_div, None, 1:] + SL[None, :, 1:]
        for i, r in enumerate(points):
            fits = (need <= r[1:]).all(axis=2) & div
            card_vp[i] += w[inbox[:, i] & ~fits.any(axis=1)].sum()
    return card_v, card_vp
