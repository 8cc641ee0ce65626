"""An independent rank oracle for dim M_r, used to cross-check the engine.

RankOracle measures dim M_r by exact row reduction of relation
multiples, kept as integer rows over integer column ids.  A multiple
x^a d^b * g is the expansion of d^b * g with a added to every term's
alpha, so each d-part b is expanded once and every multiplier sharing
it is a shift.  Columns are keyed by flat (generator, packed exponents)
tuples in the `Partition` layout, and the term-order keys of new
columns are read off those tuples in numpy.  `dimension(r)` answers one
point and `grid(rmax)` the grid {0..rmax}^p; one echelon serves each
chain r^1 <= ... <= r^k of bounds along the grid's last axis, since its
row families are nested, and so are its boxes.  The counted value
never touches the closed-form or Groebner code paths; a completed
basis, supplied by the caller, is consulted only for its input
relations and for its elements' blockwise orders and multiplier-order
bounds, which size a row family per point that is provably sufficient,
and a final pass one step past the top point's family re-checks every
count.
"""
from __future__ import annotations

from math import gcd
from operator import add, le
from typing import Sequence

import numpy as np

from .errors import InputError, VerificationError
from .groebner import GroebnerBasis
from .kernels import block_sum_matrix, box_vectors
from .terms import ModuleElement
from .weyl import ExponentPair, block_orders, mono_mul, weyl_dimension

# Most box terms (the box size times the module rank) `RankOracle` ranks.
# The only stop for a relation-free `check` walk, which builds no rows and
# so never trips `MAX_ROWS`; a budget on rows alone would need a grid bound.
MAX_BOX = 10**4

# Most rows (multipliers at the confirmation bound times relations) one
# point may need; a chain of `grid` builds and eliminates those of its top
# point.
MAX_ROWS = 1 << 19


class RankOracle:
    """dim M_r by exact fraction-free elimination over the integers.

    Rows are the relation multiples theta*g_i with ord(theta) <= R(r)
    blockwise; dim M_r is the box size minus the dimension of their span
    inside the box, read off an echelon whose columns outside the box
    eliminate first.  The relations g_i are `basis.relations`.  R(r) is
    the componentwise max of r - ord(g) + B(g) over the elements g of the
    basis with ord(g) <= r, where ord(g) is the componentwise max of the
    blockwise orders of g's terms and B(g) is g's own multiplier-order
    bound from `basis.bounds`; where no element fits, R(r) is -1 in every
    block and no theta fits it.  This row family is sufficient:

    - Take f in N inside box r.  Stage-1 reduction by the certified
      basis takes f to zero, as in `membership`.  Each step subtracts
      c * theta * g with theta * g inside box r: the first-order leader
      has the largest ord_1 of g's terms, and the caps of the later
      orders start at r_i or below and only fall.
    - ord_j(theta * g) = ord_j(theta) + ord_j(g) exactly.  Take the term
      t of g with the largest ord_j, and among those the largest total
      degree.  Only a term t + (k, k) of g could cancel the top term of
      theta * t, and such a term would have a larger ord_j, or the same
      ord_j and a larger total degree.
    - So ord(g) <= r and ord(theta) <= r - ord(g).  Each element g is
      sum_i D_i * g_i with ord(D_i) <= B(g), so f lies in the span of the
      theta' * g_i with ord(theta') <= R(r).  If no element fits, then N
      meets box r in zero and no row is needed.
    - R(r) grows with r and never exceeds r plus the whole basis'
      bound, `basis.multiplier_bound`.

    B is carried through completion as an upper bound on the true
    multiplier orders (products add orders at most, sums only cancel),
    so it can only over-provision rows.  The trade-off: the row family
    leans on the certified basis for its elements' orders and bounds, not
    only for the relations and one maximum, so a point no element fits
    gets its first value from no rows at all.  The oracle still shares no
    counting or reduction code with the engine, and a confirmation pass
    one step further, at R(r) + 1 and so at least the relations
    themselves, must leave the count unchanged.  A call whose
    confirmation pass would take more than `MAX_ROWS` rows is refused
    before any row is built.

    The matrix is indexed as in F4.  Every term gets an integer column id
    the first time it appears, and every multiple theta*g is built once
    per oracle as a primitive integer row of (column ids, coefficients).
    A column is keyed by the flat tuple (gen, *P.pack(theta)) of its
    term.  Rows come from the identity x^a d^b * g = x^a * (d^b * g):
    left multiplication by x^a only adds a to every term's alpha, since
    each term of d^b * g is already normal (x's left of d's).  So d^b * g
    is expanded and packed once per distinct b, and every theta = (a, b)
    shifts that expansion by adding one packed x-vector to each key; the
    shift is injective, so the coefficients and their content carry over
    unchanged.  A call only ranks the columns, by their term-order rank
    under the order-1 key: a term's block orders, then its packed
    exponents, then its generator, computed in numpy for all new columns
    at once.

    `_eliminate` runs once for a whole chain r^1 <= ... <= r^k
    (componentwise); `dimension(r)` is a chain of one point, and
    `grid(rmax)` one chain per line along the last axis.  A column's
    level is the number of chain boxes that hold it, and its
    pivot key is level * ncols + rank: the boxes are nested, so every
    column outside box r^i keys below every column inside it, for every
    i at once; for one point the level is the in-box flag.  The count
    does not depend on the order inside each level, but the fill-in
    does, and descending term order keeps it far lower than first-seen
    order.

    The rows enter in stages: first the thetas whose block sums fit
    R(r^1), then those that fit R(r^2), and so on; after stage i the
    pivots of level k - i + 1 and up count the span inside box r^i,
    which gives the first value at r^i.  The lead set of an echelon
    depends only on the span, so these values come from exactly the
    certified rows and equal what one call per point gives.  Then the
    thetas up to R(r^k) + 1 enter and every count is read again; each
    must keep its first value.  This confirmation is at least as strong
    as one step past each R(r^i), since S_{R(r^i) + 1} is inside
    S_{R(r^k) + 1} and a box's pivot count only grows with the rows.
    `_point` checks a point against `MAX_BOX` and `MAX_ROWS` before any
    row is built.  A grid of p >= 2 is not one chain: its boxes are not
    nested, so no column order puts the outside of every box first.
    `grid(rmax)` walks {0..rmax}^p as one chain along the last axis per
    prefix, which keeps its lexicographic order, and checks every point
    of every chain, in that order, before it builds the first row; the
    chains then share the built rows and the column state, one echelon
    each.
    """

    def __init__(self, basis: GroebnerBasis):
        P, bounds, relations = basis.P, basis.bounds, basis.relations
        if bounds is None:
            raise InputError("basis carries no multiplier bounds; use complete_basis")
        if relations is None:
            raise InputError("basis carries multiplier bounds but no relations")
        if len(bounds) != len(basis.elements):
            raise InputError(
                f"basis carries {len(bounds)} multiplier bounds, expected "
                f"{len(basis.elements)}, one per element"
            )
        for k, bound in enumerate(bounds):
            if len(bound) != P.p:
                raise InputError(
                    f"multiplier bound {k} has length {len(bound)}, expected {P.p}"
                )
            # exact type: bool is an int subclass and floats do not bound orders
            if any(type(v) is not int or v < 0 for v in bound):
                raise InputError(
                    f"multiplier bound {k} must consist of nonnegative integers: "
                    f"{bound}"
                )
        for i, g in enumerate(relations):
            if not isinstance(g, ModuleElement) or (g.n, g.m) != (P.n, basis.m):
                raise InputError(f"relation {i} is not an element of A_{P.n}^{basis.m}")
        self.P = P
        self.m = basis.m
        self.relations = relations
        # (ord(g), B(g)) per basis element: the componentwise max of its
        # terms' block orders, and its own multiplier-order bound
        self.element_bounds = [
            (tuple(map(max, zip(*(block_orders(t.theta, P) for t in g.row)))), b)
            for g, b in zip(basis.elements, bounds)
        ]
        # beta -> one primitive row of d^beta * g per relation, as
        # ((gen, *packed) per term, coefficients)
        self._d_rows: dict[tuple[int, ...], tuple] = {}
        # packed theta -> one (cols, coeffs) row of theta*g per relation
        self._rows: dict[tuple[int, ...], tuple[tuple[tuple, tuple], ...]] = {}
        # column state: an id per (gen, *packed) term key and, per id, its
        # order-1 term key; the key array covers the columns up to the last call
        self._col: dict[tuple[int, ...], int] = {}
        self._new_terms: list[tuple[int, ...]] = []
        self._keys = np.empty((0, P.p + 2 * P.n + 1), dtype=np.int64)
        self._rank = np.empty(0, dtype=np.int64)

    def _row_bound(self, r: tuple[int, ...]) -> tuple[int, ...]:
        """R(r), or -1 in every block where no element fits box r."""
        fits = [
            [v - o + b for v, o, b in zip(r, order, bound)]
            for order, bound in self.element_bounds
            if all(map(le, order, r))
        ]
        return tuple(map(max, zip((-1,) * self.P.p, *fits)))

    def dimension(self, r: Sequence[int]) -> int:
        """dim M_r, as a chain of one point; 0 where r has a negative
        entry, whose box is empty."""
        r = self.P.check_bound(r)
        if any(v < 0 for v in r):
            return 0
        return self._eliminate([self._point(r)])[0]

    def grid(self, rmax: int) -> dict[tuple[int, ...], int]:
        """dim M_r at every r in {0, ..., rmax}^p, in lexicographic order.

        The grid is one chain along the last axis per prefix.  Every point
        of every chain is checked before any row is built, so an
        over-budget grid is refused with no elimination done.
        """
        # exact type: bool is an int subclass
        if type(rmax) is not int or rmax < 0:
            raise InputError(f"rmax must be a nonnegative integer, got {rmax!r}")
        p, side = self.P.p, rmax + 1
        chains = []
        # each prefix is decoded from one index as the walk reaches it;
        # itertools.product would first materialize its input ranges, a
        # 10^9-entry tuple at rmax = 10^9
        for index in range(side ** (p - 1)):
            head = ()
            for _ in range(p - 1):
                index, v = divmod(index, side)
                head = (v, *head)
            chains.append([self._point(head + (v,)) for v in range(side)])
        ranks = {}
        for chain in chains:
            ranks.update(zip([r for r, _, _ in chain], self._eliminate(chain)))
        return ranks

    def _point(self, r: tuple[int, ...]) -> tuple:
        """(r, box size, R(r)) for a bound r with no negative entry, checked
        against `MAX_BOX` and `MAX_ROWS` before any row is built."""
        P = self.P
        card_box = weyl_dimension(P, r) * self.m
        if card_box > MAX_BOX:
            raise InputError(
                f"box of size {card_box} exceeds the oracle cap {MAX_BOX}"
            )
        bound = self._row_bound(r)
        confirm = tuple(v + 1 for v in bound)
        n_rows = weyl_dimension(P, confirm) * len(self.relations)
        if n_rows > MAX_ROWS:
            raise InputError(
                f"rank oracle: {n_rows} relation multiples at r={r} are "
                f"over the budget oracle.MAX_ROWS = {MAX_ROWS}"
            )
        return r, card_box, bound

    def _eliminate(self, chain: list[tuple]) -> list[int]:
        """dim M_r along a nonempty chain of `_point` records, one echelon."""
        if not self.relations:
            return [card for _, card, _ in chain]
        P, k = self.P, len(chain)
        points, cards, bounds = zip(*chain)
        # one enumeration at the top point's confirmation bound; a theta's
        # stage is the first point whose row bound it fits, else k
        V = box_vectors(P.widths, tuple(v + 1 for v in bounds[-1]))
        sums = block_sum_matrix(V, P.widths)
        stage = k - sum((sums <= b).all(axis=1) for b in bounds)
        stages: list[list] = [[] for _ in range(k + 1)]
        for theta, s in zip(map(tuple, V.tolist()), stage.tolist()):
            stages[s].append(self._multiples(theta))
        key = self._pivot_keys(points)
        ncols = len(key)
        pivots: dict[int, dict[int, int]] = {}
        # pivots per level; the box of points[i] holds the levels k - i and up
        at_level = [0] * (k + 1)

        def count(i: int) -> int:
            return cards[i] - sum(at_level[k - i:])

        first = []
        for s, rows in enumerate(stages):
            for multiples in rows:
                for cols, coeffs in multiples:
                    lead = self._insert(
                        pivots, {key[c]: v for c, v in zip(cols, coeffs)}
                    )
                    if lead >= 0:
                        at_level[lead // ncols] += 1
            if s < k:
                first.append(count(s))
        for i, r in enumerate(points):
            if count(i) != first[i]:
                raise VerificationError(
                    f"rank at r={r} dropped from {first[i]} to {count(i)} past "
                    "the certified bound"
                )
        return first

    def _multiples(self, packed: tuple[int, ...]) -> tuple:
        """Rows theta*g for every relation g, as primitive integer rows."""
        hit = self._rows.get(packed)
        if hit is None:
            # each packed block holds its x entries, then its d entries:
            # b gathers the d entries, the shift keeps the x entries in
            # place, and the generator entry of a key does not shift
            b, shift = (), (0,)
            for (start, stop), s in zip(self.P.packed_blocks, self.P.sizes):
                b += packed[start + s:stop]
                shift += packed[start:start + s] + (0,) * s
            d_rows = self._d_rows.get(b)
            if d_rows is None:
                d_rows = self._d_rows[b] = tuple(
                    self._d_row(b, rel) for rel in self.relations
                )
            hit = self._rows[packed] = tuple(
                self._shift_row(keys, coeffs, shift) for keys, coeffs in d_rows
            )
        return hit

    def _d_row(self, b: tuple[int, ...], rel: ModuleElement) -> tuple[tuple, tuple]:
        """d^b * rel over the integers, from rel's row, content divided out;
        its terms as (gen, *packed) keys."""
        d_b = ExponentPair((0,) * len(b), b)
        acc: dict[tuple[int, ...], int] = {}
        for (gen, theta_g), c in rel.row.items():
            for theta, w in mono_mul(d_b, theta_g):
                t = (gen, *self.P.pack(theta))
                acc[t] = acc.get(t, 0) + c * w
        acc = {t: v for t, v in acc.items() if v}
        g = gcd(*acc.values())
        return tuple(acc), tuple(v // g for v in acc.values())

    def _shift_row(self, keys: tuple, coeffs: tuple, shift: tuple[int, ...]) -> tuple:
        """x^a times a row of d^b * g: the packed x^a added to every key;
        new terms get ids."""
        col = self._col
        cols = []
        for t in keys:
            t = tuple(map(add, t, shift))
            c = col.get(t)
            if c is None:
                c = col[t] = len(col)
                self._new_terms.append(t)
            cols.append(c)
        return tuple(cols), coeffs

    def _pivot_keys(self, chain: Sequence[tuple[int, ...]]) -> list[int]:
        """Per column id: its term-order rank, plus ncols times its level,
        the number of the chain's boxes that hold it."""
        if self._new_terms:
            new = np.array(self._new_terms, dtype=np.int64)
            gens, exps = new[:, 0], new[:, 1:]
            self._new_terms = []
            # the order-1 key: block orders, packed exponents, generator
            orders = block_sum_matrix(exps, self.P.widths)
            self._keys = np.concatenate(
                (self._keys, np.column_stack((orders, exps, gens)))
            )
            # rank 0 is the largest term; lexsort's primary key comes last
            order = np.lexsort(-self._keys.T[::-1])
            self._rank = np.empty(len(order), dtype=np.int64)
            self._rank[order] = np.arange(len(order))
        ncols = len(self._rank)
        # the order-1 key opens with the block orders ord_1, ..., ord_p
        orders = self._keys[:, : self.P.p]
        level = sum((orders <= r).all(axis=1) for r in chain)
        return (self._rank + level * ncols).tolist()

    @staticmethod
    def _insert(pivots: dict, row: dict) -> int:
        """Echelon insertion; returns the new pivot's key, or -1 if none.

        The content is divided out once, when the row is stored: a step
        takes (b * row - a * piv) / gcd(a, b), a and b the two leads, so the
        row in hand is a positive multiple of the per-step primitive row, with
        the same support and steps and, being unique, the same primitive form.
        """
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                g = gcd(*row.values())
                pivots[lead] = row if g == 1 else {k: v // g for k, v in row.items()}
                return lead
            a, b = row[lead], piv[lead]
            g = gcd(a, b)
            ma, mb = b // g, a // g
            nxt = row if ma == 1 else {k: ma * v for k, v in row.items()}
            for k, v in piv.items():
                s = nxt.get(k, 0) - mb * v
                if s:
                    nxt[k] = s
                else:
                    del nxt[k]
            row = nxt
        return -1
