"""Independent brute-force oracles used to cross-check the fast paths.

naive_weyl_mul rewrites words one commutator swap at a time; enum_V_A
counts lattice points directly; RankOracle measures dim M_r by exact
row reduction of relation multiples, kept as integer rows over integer
column ids.  A multiple x^a d^b * g is the expansion of d^b * g with a
added to every term's alpha, so each d-part b is expanded once and
every multiplier sharing it is a shift; the term-order keys of new
columns are read off their exponents in numpy.  The counted value never
touches the closed-form or Groebner code paths; a completed basis,
supplied by the caller, is consulted only for its input relations and
for the multiplier-order bound that makes the row family provably
sufficient, and a second pass one step past that bound re-checks the
count.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Sequence

import numpy as np

from .errors import InputError, VerificationError
from .groebner import GroebnerBasis
from .kernels import box_vectors, count_not_dominated
from .numpoly import IndexSet
from .terms import ModuleElement
from .weyl import ExponentPair, Partition, WeylElement, mono_mul, weyl_dimension

_NAIVE_BUDGET = 8

# Most box terms (the box size times the module rank) `RankOracle` ranks.
MAX_BOX = 10**4

# Most rows (multipliers at the confirmation bound times relations) one
# `RankOracle.dimension` call builds and eliminates.
MAX_ROWS = 1 << 19


def _word_of(theta: ExponentPair) -> tuple:
    alpha, beta = theta
    word = []
    for i, e in enumerate(alpha):
        word.extend([("x", i)] * e)
    for i, e in enumerate(beta):
        word.extend([("d", i)] * e)
    return tuple(word)


def _first_inversion(word: tuple) -> int:
    for k in range(len(word) - 1):
        if word[k][0] == "d" and word[k + 1][0] == "x":
            return k
    return -1


def naive_weyl_mul(d1: WeylElement, d2: WeylElement) -> WeylElement:
    """Product computed by single commutator swaps on generator words.

    Deliberately naive; inputs are capped at combined total degree 8.
    """
    if d1.n != d2.n:
        raise InputError(f"mixed variable counts: {d1.n} vs {d2.n}")
    n = d1.n

    def degree(D: WeylElement) -> int:
        return max(
            (sum(a) + sum(b) for a, b in D.terms), default=0
        )

    if degree(d1) + degree(d2) > _NAIVE_BUDGET:
        raise InputError(
            f"naive product limited to combined degree {_NAIVE_BUDGET}"
        )
    pending: list[tuple[tuple, Fraction]] = []
    for t1, c1 in d1.terms.items():
        for t2, c2 in d2.terms.items():
            pending.append((_word_of(t1) + _word_of(t2), c1 * c2))
    acc: dict[ExponentPair, Fraction] = {}
    while pending:
        word, c = pending.pop()
        k = _first_inversion(word)
        if k < 0:
            alpha = [0] * n
            beta = [0] * n
            for kind, i in word:
                if kind == "x":
                    alpha[i] += 1
                else:
                    beta[i] += 1
            key = ExponentPair(tuple(alpha), tuple(beta))
            s = acc.get(key, Fraction(0)) + c
            if s == 0:
                acc.pop(key, None)
            else:
                acc[key] = s
            continue
        d_sym, x_sym = word[k], word[k + 1]
        swapped = word[:k] + (x_sym, d_sym) + word[k + 2:]
        pending.append((swapped, c))
        if d_sym[1] == x_sym[1]:
            pending.append((word[:k] + word[k + 2:], c))
    return WeylElement(n, acc)


def enum_V_A(A: IndexSet, r: Sequence[int]) -> int:
    """Count v in N^q with blockwise sums <= r dominating no point of A."""
    r = tuple(r)
    if len(r) != A.p:
        raise InputError(f"r has length {len(r)}, expected {A.p}")
    V = box_vectors(A.partition, r)
    pts = np.array(sorted(A.points), dtype=np.int64).reshape(len(A.points), A.q)
    return count_not_dominated(V, pts)


def _unpack_row(row: tuple[int, ...], P: Partition) -> ExponentPair:
    """Blockwise-packed exponent row back to global (alpha, beta)."""
    alpha = [0] * P.n
    beta = [0] * P.n
    col = 0
    for a, b in P.blocks:
        w = b - a
        alpha[a:b] = row[col:col + w]
        beta[a:b] = row[col + w:col + 2 * w]
        col += 2 * w
    return ExponentPair(tuple(alpha), tuple(beta))


def _integer_relation(g: ModuleElement) -> list[tuple[int, ExponentPair, int]]:
    """Terms of g as (gen, theta, coeff) with all denominators cleared."""
    den = lcm(*(c.denominator for c in g.terms.values()))
    return [
        (t.gen, t.theta, c.numerator * (den // c.denominator))
        for t, c in g.terms.items()
    ]


class RankOracle:
    """dim M_r by exact fraction-free elimination over the integers.

    Rows are the relation multiples theta*g with theta bounded blockwise
    by r plus a certified slack; dim M_r is the box size minus the
    dimension of their span inside the box, read off an echelon whose
    columns outside the box eliminate first.  The relations g are
    `basis.relations` and the slack is `basis.multiplier_bound`: every
    basis element is sum_i D_i * g_i with ord_j(D_i) within the slack,
    and reduction by the certified basis writes a kernel element
    supported inside box r with quotients inside the box, so theta up to
    r plus the slack suffice.  The bound is carried through completion
    as an upper bound on the true multiplier orders (products add orders
    at most, sums only cancel), so it can only over-provision rows.  A
    confirmation pass one step further must leave the count unchanged.
    A call whose confirmation pass would take more than `MAX_ROWS` rows
    is refused before any row is built.

    The matrix is indexed as in F4.  Every term gets an integer column id
    the first time it appears, and every multiple theta*g is built once
    per oracle as a primitive integer row of (column ids, coefficients).
    Rows come from the identity x^a d^b * g = x^a * (d^b * g): left
    multiplication by x^a only adds a to every term's alpha, since each
    term of d^b * g is already normal (x's left of d's).  So d^b * g is
    expanded once per distinct b, and every theta = (a, b) shifts that
    expansion; the shift is injective, so the coefficients and their
    content carry over unchanged.  A call only ranks the columns: pivot
    key = term-order rank + in-box flag * ncols.  The order-1 key of a
    term is its block orders, then each block's alpha and beta, then its
    generator, and is computed in numpy for all new columns at once.
    The count does not depend on the order inside each flag class, but
    the fill-in does, and descending term order keeps it far lower than
    first-seen order.
    """

    def __init__(self, basis: GroebnerBasis):
        P, bound, relations = basis.P, basis.multiplier_bound, basis.relations
        if bound is None:
            raise InputError("basis carries no multiplier bound; use complete_basis")
        if relations is None:
            raise InputError("basis carries a multiplier bound but no relations")
        if len(bound) != P.p:
            raise InputError(
                f"multiplier bound has length {len(bound)}, expected {P.p}"
            )
        # exact type: bool is an int subclass and floats do not bound orders
        if any(type(v) is not int or v < 0 for v in bound):
            raise InputError(
                f"multiplier bound must consist of nonnegative integers: {bound}"
            )
        for i, g in enumerate(relations):
            if not isinstance(g, ModuleElement) or (g.n, g.m) != (P.n, basis.m):
                raise InputError(f"relation {i} is not an element of A_{P.n}^{basis.m}")
        self.P = P
        self.m = basis.m
        self.relations = relations
        self.slack = bound
        self._sizes2 = tuple(2 * s for s in P.sizes)
        self._block_starts = np.cumsum((0,) + self._sizes2[:-1])
        # global (alpha, beta) positions in blockwise-packed order
        self._packed_order = [
            j for a, b in P.blocks for j in (*range(a, b), *range(P.n + a, P.n + b))
        ]
        self._int_relations = [_integer_relation(g) for g in relations]
        # beta -> one primitive row of d^beta * g per relation, as
        # ((gen, ExponentPair) per term, coefficients)
        self._d_rows: dict[tuple[int, ...], tuple] = {}
        # packed theta -> one (cols, coeffs) row of theta*g per relation
        self._rows: dict[tuple[int, ...], tuple[tuple[tuple, tuple], ...]] = {}
        # column state: an id per term and, per id, its order-1 term key;
        # the key array covers the columns up to the last call
        self._col: dict[tuple[int, ExponentPair], int] = {}
        self._new_terms: list[tuple[int, ExponentPair]] = []
        self._keys = np.empty((0, P.p + 2 * P.n + 1), dtype=np.int64)
        self._rank = np.empty(0, dtype=np.int64)

    def dimension(self, r: Sequence[int]) -> int:
        r = tuple(r)
        if len(r) != self.P.p:
            raise InputError(f"r has length {len(r)}, expected {self.P.p}")
        # exact type: bool is an int subclass and floats do not index boxes
        if any(type(v) is not int for v in r):
            raise InputError(f"r must consist of integers: {r}")
        if any(v < 0 for v in r):
            return 0
        card_box = weyl_dimension(self.P, r) * self.m
        if card_box > MAX_BOX:
            raise InputError(
                f"box of size {card_box} exceeds the oracle cap {MAX_BOX}"
            )
        if not self.relations:
            return card_box
        bound = tuple(v + qv for v, qv in zip(r, self.slack))
        confirm = tuple(v + 1 for v in bound)
        n_rows = weyl_dimension(self.P, confirm) * len(self.relations)
        if n_rows > MAX_ROWS:
            raise InputError(
                f"rank oracle: {n_rows} relation multiples at r={r} are over the "
                f"budget oracle.MAX_ROWS = {MAX_ROWS}"
            )
        # one enumeration at the confirmation bound; the certified rows are
        # the thetas whose block sums stay within one step less
        V = box_vectors(self._sizes2, confirm)
        inner = (np.add.reduceat(V, self._block_starts, axis=1) <= bound).all(axis=1)
        passes = [
            [self._multiples(row) for row in map(tuple, V[inner].tolist())],
            [self._multiples(row) for row in map(tuple, V[~inner].tolist())],
        ]
        key = self._pivot_keys(r)
        ncols = len(key)
        pivots: dict[int, dict[int, int]] = {}
        in_box_pivots = 0
        first = None
        for rows in passes:
            for multiples in rows:
                for cols, coeffs in multiples:
                    lead = self._insert(
                        pivots, {key[c]: v for c, v in zip(cols, coeffs)}
                    )
                    if lead >= ncols:
                        in_box_pivots += 1
            value = card_box - in_box_pivots
            if first is None:
                first = value
            elif value != first:
                raise VerificationError(
                    f"rank at r={r} dropped from {first} to {value} past "
                    "the certified bound"
                )
        return first

    def _multiples(self, packed: tuple[int, ...]) -> tuple:
        """Rows theta*g for every relation g, as primitive integer rows."""
        hit = self._rows.get(packed)
        if hit is None:
            a, b = _unpack_row(packed, self.P)
            d_rows = self._d_rows.get(b)
            if d_rows is None:
                d_rows = self._d_rows[b] = tuple(
                    self._d_row(b, rel) for rel in self._int_relations
                )
            hit = self._rows[packed] = tuple(
                self._shift_row(terms, coeffs, a) for terms, coeffs in d_rows
            )
        return hit

    @staticmethod
    def _d_row(b: tuple[int, ...], rel: list) -> tuple[tuple, tuple]:
        """d^b * rel over the integers, content divided out."""
        d_b = ExponentPair((0,) * len(b), b)
        acc: dict[tuple[int, ExponentPair], int] = {}
        for gen, theta_g, c in rel:
            for key, w in mono_mul(d_b, theta_g):
                t = (gen, key)
                acc[t] = acc.get(t, 0) + c * w
        acc = {t: v for t, v in acc.items() if v}
        g = gcd(*acc.values())
        return tuple(acc), tuple(v // g for v in acc.values())

    def _shift_row(self, terms: tuple, coeffs: tuple, a: tuple[int, ...]) -> tuple:
        """x^a times a row of d^b * g: a added to every alpha; new terms get ids."""
        col = self._col
        cols = []
        for gen, (alpha, beta) in terms:
            t = (gen, ExponentPair(tuple(map(add, alpha, a)), beta))
            c = col.get(t)
            if c is None:
                c = col[t] = len(col)
                self._new_terms.append(t)
            cols.append(c)
        return tuple(cols), coeffs

    def _pivot_keys(self, r: tuple[int, ...]) -> list[int]:
        """Per column id: its term-order rank, plus ncols if it lies in box r."""
        if self._new_terms:
            exps = np.array(
                [alpha + beta for _, (alpha, beta) in self._new_terms], dtype=np.int64
            )[:, self._packed_order]
            gens = np.array([gen for gen, _ in self._new_terms], dtype=np.int64)
            self._new_terms = []
            # the order-1 key: block orders, packed exponents, generator
            orders = np.add.reduceat(exps, self._block_starts, axis=1)
            self._keys = np.concatenate(
                (self._keys, np.column_stack((orders, exps, gens)))
            )
            # rank 0 is the largest term; lexsort's primary key comes last
            order = np.lexsort(-self._keys.T[::-1])
            self._rank = np.empty(len(order), dtype=np.int64)
            self._rank[order] = np.arange(len(order))
        ncols = len(self._rank)
        # the order-1 key opens with the block orders ord_1, ..., ord_p
        flag = (self._keys[:, : self.P.p] <= r).all(axis=1)
        return (self._rank + flag * ncols).tolist()

    @staticmethod
    def _insert(pivots: dict, row: dict) -> int:
        """Echelon insertion; returns the new pivot's key, or -1 if none.

        Rows arrive primitive and every reduction step divides out the
        content again, so pivot rows are primitive as stored.
        """
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = row
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
            if nxt:
                g = gcd(*nxt.values())
                if g > 1:
                    nxt = {k: v // g for k, v in nxt.items()}
            row = nxt
        return -1
