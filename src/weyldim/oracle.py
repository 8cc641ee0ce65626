"""Independent brute-force oracles used to cross-check the fast paths.

naive_weyl_mul rewrites words one commutator swap at a time; enum_V_A
counts lattice points directly; RankOracle measures dim M_r by exact
row reduction of relation multiples.  The counted value never touches
the closed-form or Groebner code paths; a completed basis, supplied by
the caller, is consulted only for the truncation bound that makes the
row family provably sufficient, and a second pass one step past that
bound re-checks the count.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

import numpy as np

from .errors import InputError, VerificationError
from .groebner import GroebnerBasis, provenance_orders
from .kernels import box_vectors, count_not_dominated
from .numpoly import IndexSet
from .terms import ModuleElement, Term, act, term_key
from .weyl import ExponentPair, Partition, WeylElement, block_orders, weyl_dimension

_NAIVE_BUDGET = 8


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


def _unpack_row(row, P: Partition) -> ExponentPair:
    """Blockwise-packed exponent row back to global (alpha, beta)."""
    alpha = [0] * P.n
    beta = [0] * P.n
    col = 0
    for j, (a, b) in enumerate(P.blocks):
        w = b - a
        for k in range(w):
            alpha[a + k] = int(row[col + k])
            beta[a + k] = int(row[col + w + k])
        col += 2 * w
    return ExponentPair(tuple(alpha), tuple(beta))


class RankOracle:
    """dim M_r by exact elimination over the rationals.

    Rows are the relation multiples theta*g with theta bounded blockwise
    by r plus a certified slack; the span of box terms is read off an
    ordered echelon (columns outside the box eliminate first).  The
    slack is the provenance order bound of `basis`, the completion of
    `relations`, which bounds the multipliers needed to write any kernel
    element supported inside the box; a confirmation pass one step
    further must leave the count unchanged.
    """

    def __init__(
        self,
        relations: Sequence[ModuleElement],
        basis: GroebnerBasis,
        max_box: int = 10**4,
    ):
        self.P = basis.P
        self.m = basis.m
        self.relations = [g for g in relations if not g.is_zero()]
        for g in self.relations:
            if (g.n, g.m) != (self.P.n, self.m):
                raise InputError("relation shape mismatch")
        if any(len(row) != len(self.relations) for row in basis.provenance or ()):
            raise InputError("basis was not completed from these relations")
        self.slack = provenance_orders(basis)
        self.max_box = max_box
        self._rows: dict[tuple[ExponentPair, int], tuple] = {}
        self._theta_cache: dict[tuple[int, ...], list[ExponentPair]] = {}
        self._tinfo: dict[Term, tuple] = {}

    def _row_of(self, theta: ExponentPair, idx: int) -> tuple:
        """Integerized row theta * g_idx, cached; scaling keeps the span."""
        key = (theta, idx)
        hit = self._rows.get(key)
        if hit is None:
            D = WeylElement.monomial(self.P.n, theta.alpha, theta.beta)
            prod = act(D, self.relations[idx])
            denom = 1
            for c in prod.terms.values():
                denom = denom * c.denominator // gcd(denom, c.denominator)
            ints = {t: int(c * denom) for t, c in prod.terms.items()}
            g = 0
            for v in ints.values():
                g = gcd(g, v)
            if g > 1:
                ints = {t: v // g for t, v in ints.items()}
            hit = tuple(ints.items())
            self._rows[key] = hit
        return hit

    def _term_info(self, t: Term) -> tuple:
        hit = self._tinfo.get(t)
        if hit is None:
            negkey = tuple(-c for c in term_key(1, t, self.P))
            hit = (negkey, block_orders(t.theta, self.P))
            self._tinfo[t] = hit
        return hit

    def _thetas(self, bound: tuple[int, ...]) -> list[ExponentPair]:
        hit = self._theta_cache.get(bound)
        if hit is None:
            sizes2 = tuple(2 * s for s in self.P.sizes)
            hit = [_unpack_row(row, self.P) for row in box_vectors(sizes2, bound)]
            self._theta_cache[bound] = hit
        return hit

    def dimension(self, r: Sequence[int], slack: int = 0) -> int:
        r = tuple(r)
        if len(r) != self.P.p:
            raise InputError(f"r has length {len(r)}, expected {self.P.p}")
        if any(v < 0 for v in r):
            return 0
        card_box = weyl_dimension(self.P, r) * self.m
        if card_box > self.max_box:
            raise InputError(
                f"box of size {card_box} exceeds the oracle cap {self.max_box}"
            )
        if not self.relations:
            return card_box
        q = self.slack
        pivots: dict[tuple, dict] = {}
        in_box_pivots = 0
        seen: set[tuple[ExponentPair, int]] = set()
        first = None
        for pad in (0, 1):
            bound = tuple(v + qv + slack + pad for v, qv in zip(r, q))
            in_box_pivots += self._absorb(pivots, seen, bound, r)
            value = card_box - in_box_pivots
            if first is None:
                first = value
            elif value != first:
                raise VerificationError(
                    f"rank at r={r} dropped from {first} to {value} past "
                    "the certified bound"
                )
        return first

    def _absorb(self, pivots: dict, seen: set, bound, r) -> int:
        """Feed every unseen multiple within bound; count new box pivots."""
        found = 0
        for theta in self._thetas(bound):
            for idx in range(len(self.relations)):
                if (theta, idx) in seen:
                    continue
                seen.add((theta, idx))
                terms = self._row_of(theta, idx)
                if not terms:
                    continue
                row = {}
                for t, c in terms:
                    negkey, bo = self._term_info(t)
                    flag = 1 if all(v <= b for v, b in zip(bo, r)) else 0
                    row[(flag,) + negkey] = c
                found += self._insert(pivots, row)
        return found

    @staticmethod
    def _insert(pivots: dict, row: dict) -> int:
        """Echelon insertion; returns 1 if a new in-box pivot appeared."""
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                g = 0
                for v in row.values():
                    g = gcd(g, v)
                if g > 1:
                    row = {k: v // g for k, v in row.items()}
                pivots[lead] = row
                return 1 if lead[0] == 1 else 0
            a, b = row[lead], piv[lead]
            g = gcd(a, b)
            ma, mb = b // g, a // g
            nxt = {}
            for k, v in row.items():
                nxt[k] = ma * v
            for k, v in piv.items():
                s = nxt.get(k, 0) - mb * v
                if s == 0:
                    nxt.pop(k, None)
                else:
                    nxt[k] = s
            if nxt:
                g = 0
                for v in nxt.values():
                    g = gcd(g, v)
                if g > 1:
                    nxt = {k: v // g for k, v in nxt.items()}
            row = nxt
        return 0
