"""Shared builders and independent references for the test suite.

The references (rational monomial polynomials, a rational Weyl algebra,
a word-rewriting product, brute-force counts) are defined here and not in
a module of their own: perfbench's tests load this file by path, with only
`perfbench/` and `src/` importable.

Everything random is seeded so the suite is reproducible; the corpus
builders reroll any draw that presents the zero module.
"""
from __future__ import annotations

import itertools
import random
import resource
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm
from typing import Iterable, Mapping, Sequence

import numpy as np
from hypothesis import settings

from weyldim import (
    ExponentPair,
    GammaTerm,
    IndexSet,
    InputError,
    ModuleElement,
    NumericalPolynomial,
    Partition,
    Presentation,
    Term,
    ZeroElementError,
    complete_basis,
    count_UVW,
    minimize,
)
from weyldim.groebner import _check_stage
from weyldim.numpoly import Index, MonoPoly, binomial_sum, shift_coeffs
from weyldim.terms import block_orders, leader_data, term_key
from weyldim.weyl import _check_vector, mono_mul

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


# ------------------------------------------- rational monomial references
#
# The library builds every numerical polynomial in the integer binomial
# basis.  These rational monomial-form helpers are the independent
# references the tests compare it against.


def mp_add(a: MonoPoly, b: MonoPoly) -> MonoPoly:
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, Fraction(0)) + c
        if s == 0:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def mp_scale(a: MonoPoly, c) -> MonoPoly:
    c = Fraction(c)
    if c == 0:
        return {}
    return {k: c * v for k, v in a.items()}


def mp_mul(a: MonoPoly, b: MonoPoly) -> MonoPoly:
    out: MonoPoly = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            s = out.get(k, Fraction(0)) + ca * cb
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
    return out


def mp_eval(a: MonoPoly, r: Sequence[int]) -> Fraction:
    total = Fraction(0)
    for k, c in a.items():
        v = c
        for e, t in zip(k, r):
            v *= Fraction(t) ** e
        total += v
    return total


@lru_cache(maxsize=None)
def _shifted_binomial_1d(shift: int, k: int) -> tuple[tuple[int, Fraction], ...]:
    """Monomial coefficients of C(t + shift, k) as a polynomial in t."""
    poly = {0: Fraction(1)}
    for j in range(k):
        # multiply by (t + shift - j)
        nxt: dict[int, Fraction] = {}
        for e, c in poly.items():
            nxt[e + 1] = nxt.get(e + 1, Fraction(0)) + c
            nxt[e] = nxt.get(e, Fraction(0)) + c * (shift - j)
        poly = nxt
    inv = Fraction(1, factorial(k))
    return tuple((e, c * inv) for e, c in sorted(poly.items()))


def shifted_binomial(p: int, axis: int, shift: int, k: int) -> MonoPoly:
    """C(t_axis + shift, k) as a p-variate monomial polynomial."""
    out: MonoPoly = {}
    for e, c in _shifted_binomial_1d(shift, k):
        idx = tuple(e if j == axis else 0 for j in range(p))
        out[idx] = c
    return out


def canonicalize(mono: MonoPoly, p: int) -> NumericalPolynomial:
    """Canonical binomial form of an integer-valued monomial polynomial."""
    if not mono:
        return NumericalPolynomial.zero(p)
    for k in mono:
        if len(k) != p:
            raise InputError(f"monomial index {k} has wrong arity for p={p}")
    degs = tuple(max(k[i] for k in mono) for i in range(p))
    # backward differences at (-1, ..., -1) pick out each coefficient
    values: dict[Index, Fraction] = {}
    for off in itertools.product(*(range(d + 1) for d in degs)):
        point = tuple(-1 - o for o in off)
        values[off] = mp_eval(mono, point)
    coeffs: dict[Index, int] = {}
    for k in itertools.product(*(range(d + 1) for d in degs)):
        total = Fraction(0)
        for s in itertools.product(*(range(e + 1) for e in k)):
            sign = (-1) ** sum(s)
            w = 1
            for ke, se in zip(k, s):
                w *= comb(ke, se)
            total += sign * w * values[s]
        if total.denominator != 1:
            raise InputError(
                f"not integer-valued: basis coefficient at {k} is {total}"
            )
        if total:
            coeffs[k] = int(total)
    return NumericalPolynomial(p, coeffs)


def ref_interpolate(base: Sequence[int], degs: Sequence[int], f) -> MonoPoly:
    """Monomial form of the polynomial matching f on the Newton grid.

    Samples f at base + offsets, offsets ranging over prod(degs_j + 1)
    points, and assembles the multivariate Newton expansion in rational
    monomial form.
    """
    base = tuple(base)
    degs = tuple(degs)
    p = len(base)
    vals: dict[Index, Fraction] = {}
    for off in itertools.product(*(range(d + 1) for d in degs)):
        vals[off] = Fraction(f(tuple(b + o for b, o in zip(base, off))))
    # iterated forward differences, in place, one axis at a time
    for axis in range(p):
        others = [range(d + 1) for i, d in enumerate(degs) if i != axis]
        for k in range(1, degs[axis] + 1):
            for j in range(degs[axis], k - 1, -1):
                for rest in itertools.product(*others):
                    off = rest[:axis] + (j,) + rest[axis:]
                    below = rest[:axis] + (j - 1,) + rest[axis:]
                    vals[off] = vals[off] - vals[below]
    out: MonoPoly = {}
    for off, c in vals.items():
        if c == 0:
            continue
        term = {(0,) * p: c}
        for axis, k in enumerate(off):
            if k:
                term = mp_mul(term, shifted_binomial(p, axis, -base[axis], k))
        out = mp_add(out, term)
    return out


def ref_monomial_view(f: NumericalPolynomial) -> MonoPoly:
    """Monomial form of f, built one shifted-binomial factor at a time."""
    acc: MonoPoly = {}
    for k, c in f.coeffs.items():
        term = {(0,) * f.p: Fraction(c)}
        for axis, i in enumerate(k):
            if i:
                term = mp_mul(term, shifted_binomial(f.p, axis, i, i))
        acc = mp_add(acc, term)
    return acc


# ------------------------------------------------------ algebra references
#
# The library multiplies only monomials (`weyl.mono_mul`).  The rational
# Weyl algebra below, its module action and the brute-force counts are
# the independent references the tests compare it against.


class WeylElement:
    """A finite rational combination of normal monomials in A_n.

    The public constructor validates and merges its input.  Internally
    built elements go through `_trusted`, which wraps a dict that is
    already clean: every key an `ExponentPair` of two length-n vectors of
    nonnegative ints, every value a nonzero `Fraction`.  Arithmetic on
    valid elements keeps that invariant, so it skips the checks.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[ExponentPair, Fraction] | Iterable):
        if isinstance(terms, Mapping):
            items = terms.items()
        else:
            items = terms
        clean: dict[ExponentPair, Fraction] = {}
        for key, c in items:
            c = Fraction(c)
            if c == 0:
                continue
            alpha = _check_vector(key[0], n, "alpha")
            beta = _check_vector(key[1], n, "beta")
            k = ExponentPair(alpha, beta)
            c = clean.get(k, Fraction(0)) + c
            if c == 0:
                clean.pop(k, None)
            else:
                clean[k] = c
        self.n = n
        self.terms = clean

    @classmethod
    def _trusted(cls, n: int, terms: dict[ExponentPair, Fraction]) -> "WeylElement":
        """Wrap a clean term dict (see the class docstring) without checks."""
        self = object.__new__(cls)
        self.n = n
        self.terms = terms
        return self

    @classmethod
    def zero(cls, n: int) -> "WeylElement":
        return cls(n, {})

    @classmethod
    def one(cls, n: int) -> "WeylElement":
        z = (0,) * n
        return cls(n, {ExponentPair(z, z): Fraction(1)})

    @classmethod
    def monomial(cls, n: int, alpha, beta, coeff=1) -> "WeylElement":
        return cls(n, {ExponentPair(tuple(alpha), tuple(beta)): Fraction(coeff)})

    @classmethod
    def x(cls, i: int, n: int) -> "WeylElement":
        a = tuple(1 if j == i else 0 for j in range(n))
        return cls.monomial(n, a, (0,) * n)

    @classmethod
    def d(cls, i: int, n: int) -> "WeylElement":
        b = tuple(1 if j == i else 0 for j in range(n))
        return cls.monomial(n, (0,) * n, b)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeylElement)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __add__(self, other: "WeylElement") -> "WeylElement":
        self._check_compat(other)
        acc = dict(self.terms)
        for k, c in other.terms.items():
            s = acc.get(k)
            s = c if s is None else s + c
            if s:
                acc[k] = s
            else:
                del acc[k]
        return WeylElement._trusted(self.n, acc)

    def __neg__(self) -> "WeylElement":
        return WeylElement._trusted(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "WeylElement") -> "WeylElement":
        self._check_compat(other)
        acc = dict(self.terms)
        for k, c in other.terms.items():
            s = acc.get(k)
            s = -c if s is None else s - c
            if s:
                acc[k] = s
            else:
                del acc[k]
        return WeylElement._trusted(self.n, acc)

    def scale(self, c) -> "WeylElement":
        c = Fraction(c)
        if c == 0:
            return WeylElement.zero(self.n)
        return WeylElement._trusted(self.n, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, WeylElement):
            return weyl_mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        # scalar on the left only; algebra products must use weyl_mul order
        return self.scale(other)

    def _check_compat(self, other: "WeylElement"):
        if self.n != other.n:
            raise InputError(f"mixed variable counts: {self.n} vs {other.n}")

    def __repr__(self):
        if self.is_zero():
            return "WeylElement(0)"
        bits = []
        for (alpha, beta), c in sorted(self.terms.items()):
            xs = "".join(f"x{i+1}^{e}" for i, e in enumerate(alpha) if e)
            ds = "".join(f"d{i+1}^{e}" for i, e in enumerate(beta) if e)
            bits.append(f"{c}*{xs or ''}{ds or ''}" if (xs or ds) else f"{c}")
        return "WeylElement(" + " + ".join(bits) + ")"


def weyl_mul(d1: WeylElement, d2: WeylElement) -> WeylElement:
    """Noncommutative product, result in normal form."""
    d1._check_compat(d2)
    acc: dict[ExponentPair, Fraction] = {}
    for t1, c1 in d1.terms.items():
        for t2, c2 in d2.terms.items():
            c12 = c1 * c2
            for key, w in mono_mul(t1, t2):
                s = acc.get(key)
                s = c12 * w if s is None else s + c12 * w
                if s:
                    acc[key] = s
                else:
                    del acc[key]
    return WeylElement._trusted(d1.n, acc)


def act(D: WeylElement, f: ModuleElement) -> ModuleElement:
    """Module action of an algebra element, componentwise on generators."""
    if D.n != f.n:
        raise InputError(f"mixed variable counts: {D.n} vs {f.n}")
    acc: dict[Term, Fraction] = {}
    for theta_d, cd in D.terms.items():
        for (gen, theta_f), cf in f.terms.items():
            c = cd * cf
            for key, w in mono_mul(theta_d, theta_f):
                t = Term(gen, key)
                s = acc.get(t)
                s = c * w if s is None else s + c * w
                if s:
                    acc[t] = s
                else:
                    del acc[t]
    return ModuleElement(f.n, f.m, acc)


def term_compare(i: int, u: Term, v: Term, P: Partition) -> int:
    """-1, 0, or 1 as u is below, equal to, or above v in the i-th order."""
    ku, kv = term_key(i, u, P), term_key(i, v, P)
    return (ku > kv) - (ku < kv)


def ref_divides(v: Term, u: Term) -> ExponentPair | None:
    """Quotient theta with theta * v = u commutatively, else None.

    Terms on different generators never divide one another.
    """
    if v.gen != u.gen:
        return None
    (va, vb), (ua, ub) = v.theta, u.theta
    alpha = tuple(y - x for x, y in zip(va, ua))
    beta = tuple(y - x for x, y in zip(vb, ub))
    if min(alpha + beta, default=0) < 0:
        return None
    return ExponentPair(alpha, beta)


def ref_lcm(u: Term, v: Term) -> Term | None:
    """Least common multiple of two terms; None across generators."""
    if u.gen != v.gen:
        return None
    alpha = tuple(max(x, y) for x, y in zip(u.theta.alpha, v.theta.alpha))
    beta = tuple(max(x, y) for x, y in zip(u.theta.beta, v.theta.beta))
    return Term(u.gen, ExponentPair(alpha, beta))


def ref_core(G: Sequence[ModuleElement], P: Partition) -> list[int]:
    """Positions of the elements of G that no other element dominates, all
    pairs compared from the definition; of elements that dominate each
    other only the first is kept.

    j dominates i when at every stage r j's r-th leader divides i's and
    j's slack, ord_k of its k-th leader minus ord_k of its r-th leader for
    each later order k, is componentwise no larger than i's.
    """
    def leaders(g):
        return [max(g.row, key=lambda t: term_key(r, t, P)) for r in range(1, P.p + 1)]

    def slacks(heads):
        orders = [block_orders(u.theta, P) for u in heads]
        return [
            [orders[k][k] - orders[r][k] for k in range(r + 1, P.p)] for r in range(P.p)
        ]

    heads = [leaders(g) for g in G]
    gaps = [slacks(h) for h in heads]

    def dominates(j, i):
        return all(
            ref_divides(heads[j][r], heads[i][r]) is not None
            and all(x <= y for x, y in zip(gaps[j][r], gaps[i][r]))
            for r in range(P.p)
        )

    return [
        i
        for i in range(len(G))
        if not any(
            j != i and dominates(j, i) and (j < i or not dominates(i, j))
            for j in range(len(G))
        )
    ]


def gamma_divides(g: GammaTerm, f: GammaTerm) -> bool:
    """Divisibility of shape data: heads divide, gaps componentwise <=."""
    if len(g.d) != len(f.d):
        raise InputError("shape data from different partitions")
    if ref_divides(g.head, f.head) is None:
        return False
    return all(x <= y for x, y in zip(g.d, f.d))


def ref_eligible(w, g, r, caps, P):
    """Quotient theta if g can eliminate w at stage r within the order caps.

    caps lists the caps of the later orders r+1..p, in turn.
    """
    q = ref_divides(leader_data(g, r, P).term, w)
    if q is None:
        return None
    qbo = block_orders(q, P)
    for i, cap in zip(range(r + 1, P.p + 1), caps):
        gi = block_orders(leader_data(g, i, P).term.theta, P)[i - 1]
        if qbo[i - 1] + gi > cap:
            return None
    return q


def is_reduced(f: ModuleElement, g: ModuleElement, r: int, P: Partition) -> bool:
    """True when no term of f is eliminable by g at stage r."""
    _check_stage(r, P, f.n)
    f._check_compat(g)
    if f.is_zero():
        return True
    if g.is_zero():
        raise ZeroElementError("reduction against the zero element")
    caps = [
        max(block_orders(w.theta, P)[i - 1] for w in f.terms)
        for i in range(r + 1, P.p + 1)
    ]
    return not any(ref_eligible(w, g, r, caps, P) is not None for w in f.terms)


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


def count_not_dominated(V: np.ndarray, A: np.ndarray) -> int:
    """Rows of V that componentwise dominate no row of A."""
    if A.shape[0] == 0:
        return int(V.shape[0])
    if V.shape[0] == 0:
        return 0
    count = 0
    # rows per chunk shrink with the leaders, and columns are compared one
    # at a time, so temporaries stay at 2^22 row-leader cells
    chunk = max(1, (1 << 22) // A.shape[0])
    for lo in range(0, V.shape[0], chunk):
        part = V[lo:lo + chunk]
        dom = np.ones((part.shape[0], A.shape[0]), dtype=bool)
        for x in range(A.shape[1]):
            dom &= part[:, x, None] >= A[None, :, x]
        count += int((~dom.any(axis=1)).sum())
    return count


@lru_cache(maxsize=256)
def _simplex(q: int, b: int) -> tuple[tuple[int, ...], ...]:
    """Every v in N^q with |v| <= b, in lexicographic order."""
    if q == 0:
        return ((),)
    return tuple((x, *rest) for x in range(b + 1) for rest in _simplex(q - 1, b - x))


def ref_box(sizes: Sequence[int], r: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The box at bound r and its rows' block sums, without `weyldim.kernels`.

    Each block's rows are its compositions, listed in Python; the box
    joins one row of each block, the first block varying slowest, so its
    rows come in lexicographic order.  It shares no code with the
    kernels, so the box references do not move with a defect there.
    """
    V = BS = np.zeros((1, 0), dtype=np.int64)
    for q, b in zip(sizes, r):
        block = np.array(_simplex(q, b), dtype=np.int64).reshape(-1, q)
        sums = block.sum(axis=1, keepdims=True)
        V = np.hstack([np.repeat(V, len(block), axis=0), np.tile(block, (len(V), 1))])
        BS = np.hstack([np.repeat(BS, len(block), axis=0), np.tile(sums, (len(BS), 1))])
    return V, BS


def enum_V_A(A: IndexSet, r: Sequence[int]) -> int:
    """Count v in N^q with blockwise sums <= r dominating no point of A."""
    r = tuple(r)
    if len(r) != A.p:
        raise InputError(f"r has length {len(r)}, expected {A.p}")
    V, _ = ref_box(A.partition, r)
    pts = np.array(sorted(A.points), dtype=np.int64).reshape(len(A.points), A.q)
    return count_not_dominated(V, pts)


def ref_psi_symbolic(G) -> NumericalPolynomial:
    """Overshoot polynomial of a basis whose first leaders never overlap.

    With the first leaders on pairwise distinct generators, each leader's
    multiples are counted on their own: a multiple overshoots when some
    later order bound falls below its order plus the leader's slack.  So
    per leader the count sums, over the nonempty sets K of later orders,
    the products over axes of C(t+q-b, q) - C(t+q-c, q) on K and
    C(t+q-c, q) elsewhere, where b is the first leader's order and c = b
    plus its slack.
    """
    P = G.P
    p = P.p
    terms = []
    for g in G.elements:
        ld = leader_data(g, 1, P)
        bs = list(zip(P.widths, ld.orders, (0, *ld.slack)))
        c_f = [shift_coeffs(q, b + s) for q, b, s in bs]
        b_f = [shift_coeffs(q, b) for q, b, _ in bs]
        for size in range(1, p):
            for K in itertools.combinations(range(1, p), size):
                factors = [
                    [x - y for x, y in zip(b_f[i], c_f[i])] if i in K else c_f[i]
                    for i in range(p)
                ]
                terms.append((1, factors))
    return binomial_sum(p, terms)


# --------------------------------------------------- rank-oracle references
#
# The rank oracle builds x^a d^b * g by shifting one expansion of d^b * g.
# These references expand the whole multiplier directly and compute every
# term key one term at a time.


def ref_multiple(theta: ExponentPair, g: ModuleElement) -> dict:
    """theta * g over the integers by direct expansion, content divided out."""
    den = lcm(*(c.denominator for c in g.terms.values()))
    acc: dict = {}
    for t, c in g.terms.items():
        c = c.numerator * (den // c.denominator)
        for key, w in mono_mul(theta, t.theta):
            k = (t.gen, key)
            acc[k] = acc.get(k, 0) + c * w
    acc = {k: v for k, v in acc.items() if v}
    content = gcd(*acc.values())
    return {k: v // content for k, v in acc.items()}


def unpack(P: Partition, packed: tuple[int, ...]) -> ExponentPair:
    """Packed exponents back to (alpha, beta); the inverse of P.pack."""
    flat = [0] * (2 * P.n)
    for j, v in zip(P.packed_order, packed):
        flat[j] = v
    return ExponentPair(tuple(flat[: P.n]), tuple(flat[P.n:]))


def column_term(key: tuple, P: Partition) -> Term:
    """The term of a rank-oracle column key (gen, *packed exponents)."""
    return Term(key[0], unpack(P, key[1:]))


def assert_oracle_keys(oracle) -> None:
    """Every keyed column of the oracle carries its order-1 term key."""
    assert len(oracle._keys) == len(oracle._col)
    for t, c in oracle._col.items():
        term = column_term(t, oracle.P)
        assert tuple(oracle._keys[c].tolist()) == term_key(1, term, oracle.P), t


# ---------------------------------------------------------------- fixed cases


def two_term_presentation(a: int, b: int, g: int) -> Presentation:
    """Rank-1 module with the single relation x1^a d2^b e + x2^g d1^a e."""
    P = Partition((1, 1))
    rel = ModuleElement(
        2,
        1,
        {
            (1, ((a, 0), (0, b))): Fraction(1),
            (1, ((0, g), (a, 0))): Fraction(1),
        },
    )
    return Presentation(P, 1, (rel,))


def worked_pair():
    """The two-generator family whose completion is known by hand.

    h1 = x2^2 d1 d2 e2 + x1 x2 d1 d2 e1
    h2 = x2 d1^2 e2 + x1 d1^2 e1
    h3 = x2 d1 d2 e1 - x2 d1^2 e2   (the stage-2 critical difference)
    """
    P = Partition((1, 1))
    h1 = ModuleElement(
        2, 2, {(2, ((0, 2), (1, 1))): Fraction(1), (1, ((1, 1), (1, 1))): Fraction(1)}
    )
    h2 = ModuleElement(
        2, 2, {(2, ((0, 1), (2, 0))): Fraction(1), (1, ((1, 0), (2, 0))): Fraction(1)}
    )
    h3 = ModuleElement(
        2, 2, {(1, ((0, 1), (1, 1))): Fraction(1), (2, ((0, 1), (2, 0))): Fraction(-1)}
    )
    return P, h1, h2, h3


def derivative_presentation() -> Presentation:
    """Rank-1 module annihilated by both derivations: {d1 e, d2 e}."""
    P = Partition((1, 1))
    r1 = ModuleElement.single(2, 1, 1, (0, 0), (1, 0))
    r2 = ModuleElement.single(2, 1, 1, (0, 0), (0, 1))
    return Presentation(P, 1, (r1, r2))


def extend_with(pres: Presentation, D: WeylElement) -> Presentation:
    """Present the same module with the extra generator D * f1."""
    n, m = pres.P.n, pres.m
    m2 = m + 1
    rels = [ModuleElement(n, m2, dict(f.terms)) for f in pres.relations]
    extra = ModuleElement.basis_vector(n, m2, m2) - act(
        D, ModuleElement.basis_vector(n, m2, 1)
    )
    rels.append(extra)
    return Presentation(pres.P, m2, tuple(rels))


def binom_product(p: int, factors) -> MonoPoly:
    """Monomial form of a product of binomials C(t_axis + shift, k)."""
    acc: MonoPoly = {(0,) * p: Fraction(1)}
    for axis, shift, k in factors:
        acc = mp_mul(acc, shifted_binomial(p, axis, shift, k))
    return acc


def grid(p: int, lo: int, hi: int):
    return [tuple(r) for r in itertools.product(range(lo, hi + 1), repeat=p)]


CLI_MEMORY_CAP = 1 << 30  # bytes of address space for a capped CLI child


def run_cli_capped(args: list[str]) -> subprocess.CompletedProcess:
    """Run the weyldim CLI in a child whose address space is capped.

    The cap is set in the child only, so a run that tries to allocate far
    too much fails there, as one failed test, instead of exhausting the
    machine.
    """

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (CLI_MEMORY_CAP, CLI_MEMORY_CAP))

    return subprocess.run(
        [sys.executable, "-m", "weyldim.cli", *args],
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=cap,
    )


# ------------------------------------------------------------- random draws


def bounded_vector(rng: random.Random, n: int, total: int) -> tuple[int, ...]:
    v = [0] * n
    for _ in range(rng.randint(0, total)):
        v[rng.randrange(n)] += 1
    return tuple(v)


def random_weyl(
    rng: random.Random, n: int, side_total: int = 2, terms: int = 2
) -> WeylElement:
    """Random nonzero operator with |alpha|, |beta| <= side_total per term."""
    out: dict = {}
    for _ in range(terms):
        key = (bounded_vector(rng, n, side_total), bounded_vector(rng, n, side_total))
        c = Fraction(rng.randint(-3, 3))
        if c:
            out[key] = out.get(key, Fraction(0)) + c
    D = WeylElement(n, out)
    return D if not D.is_zero() else WeylElement.one(n)


def random_module_element(
    rng: random.Random,
    n: int,
    m: int,
    max_exp: int = 2,
    max_terms: int = 3,
) -> ModuleElement:
    """Random nonzero element; per-variable exponents <= max_exp."""
    while True:
        out: dict = {}
        for _ in range(rng.randint(1, max_terms)):
            gen = rng.randint(1, m)
            alpha = tuple(rng.choice((0, 0, 1, max_exp)) for _ in range(n))
            beta = tuple(rng.choice((0, 0, 1, max_exp)) for _ in range(n))
            c = Fraction(rng.randint(-3, 3))
            if c:
                key = (gen, (alpha, beta))
                out[key] = out.get(key, Fraction(0)) + c
        f = ModuleElement(n, m, out)
        if not f.is_zero():
            return f


def _presents_zero_module(pres: Presentation) -> bool:
    G = complete_basis(pres.relations, pres.P, m=pres.m)
    return count_UVW(G, (0,) * pres.P.p)[2] == 0


def _dense_presentation(seed: int, sizes: tuple[int, ...]) -> Presentation:
    P = Partition(sizes)
    for bump in itertools.count():
        rng = random.Random(seed + 1000 * bump)
        m = rng.randint(1, 2)
        rels = tuple(
            random_module_element(rng, P.n, m) for _ in range(rng.randint(1, 2))
        )
        pres = Presentation(P, m, rels)
        if not _presents_zero_module(pres):
            return pres
    raise AssertionError("unreachable")


def _light_presentation(seed: int, sizes: tuple[int, ...]) -> Presentation:
    """Two-term relations in single variables; cheap for the rank oracle."""
    P = Partition(sizes)
    n = P.n
    for bump in itertools.count():
        rng = random.Random(seed + 1000 * bump)
        m = rng.randint(1, 2)
        rels = []
        for _ in range(rng.randint(1, 2)):
            i, j = rng.randrange(n), rng.randrange(n)
            a, b = rng.randint(1, 2), rng.randint(1, 2)
            alpha = tuple(a if k == i else 0 for k in range(n))
            beta = tuple(b if k == j else 0 for k in range(n))
            t1 = ModuleElement.single(n, m, rng.randint(1, m), alpha, (0,) * n)
            t2 = ModuleElement.single(n, m, rng.randint(1, m), (0,) * n, beta)
            rel = t1 + t2.scale(rng.choice((1, -1)))
            if not rel.is_zero():
                rels.append(rel)
        if not rels:
            continue
        pres = Presentation(P, m, tuple(rels))
        if not _presents_zero_module(pres):
            return pres
    raise AssertionError("unreachable")


def _monomial_presentation(seed: int, sizes: tuple[int, ...]) -> Presentation:
    """Single-term relations only; the staircase is read off directly."""
    P = Partition(sizes)
    n = P.n
    for bump in itertools.count():
        rng = random.Random(seed + 1000 * bump)
        m = rng.randint(1, 2)
        rels = []
        for _ in range(rng.randint(1, 2)):
            alpha = bounded_vector(rng, n, 2)
            beta = bounded_vector(rng, n, 2)
            if alpha == beta == (0,) * n:
                alpha = tuple(1 if k == 0 else 0 for k in range(n))
            rels.append(ModuleElement.single(n, m, rng.randint(1, m), alpha, beta))
        pres = Presentation(P, m, tuple(rels))
        if not _presents_zero_module(pres):
            return pres
    raise AssertionError("unreachable")


def corpus_presentations() -> list[tuple[str, Presentation]]:
    """Deterministic mixed corpus; shapes sized so the rank oracle stays fast."""
    out: list[tuple[str, Presentation]] = []
    for k in range(8):
        out.append((f"dense-n1-{k}", _dense_presentation(101 + k, (1,))))
    for k in range(6):
        out.append((f"dense-n2p1-{k}", _dense_presentation(201 + k, (2,))))
    for k in range(6):
        out.append((f"dense-n2p2-{k}", _dense_presentation(301 + k, (1, 1))))
    for k in range(4):
        out.append((f"light-n3p1-{k}", _light_presentation(401 + k, (3,))))
    for k, sizes in enumerate(((2, 1), (1, 2), (2, 1))):
        out.append((f"mono-n3p2-{k}", _monomial_presentation(501 + k, sizes)))
    P = Partition((1, 1, 1))
    rel = ModuleElement.single(3, 1, 1, (0, 0, 0), (2, 0, 0)) + ModuleElement.single(
        3, 1, 1, (0, 0, 0), (0, 1, 1)
    )
    out.append(("sparse-n3p3", Presentation(P, 1, (rel,))))
    return out


def random_index_sets(count: int, seed: int) -> list[IndexSet]:
    """Minimized antichains in N^q with a block structure, entries <= 4."""
    rng = random.Random(seed)
    sets: list[IndexSet] = []
    while len(sets) < count:
        q = rng.randint(1, 4)
        p = rng.randint(1, min(3, q))
        cuts = sorted(rng.sample(range(1, q), p - 1)) if p > 1 else []
        part = tuple(b - a for a, b in zip([0] + cuts, cuts + [q]))
        pts = {
            tuple(rng.randint(0, 4) for _ in range(q))
            for _ in range(rng.randint(1, 5))
        }
        sets.append(IndexSet(minimize(tuple(pts)), part))
    return sets
