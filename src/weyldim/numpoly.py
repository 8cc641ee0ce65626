"""Numerical polynomials in p variables over the binomial basis.

Canonical form: sum of a_i * prod_j C(t_j + i_j, i_j) with integer
coefficients a_i, unique for integer-valued polynomials.  Conversions go
through exact evaluation on integer grids followed by iterated finite
differences; no floating point anywhere.

The staircase polynomial `omega` takes two integer steps.  The
block-graded K-polynomial numerator of S/(x^A) comes from the colon
recursion K(I + (x^g)) = K(I) - t^deg(g) K(I : x^g) of Bayer-Stillman
and Bigatti, and each of its terms t^b is turned into binomial-basis
coefficients directly through C(t + q - b, q) = sum_i (-1)^(q-i)
C(b, q-i) C(t + i, i), so the cost grows polynomially with |A|.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from operator import add, le, sub
from typing import Callable, Iterable, Mapping, Sequence

from .errors import InputError, VerificationError

Index = tuple[int, ...]
MonoPoly = dict[Index, Fraction]


def binom_int(t: int, k: int) -> int:
    """C(t, k) for any integer t, zero when k < 0."""
    if k < 0:
        return 0
    num = 1
    for j in range(k):
        num *= t - j
    return num // factorial(k)


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


class NumericalPolynomial:
    """Integer-valued polynomial stored by its binomial-basis coefficients."""

    __slots__ = ("p", "coeffs", "_mono")

    def __init__(self, p: int, coeffs: Mapping[Index, int]):
        if p < 1:
            raise InputError(f"need at least one variable, got p={p}")
        clean: dict[Index, int] = {}
        for k, c in coeffs.items():
            k = tuple(k)
            if len(k) != p or any(type(e) is not int or e < 0 for e in k):
                raise InputError(f"bad basis index {k} for p={p}")
            if type(c) is not int:
                raise InputError(f"basis coefficients must be integers, got {c!r}")
            if c:
                clean[k] = clean.get(k, 0) + c
        self.p = p
        self.coeffs = {k: c for k, c in clean.items() if c}
        self._mono = None

    @classmethod
    def zero(cls, p: int) -> "NumericalPolynomial":
        return cls(p, {})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NumericalPolynomial)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, frozenset(self.coeffs.items())))

    def __add__(self, other: "NumericalPolynomial") -> "NumericalPolynomial":
        if self.p != other.p:
            raise InputError("mixed variable counts")
        acc = dict(self.coeffs)
        for k, c in other.coeffs.items():
            acc[k] = acc.get(k, 0) + c
        return NumericalPolynomial(self.p, acc)

    def __sub__(self, other: "NumericalPolynomial") -> "NumericalPolynomial":
        return self + other.scale(-1)

    def scale(self, c: int) -> "NumericalPolynomial":
        return NumericalPolynomial(self.p, {k: c * v for k, v in self.coeffs.items()})

    def eval(self, r: Sequence[int]) -> int:
        r = tuple(r)
        if len(r) != self.p:
            raise InputError(f"point has length {len(r)}, expected {self.p}")
        if any(type(t) is not int for t in r):
            raise InputError(f"evaluation point must hold integers, got {r}")
        total = 0
        for k, c in self.coeffs.items():
            v = c
            for i, t in zip(k, r):
                v *= binom_int(t + i, i)
            total += v
        return total

    def monomial_view(self) -> MonoPoly:
        """The same polynomial with rational monomial coefficients."""
        if self._mono is None:
            acc: MonoPoly = {}
            for k, c in self.coeffs.items():
                term = {(0,) * self.p: Fraction(c)}
                for axis, i in enumerate(k):
                    if i:
                        term = mp_mul(term, shifted_binomial(self.p, axis, i, i))
                acc = mp_add(acc, term)
            self._mono = acc
        return dict(self._mono)

    def degree_data(self) -> tuple[int, tuple[int, ...], MonoPoly]:
        """Total degree, per-variable degrees, and the top homogeneous part.

        The zero polynomial reports degree -1.  Read off the basis indices:
        B[k] = prod C(t_j + k_j, k_j) has the single top monomial
        t^k / k!, and distinct indices give distinct top monomials.
        """
        if not self.coeffs:
            return -1, (-1,) * self.p, {}
        d = max(sum(k) for k in self.coeffs)
        per = tuple(max(k[i] for k in self.coeffs) for i in range(self.p))
        top = {}
        for k, c in self.coeffs.items():
            if sum(k) == d:
                den = 1
                for e in k:
                    den *= factorial(e)
                top[k] = Fraction(c, den)
        return d, per, top

    def __repr__(self):
        bits = [f"{c}*B{list(k)}" for k, c in sorted(self.coeffs.items())]
        return "NumericalPolynomial(" + (" + ".join(bits) or "0") + ")"


def shift_coeffs(q: int, b: int) -> tuple[int, ...]:
    """Binomial-basis coefficients of C(t + q - b, q) in one variable.

    Entry i multiplies C(t + i, i):
    C(t + q - b, q) = sum_i (-1)^(q-i) C(b, q-i) C(t + i, i), any integer b.
    """
    return tuple((-1) ** (q - i) * binom_int(b, q - i) for i in range(q + 1))


def binomial_sum(
    p: int, terms: Iterable[tuple[int, Sequence[Sequence[int]]]]
) -> NumericalPolynomial:
    """Sum of w * prod_j (sum_i f_j[i] C(t_j + i, i)) over (w, (f_1, ..., f_p)).

    Each term is a tensor product of per-axis integer coefficient vectors,
    so the sum lands in canonical form without leaving the integers.
    """
    acc: dict[Index, int] = {}
    for w, factors in terms:
        if not w:
            continue
        nonzero = [[(i, c) for i, c in enumerate(f) if c] for f in factors]
        for combo in itertools.product(*nonzero):
            c = w
            for _, x in combo:
                c *= x
            k = tuple(i for i, _ in combo)
            acc[k] = acc.get(k, 0) + c
    return NumericalPolynomial(p, acc)


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


def interpolate(
    base: Sequence[int], degs: Sequence[int], f: Callable[[Index], int]
) -> MonoPoly:
    """Monomial form of the polynomial matching f on the Newton grid.

    Samples f at base + offsets, offsets ranging over prod(degs_j + 1)
    points, and assembles the multivariate Newton expansion exactly.
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


def minimize(points: Iterable[Index]) -> tuple[Index, ...]:
    """Minimal elements of a finite set under the componentwise order, sorted.

    A point below another comes first in lexicographic order, so each
    point need only be compared with the minimal elements kept so far.
    """
    out: list[Index] = []
    for a in sorted(set(map(tuple, points))):
        if not any(all(map(le, b, a)) for b in out):
            out.append(a)
    return tuple(out)


@dataclass(frozen=True)
class IndexSet:
    """A finite subset of N^q with a block partition of the q coordinates."""

    points: tuple[Index, ...]
    partition: tuple[int, ...]

    def __post_init__(self):
        if any(type(s) is not int or s < 1 for s in self.partition):
            raise InputError(f"bad coordinate partition {self.partition}")
        q = sum(self.partition)
        for a in self.points:
            if len(a) != q or any(type(e) is not int or e < 0 for e in a):
                raise InputError(f"bad lattice point {a} for q={q}")

    @property
    def q(self) -> int:
        return sum(self.partition)

    @property
    def p(self) -> int:
        return len(self.partition)

    def blocks(self) -> tuple[tuple[int, int], ...]:
        out = []
        start = 0
        for s in self.partition:
            out.append((start, start + s))
            start += s
        return tuple(out)


def _colon(prefix: tuple[Index, ...], g: Index) -> tuple[Index, ...] | None:
    """Minimal generators of (x^prefix) : x^g, or None when that is (x^prefix).

    The colon is generated by h - min(h, g); it equals the ideal itself
    exactly when g shares no coordinate with any point of the prefix.
    """
    if not any(any(map(min, h, g)) for h in prefix):
        return None
    return minimize(tuple(map(sub, h, map(min, h, g))) for h in prefix)


def k_numerator(
    points: tuple[Index, ...], blocks: Sequence[tuple[int, int]]
) -> dict[Index, int]:
    """Block-graded K-polynomial numerator of S/(x^a : a in points).

    Maps block degrees b to the integer coefficient of t^b in
    sum over subsets sigma of (-1)^|sigma| t^deg(lcm sigma), without
    walking the subsets.  For minimized, sorted points g_1..g_k the loop
    runs K(g_1..g_i) = K(g_1..g_{i-1}) - t^deg(g_i) K((g_1..g_{i-1}) : g_i)
    from K() = 1, so pairwise disjoint supports give prod (1 - t^deg(g)).
    Colon ideals are computed on an explicit stack, memoized on their
    minimized generator sets, so no Python recursion limit applies.
    """
    p = len(blocks)
    zero = (0,) * p

    def deg(a: Index) -> Index:
        return tuple(sum(a[x:y]) for x, y in blocks)

    memo: dict[tuple[Index, ...], dict[Index, int]] = {}
    pending: dict[tuple[Index, ...], list] = {}
    stack = [points]
    while stack:
        S = stack[-1]
        if S in memo:
            stack.pop()
            continue
        colons = pending.pop(S, None)
        if colons is None:
            colons = [_colon(S[:i], g) for i, g in enumerate(S)]
            missing = [c for c in colons if c is not None and c not in memo]
            if missing:
                pending[S] = colons
                stack.extend(missing)
                continue
        K = {zero: 1}
        for g, c in zip(S, colons):
            shift = deg(g)
            nxt = dict(K)
            for b, w in (K if c is None else memo[c]).items():
                key = tuple(map(add, b, shift))
                nxt[key] = nxt.get(key, 0) - w
            K = {b: w for b, w in nxt.items() if w}
        memo[S] = K
        stack.pop()
    return memo[points]


def omega(A: IndexSet) -> NumericalPolynomial:
    """Counting polynomial of lattice points avoiding the staircase of A.

    For large r it equals the number of v in N^q with blockwise coordinate
    sums at most r_j that dominate no point of A.  The block-graded
    K-polynomial numerator sum_b w_b t^b of S/(x^A) comes from the colon
    recursion in `k_numerator`; each t^b contributes
    w_b * prod_j C(t_j + q_j - b_j, q_j), whose binomial-basis
    coefficients are integers read off `shift_coeffs`.
    """
    sizes = A.partition
    weights = k_numerator(minimize(A.points), A.blocks())
    poly = binomial_sum(
        A.p,
        (
            (w, [shift_coeffs(q_j, b_j) for q_j, b_j in zip(sizes, b)])
            for b, w in weights.items()
        ),
    )
    d, per, _ = poly.degree_data()
    if d > A.q or any(e > s for e, s in zip(per, sizes)):
        raise VerificationError("counting polynomial exceeds its degree bounds")
    return poly


@dataclass(frozen=True)
class InvariantReport:
    """Summary data read off a dimension polynomial.

    total_degree, diagonal_leading_coeff, maximal_support with
    maximal_coeffs, and top_monomials do not depend on the generating
    set the polynomial was computed from; support does.
    """

    total_degree: int
    diagonal_leading_coeff: str
    support: tuple[Index, ...]
    maximal_support: tuple[Index, ...]
    maximal_coeffs: tuple[tuple[Index, int], ...]
    top_monomials: tuple[tuple[Index, str], ...]


def invariant_set(P: NumericalPolynomial) -> InvariantReport:
    """Invariant summary of a dimension polynomial.

    diagonal_leading_coeff is the leading coefficient of the univariate
    restriction P(t, ..., t); maximal_support lists the exponents maximal
    under at least one of the p! lexicographic orders on the basis indices.
    """
    d, _, top = P.degree_data()
    support = tuple(sorted(P.coeffs))
    maximal = set()
    for perm in itertools.permutations(range(P.p)):
        if not support:
            break
        best = max(support, key=lambda k: tuple(k[i] for i in perm))
        maximal.add(best)
    maximal_sorted = tuple(sorted(maximal))
    return InvariantReport(
        total_degree=d,
        diagonal_leading_coeff=str(sum(top.values(), Fraction(0))),
        support=support,
        maximal_support=maximal_sorted,
        maximal_coeffs=tuple((k, P.coeffs[k]) for k in maximal_sorted),
        top_monomials=tuple(
            (k, str(c)) for k, c in sorted(top.items())
        ),
    )
