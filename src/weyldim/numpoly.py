"""Numerical polynomials in p variables over the binomial basis.

Canonical form: sum of a_i * prod_j C(t_j + i_j, i_j) with integer
coefficients a_i, unique for integer-valued polynomials.  Every
polynomial is built in this form, from counts to phi, on one integer
path: `binomial_sum` adds tensor products of per-axis integer
coefficient vectors, and each producer supplies those vectors through
`shift_coeffs`, C(t + q - b, q) = sum_i (-1)^(q-i) C(b, q-i) C(t + i, i).
No floating point anywhere, and no rational arithmetic on the way.

`count_polynomial` takes the block-graded K-polynomial numerator of a
monomial ideal from the colon recursion
K(I + (x^g)) = K(I) - t^deg(g) K(I : x^g) of Bayer-Stillman and Bigatti
and expands each term t^b as prod_j C(t_j + q_j - b_j, q_j)
(`expand_numerator`), so the cost grows polynomially with the number of
generators.  The grading blocks and the binomial widths q_j are passed
apart: the staircase polynomial `omega` grades by its own blocks, and
the engine's phi grades leaders lifted by their slacks.  `interpolate`
takes exact forward differences of integer samples and expands the
Newton series the same way.

Rational monomial coefficients appear only where output asks for them:
`monomial_view` (the `monomial` field of a report), `degree_data` and
the invariants.
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
from .weyl import _ranges

Index = tuple[int, ...]
MonoPoly = dict[Index, Fraction]


def binom_int(t: int, k: int) -> int:
    """C(t, k) for any integer t, zero when k < 0."""
    if k < 0:
        return 0
    if t < 0:  # C(t, k) = (-1)^k C(k - t - 1, k)
        return (-1) ** k * comb(k - t - 1, k)
    return comb(t, k)


class NumericalPolynomial:
    """Integer-valued polynomial stored by its binomial-basis coefficients."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Mapping[Index, int]):
        # exact type: bool is an int subclass and floats do not count
        if type(p) is not int or p < 1:
            raise InputError(f"need at least one variable, got p={p!r}")
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
        """The same polynomial with rational monomial coefficients.

        The output view of the `monomial` report field: each B[k] expands
        as the tensor product of the per-axis monomial coefficients of
        C(t_j + k_j, k_j).
        """
        return _tensor_sum(
            (c, [_binomial_monomials(i) for i in k]) for k, c in self.coeffs.items()
        )

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


def _tensor_sum(terms: Iterable[tuple[int, Sequence[Sequence]]]) -> dict:
    """Sum of w * (f_1 x ... x f_p) over (w, (f_1, ..., f_p)), zeros dropped.

    Entry k of the sum collects w * prod_j f_j[k_j]; the factors may hold
    integers or fractions.
    """
    acc: dict = {}
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
    return {k: c for k, c in acc.items() if c}


def binomial_sum(
    p: int, terms: Iterable[tuple[int, Sequence[Sequence[int]]]]
) -> NumericalPolynomial:
    """Sum of w * prod_j (sum_i f_j[i] C(t_j + i, i)) over (w, (f_1, ..., f_p)).

    Each term is a tensor product of per-axis integer coefficient vectors,
    so the sum lands in canonical form without leaving the integers.
    """
    return NumericalPolynomial(p, _tensor_sum(terms))


@lru_cache(maxsize=None)
def _binomial_monomials(k: int) -> tuple[Fraction, ...]:
    """Monomial coefficients of C(t + k, k) = (t + 1)...(t + k) / k!, by degree."""
    poly = [1]
    for j in range(1, k + 1):
        # multiply by (t + j)
        poly = [j * a + b for a, b in zip(poly + [0], [0] + poly)]
    return tuple(Fraction(c, factorial(k)) for c in poly)


def interpolate(
    base: Sequence[int], degs: Sequence[int], f: Callable[[Index], int]
) -> NumericalPolynomial:
    """The numerical polynomial matching integer-valued f on the Newton grid.

    Samples f at base + offsets, offsets ranging over prod(degs_j + 1)
    points, and takes iterated forward differences D^k f(base) in place.
    Each multiplies prod_j C(t_j - base_j, k_j), whose binomial-basis
    coefficients are `shift_coeffs(k_j, k_j + base_j)`, so the Newton
    expansion lands in canonical form without leaving the integers.
    """
    base = tuple(base)
    degs = tuple(degs)
    p = len(base)
    # exact type: bool is an int subclass and floats do not count
    ints = p >= 1 and len(degs) == p and all(type(v) is int for v in base + degs)
    if not ints or min(degs) < 0:
        raise InputError(
            f"interpolation needs base and degs of one length >= 1 holding "
            f"integers, degs >= 0; got base={base}, degs={degs}"
        )
    vals: dict[Index, int] = {}
    for off in itertools.product(*(range(d + 1) for d in degs)):
        vals[off] = f(tuple(b + o for b, o in zip(base, off)))
    # iterated forward differences, in place, one axis at a time
    for axis in range(p):
        others = [range(d + 1) for i, d in enumerate(degs) if i != axis]
        for k in range(1, degs[axis] + 1):
            for j in range(degs[axis], k - 1, -1):
                for rest in itertools.product(*others):
                    off = rest[:axis] + (j,) + rest[axis:]
                    below = rest[:axis] + (j - 1,) + rest[axis:]
                    vals[off] = vals[off] - vals[below]
    return binomial_sum(
        p,
        (
            (c, [shift_coeffs(k, k + b) for k, b in zip(off, base)])
            for off, c in vals.items()
        ),
    )


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
        return _ranges(self.partition)


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


def count_polynomial(
    points: Iterable[Index],
    blocks: Sequence[tuple[int, int]],
    widths: Sequence[int],
) -> NumericalPolynomial:
    """sum_b w_b prod_j C(t_j + q_j - b_j, q_j) over the K-numerator of points.

    w_b is the coefficient of t^b in the block-graded K-polynomial
    numerator of the ideal (x^a : a in points), graded by `blocks`, and
    q_j are the binomial `widths`.  They may differ from the grading
    blocks' widths: a block may carry extra coordinates that shift its
    degrees without adding to the binomial.
    """
    return expand_numerator(k_numerator(minimize(points), blocks), widths)


def expand_numerator(
    weights: Mapping[Index, int], widths: Sequence[int]
) -> NumericalPolynomial:
    """sum_b w_b prod_j C(t_j + q_j - b_j, q_j) over a K-numerator's weights.

    The term at b stands for w_b times the number of lattice points of
    N^q_j with coordinate sum at most t_j - b_j, per axis j.  Its binomial
    gives that number exactly when t_j >= b_j - q_j: between there and
    t_j = b_j - 1 both are 0, and further down the binomial is not.
    """
    return binomial_sum(
        len(widths),
        (
            (w, [shift_coeffs(q_j, b_j) for q_j, b_j in zip(widths, b)])
            for b, w in weights.items()
        ),
    )


def omega(A: IndexSet) -> NumericalPolynomial:
    """Counting polynomial of lattice points avoiding the staircase of A.

    For large r it equals the number of v in N^q with blockwise coordinate
    sums at most r_j that dominate no point of A: `count_polynomial` on
    A's points, graded and binomially weighted by A's own blocks.
    """
    poly = count_polynomial(A.points, A.blocks(), A.partition)
    d, per, _ = poly.degree_data()
    if d > A.q or any(per[j] > A.partition[j] for j in range(A.p)):
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
