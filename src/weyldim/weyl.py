"""Exact arithmetic in the Weyl algebra A_n over the rationals.

Elements are kept in normal form: finite sums c * x^alpha * d^beta with
the x factors written before the d factors.  A Partition groups the n
variables into p consecutive blocks; every grading in the package is
taken blockwise with x_i and d_i weighted equally.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial, prod
from operator import add, sub
from typing import Iterable, Mapping, NamedTuple

from .errors import InputError, ZeroElementError

Vector = tuple[int, ...]


class ExponentPair(NamedTuple):
    """Exponents (alpha, beta) of a normal monomial x^alpha d^beta."""

    alpha: Vector
    beta: Vector


@dataclass(frozen=True)
class Partition:
    """Sizes (n_1, ..., n_p) of consecutive variable blocks, all >= 1."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        # a tuple whatever the sizes came as: a partition keys caches
        try:
            object.__setattr__(self, "sizes", tuple(self.sizes))
        except TypeError:
            raise InputError(f"not a sequence of sizes: {self.sizes!r}") from None
        if not self.sizes:
            raise InputError("partition must have at least one block")
        # exact type: bool is an int subclass
        if any(type(s) is not int or s < 1 for s in self.sizes):
            raise InputError(f"partition sizes must be positive integers: {self.sizes}")

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def p(self) -> int:
        return len(self.sizes)

    @cached_property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        """Half-open index ranges (start, stop) of each block."""
        out = []
        start = 0
        for s in self.sizes:
            out.append((start, start + s))
            start += s
        return tuple(out)

    def block_of(self, i: int) -> int:
        """Block index (0-based) containing variable i (0-based)."""
        if not 0 <= i < self.n:
            raise InputError(f"variable index {i} out of range for n={self.n}")
        for j, (a, b) in enumerate(self.blocks):
            if a <= i < b:
                return j
        raise AssertionError("unreachable")

    def collapse(self) -> "Partition":
        """The single-block partition (n,) of the same variables."""
        return Partition((self.n,))


def _check_vector(v, n: int, what: str) -> Vector:
    v = tuple(v)
    if len(v) != n:
        raise InputError(f"{what} has length {len(v)}, expected {n}")
    # exact type: bool is an int subclass and must not pass for an exponent
    if any(type(e) is not int or e < 0 for e in v):
        raise InputError(f"{what} must consist of nonnegative integers: {v}")
    return v


def vsub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def monomial_orders(theta: ExponentPair, P: Partition) -> tuple[int, Vector]:
    """Total order and blockwise orders of x^alpha d^beta.

    ord_j counts every x and d exponent falling in block j.
    """
    alpha, beta = theta
    bo = tuple(
        sum(alpha[a:b]) + sum(beta[a:b]) for a, b in P.blocks
    )
    return sum(bo), bo


def block_orders(theta: ExponentPair, P: Partition) -> Vector:
    return monomial_orders(theta, P)[1]


@lru_cache(maxsize=None)
def _dx_swap(b: int, g: int) -> tuple[tuple[int, int], ...]:
    # d^b x^g = sum_k C(b,k) C(g,k) k! x^(g-k) d^(b-k), one variable
    return tuple(
        (k, comb(b, k) * comb(g, k) * factorial(k)) for k in range(min(b, g) + 1)
    )


@lru_cache(maxsize=65536)
def _normal_order(beta: Vector, gamma: Vector) -> tuple[tuple[Vector, int], ...]:
    """Expansion of d^beta x^gamma as sum of c_k x^(gamma-k) d^(beta-k)."""
    per_var = [_dx_swap(b, g) for b, g in zip(beta, gamma)]
    out = []
    for choice in itertools.product(*per_var):
        k = tuple(c[0] for c in choice)
        out.append((k, prod(c[1] for c in choice)))
    return tuple(out)


def mono_mul(t1: ExponentPair, t2: ExponentPair) -> list[tuple[ExponentPair, int]]:
    """Product of two normal monomials as a normal-form expansion."""
    (a1, b1), (a2, b2) = t1, t2
    alpha = tuple(map(add, a1, a2))
    beta = tuple(map(add, b1, b2))
    swaps = _normal_order(b1, a2)
    if len(swaps) == 1:  # only k = 0: the d's of t1 meet none of t2's x's
        return [(ExponentPair(alpha, beta), 1)]
    return [
        (ExponentPair(tuple(map(sub, alpha, k)), tuple(map(sub, beta, k))), c)
        for k, c in swaps
    ]


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


def element_orders(D: WeylElement, P: Partition) -> tuple[int, Vector]:
    """Total and blockwise orders of a nonzero element, maxima over support."""
    if D.is_zero():
        raise ZeroElementError("order of the zero element is undefined")
    if P.n != D.n:
        raise InputError(f"partition covers {P.n} variables, element has {D.n}")
    total = 0
    per_block = [0] * P.p
    for theta in D.terms:
        t, bo = monomial_orders(theta, P)
        total = max(total, t)
        for j, v in enumerate(bo):
            per_block[j] = max(per_block[j], v)
    return total, tuple(per_block)


def weyl_dimension(P: Partition, r: Vector) -> int:
    """Number of monomials with blockwise orders bounded by r."""
    r = tuple(r)
    if len(r) != P.p:
        raise InputError(f"r has length {len(r)}, expected {P.p}")
    if any(type(v) is not int for v in r):
        raise InputError(f"r must consist of integers: {r}")
    if any(v < 0 for v in r):
        return 0
    return prod(comb(v + 2 * s, 2 * s) for v, s in zip(r, P.sizes))
