"""Partitions, normal monomials and their products in the Weyl algebra A_n.

A normal monomial x^alpha d^beta writes the x factors before the d
factors.  `mono_mul` expands the product of two of them in that normal
form, with integer weights, from the table of d^beta x^gamma
(`_normal_order`); every product the package forms reads that table,
the rank oracle's through `mono_mul` and completion's on packed terms.
A Partition groups the n variables into p consecutive
blocks; every grading in the package is taken blockwise with x_i and d_i
weighted equally, and `weyl_dimension` counts the monomials within
blockwise bounds.  The Partition also owns the packed layout that the
counting kernels and the rank oracle index by: block by block, each
block's x exponents then its d exponents (`pack`), and the
check of a blockwise bound r (`check_bound`).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, factorial, prod
from operator import add, itemgetter, sub
from typing import NamedTuple

from .errors import InputError

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
        return _ranges(self.sizes)

    @cached_property
    def widths(self) -> tuple[int, ...]:
        """Width 2 n_j of each block in the packed layout."""
        return tuple(2 * s for s in self.sizes)

    @cached_property
    def packed_blocks(self) -> tuple[tuple[int, int], ...]:
        """Half-open ranges (start, stop) of each block in the packed layout."""
        return _ranges(self.widths)

    @cached_property
    def packed_order(self) -> tuple[int, ...]:
        """Positions in alpha + beta of the packed entries, in packed order."""
        n = self.n
        return tuple(
            j for a, b in self.blocks for j in (*range(a, b), *range(n + a, n + b))
        )

    def pack(self, theta: ExponentPair) -> Vector:
        """Exponents rearranged blockwise: block j's x then d entries."""
        # 2n >= 2 positions, so the getter returns a tuple
        return itemgetter(*self.packed_order)(theta[0] + theta[1])

    def check_bound(self, r) -> Vector:
        """r as a tuple, refused unless it is p exact ints."""
        try:
            r = tuple(r)
        except TypeError:
            raise InputError(f"r must consist of integers: {r!r}") from None
        if len(r) != self.p:
            raise InputError(f"r has length {len(r)}, expected {self.p}")
        # exact type: bool is an int subclass and floats do not index boxes
        if any(type(v) is not int for v in r):
            raise InputError(f"r must consist of integers: {r}")
        return r

    def collapse(self) -> "Partition":
        """The single-block partition (n,) of the same variables."""
        return Partition((self.n,))


def _ranges(widths: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Consecutive half-open ranges of the given widths, from 0."""
    ends = tuple(itertools.accumulate(widths))
    return tuple(zip((0, *ends), ends))


def _check_vector(v, n: int, what: str) -> Vector:
    try:
        v = tuple(v)
    except TypeError:
        raise InputError(f"{what} is not a sequence: {v!r}") from None
    if len(v) != n:
        raise InputError(f"{what} has length {len(v)}, expected {n}")
    # exact type: bool is an int subclass and must not pass for an exponent
    if any(type(e) is not int or e < 0 for e in v):
        raise InputError(f"{what} must consist of nonnegative integers: {v}")
    return v


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


def weyl_dimension(P: Partition, r: Vector) -> int:
    """Number of monomials with blockwise orders bounded by r."""
    r = P.check_bound(r)
    if any(v < 0 for v in r):
        return 0
    return prod(comb(v + w, w) for v, w in zip(r, P.widths))
