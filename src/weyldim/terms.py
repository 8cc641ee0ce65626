"""Terms and elements of a free module E = A_n^m with p simultaneous orders.

A term is theta * e_k for a normal monomial theta and a basis vector e_k
(generator indices are 1-based).  The i-th term order compares, in turn:
ord_i, the remaining blockwise orders by ascending block index, block i's
x exponents then d exponents, every other block's x then d exponents by
ascending block index, and finally the generator index (smaller index =
smaller term).

Every layer reads an element's leaders from one record per (element,
partition, order), built once by `leader_data` and kept with the element;
`leader` and `rho` are views of it.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, NamedTuple

from .errors import InputError, ZeroElementError
from .weyl import (
    ExponentPair,
    Partition,
    Vector,
    _check_vector,
    block_orders,
)


class Term(NamedTuple):
    gen: int
    theta: ExponentPair


class GammaTerm(NamedTuple):
    """Shape datum of an element: slack exponents d plus its first leader."""

    d: Vector
    head: Term


def _check_order(i, P: Partition) -> None:
    """Reject an order index that is not an int in 1..p."""
    # exact type: bool is an int subclass and floats do not count
    if type(i) is not int or not 1 <= i <= P.p:
        raise InputError(f"order index {i!r} out of range 1..{P.p}")


def monomial_key(i: int, theta: ExponentPair, P: Partition):
    """Comparison key of a monomial under the i-th order (i is 1-based)."""
    _check_order(i, P)
    bo = block_orders(theta, P)
    packed = P.pack(theta)
    j = i - 1
    a, b = P.packed_blocks[j]
    return (bo[j], *bo[:j], *bo[j + 1:], *packed[a:b], *packed[:a], *packed[b:])


def term_key(i: int, t: Term, P: Partition):
    return monomial_key(i, t.theta, P) + (t.gen,)


def check_rank(m) -> None:
    """Reject a free module rank that is not an int >= 1."""
    # exact type: bool is an int subclass and floats do not count
    if type(m) is not int or m < 1:
        raise InputError(f"free module rank must be an integer >= 1, got {m!r}")


class ModuleElement:
    """A finite rational combination of terms of A_n^m.

    Stored as a primitive integer row: `row` maps each term to a nonzero
    int, the ints have content 1, and row = (kn / kd) * element for
    coprime ints kn, kd > 0.  The zero element is the empty row with
    kn = kd = 1.  This form is unique, so equality compares it directly.
    `terms` reads the coefficients back as `Fraction`s, built anew on each
    read.

    The public constructor takes int or `Fraction` coefficients only,
    validates and merges its input, then derives the row.  Internally
    built elements go through `_trusted`, which wraps a row that is
    already in this form, every key a `Term` whose generator and exponents
    are in range.  Arithmetic on valid elements keeps that invariant, so
    it skips the checks.  A row is never changed once wrapped, so elements
    may share one.
    """

    # _memo holds data derived from the row on demand: the leader records
    # per (partition, order), and the reduction module's shifted rows and
    # pure kind
    __slots__ = ("n", "m", "row", "kn", "kd", "_memo")

    def __init__(self, n: int, m: int, terms: Mapping[Term, Fraction] | Iterable):
        # exact type: bool is an int subclass and floats do not count
        if type(n) is not int or n < 1:
            raise InputError(f"variable count must be an integer >= 1, got {n!r}")
        check_rank(m)
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Term, Fraction] = {}
        for item in items:
            try:
                (gen, (alpha, beta)), c = item
            except (TypeError, ValueError):
                msg = f"not a ((gen, (alpha, beta)), coeff) pair: {item!r}"
                raise InputError(msg) from None
            c = _exact(c)
            if c == 0:
                continue
            if type(gen) is not int:  # bool included
                raise InputError(f"generator index must be an integer, got {gen!r}")
            if not 1 <= gen <= m:
                raise InputError(f"generator index {gen} out of range 1..{m}")
            alpha = _check_vector(alpha, n, "alpha")
            beta = _check_vector(beta, n, "beta")
            t = Term(gen, ExponentPair(alpha, beta))
            c = clean.get(t, Fraction(0)) + c
            if c == 0:
                clean.pop(t, None)
            else:
                clean[t] = c
        den = lcm(*(c.denominator for c in clean.values()))
        ints = {t: c.numerator * (den // c.denominator) for t, c in clean.items()}
        self.n = n
        self.m = m
        self.row, self.kn, self.kd = _primitive(ints, den)
        self._memo: dict = {}

    @classmethod
    def _trusted(cls, n: int, m: int, row: dict, kn: int, kd: int) -> "ModuleElement":
        """Wrap a row already in primitive form (see the class docstring)."""
        self = object.__new__(cls)
        self.n = n
        self.m = m
        self.row = row
        self.kn = kn
        self.kd = kd
        self._memo = {}
        return self

    @classmethod
    def zero(cls, n: int, m: int) -> "ModuleElement":
        return cls(n, m, {})

    @classmethod
    def single(cls, n: int, m: int, gen: int, alpha, beta, coeff=1) -> "ModuleElement":
        return cls(n, m, [((gen, (alpha, beta)), coeff)])

    @classmethod
    def basis_vector(cls, n: int, m: int, gen: int) -> "ModuleElement":
        z = (0,) * n
        return cls.single(n, m, gen, z, z)

    @property
    def terms(self) -> dict[Term, Fraction]:
        """The coefficients as exact `Fraction`s, in row order."""
        kn, kd = self.kn, self.kd
        return {t: Fraction(v * kd, kn) for t, v in self.row.items()}

    def is_zero(self) -> bool:
        return not self.row

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModuleElement)
            and (self.n, self.m, self.kn, self.kd, self.row)
            == (other.n, other.m, other.kn, other.kd, other.row)
        )

    def __hash__(self):
        return hash((self.n, self.m, self.kn, self.kd, frozenset(self.row.items())))

    def _check_compat(self, other: "ModuleElement"):
        if (self.n, self.m) != (other.n, other.m):
            raise InputError(
                f"mixed module shapes: ({self.n},{self.m}) vs ({other.n},{other.m})"
            )

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        self._check_compat(other)
        # acc = kn_f * kn_g * (f + g) = row_f * kd_f * kn_g + row_g * kd_g * kn_f
        a, b = self.kd * other.kn, other.kd * self.kn
        acc = {t: a * v for t, v in self.row.items()}
        for t, v in other.row.items():
            s = acc.get(t, 0) + b * v
            if s:
                acc[t] = s
            else:
                del acc[t]
        return ModuleElement._trusted(
            self.n, self.m, *_primitive(acc, self.kn * other.kn)
        )

    def __neg__(self) -> "ModuleElement":
        return ModuleElement._trusted(
            self.n, self.m, {t: -v for t, v in self.row.items()}, self.kn, self.kd
        )

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        return self + (-other)

    def scale(self, c) -> "ModuleElement":
        c = _exact(c)
        if c == 0:
            return ModuleElement.zero(self.n, self.m)
        # c * f = (kd / (kn * c.denominator)) * (c.numerator * row)
        acc = {t: c.numerator * v for t, v in self.row.items()}
        return ModuleElement._trusted(
            self.n, self.m, *_primitive(acc, self.kn * c.denominator, self.kd)
        )

    def coeff(self, t: Term) -> Fraction:
        return Fraction(self.row.get(t, 0) * self.kd, self.kn)

    def sorted_terms(self, P: Partition) -> list[tuple[Term, Fraction]]:
        """Terms by descending first order; canonical for serialization."""
        return sorted(
            self.terms.items(), key=lambda kv: term_key(1, kv[0], P), reverse=True
        )

    def __repr__(self):
        if self.is_zero():
            return "ModuleElement(0)"
        bits = []
        for (gen, (alpha, beta)), c in sorted(self.terms.items()):
            xs = "".join(f"x{i+1}^{e}" for i, e in enumerate(alpha) if e)
            ds = "".join(f"d{i+1}^{e}" for i, e in enumerate(beta) if e)
            bits.append(f"{c}*{xs}{ds}e{gen}")
        return "ModuleElement(" + " + ".join(bits) + ")"


def _exact(c) -> Fraction:
    """c as a Fraction, refused unless it is an int or a Fraction."""
    # exact type: bool is an int subclass; floats and strings are not exact,
    # and a string's exponent expands without bound
    if type(c) is not int and not isinstance(c, Fraction):
        raise InputError(f"coefficient must be an int or a Fraction, got {c!r}")
    return Fraction(c)


def _primitive(acc: dict[Term, int], num: int, den: int = 1) -> tuple[dict, int, int]:
    """(row, kn, kd) of the element (den / num) * acc, in primitive form.

    acc maps terms to nonzero ints, num != 0 and den > 0 are ints, and an
    empty acc gives the zero element's form.
    """
    if not acc:
        return {}, 1, 1
    cont = gcd(*acc.values())
    if num < 0:
        num, cont = -num, -cont
    kd = den * abs(cont)
    h = gcd(num, kd)
    return {t: v // cont for t, v in acc.items()}, num // h, kd // h


class Leader(NamedTuple):
    """An element's leader under one order, with what every layer reads of it."""

    term: Term
    lead: int  # term's coefficient in the element's primitive row
    orders: Vector  # the block orders of term
    # per later order k, ord_k of the k-th leader minus ord_k of this one:
    # the shape gaps under the first order; at a reduction stage, theta * f
    # stays within cap_k exactly when theta * term has ord_k + slack_k <= cap_k
    slack: Vector


def check_cover(n: int, P: Partition) -> None:
    """Reject an element on other than P's n variables."""
    if n != P.n:
        raise InputError(f"partition covers {P.n} variables, element has {n}")


def leader_data(f: ModuleElement, i: int, P: Partition) -> Leader:
    """The leader record of f under the i-th order, kept in f's memo."""
    # exact type: bool is an int subclass, and True would find order 1
    if type(i) is int:
        hit = f._memo.get((P.sizes, i))
        if hit is not None:
            return hit
    if f.is_zero():
        raise ZeroElementError("leader of the zero element is undefined")
    _check_order(i, P)
    check_cover(f.n, P)
    _, term = max((term_key(i, t, P), t) for t in f.row)
    orders = block_orders(term.theta, P)
    slack = tuple(
        leader_data(f, k, P).orders[k - 1] - orders[k - 1]
        for k in range(i + 1, P.p + 1)
    )
    out = f._memo[P.sizes, i] = Leader(term, f.row[term], orders, slack)
    return out


def share_leaders(src: ModuleElement, dst: ModuleElement, P: Partition, sign: int) -> None:
    """Give dst, whose row is sign * src's row (sign = 1 or -1), src's
    leader records under every order of P, leads times sign."""
    for i in range(1, P.p + 1):
        ld = leader_data(src, i, P)
        dst._memo[P.sizes, i] = ld._replace(lead=sign * ld.lead)


def leader(f: ModuleElement, i: int, P: Partition) -> tuple[Term, Fraction]:
    """Greatest term of f under the i-th order, with its coefficient."""
    ld = leader_data(f, i, P)
    return ld.term, Fraction(ld.lead * f.kd, f.kn)


def rho(f: ModuleElement, P: Partition) -> GammaTerm:
    """Shape datum: per-order leader gaps d_i plus the first leader."""
    ld = leader_data(f, 1, P)
    return GammaTerm(ld.slack, ld.term)
