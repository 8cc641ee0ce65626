"""Shared builders for the test suite.

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
from typing import Sequence

from hypothesis import settings

from weyldim import (
    ExponentPair,
    IndexSet,
    InputError,
    ModuleElement,
    NumericalPolynomial,
    Partition,
    Presentation,
    Term,
    WeylElement,
    complete_basis,
    count_UVW,
    minimize,
)
from weyldim.numpoly import Index, MonoPoly
from weyldim.terms import act, term_key
from weyldim.weyl import mono_mul

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


def assert_oracle_keys(oracle) -> None:
    """Every keyed column of the oracle carries its order-1 term key."""
    assert len(oracle._keys) == len(oracle._col)
    for t, c in oracle._col.items():
        assert tuple(oracle._keys[c].tolist()) == term_key(1, Term(*t), oracle.P), t


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
