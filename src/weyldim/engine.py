"""Dimension polynomials of finitely presented modules over A_n.

Pipeline: complete the relations to a multi-order Groebner basis, count
the box terms that survive reduction (split into staircase-complement
and overshoot parts), and pin the unique numerical polynomial matching
those counts for all large bounds.  Every computed polynomial is
re-verified against explicit enumeration before it is returned.

Counting goes through `count_grid`, which counts every bound a caller
needs in one blockwise pass over weighted classes of block-simplex rows
(see `kernels`); the full box is never built.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, InputError, VerificationError
from .groebner import GroebnerBasis, complete_basis
from .kernels import block_classes, block_sum_matrix, class_table, classify_box
from .numpoly import (
    IndexSet,
    InvariantReport,
    NumericalPolynomial,
    binomial_sum,
    interpolate,
    invariant_set,
    omega,
    shift_coeffs,
)
from .terms import ModuleElement, term_lcm
from .weyl import ExponentPair, Partition, weyl_dimension


@dataclass(frozen=True)
class Presentation:
    """A free module A_n^m with a finite family of relations."""

    P: Partition
    m: int
    relations: tuple[ModuleElement, ...]

    def __post_init__(self):
        if self.m < 1:
            raise InputError(f"module rank must be >= 1, got {self.m}")
        for f in self.relations:
            if (f.n, f.m) != (self.P.n, self.m):
                raise InputError("relation shape does not match the presentation")


def pack_exponents(theta: ExponentPair, P: Partition) -> tuple[int, ...]:
    """Exponents rearranged blockwise: block j's x then d entries."""
    alpha, beta = theta
    out: list[int] = []
    for a, b in P.blocks:
        out.extend(alpha[a:b])
        out.extend(beta[a:b])
    return tuple(out)


def _doubled_sizes(P: Partition) -> tuple[int, ...]:
    return tuple(2 * s for s in P.sizes)


def _first_leaders(G: GroebnerBasis) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Per generator: packed first-leader rows and their order slacks.

    Rows keep basis order; generators that carry no leader are absent.
    """
    P = G.P
    by_gen: dict[int, list[int]] = {}
    for j, ld in enumerate(G.leaders):
        by_gen.setdefault(ld[0][0].gen, []).append(j)
    out = {}
    for gen, idxs in by_gen.items():
        L = np.array(
            [pack_exponents(G.leaders[j][0][0].theta, P) for j in idxs],
            dtype=np.int64,
        ).reshape(len(idxs), 2 * P.n)
        SL = np.array(
            [[G.c[i][j] - G.b[i][j] for i in range(P.p)] for j in idxs],
            dtype=np.int64,
        ).reshape(len(idxs), P.p)
        out[gen] = (L, SL)
    return out


def count_grid(
    G: GroebnerBasis, m: int, points: Sequence[Sequence[int]]
) -> list[tuple[int, int, int]]:
    """Exact counts (cardV, cardV', cardU) of surviving box terms per bound.

    V collects box terms divisible by no first leader; V' collects first
    leader multiples whose every dividing leader overshoots some later
    order bound.  U is their disjoint union and spans M_r.  All bounds
    are counted in one pass: per generator, the block simplices at the
    componentwise largest bound are grouped into classes, multiplied out
    into one weighted table, and every bound is read off that table.
    """
    P = G.P
    points = [tuple(r) for r in points]
    for r in points:
        if len(r) != P.p:
            raise InputError(f"r has length {len(r)}, expected {P.p}")
        # exact type: bool is an int subclass and floats do not index boxes
        if any(type(v) is not int for v in r):
            raise InputError(f"r must consist of integers: {r}")
    top = [max(col) for col in zip(*points)]
    if min(top, default=-1) < 0:
        return [(0, 0, 0)] * len(points)
    sizes2 = _doubled_sizes(P)
    cols = np.cumsum((0,) + sizes2)
    arrays = _first_leaders(G)
    empty_L = np.empty((0, 2 * P.n), dtype=np.int64)
    empty_SL = np.empty((0, P.p), dtype=np.int64)
    card_v = [0] * len(points)
    card_vp = [0] * len(points)
    for gen in range(1, m + 1):
        L, SL = arrays.get(gen, (empty_L, empty_SL))
        blocks = [
            block_classes(q, b, L[:, cols[j]:cols[j + 1]])
            for j, (q, b) in enumerate(zip(sizes2, top))
        ]
        V, weights = class_table(blocks)
        BS = block_sum_matrix(V, sizes2)
        v, vp = classify_box(V, BS, L, SL, points, weights)
        card_v = [a + b for a, b in zip(card_v, v.tolist())]
        card_vp = [a + b for a, b in zip(card_vp, vp.tolist())]
    return [(v, vp, v + vp) for v, vp in zip(card_v, card_vp)]


def count_UVW(G: GroebnerBasis, m: int, r: Sequence[int]) -> tuple[int, int, int]:
    """Exact counts (cardV, cardV', cardU) at one bound; see count_grid."""
    return count_grid(G, m, [r])[0]


def _omega_part(G: GroebnerBasis, m: int) -> NumericalPolynomial:
    sizes2 = _doubled_sizes(G.P)
    leaders = _first_leaders(G)
    total = NumericalPolynomial.zero(G.P.p)
    for gen in range(1, m + 1):
        points = map(tuple, leaders[gen][0].tolist()) if gen in leaders else ()
        total = total + omega(IndexSet(tuple(sorted(points)), sizes2))
    return total


def _psi_symbolic(G: GroebnerBasis) -> NumericalPolynomial:
    """Closed-form overshoot count when first leaders never overlap.

    Each term is a product over axes of C(t+q-c, q) or of
    C(t+q-b, q) - C(t+q-c, q), expanded per axis by `shift_coeffs`.
    """
    P = G.P
    p = P.p
    sizes2 = _doubled_sizes(P)
    later = list(range(1, p))  # order positions 2..p, 0-based
    terms = []
    for j in range(len(G.elements)):
        c_f = [shift_coeffs(q, G.c[i][j]) for i, q in enumerate(sizes2)]
        b_f = [shift_coeffs(q, G.b[i][j]) for i, q in enumerate(sizes2)]
        for size in range(1, p):
            for K in itertools.combinations(later, size):
                factors = [
                    [x - y for x, y in zip(b_f[i], c_f[i])] if i in K else c_f[i]
                    for i in range(p)
                ]
                terms.append((1, factors))
    return binomial_sum(p, terms)


def _symbolic_applicable(G: GroebnerBasis) -> bool:
    heads = [ld[0][0] for ld in G.leaders]
    for a in range(len(heads)):
        for b in range(a + 1, len(heads)):
            if term_lcm(heads[a], heads[b]) is not None:
                return False
    return True


def _base_threshold(G: GroebnerBasis) -> tuple[int, ...]:
    """Starting bounds past which all closed-form counts are exact."""
    P = G.P
    sizes2 = _doubled_sizes(P)
    leaders = _first_leaders(G)
    out = []
    cum = [0]
    for s in sizes2:
        cum.append(cum[-1] + s)
    for j in range(P.p):
        c_max = max(G.c[j], default=0)
        stair = 0
        for L, _ in leaders.values():
            top = int(L[:, cum[j]:cum[j + 1]].max(axis=0).sum())
            stair = max(stair, top - sizes2[j])
        out.append(1 + max(c_max, stair, 0))
    return tuple(out)


@dataclass(frozen=True)
class DimensionReport:
    """Everything the engine certifies about one presentation."""

    presentation: Presentation
    basis: GroebnerBasis
    phi: NumericalPolynomial
    omega_part: NumericalPolynomial
    psi_part: NumericalPolynomial
    psi_path: str
    holonomic: bool
    module_is_zero: bool
    invariants: InvariantReport
    verified_points: tuple[tuple[tuple[int, ...], int], ...]
    threshold: tuple[int, ...]


def dimension_polynomial(
    pres: Presentation,
    psi_path: str = "auto",
    max_enlarge: int = 8,
) -> DimensionReport:
    """Compute and verify the dimension polynomial of a presentation.

    psi_path picks how the overshoot part is obtained: "symbolic" needs
    pairwise non-overlapping first leaders, "interpolation" samples
    counts on a grid, "auto" prefers symbolic when applicable.  The
    result is accepted only after the full polynomial reproduces the
    enumerated counts on the sample grid plus two extra points per axis.
    """
    P = pres.P
    p = P.p
    G = complete_basis(pres.relations, P, m=pres.m)
    omega_p = _omega_part(G, pres.m)
    symbolic_ok = _symbolic_applicable(G)
    if psi_path == "auto":
        path = "symbolic" if symbolic_ok else "interpolation"
    elif psi_path == "symbolic":
        if not symbolic_ok:
            raise InputError("symbolic path needs non-overlapping first leaders")
        path = "symbolic"
    elif psi_path == "interpolation":
        path = "interpolation"
    else:
        raise InputError(f"unknown psi_path {psi_path!r}")
    sizes2 = _doubled_sizes(P)
    base = _base_threshold(G)
    psi_sym = _psi_symbolic(G) if path == "symbolic" else None
    for attempt in range(max_enlarge + 1):
        R0 = tuple(b + attempt for b in base)
        axes = [range(R0[j], R0[j] + sizes2[j] + 1) for j in range(p)]
        grid = [tuple(pt) for pt in itertools.product(*axes)]
        corner = tuple(R0[j] + sizes2[j] for j in range(p))
        extras = []
        for j in range(p):
            for bump in (1, 2):
                pt = list(corner)
                pt[j] += bump
                extras.append(tuple(pt))
        sample = grid + extras
        counts = dict(zip(sample, count_grid(G, pres.m, sample)))
        if path == "symbolic":
            psi = psi_sym
        else:
            psi = interpolate(R0, sizes2, lambda r: counts[r][1])
        phi = omega_p + psi
        if all(phi.eval(r) == counts[r][2] for r in sample):
            verified = tuple((r, counts[r][2]) for r in sample)
            break
    else:
        raise ConvergenceError(
            "stabilization threshold not found within the enlargement budget"
        )
    zero = phi.is_zero()
    if not zero:
        d, per, _ = phi.degree_data()
        n = P.n
        if not (n <= d <= 2 * n) or any(
            not (s <= e <= 2 * s) for s, e in zip(P.sizes, per)
        ):
            raise VerificationError(
                f"degree bounds violated: total {d}, per-variable {per}"
            )
        holonomic = d == n
    else:
        holonomic = False
    return DimensionReport(
        presentation=pres,
        basis=G,
        phi=phi,
        omega_part=omega_p,
        psi_part=psi,
        psi_path=path,
        holonomic=holonomic,
        module_is_zero=zero,
        invariants=invariant_set(phi),
        verified_points=verified,
        threshold=R0,
    )


@dataclass(frozen=True)
class BernsteinReport:
    """Univariate dimension data under the trivial variable grouping."""

    psi: NumericalPolynomial
    dimension: int
    multiplicity: int
    report: DimensionReport


def bernstein_polynomial(pres: Presentation, **kwargs) -> BernsteinReport:
    """Bernstein dimension and multiplicity via the collapsed partition."""
    flat = Presentation(pres.P.collapse(), pres.m, pres.relations)
    rep = dimension_polynomial(flat, **kwargs)
    psi = rep.phi
    if rep.module_is_zero:
        return BernsteinReport(psi, -1, 0, rep)
    d, _, top = psi.degree_data()
    lead = top[(d,)]
    e = lead * factorial(d)
    if e.denominator != 1:
        raise VerificationError(f"multiplicity {e} is not an integer")
    return BernsteinReport(psi, d, int(e), rep)


def is_holonomic(report: DimensionReport, n: int | None = None) -> bool:
    """Degree criterion: the total degree equals the number of variables."""
    if n is None:
        n = report.presentation.P.n
    if report.module_is_zero:
        return False
    return report.phi.degree_data()[0] == n


def bernstein_inequality_check(report: DimensionReport, r: Sequence[int]) -> bool:
    """Filtration inequality dim W_r <= phi(r) * phi(2r) at a verified r."""
    P = report.presentation.P
    r = tuple(r)
    card_u = count_UVW(report.basis, report.presentation.m, r)[2]
    if report.phi.eval(r) != card_u:
        raise InputError(
            f"r={r} is below the polynomial threshold; enumeration disagrees"
        )
    lhs = weyl_dimension(P, r)
    rhs = report.phi.eval(r) * report.phi.eval(tuple(2 * v for v in r))
    return lhs <= rhs
