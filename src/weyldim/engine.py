"""Dimension polynomials of finitely presented modules over A_n.

Pipeline: complete the relations to a multi-order Groebner basis, count
the box terms that survive reduction (split into staircase-complement
and overshoot parts), and pin the unique numerical polynomial matching
those counts for all large bounds.  Every computed polynomial is
re-verified against explicit enumeration before it is returned.

phi has one closed form for every basis: omega's K-polynomial expansion
run on the first leaders lifted by their later-order slacks.  The
overshoot part is phi minus the staircase part.

Counting goes through `count_grid`, which counts every bound a caller
needs in one blockwise pass over weighted classes of block-simplex rows,
each held as its block sum and leader mask (see `kernels`); neither the
full box nor a block simplex is built.
The free rank is read off the basis.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, InputError, VerificationError
from .groebner import GroebnerBasis, complete_basis
from .kernels import (
    block_classes,
    check_exact,
    check_grid,
    class_table,
    classify_box,
)
from .numpoly import (
    IndexSet,
    InvariantReport,
    NumericalPolynomial,
    count_polynomial,
    invariant_set,
    omega,
)
from .terms import Leader, ModuleElement, check_rank, leader_data
from .weyl import Partition, _ranges, weyl_dimension

# Most times `dimension_polynomial` moves its sample grid one step outwards
# before it gives up on finding the stabilization threshold.
MAX_ENLARGE = 8


@dataclass(frozen=True)
class Presentation:
    """A free module A_n^m with a finite family of relations."""

    P: Partition
    m: int
    relations: tuple[ModuleElement, ...]

    def __post_init__(self):
        check_rank(self.m)
        for f in self.relations:
            if (f.n, f.m) != (self.P.n, self.m):
                raise InputError("relation shape does not match the presentation")


def _first_leaders(G: GroebnerBasis) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Per counted generator: its weight, first-leader rows and their slacks.

    Rows are packed exponents in basis order, slacks are per later order
    2..p.  Every generator that carries a leader counts once.  Those
    without one all count alike, so one entry, weighted by their number,
    stands for all of them.  It is keyed 0, below every generator id; the
    key only orders the entries, and callers sum or maximize over them.
    """
    P = G.P
    by_gen: dict[int, list[Leader]] = {}
    for g in G.elements:
        ld = leader_data(g, 1, P)
        by_gen.setdefault(ld.term.gen, []).append(ld)
    free = G.m - len(by_gen)
    if free:
        by_gen[0] = []
    out = []
    for _, lds in sorted(by_gen.items()):
        L = np.array([P.pack(ld.term.theta) for ld in lds], dtype=np.int64)
        SL = np.array([ld.slack for ld in lds], dtype=np.int64)
        SL = SL.reshape(len(lds), P.p - 1)
        out.append((1 if lds else free, L.reshape(-1, 2 * P.n), SL))
    return out


def count_grid(
    G: GroebnerBasis, points: Sequence[Sequence[int]]
) -> list[tuple[int, int, int]]:
    """Exact counts (cardV, cardV', cardU) of surviving box terms per bound.

    V collects box terms divisible by no first leader; V' collects first
    leader multiples whose every dividing leader overshoots some later
    order bound.  U is their disjoint union and spans M_r.  All bounds
    are counted in one pass: per generator, the block simplices at the
    componentwise largest bound are grouped into classes, each kept as
    its block sum, the mask of leader blocks it dominates, and its size.
    The classes are multiplied out into one weighted table of block sums
    and masks, and every bound is read off that table; a leader divides
    a row exactly when its bit is set in the row's mask, so no exponent
    row is compared with a leader there.  The classes and their sizes
    come from the block rows clamped to the largest leader exponents, so
    no simplex is enumerated.
    """
    P = G.P
    points = [P.check_bound(r) for r in points]
    top = [max(col) for col in zip(*points)]
    if min(top, default=-1) < 0:
        return [(0, 0, 0)] * len(points)
    check_exact(P.widths, top)
    card_v = [0] * len(points)
    card_vp = [0] * len(points)
    for weight, L, SL in _first_leaders(G):
        blocks = [
            block_classes(q, b, L[:, start:stop])
            for q, b, (start, stop) in zip(P.widths, top, P.packed_blocks)
        ]
        BS, masks, weights = class_table(blocks)
        v, vp = classify_box(BS, masks, SL, weights, points)
        card_v = [a + weight * b for a, b in zip(card_v, v.tolist())]
        card_vp = [a + weight * b for a, b in zip(card_vp, vp.tolist())]
    return [(v, vp, v + vp) for v, vp in zip(card_v, card_vp)]


def count_UVW(G: GroebnerBasis, r: Sequence[int]) -> tuple[int, int, int]:
    """Exact counts (cardV, cardV', cardU) at one bound; see count_grid."""
    return count_grid(G, [r])[0]


def _staircase_parts(
    G: GroebnerBasis,
) -> tuple[NumericalPolynomial, NumericalPolynomial]:
    """The staircase polynomial omega_part and the dimension polynomial phi.

    A box term survives unless some first leader g divides it with
    ord_j + s_j(g) <= r_j at every later order j.  By inclusion-exclusion
    over leader sets, per generator, that count is omega's expansion run
    on the lifted leaders, each with s_j(g) appended to its block j: the
    block degrees grow by the slacks, the binomial widths stay.  With one
    block there is no later order, and phi is omega.
    """
    P = G.P
    omega_p = phi = NumericalPolynomial.zero(P.p)
    # a lifted leader: the packed exponents, then s_j after block j >= 2
    lifted = _ranges(tuple(q + (j > 0) for j, q in enumerate(P.widths)))
    after = [stop for _, stop in P.packed_blocks[1:]]
    for weight, L, SL in _first_leaders(G):
        points = tuple(sorted(map(tuple, L.tolist())))
        part = omega(IndexSet(points, P.widths))
        if P.p > 1:
            rows = np.insert(L, after, SL, axis=1)
            part_phi = count_polynomial(map(tuple, rows.tolist()), lifted, P.widths)
        else:
            part_phi = part
        omega_p = omega_p + part.scale(weight)
        phi = phi + part_phi.scale(weight)
    return omega_p, phi


def _symbolic_applicable(G: GroebnerBasis) -> bool:
    """True when the first leaders sit on pairwise distinct generators,
    so no two of them have a common multiple."""
    gens = [leader_data(g, 1, G.P).term.gen for g in G.elements]
    return len(set(gens)) == len(gens)


def _base_threshold(G: GroebnerBasis) -> tuple[int, ...]:
    """Starting bounds past which all closed-form counts are exact."""
    P = G.P
    leaders = _first_leaders(G)
    out = []
    for j, (start, stop) in enumerate(P.packed_blocks):
        # the greatest ord_j of any element's j-th leader
        c_max = max([0] + [leader_data(g, j + 1, P).orders[j] for g in G.elements])
        # the staircase overshoot: a leader set's column maxima, summed
        tops = [int(L[:, start:stop].max(0, initial=0).sum()) for _, L, _ in leaders]
        out.append(1 + max(c_max, max(tops, default=0) - P.widths[j], 0))
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


def dimension_polynomial(pres: Presentation) -> DimensionReport:
    """Compute and verify the dimension polynomial of a presentation.

    phi and its staircase part come from `_staircase_parts`, and the
    overshoot part is their difference.  `psi_path` names the basis'
    case: "symbolic" when the first leaders sit on pairwise distinct
    generators, "interpolation" otherwise.  The result is accepted only
    after phi reproduces the enumerated counts on the sample grid plus
    two extra points per axis.  The grid moves outwards at most
    MAX_ENLARGE times.
    """
    P = pres.P
    p = P.p
    G = complete_basis(pres.relations, P, m=pres.m)
    sizes2 = P.widths
    base = _base_threshold(G)
    # the first grid reaches base + 2s + 2 per axis; refuse a box there
    # past exact int64 counts, or an oversized sample grid, before omega
    # and the grid are built
    check_exact(sizes2, [b + q + 2 for q, b in zip(sizes2, base)])
    check_grid(sizes2)
    omega_p, phi = _staircase_parts(G)
    for attempt in range(MAX_ENLARGE + 1):
        R0 = tuple(b + attempt for b in base)
        axes = [range(R0[j], R0[j] + sizes2[j] + 1) for j in range(p)]
        grid = [tuple(pt) for pt in itertools.product(*axes)]
        corner = [R0[j] + sizes2[j] for j in range(p)]
        extras = [tuple(c + bump * (i == j) for i, c in enumerate(corner))
                  for j in range(p) for bump in (1, 2)]
        sample = grid + extras
        verified = tuple((r, u) for r, (_, _, u) in zip(sample, count_grid(G, sample)))
        if all(phi.eval(r) == u for r, u in verified):
            break
    else:
        raise ConvergenceError(
            "stabilization threshold not found within the enlargement budget "
            f"engine.MAX_ENLARGE = {MAX_ENLARGE}"
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
        psi_part=phi - omega_p,
        psi_path="symbolic" if _symbolic_applicable(G) else "interpolation",
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


def bernstein_polynomial(pres: Presentation) -> BernsteinReport:
    """Bernstein dimension and multiplicity via the collapsed partition."""
    flat = Presentation(pres.P.collapse(), pres.m, pres.relations)
    rep = dimension_polynomial(flat)
    psi = rep.phi
    if rep.module_is_zero:
        return BernsteinReport(psi, -1, 0, rep)
    d, _, top = psi.degree_data()
    lead = top[(d,)]
    e = lead * factorial(d)
    if e.denominator != 1:
        raise VerificationError(f"multiplicity {e} is not an integer")
    return BernsteinReport(psi, d, int(e), rep)


def bernstein_inequality_check(report: DimensionReport, r: Sequence[int]) -> bool:
    """Filtration inequality dim W_r <= phi(r) * phi(2r) at a verified r."""
    P = report.presentation.P
    r = tuple(r)
    card_u = count_UVW(report.basis, r)[2]
    if report.phi.eval(r) != card_u:
        raise InputError(
            f"r={r} is below the polynomial threshold; enumeration disagrees"
        )
    lhs = weyl_dimension(P, r)
    rhs = report.phi.eval(r) * report.phi.eval(tuple(2 * v for v in r))
    return lhs <= rhs
