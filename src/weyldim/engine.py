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

from .errors import InputError, VerificationError
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
    expand_numerator,
    invariant_set,
    k_numerator,
    minimize,
    omega,
)
from .terms import Leader, ModuleElement, check_rank, leader_data
from .weyl import Partition, _ranges, weyl_dimension


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
    P: Partition, leaders: list[tuple[int, np.ndarray, np.ndarray]]
) -> tuple[NumericalPolynomial, NumericalPolynomial, tuple[int, ...]]:
    """The staircase polynomial omega_part, the dimension polynomial phi
    and phi's reach.

    A box term survives unless some first leader g divides it with
    ord_j + s_j(g) <= r_j at every later order j.  By inclusion-exclusion
    over leader sets, per generator, that count is omega's expansion run
    on the lifted leaders, each with s_j(g) appended to its block j: the
    block degrees grow by the slacks, the binomial widths stay.  With one
    block there is no later order, and phi is omega.  `leaders` is
    `_first_leaders` of the basis.

    The reach is, per block, the largest degree b_j in phi's expansion, so
    each of its binomials is exact from r_j = b_j - q_j on (see
    `expand_numerator`).  A slack lifts it past the column maxima that
    `_base_threshold` reads.  With one block nothing is lifted, and the
    reach is left at zero.
    """
    omega_p = phi = NumericalPolynomial.zero(P.p)
    reach = (0,) * P.p
    # a lifted leader: the packed exponents, then s_j after block j >= 2
    lifted = _ranges(tuple(q + (j > 0) for j, q in enumerate(P.widths)))
    after = [stop for _, stop in P.packed_blocks[1:]]
    for weight, L, SL in leaders:
        points = tuple(sorted(map(tuple, L.tolist())))
        part = omega(IndexSet(points, P.widths))
        if P.p > 1:
            rows = np.insert(L, after, SL, axis=1)
            K = k_numerator(minimize(map(tuple, rows.tolist())), lifted)
            part_phi = expand_numerator(K, P.widths)
            reach = tuple(map(max, zip(reach, *K)))
        else:
            part_phi = part
        omega_p = omega_p + part.scale(weight)
        phi = phi + part_phi.scale(weight)
    return omega_p, phi, reach


def _base_threshold(
    G: GroebnerBasis, leaders: list[tuple[int, np.ndarray, np.ndarray]]
) -> tuple[int, ...]:
    """Bounds read off the basis, before phi is built.

    Per axis j: one past the greatest ord_j of any element's j-th leader
    and past the staircase overshoot, where a leader set's summed column
    maxima exceed the block width.  Those sums bound every degree in
    omega_part's expansion, so omega_part counts V from here on; phi's
    slacks can reach further, and `dimension_polynomial` moves the bound
    out to phi's reach.  `leaders` is `_first_leaders(G)`.
    """
    P = G.P
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
    """Everything the engine certifies about one presentation.

    `threshold` is the bound past which the expansions of phi and
    omega_part are exact counts of the box terms U that span M_r and of
    V.  `verified_points` pairs each point of the sample grid with its
    enumerated count cardU; phi gave each of these counts, and
    omega_part gave cardV at each point.
    """

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
    generators, "interpolation" otherwise.  Both closed forms are exact
    past `_base_threshold` moved out to phi's reach, so one sample grid
    there, plus two extra points per axis, checks them: at each point phi
    must give the enumerated count cardU and omega_part the count cardV
    (so psi_part gives cardV').  A disagreement is a failed cross-check
    and raises `VerificationError`.
    """
    P = pres.P
    G = complete_basis(pres.relations, P, m=pres.m)
    leaders = _first_leaders(G)
    base = _base_threshold(G, leaders)
    # the grid reaches base + 2s + 2 per axis; refuse a box there past
    # exact int64 counts, or an oversized sample grid, before omega and
    # the grid are built (count_grid checks the corner again if phi's
    # reach moves it)
    check_exact(P.widths, [b + q + 2 for q, b in zip(P.widths, base)])
    check_grid(P.widths)
    omega_p, phi, reach = _staircase_parts(P, leaders)
    base = tuple(max(b, t - q) for b, t, q in zip(base, reach, P.widths))
    axes = [range(b, b + q + 1) for b, q in zip(base, P.widths)]
    grid = list(itertools.product(*axes))
    # the product's last point is the grid's top corner
    extras = [tuple(c + bump * (i == j) for i, c in enumerate(grid[-1]))
              for j in range(P.p) for bump in (1, 2)]
    sample = grid + extras
    counts = count_grid(G, sample)
    for r, (v, _, u) in zip(sample, counts):
        for name, poly, count in (("phi", phi, u), ("omega_part", omega_p, v)):
            value = poly.eval(r)
            if value != count:
                raise VerificationError(
                    f"verification: {name} gives {value} at r = {r}, "
                    f"but enumeration counts {count}"
                )
    zero = phi.is_zero()
    if not zero:
        d, per, _ = phi.degree_data()
        if not (P.n <= d <= 2 * P.n) or any(
            not (s <= e <= 2 * s) for s, e in zip(P.sizes, per)
        ):
            raise VerificationError(
                f"degree bounds violated: total {d}, per-variable {per}"
            )
        holonomic = d == P.n
    else:
        holonomic = False
    # no entry with two first leaders: they sit on distinct generators
    separated = all(len(L) <= 1 for _, L, _ in leaders)
    return DimensionReport(
        presentation=pres,
        basis=G,
        phi=phi,
        omega_part=omega_p,
        psi_part=phi - omega_p,
        psi_path="symbolic" if separated else "interpolation",
        holonomic=holonomic,
        module_is_zero=zero,
        invariants=invariant_set(phi),
        verified_points=tuple((r, u) for r, (_, _, u) in zip(sample, counts)),
        threshold=base,
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
