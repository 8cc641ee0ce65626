"""End-to-end acceptance suite.

Eleven numbered checks, each printing one PASS or FAIL line (run with
-s to watch them) and enforcing its stated wall-clock budget where one
applies.  Shared corpus reports are built once and reused; the build
cost is charged to the first check that needs them.
"""
from __future__ import annotations

import contextlib
import itertools
import random
import time
from fractions import Fraction

from conftest import (
    WeylElement,
    binom_product,
    canonicalize,
    corpus_presentations,
    derivative_presentation,
    enum_V_A,
    extend_with,
    gamma_divides,
    mp_add,
    mp_scale,
    naive_weyl_mul,
    random_index_sets,
    random_weyl,
    two_term_presentation,
    weyl_mul,
    worked_pair,
)

from weyldim import (
    DimensionReport,
    ModuleElement,
    NumericalPolynomial,
    Partition,
    Presentation,
    RankOracle,
    bernstein_inequality_check,
    bernstein_polynomial,
    complete_basis,
    count_UVW,
    dimension_polynomial,
    omega,
    rho,
    s_element,
)

Reports = list[tuple[str, Presentation, DimensionReport]]

_CACHE: dict[str, Reports] = {}


def corpus_reports() -> Reports:
    """Dimension reports for the whole randomized corpus, built once."""
    if "corpus" not in _CACHE:
        _CACHE["corpus"] = [
            (label, pres, dimension_polynomial(pres))
            for label, pres in corpus_presentations()
        ]
    return _CACHE["corpus"]


def example_reports() -> Reports:
    if "examples" not in _CACHE:
        named = [
            ("two-term-1-1-2", two_term_presentation(1, 1, 2)),
            ("two-term-2-1-3", two_term_presentation(2, 1, 3)),
            ("two-term-1-0-2", two_term_presentation(1, 0, 2)),
            ("derivative", derivative_presentation()),
            ("free-1-1", Presentation(Partition((1, 1)), 1, ())),
        ]
        _CACHE["examples"] = [
            (label, pres, dimension_polynomial(pres)) for label, pres in named
        ]
    return _CACHE["examples"]


@contextlib.contextmanager
def scored(label: str, budget: float | None = None):
    """Print one PASS/FAIL line for the enclosed block; enforce a budget."""
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    dt = time.perf_counter() - t0
    if budget is not None and dt >= budget:
        print(f"[FAIL] {label}: {dt:.2f}s over the {budget:.0f}s budget")
        raise AssertionError(f"{label}: {dt:.2f}s over the {budget:.0f}s budget")
    print(f"[PASS] {label} ({dt:.2f}s)")


def closed_phi(a: int, g: int) -> NumericalPolynomial:
    """C(t1+2,2) C(t2+2,2) - C(t1+2-a,2) C(t2+2-g,2)."""
    whole = binom_product(2, [(0, 2, 2), (1, 2, 2)])
    hole = binom_product(2, [(0, 2 - a, 2), (1, 2 - g, 2)])
    return canonicalize(mp_add(whole, mp_scale(hole, -1)), 2)


TRIPLES = ((1, 1, 2), (2, 1, 3), (1, 0, 2))


def test_01_worked_completion_and_critical_pairs():
    with scored("1 worked two-generator completion", budget=1.0):
        P, h1, h2, h3 = worked_pair()
        assert s_element(h1, h2, 2, P) == h3
        G = complete_basis([h1, h2], P, m=2)
        targets = [rho(h, P) for h in (h1, h2, h3)]
        shapes = [rho(g, P) for g in G.elements]
        for t in targets:
            assert any(gamma_divides(b, t) for b in shapes)
        for b in shapes:
            assert any(gamma_divides(t, b) for t in targets)
        assert s_element(h1, h3, 1, P).is_zero()
        assert s_element(h2, h3, 1, P).is_zero()


def test_02_two_term_family_closed_form():
    with scored("2 two-term family phi and top part"):
        worst = 0.0
        for a, b, g in TRIPLES:
            t0 = time.perf_counter()
            rep = dimension_polynomial(two_term_presentation(a, b, g))
            worst = max(worst, time.perf_counter() - t0)
            assert rep.phi == closed_phi(a, g), (a, b, g)
            assert rep.invariants.total_degree == 3
            assert dict(rep.invariants.top_monomials) == {
                (2, 1): str(Fraction(g, 2)),
                (1, 2): str(Fraction(a, 2)),
            }, (a, b, g)
            assert rep.holonomic is False
        assert worst < 5.0


def test_03_two_term_family_collapsed():
    with scored("3 two-term family psi, dimension, multiplicity"):
        worst = 0.0
        for a, b, g in TRIPLES:
            t0 = time.perf_counter()
            bern = bernstein_polynomial(two_term_presentation(a, b, g))
            worst = max(worst, time.perf_counter() - t0)
            whole = binom_product(1, [(0, 4, 4)])
            hole = binom_product(1, [(0, 4 - (a + g), 4)])
            want = canonicalize(mp_add(whole, mp_scale(hole, -1)), 1)
            assert bern.psi == want, (a, b, g)
            assert bern.dimension == 3
            assert bern.multiplicity == a + g
        assert worst < 5.0


def test_04_free_module_closed_form():
    with scored("4 free rank-one modules"):
        shapes = [(1,), (2,), (3,), (1, 1), (1, 2), (2, 1), (1, 1, 1)]
        for sizes in shapes:
            P = Partition(sizes)
            rep = dimension_polynomial(Presentation(P, 1, ()))
            want = NumericalPolynomial(P.p, {tuple(2 * s for s in sizes): 1})
            assert rep.phi == want, sizes


def test_05_holonomy_verdicts():
    with scored("5 holonomy detection"):
        rep = dimension_polynomial(derivative_presentation())
        assert rep.phi == NumericalPolynomial(2, {(1, 1): 1})
        assert rep.holonomic is True
        assert dimension_polynomial(two_term_presentation(1, 1, 2)).holonomic is False
        free = dimension_polynomial(Presentation(Partition((1, 1)), 1, ()))
        assert free.holonomic is False


def test_06_staircase_polynomial_oracle():
    with scored("6 staircase polynomial vs direct count", budget=60.0):
        sets = random_index_sets(100, seed=6)
        assert len(sets) >= 100
        for A in sets:
            poly = omega(A)
            top = max((max(pt) for pt in A.points), default=0)
            R0 = top * A.q
            for r in itertools.product(range(R0, R0 + 4), repeat=A.p):
                assert poly.eval(r) == enum_V_A(A, r), (A, r)


def test_07_enumeration_vs_rank_oracle():
    with scored("7 counted dimensions vs independent rank", budget=600.0):
        reports = corpus_reports()
        assert len(reports) >= 25
        for label, pres, rep in reports:
            # range(5)^p as chains along the last axis, one echelon each
            for r, rank in RankOracle(rep.basis).grid(4).items():
                card_u = count_UVW(rep.basis, r)[2]
                assert card_u == rank, (label, r)
            for r, count in rep.verified_points:
                assert rep.phi.eval(r) == count, (label, r)
                assert count_UVW(rep.basis, r)[2] == count, (label, r)


def test_08_degree_bounds():
    with scored("8 degree bounds on every polynomial"):
        for label, pres, rep in corpus_reports() + example_reports():
            if rep.module_is_zero:
                continue
            P = pres.P
            d, per_axis, _top = rep.phi.degree_data()
            assert P.n <= d <= 2 * P.n, label
            for nj, dj in zip(P.sizes, per_axis):
                assert nj <= dj <= 2 * nj, label
            bern = bernstein_polynomial(pres)
            assert P.n <= bern.dimension <= 2 * P.n, label


def test_09_generator_invariance():
    with scored("9 summary data survives regeneration"):
        Pw, h1, h2, _h3 = worked_pair()
        x1 = WeylElement.monomial(2, (1, 0), (0, 0))
        d2 = WeylElement.monomial(2, (0, 0), (0, 1))
        x2 = WeylElement.monomial(2, (0, 1), (0, 0))
        euler = WeylElement.monomial(2, (1, 0), (1, 0)) + WeylElement.one(2)
        second_derivative = Presentation(
            Partition((1,)), 1, (ModuleElement.single(1, 1, 1, (0,), (2,)),)
        )
        cases = [
            (two_term_presentation(1, 1, 2), x1),
            (two_term_presentation(2, 1, 3), d2),
            (Presentation(Pw, 2, (h1, h2)), x2),
            (derivative_presentation(), euler),
            (second_derivative, WeylElement.monomial(1, (1,), (0,))),
        ]
        fields = (
            "total_degree",
            "diagonal_leading_coeff",
            "maximal_support",
            "maximal_coeffs",
            "top_monomials",
        )
        for k, (pres, D) in enumerate(cases):
            base = dimension_polynomial(pres)
            ext = dimension_polynomial(extend_with(pres, D))
            for f in fields:
                got = getattr(ext.invariants, f)
                assert getattr(base.invariants, f) == got, (k, f)


def test_10_product_identities():
    with scored("10 product identities"):
        rng = random.Random(10)
        for _ in range(200):
            a = random_weyl(rng, 2, side_total=2, terms=2)
            b = random_weyl(rng, 2, side_total=2, terms=2)
            c = random_weyl(rng, 2, side_total=2, terms=2)
            assert (a * b) * c == a * (b * c)
        monos = [
            WeylElement.monomial(2, v[:2], v[2:])
            for v in itertools.product(range(4), repeat=4)
            if sum(v) <= 3
        ]
        assert len(monos) == 35
        for f in monos:
            for g in monos:
                assert weyl_mul(f, g) == naive_weyl_mul(f, g)
        lhs = weyl_mul(
            WeylElement.monomial(2, (1, 0), (1, 1)),
            WeylElement.monomial(2, (1, 1), (0, 1)),
        )
        want = (
            WeylElement.monomial(2, (2, 1), (1, 2))
            + WeylElement.monomial(2, (2, 0), (1, 1))
            + WeylElement.monomial(2, (1, 1), (0, 2))
            + WeylElement.monomial(2, (1, 0), (0, 1))
        )
        assert lhs == want


def test_11_filtration_inequality():
    with scored("11 filtration inequality at verified points"):
        checked = 0
        for label, pres, rep in corpus_reports() + example_reports():
            if rep.module_is_zero:
                continue
            for r, _count in rep.verified_points:
                assert bernstein_inequality_check(rep, r), (label, r)
                checked += 1
        assert checked > 0
