"""The dimension-polynomial engine end to end on known modules."""
import itertools
from fractions import Fraction

import pytest

from weyldim import (
    GroebnerBasis,
    InputError,
    ModuleElement,
    NumericalPolynomial,
    Partition,
    Presentation,
    bernstein_inequality_check,
    bernstein_polynomial,
    complete_basis,
    count_grid,
    count_UVW,
    dimension_polynomial,
    interpolate,
    invariant_set,
    rho,
    weyl_dimension,
)
from weyldim import engine
from weyldim.engine import _base_threshold, _first_leaders
from weyldim.terms import leader_data

from conftest import (
    WeylElement,
    binom_product,
    canonicalize,
    corpus_presentations,
    derivative_presentation,
    extend_with,
    grid,
    mp_add,
    mp_scale,
    ref_psi_symbolic,
    two_term_presentation,
)


def closed_phi(a: int, g: int) -> NumericalPolynomial:
    """C(t1+2,2) C(t2+2,2) - C(t1+2-a,2) C(t2+2-g,2)."""
    whole = binom_product(2, [(0, 2, 2), (1, 2, 2)])
    hole = binom_product(2, [(0, 2 - a, 2), (1, 2 - g, 2)])
    return canonicalize(mp_add(whole, mp_scale(hole, -1)), 2)


class TestPresentation:
    def test_validation(self):
        P = Partition((1,))
        with pytest.raises(InputError):
            Presentation(P, 0, ())
        with pytest.raises(InputError):
            Presentation(P, 1, (ModuleElement.basis_vector(1, 2, 1),))

    @pytest.mark.parametrize("bad", [True, 2.0, 1.5, 0])
    def test_counts_must_be_positive_ints(self, bad):
        # a bool or float rank would reach the counts and the documents
        P = Partition((1,))
        rel = ModuleElement.basis_vector(1, 2, 1)
        for build in (
            lambda: ModuleElement(1, bad, {}),
            lambda: ModuleElement(bad, 1, {}),
            lambda: Presentation(P, bad, ()),
            lambda: GroebnerBasis([], P, bad, certified=[]),
            lambda: complete_basis([], P, m=bad),
            lambda: complete_basis([rel], P, m=bad),
        ):
            with pytest.raises(InputError):
                build()

    def test_empty_relations_allowed(self):
        pres = Presentation(Partition((2,)), 3, ())
        rep = dimension_polynomial(pres)
        assert rep.phi == NumericalPolynomial(1, {(4,): 3})


class TestCountUVW:
    def test_free_module(self):
        P = Partition((1, 1))
        G = complete_basis([], P, m=2)
        for r in grid(2, 0, 3):
            assert count_UVW(G, r)[2] == 2 * weyl_dimension(P, r)

    def test_negative_r(self):
        P = Partition((1,))
        G = complete_basis([], P, m=1)
        assert count_UVW(G, (-1,)) == (0, 0, 0)

    def test_worked_count(self):
        pres = two_term_presentation(1, 1, 2)
        G = complete_basis(pres.relations, pres.P, m=1)
        assert count_UVW(G, (3, 3))[2] == 82

    def test_shape_check(self):
        P = Partition((1, 1))
        G = complete_basis([], P, m=1)
        with pytest.raises(InputError):
            count_UVW(G, (1,))

    def test_entries_must_be_ints(self):
        # a bool counted as 1 and an integral float as its value
        pres = two_term_presentation(1, 1, 2)
        G = complete_basis(pres.relations, pres.P, m=1)
        for bad in ((True, 2), (2.0, 2), (1.5, 2), ("2", 2), (None, 2)):
            with pytest.raises(InputError):
                count_grid(G, [(1, 1), bad])
            with pytest.raises(InputError):
                count_UVW(G, bad)
        assert count_grid(G, [(1, 2), (2, 2)]) == [(17, 0, 17), (33, 0, 33)]


class TestDimensionPolynomial:
    def test_two_term_closed_form(self):
        rep = dimension_polynomial(two_term_presentation(1, 1, 2))
        assert rep.phi == closed_phi(1, 2)
        assert rep.psi_path == "symbolic"
        assert not rep.holonomic
        assert not rep.module_is_zero

    def test_phi_splits(self):
        rep = dimension_polynomial(two_term_presentation(2, 1, 3))
        assert rep.phi == rep.omega_part + rep.psi_part

    def test_verified_points_recount(self):
        rep = dimension_polynomial(two_term_presentation(1, 1, 2))
        assert rep.verified_points
        for r, count in rep.verified_points:
            assert rep.phi.eval(r) == count
            assert count_UVW(rep.basis, r)[2] == count

    def test_derivative_module(self):
        rep = dimension_polynomial(derivative_presentation())
        assert rep.phi == NumericalPolynomial(2, {(1, 1): 1})
        assert rep.psi_path == "interpolation"
        assert rep.holonomic

    def test_zero_module(self):
        P = Partition((1, 1))
        pres = Presentation(P, 1, (ModuleElement.basis_vector(2, 1, 1),))
        rep = dimension_polynomial(pres)
        assert rep.module_is_zero
        assert rep.phi.is_zero()
        assert not rep.holonomic
        assert rep.invariants.total_degree == -1

    def test_symbolic_path_needs_separated_leaders(self):
        # "symbolic" exactly when no two first leaders share a generator
        cases = [("derivative", derivative_presentation())]
        cases += corpus_presentations()
        paths = set()
        for label, pres in cases:
            rep = dimension_polynomial(pres)
            gens = [leader_data(g, 1, pres.P).term.gen for g in rep.basis.elements]
            separated = len(set(gens)) == len(gens)
            assert rep.psi_path == ("symbolic" if separated else "interpolation"), label
            paths.add(rep.psi_path)
        assert paths == {"symbolic", "interpolation"}

    def test_forced_interpolation_agrees(self):
        # the closed form matches the overshoot part interpolated from V'
        # counts on the same grid, whether or not the first leaders overlap
        cases = [("two-term", two_term_presentation(1, 1, 2))]
        cases += corpus_presentations()
        for label, pres in cases:
            rep = dimension_polynomial(pres)
            sizes2 = tuple(2 * s for s in pres.P.sizes)
            axes = [range(t, t + q + 1) for t, q in zip(rep.threshold, sizes2)]
            points = list(itertools.product(*axes))
            counts = dict(zip(points, count_grid(rep.basis, points)))
            psi = interpolate(rep.threshold, sizes2, lambda r: counts[r][1])
            assert rep.psi_part == psi, label

    def test_separated_leaders_match_their_formula(self):
        # where no two first leaders overlap, psi has a per-leader closed form
        cases = [("two-term", two_term_presentation(1, 1, 2))]
        cases += corpus_presentations()
        checked = 0
        for label, pres in cases:
            rep = dimension_polynomial(pres)
            if rep.psi_path == "symbolic":
                assert rep.psi_part == ref_psi_symbolic(rep.basis), label
                checked += 1
        assert checked == 20

    def test_overlapping_leaders_with_different_slacks(self):
        # x1 + x2^2 and d1 + d2 on one generator: first leaders x1 and d1,
        # slacks 2 and 1, so their common multiples use the larger slack
        P = Partition((1, 1))

        def element(*thetas):
            return ModuleElement(2, 1, {(1, t): Fraction(1) for t in thetas})

        G = GroebnerBasis(
            [
                element(((1, 0), (0, 0)), ((0, 2), (0, 0))),
                element(((0, 0), (1, 0)), ((0, 0), (0, 1))),
            ],
            P,
            1,
            certified=(),
        )
        assert [rho(g, P).d for g in G.elements] == [(2,), (1,)]
        leaders = _first_leaders(G)
        _, phi, _ = engine._staircase_parts(P, leaders)
        axes = [range(b, b + 3) for b in _base_threshold(G, leaders)]
        for r in itertools.product(*axes):
            _, vp, u = count_UVW(G, r)
            assert vp > 0
            assert phi.eval(r) == u, r

    def test_invariants_attached(self):
        rep = dimension_polynomial(two_term_presentation(1, 1, 2))
        assert rep.invariants == invariant_set(rep.phi)
        assert rep.invariants.diagonal_leading_coeff == "3/2"


class TestRegeneration:
    def test_invariants_survive_regeneration(self):
        pres = two_term_presentation(1, 1, 2)
        base = dimension_polynomial(pres).invariants
        D = WeylElement.x(0, 2) * WeylElement.d(1, 2) + WeylElement.one(2)
        other = dimension_polynomial(extend_with(pres, D)).invariants
        assert other.total_degree == base.total_degree
        assert other.diagonal_leading_coeff == base.diagonal_leading_coeff
        assert other.maximal_support == base.maximal_support
        assert other.maximal_coeffs == base.maximal_coeffs
        assert other.top_monomials == base.top_monomials


class TestBernstein:
    def test_two_term_collapsed(self):
        out = bernstein_polynomial(two_term_presentation(1, 1, 2))
        # C(t+4,4) - C(t+1,4) = (t+1)(t^2+2t+2)/2
        expect = canonicalize(
            mp_add(binom_product(1, [(0, 4, 4)]), mp_scale(binom_product(1, [(0, 1, 4)]), -1)),
            1,
        )
        assert out.psi == expect
        assert out.dimension == 3
        assert out.multiplicity == 3
        assert out.report.presentation.P == Partition((2,))

    def test_zero_module(self):
        P = Partition((1, 1))
        pres = Presentation(P, 1, (ModuleElement.basis_vector(2, 1, 1),))
        out = bernstein_polynomial(pres)
        assert out.dimension == -1
        assert out.multiplicity == 0

    def test_holonomic_derivative_module(self):
        out = bernstein_polynomial(derivative_presentation())
        assert out.dimension == 2
        assert out.multiplicity == 1


class TestHolonomy:
    def test_free_module_not_holonomic(self):
        rep = dimension_polynomial(Presentation(Partition((1,)), 1, ()))
        assert not rep.holonomic

    def test_explicit_n_override(self):
        for pres in (derivative_presentation(), two_term_presentation(1, 1, 2)):
            rep = dimension_polynomial(pres)
            assert rep.holonomic == (rep.phi.degree_data()[0] == pres.P.n)


class TestInequalityCheck:
    def test_holds_at_verified_points(self):
        rep = dimension_polynomial(derivative_presentation())
        for r, _ in rep.verified_points:
            assert bernstein_inequality_check(rep, r)

    def test_rejects_below_threshold(self):
        # d^4 e over A_1: phi(0) = -2 but only one box term survives
        P = Partition((1,))
        pres = Presentation(P, 1, (ModuleElement.single(1, 1, 1, (0,), (4,)),))
        rep = dimension_polynomial(pres)
        assert rep.phi.eval((0,)) == -2
        with pytest.raises(InputError):
            bernstein_inequality_check(rep, (0,))


class TestThreshold:
    def test_phi_matches_counts_past_threshold(self):
        for pres in (
            two_term_presentation(1, 0, 2),
            derivative_presentation(),
        ):
            rep = dimension_polynomial(pres)
            lo = rep.threshold
            for off in itertools.product(range(3), repeat=pres.P.p):
                r = tuple(a + b for a, b in zip(lo, off))
                assert rep.phi.eval(r) == count_UVW(rep.basis, r)[2]
        pres = dict(corpus_presentations())["dense-n2p2-1"]
        assert dimension_polynomial(pres).threshold == (8, 7)

    def test_slack_moves_the_threshold(self, monkeypatch):
        # x2^5, x3^5 and x1^3 + x2^3 on (1, 2), taken as a basis as they
        # stand: first leaders x2^5, x3^5 and x1^3, the last with slack 3.
        # Their lifted lcm has block-2 degree 5 + 5 + 3 = 13, so phi is
        # exact from r_2 = 13 - 4 = 9 on, past the leaders' column maxima
        P = Partition((1, 2))

        def element(*alphas):
            return ModuleElement(3, 1, {(1, (a, (0, 0, 0))): Fraction(1) for a in alphas})

        relations = (
            element((0, 5, 0)),
            element((0, 0, 5)),
            element((3, 0, 0), (0, 3, 0)),
        )
        G = GroebnerBasis(list(relations), P, 1, certified=())
        leaders = _first_leaders(G)
        _, phi, reach = engine._staircase_parts(P, leaders)
        assert reach == (3, 13)
        assert _base_threshold(G, leaders) == (4, 7)
        for r in ((4, 7), (4, 8), (7, 8)):
            assert phi.eval(r) != count_UVW(G, r)[2], r
        for r in itertools.product(range(4, 8), range(9, 13)):
            assert phi.eval(r) == count_UVW(G, r)[2], r
        pres = Presentation(P, 1, relations)
        # completion adds x1^3 x2^2 and x1^6, whose lifted lcms cover it
        assert dimension_polynomial(pres).threshold == (7, 7)
        monkeypatch.setattr(engine, "complete_basis", lambda relations, P, m: G)
        rep = dimension_polynomial(pres)
        assert rep.threshold == (4, 9)
        assert rep.phi == phi
