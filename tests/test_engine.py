"""The dimension-polynomial engine end to end on known modules."""
import itertools

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
    weyl_dimension,
)
from weyldim import engine
from weyldim.engine import _symbolic_applicable

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
        pres = derivative_presentation()
        G = complete_basis(pres.relations, pres.P, m=pres.m)
        assert not _symbolic_applicable(G)
        assert dimension_polynomial(pres).psi_path == "interpolation"

    def test_forced_interpolation_agrees(self):
        # the closed form matches the overshoot part interpolated from V'
        # counts on the same grid
        cases = [("two-term", two_term_presentation(1, 1, 2))]
        cases += corpus_presentations()
        checked = 0
        for label, pres in cases:
            rep = dimension_polynomial(pres)
            if rep.psi_path != "symbolic":
                continue
            sizes2 = tuple(2 * s for s in pres.P.sizes)
            axes = [range(t, t + q + 1) for t, q in zip(rep.threshold, sizes2)]
            points = list(itertools.product(*axes))
            counts = dict(zip(points, count_grid(rep.basis, points)))
            psi = interpolate(rep.threshold, sizes2, lambda r: counts[r][1])
            assert rep.psi_part == psi, label
            checked += 1
        assert checked >= 10

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

    def test_enlargement_from_a_zero_start(self, monkeypatch):
        # from a zero start the sample grid of dense-n2p2-1 fails to verify
        # six times before it moves out to (6, 6); the polynomials it then
        # verifies are the ones from the usual start
        pres = dict(corpus_presentations())["dense-n2p2-1"]
        usual = dimension_polynomial(pres)
        assert usual.threshold == (8, 7)
        monkeypatch.setattr(engine, "_base_threshold", lambda G: (0,) * G.P.p)
        rep = dimension_polynomial(pres)
        assert rep.threshold == (6, 6)
        assert (rep.phi, rep.omega_part, rep.psi_part) == (
            usual.phi,
            usual.omega_part,
            usual.psi_part,
        )
