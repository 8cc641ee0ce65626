"""The brute-force cross-checks: word products, point counts, rank."""
import pytest
from hypothesis import given

from weyldim import (
    IndexSet,
    InputError,
    ModuleElement,
    Partition,
    RankOracle,
    WeylElement,
    complete_basis,
    count_UVW,
    enum_V_A,
    minimize,
    naive_weyl_mul,
    omega,
    weyl_dimension,
    weyl_mul,
)

from conftest import corpus_presentations, grid, two_term_presentation
from test_weyl import weyl_elements


class TestNaiveProduct:
    def test_commutator(self):
        x = WeylElement.x(0, 1)
        d = WeylElement.d(0, 1)
        assert naive_weyl_mul(d, x) == x * d + WeylElement.one(1)

    @given(weyl_elements(2, hi=1), weyl_elements(2, hi=1))
    def test_matches_fast_product(self, a, b):
        assert naive_weyl_mul(a, b) == weyl_mul(a, b)

    def test_budget(self):
        big = WeylElement.monomial(1, (5,), (0,))
        with pytest.raises(InputError):
            naive_weyl_mul(big, WeylElement.monomial(1, (0,), (4,)))

    def test_mixed_n(self):
        with pytest.raises(InputError):
            naive_weyl_mul(WeylElement.one(1), WeylElement.one(2))


class TestEnumVA:
    def test_matches_direct_count(self):
        A = IndexSet(((2, 0), (0, 3)), (1, 1))
        for r1, r2 in grid(2, 0, 4):
            count = sum(
                1
                for v1 in range(r1 + 1)
                for v2 in range(r2 + 1)
                if v1 < 2 and v2 < 3
            )
            assert enum_V_A(A, (r1, r2)) == count

    def test_matches_omega_far_out(self):
        A = IndexSet(minimize(((1, 2, 0), (0, 1, 3), (2, 0, 1))), (2, 1))
        f = omega(A)
        for r in grid(2, 8, 10):
            assert f.eval(r) == enum_V_A(A, r)

    def test_arity_check(self):
        with pytest.raises(InputError):
            enum_V_A(IndexSet(((0,),), (1,)), (1, 1))


class TestRankOracle:
    def test_free_module(self):
        P = Partition((1, 1))
        oracle = RankOracle([], complete_basis([], P, m=3))
        for r in grid(2, 0, 2):
            assert oracle.dimension(r) == 3 * weyl_dimension(P, r)

    def test_negative_r(self):
        oracle = RankOracle([], complete_basis([], Partition((1,)), m=1))
        assert oracle.dimension((-2,)) == 0

    def test_box_cap(self):
        oracle = RankOracle([], complete_basis([], Partition((1,)), m=1), max_box=10)
        with pytest.raises(InputError):
            oracle.dimension((10,))

    def test_shape_mismatch(self):
        empty = complete_basis([], Partition((1,)), m=1)
        with pytest.raises(InputError):
            RankOracle([ModuleElement.basis_vector(1, 2, 1)], empty)
        oracle = RankOracle([], empty)
        with pytest.raises(InputError):
            oracle.dimension((1, 1))
        pres = two_term_presentation(1, 0, 2)
        with pytest.raises(InputError):
            RankOracle([], complete_basis(pres.relations, pres.P, m=1))

    def test_worked_value(self):
        pres = two_term_presentation(1, 1, 2)
        G = complete_basis(pres.relations, pres.P, m=1)
        assert RankOracle(pres.relations, G).dimension((3, 3)) == 82

    def test_long_combination_regression(self):
        # e1 enters the span only through degree-4 multipliers; short
        # truncations leave a plateau at the wrong value
        P = Partition((1,))
        r1 = ModuleElement(1, 2, {(1, ((0,), (0,))): -2, (1, ((2,), (0,))): -2})
        r2 = ModuleElement(1, 2, {(1, ((0,), (1,))): -3, (1, ((2,), (1,))): 1})
        oracle = RankOracle([r1, r2], complete_basis([r1, r2], P, m=2))
        assert [oracle.dimension((r,)) for r in range(5)] == [1, 3, 6, 10, 15]

    def test_extra_slack_is_stable(self):
        pres = two_term_presentation(1, 0, 2)
        G = complete_basis(pres.relations, pres.P, m=1)
        oracle = RankOracle(pres.relations, G)
        for r in grid(2, 0, 2):
            assert oracle.dimension(r) == oracle.dimension(r, slack=2)

    def test_matches_engine_on_sample_draws(self):
        sample = [pres for label, pres in corpus_presentations() if "n2p1" in label]
        assert sample
        for pres in sample[:3]:
            G = complete_basis(pres.relations, pres.P, m=pres.m)
            oracle = RankOracle(pres.relations, G)
            for r in range(4):
                assert oracle.dimension((r,)) == count_UVW(G, pres.m, (r,))[2]
