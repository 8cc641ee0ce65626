"""The brute-force cross-checks: word products, point counts, rank."""
import inspect
import itertools
import random
import types

import pytest
from hypothesis import given

from weyldim import (
    IndexSet,
    InputError,
    ModuleElement,
    Partition,
    RankOracle,
    Term,
    VerificationError,
    WeylElement,
    complete_basis,
    count_grid,
    count_UVW,
    enum_V_A,
    minimize,
    naive_weyl_mul,
    omega,
    weyl_dimension,
    weyl_mul,
)
from weyldim import oracle as oracle_module
from weyldim.terms import term_key

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
        oracle = RankOracle(complete_basis([], P, m=3))
        for r in grid(2, 0, 2):
            assert oracle.dimension(r) == 3 * weyl_dimension(P, r)

    def test_negative_r(self):
        oracle = RankOracle(complete_basis([], Partition((1,)), m=1))
        assert oracle.dimension((-2,)) == 0

    def test_box_cap(self, monkeypatch):
        monkeypatch.setattr(oracle_module, "MAX_BOX", 10)
        oracle = RankOracle(complete_basis([], Partition((1,)), m=1))
        assert oracle.dimension((2,)) == 6
        with pytest.raises(InputError, match="oracle cap 10$"):
            oracle.dimension((10,))

    def test_shape_mismatch(self):
        oracle = RankOracle(complete_basis([], Partition((1,)), m=1))
        with pytest.raises(InputError):
            oracle.dimension((1, 1))

    def test_worked_value(self):
        pres = two_term_presentation(1, 1, 2)
        G = complete_basis(pres.relations, pres.P, m=1)
        assert RankOracle(G).dimension((3, 3)) == 82

    def test_long_combination_regression(self):
        # e1 enters the span only through degree-4 multipliers; short
        # truncations leave a plateau at the wrong value
        P = Partition((1,))
        r1 = ModuleElement(1, 2, {(1, ((0,), (0,))): -2, (1, ((2,), (0,))): -2})
        r2 = ModuleElement(1, 2, {(1, ((0,), (1,))): -3, (1, ((2,), (1,))): 1})
        oracle = RankOracle(complete_basis([r1, r2], P, m=2))
        assert [oracle.dimension((r,)) for r in range(5)] == [1, 3, 6, 10, 15]

    def test_extra_slack_is_stable(self):
        pres = two_term_presentation(1, 0, 2)
        G = complete_basis(pres.relations, pres.P, m=1)
        oracle, wider = RankOracle(G), RankOracle(G)
        wider.slack = tuple(s + 2 for s in wider.slack)
        for r in grid(2, 0, 2):
            assert oracle.dimension(r) == wider.dimension(r)

    def test_matches_engine_on_sample_draws(self):
        sample = [pres for label, pres in corpus_presentations() if "n2p1" in label]
        assert sample
        for pres in sample[:3]:
            G = complete_basis(pres.relations, pres.P, m=pres.m)
            oracle = RankOracle(G)
            for r in range(4):
                assert oracle.dimension((r,)) == count_UVW(G, (r,))[2]


def x1_module_oracle() -> RankOracle:
    """Oracle of A_1 / A_1 x1: dim M_r = r + 1 next to a box of C(r + 2, 2)."""
    rel = ModuleElement.single(1, 1, 1, (1,), (0,))
    return RankOracle(complete_basis([rel], Partition((1,)), m=1))


class TestRankOracleContract:
    def test_r_entries_must_be_ints(self):
        oracle = x1_module_oracle()
        for r in ((True,), (2.0,), ("2",), (None,)):
            with pytest.raises(InputError):
                oracle.dimension(r)

    def test_slack_must_be_a_nonnegative_int(self):
        oracle, wider = x1_module_oracle(), x1_module_oracle()
        wider.slack = tuple(s + 3 for s in wider.slack)
        assert oracle.dimension((2,)) == wider.dimension((2,)) == 3

    def test_rank_drop_past_the_bound_is_reported(self):
        # a slack below the certified bound leaves x1*e1 out of the first
        # pass, so the confirmation pass finds one more box pivot
        oracle = x1_module_oracle()
        oracle.slack = (-3,)
        with pytest.raises(VerificationError) as err:
            oracle.dimension((2,))
        assert str(err.value) == (
            "rank at r=(2,) dropped from 6 to 5 past the certified bound"
        )


class TestColumnGrowth:
    def test_call_order_does_not_matter(self):
        # larger boxes before smaller ones add columns out of order, so a
        # stale rank or flag array would show as a wrong count or order
        rng = random.Random(7)
        for label, pres in corpus_presentations():
            G = complete_basis(pres.relations, pres.P, m=pres.m)
            points = list(itertools.product(range(3), repeat=pres.P.p))
            counts = count_grid(G, points)
            expect = {r: card_u for r, (_, _, card_u) in zip(points, counts)}
            shuffled = points[:]
            rng.shuffle(shuffled)
            for order in (points, points[::-1], shuffled):
                oracle = RankOracle(G)
                assert {r: oracle.dimension(r) for r in order} == expect, label
                for multiples in oracle._rows.values():
                    for cols, coeffs in multiples:
                        assert all(type(v) is int for v in cols + coeffs), label
                # columns rank in descending term order, the largest first
                terms = sorted(oracle._col, key=lambda t: oracle._rank[oracle._col[t]])
                assert terms == sorted(
                    terms, key=lambda t: term_key(1, Term(*t), pres.P), reverse=True
                ), label


# completion's reduction internals, which the rank oracle must not reach
REDUCTION_INTERNALS = {"multi_reduce", "_shifted", "_term_orders", "_reducer", "s_element"}


def _code_names(code):
    """The names a code object and its nested code objects look up."""
    yield from code.co_names
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_names(const)


def _own_functions(module):
    """Every function and method defined in the module."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            for attr in vars(obj).values():
                attr = getattr(attr, "__func__", attr)  # static and class methods
                if inspect.isfunction(attr):
                    yield attr


class TestIndependence:
    def test_no_reduction_internals(self):
        assert not REDUCTION_INTERNALS & set(vars(oracle_module))
        funcs = list(_own_functions(oracle_module))
        names = {f.__qualname__ for f in funcs}
        assert {"naive_weyl_mul", "RankOracle.dimension", "RankOracle._insert"} <= names
        for f in funcs:
            assert not REDUCTION_INTERNALS & set(_code_names(f.__code__)), f.__qualname__
