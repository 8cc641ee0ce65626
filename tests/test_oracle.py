"""The brute-force cross-checks: word products, point counts, rank."""
import inspect
import itertools
import random
import types
from collections import Counter
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weyldim import (
    ExponentPair,
    GroebnerBasis,
    IndexSet,
    InputError,
    ModuleElement,
    Partition,
    RankOracle,
    VerificationError,
    complete_basis,
    count_grid,
    count_UVW,
    minimize,
    omega,
    weyl_dimension,
)
from weyldim import oracle as oracle_module
from weyldim.terms import term_key

from conftest import (
    WeylElement,
    _dense_presentation,
    assert_oracle_keys,
    column_term,
    corpus_presentations,
    enum_V_A,
    grid,
    naive_weyl_mul,
    ref_multiple,
    two_term_presentation,
    unpack,
    weyl_mul,
)
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
        with pytest.raises(InputError, match=r"exceeds the budget oracle\.MAX_BOX = 10$"):
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
        oracle = RankOracle(long_combination_basis())
        assert [oracle.dimension((r,)) for r in range(5)] == [1, 3, 6, 10, 15]

    def test_extra_slack_is_stable(self):
        # every element's bound widened by 2 adds rows, not pivots in a box
        for label, pres in corpus_presentations():
            G = complete_basis(pres.relations, pres.P, m=pres.m)
            oracle, wider = RankOracle(G), RankOracle(widened(G, 2))
            for r in grid(pres.P.p, 0, 2):
                assert oracle.dimension(r) == wider.dimension(r), (label, r)

    def test_matches_engine_on_sample_draws(self):
        sample = [pres for label, pres in corpus_presentations() if "n2p1" in label]
        assert sample
        for pres in sample[:3]:
            G = complete_basis(pres.relations, pres.P, m=pres.m)
            oracle = RankOracle(G)
            for r in range(4):
                assert oracle.dimension((r,)) == count_UVW(G, (r,))[2]


def x1_module_basis() -> GroebnerBasis:
    """Basis of A_1 / A_1 x1: dim M_r = r + 1 next to a box of C(r + 2, 2)."""
    rel = ModuleElement.single(1, 1, 1, (1,), (0,))
    return complete_basis([rel], Partition((1,)), m=1)


def x1_module_oracle() -> RankOracle:
    return RankOracle(x1_module_basis())


def long_combination_basis() -> GroebnerBasis:
    """Two relations on P = (1,) whose basis holds e1 only through
    degree-4 multipliers."""
    P = Partition((1,))
    r1 = ModuleElement(1, 2, {(1, ((0,), (0,))): -2, (1, ((2,), (0,))): -2})
    r2 = ModuleElement(1, 2, {(1, ((0,), (1,))): -3, (1, ((2,), (1,))): 1})
    return complete_basis([r1, r2], P, m=2)


def widened(G: GroebnerBasis, by: int) -> GroebnerBasis:
    """G with every element's multiplier bound raised by `by` in each block."""
    return rebased(G, bounds=[tuple(v + by for v in b) for b in G.bounds])


def understate(oracle: RankOracle, bound: tuple[int, ...]) -> None:
    """Give every element of the oracle's basis the multiplier bound `bound`,
    which the constructor refuses when it is negative."""
    oracle.element_bounds = [(order, bound) for order, _ in oracle.element_bounds]


def built_rows(oracle: RankOracle) -> int:
    """Relation multiples the oracle has built so far."""
    return sum(map(len, oracle._rows.values()))


class TestRankOracleContract:
    def test_r_entries_must_be_ints(self):
        oracle = x1_module_oracle()
        for r in ((True,), (2.0,), ("2",), (None,)):
            with pytest.raises(InputError):
                oracle.dimension(r)

    def test_slack_must_be_a_nonnegative_int(self):
        G = x1_module_basis()
        oracle, wider = RankOracle(G), RankOracle(widened(G, 2))
        assert oracle.dimension((2,)) == wider.dimension((2,)) == 3

    def test_no_element_fits(self):
        # x1*e1 has order 1, so box (0,) meets no element: the count is the
        # box size, and only the confirmation builds rows, the relation's
        oracle = x1_module_oracle()
        assert oracle.dimension((0,)) == 1
        assert list(oracle._rows) == [(0, 0)] and built_rows(oracle) == 1

    def test_rank_drop_past_the_bound_is_reported(self):
        # a bound below the certified one leaves x1*e1 out of the first
        # pass, so the confirmation pass finds one more box pivot
        oracle = x1_module_oracle()
        understate(oracle, (-2,))
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
                terms = [
                    column_term(t, pres.P)
                    for t in sorted(oracle._col, key=lambda t: oracle._rank[oracle._col[t]])
                ]
                assert terms == sorted(
                    terms, key=lambda t: term_key(1, t, pres.P), reverse=True
                ), label


class TestChains:
    def test_chain_equals_point_calls(self):
        for label, pres in corpus_presentations():
            assert pres.P.p in (1, 2, 3), label
            G = complete_basis(pres.relations, pres.P, m=pres.m)
            single = RankOracle(G)
            expect = {r: single.dimension(r) for r in grid(pres.P.p, 0, 2)}
            # the whole grid, in lexicographic order, from a fresh oracle
            assert list(RankOracle(G).grid(2).items()) == sorted(expect.items()), label
            # and from the oracle that answered the points, so the grid's
            # chains reuse its rows and add columns to its state
            assert single.grid(2) == expect, label
            assert_oracle_keys(single)

    def test_one_point_chain_is_a_point_call(self):
        oracle = x1_module_oracle()
        chain = [oracle._point((3,))]
        assert oracle._eliminate(chain) == [oracle.dimension((3,))] == [4]

    def test_negative_points_build_no_rows(self):
        # a bound with a negative entry has an empty box
        oracle = x1_module_oracle()
        assert [oracle.dimension((v,)) for v in (-3, -1)] == [0, 0]
        assert not oracle._rows and not oracle._col
        assert [oracle.dimension((v,)) for v in (0, 2)] == [1, 3]
        oracle = RankOracle(two_block_basis())
        assert oracle.dimension((-1, 3)) == oracle.dimension((3, -1)) == 0
        assert not oracle._rows and not oracle._col

    def test_understated_slack_is_reported_at_the_first_point(self):
        # the confirmation at the top bound adds x1*e1 to every box of the
        # chain; the first point whose count drops is named
        oracle = x1_module_oracle()
        understate(oracle, (-2,))
        with pytest.raises(VerificationError) as err:
            oracle.grid(2)
        assert str(err.value) == (
            "rank at r=(1,) dropped from 3 to 2 past the certified bound"
        )

    def test_grid_is_checked_before_any_row(self, monkeypatch):
        # a budget of exactly the rows at (1, 1) passes the whole (0, *)
        # chain and refuses (1, 2) of the next one; no chain is built
        G = two_block_basis()
        first = RankOracle(G)
        first.dimension((1, 1))
        rows = built_rows(first)
        monkeypatch.setattr(oracle_module, "MAX_ROWS", rows)
        assert RankOracle(G).grid(1) == {r: first.dimension(r) for r in grid(2, 0, 1)}
        oracle = RankOracle(G)
        with pytest.raises(InputError) as err:
            oracle.grid(2)
        assert str(err.value).endswith(
            f" at r=(1, 2) are over the budget oracle.MAX_ROWS = {rows}"
        )
        assert not oracle._rows and not oracle._col

    def test_points_are_read_lazily(self):
        # a grid too large to list stops at the first box over the cap
        oracle = RankOracle(complete_basis([], Partition((1,)), m=1))
        read = []
        point = oracle._point

        def counted(r):
            read.append(r)
            return point(r)

        oracle._point = counted
        with pytest.raises(InputError, match="box of size 10011 exceeds"):
            oracle.grid(10**9)
        assert read[-1] == (140,) and len(read) == 141

    @pytest.mark.parametrize("rmax", [2.5, True, -1, "2"], ids=repr)
    def test_grid_refuses_a_bad_rmax(self, rmax):
        oracle = x1_module_oracle()
        with pytest.raises(InputError) as err:
            oracle.grid(rmax)
        assert str(err.value) == f"rmax must be a nonnegative integer, got {rmax!r}"
        assert not oracle._rows and not oracle._col


def rebased(G: GroebnerBasis, **change) -> GroebnerBasis:
    """G's elements with its relations and multiplier bounds replaced."""
    fields = {"relations": G.relations, "bounds": G.bounds}
    fields.update(change)
    return GroebnerBasis(G.elements, G.P, G.m, G.certified, **fields)


def two_block_basis() -> GroebnerBasis:
    pres = two_term_presentation(1, 1, 2)
    return complete_basis(pres.relations, pres.P, m=1)


@pytest.mark.parametrize(
    "r, message",
    [
        ((1,), "r has length 1, expected 2"),
        ((True, 1), "r must consist of integers: (True, 1)"),
        ((1.0, 1), "r must consist of integers: (1.0, 1)"),
        (5, "r must consist of integers: 5"),
    ],
    ids=["short", "bool", "float", "scalar"],
)
@pytest.mark.parametrize(
    "count",
    [
        lambda G, r: count_grid(G, [r]),
        lambda G, r: RankOracle(G).dimension(r),
        lambda G, r: weyl_dimension(G.P, r),
    ],
    ids=["count_grid", "dimension", "weyl_dimension"],
)
def test_bound_refused_alike(count, r, message):
    # the engine, the oracle and the box size check a bound in one place
    with pytest.raises(InputError) as err:
        count(two_block_basis(), r)
    assert str(err.value) == message


class TestBasisValidation:
    def test_bound_without_relations(self):
        with pytest.raises(InputError, match="no relations"):
            RankOracle(rebased(two_block_basis(), relations=None))

    def test_bound_too_short(self):
        with pytest.raises(InputError, match="length 1, expected 2"):
            RankOracle(rebased(two_block_basis(), bounds=[(1,)]))

    def test_bound_too_long(self):
        with pytest.raises(InputError, match="length 3, expected 2"):
            RankOracle(rebased(two_block_basis(), bounds=[(1, 1, 1)]))

    @pytest.mark.parametrize("bound", [(1.5, 0), (True, 0), ("1", 0), (-1, 0)])
    def test_bound_entries(self, bound):
        with pytest.raises(InputError, match="nonnegative integers"):
            RankOracle(rebased(two_block_basis(), bounds=[bound]))

    def test_one_bound_per_element(self):
        # a short list would drop the last elements from every row bound
        G = long_combination_basis()
        count = len(G.elements)
        assert count > 1
        for bounds in (G.bounds[:-1], G.bounds + G.bounds[:1], ()):
            with pytest.raises(InputError) as err:
                RankOracle(rebased(G, bounds=bounds))
            assert str(err.value) == (
                f"basis carries {len(bounds)} multiplier bounds, expected "
                f"{count}, one per element"
            )

    def test_relation_shapes(self):
        G = two_block_basis()
        wide = ModuleElement.single(3, 1, 1, (1, 0, 0), (0, 0, 0))
        with pytest.raises(InputError, match="relation 0 is not an element of A_2"):
            RankOracle(rebased(G, relations=(wide,)))


@st.composite
def oracle_cases(draw):
    """Relations with fractional coefficients and multipliers on p blocks."""
    p = draw(st.integers(1, 3))
    P = Partition(tuple(draw(st.lists(st.integers(1, 2), min_size=p, max_size=p))))
    n, m = P.n, draw(st.integers(1, 2))
    exps = st.tuples(*[st.integers(0, 2)] * n)
    coeff = st.fractions(-5, 5, max_denominator=6).filter(bool)
    term = st.tuples(st.integers(1, m), exps, exps, coeff)
    rels = tuple(
        ModuleElement(n, m, [((gen, (a, b)), c) for gen, a, b, c in terms])
        for terms in draw(
            st.lists(
                st.lists(term, min_size=1, max_size=3, unique_by=lambda t: t[:3]),
                min_size=1,
                max_size=2,
            )
        )
    )
    thetas = draw(st.lists(st.builds(ExponentPair, exps, exps), min_size=1, max_size=4))
    return P, m, rels, thetas


class TestShiftedRows:
    @given(oracle_cases())
    def test_rows_match_direct_expansion(self, case):
        P, m, rels, thetas = case
        zero = [(0,) * P.p] * len(rels)
        oracle = RankOracle(GroebnerBasis(rels, P, m, (), relations=rels, bounds=zero))
        for theta in thetas:
            oracle._multiples(P.pack(theta))
        term_of = {c: column_term(t, P) for t, c in oracle._col.items()}
        for theta in thetas:
            for (cols, coeffs), g in zip(oracle._rows[P.pack(theta)], rels):
                assert all(type(v) is int for v in cols + coeffs)
                assert gcd(*coeffs) == 1
                assert {term_of[c]: v for c, v in zip(cols, coeffs)} == ref_multiple(
                    theta, g
                )
        oracle._pivot_keys([(0,) * P.p])
        assert_oracle_keys(oracle)

    def test_one_expansion_per_d_part(self, monkeypatch):
        calls = []
        real = oracle_module.mono_mul

        def spy(t1, t2):
            calls.append((t1, t2))
            return real(t1, t2)

        monkeypatch.setattr(oracle_module, "mono_mul", spy)
        for label, pres in corpus_presentations():
            oracle = RankOracle(complete_basis(pres.relations, pres.P, m=pres.m))
            calls.clear()
            for r in grid(pres.P.p, 0, 1):
                oracle.dimension(r)
            zero = (0,) * pres.P.n
            d_parts = {unpack(pres.P, t).beta for t in oracle._rows}
            expect = Counter(
                (ExponentPair(zero, b), t.theta)
                for b in d_parts
                for g in pres.relations
                for t in g.terms
            )
            assert Counter(calls) == expect, label
            # keys of columns added over several calls
            assert_oracle_keys(oracle)


class TestInsert:
    def test_content_is_divided_once_at_store(self):
        # reducing against the pivot at key 0 leaves 2*c1 + 2*c2, which is
        # stored divided by its content 2 under its lead, key 1
        pivots = {0: {0: 1, 1: 1}}
        assert RankOracle._insert(pivots, {0: 1, 1: 3, 2: 2}) == 1
        assert pivots == {0: {0: 1, 1: 1}, 1: {1: 1, 2: 1}}

    def test_row_in_the_span_stores_nothing(self):
        # the same row now reduces through content 2 to nothing
        pivots = {0: {0: 1, 1: 1}, 1: {1: 1, 2: 1}}
        assert RankOracle._insert(pivots, {0: 1, 1: 3, 2: 2}) == -1
        assert pivots == {0: {0: 1, 1: 1}, 1: {1: 1, 2: 1}}


class TestRowBudget:
    def test_refused_before_any_row(self, monkeypatch):
        # one row fewer than the point needs
        G = two_block_basis()
        first = RankOracle(G)
        first.dimension((1, 2))
        rows = built_rows(first) - 1
        assert rows > 0
        monkeypatch.setattr(oracle_module, "MAX_ROWS", rows)
        oracle = RankOracle(G)
        with pytest.raises(InputError) as err:
            oracle.dimension((1, 2))
        assert str(err.value) == (
            f"rank oracle: {rows + 1} relation multiples at r=(1, 2) are over the "
            f"budget oracle.MAX_ROWS = {rows}"
        )
        assert not oracle._rows and not oracle._d_rows and not oracle._col

    @pytest.mark.parametrize(
        "seed, sizes, r, value", [(11, (2, 1), (2, 2), 180), (13, (2, 2), (1, 1), 50)]
    )
    def test_dense_box_that_no_element_fits(self, seed, sizes, r, value):
        # the whole basis' bound would ask for 200,200 and 300,300 rows
        pres = _dense_presentation(seed, sizes)
        oracle = RankOracle(complete_basis(pres.relations, pres.P, m=pres.m))
        assert oracle.dimension(r) == value
        assert built_rows(oracle) <= 2

    def test_counts_the_rows_it_builds(self, monkeypatch):
        for label, pres in corpus_presentations()[::4]:
            G = complete_basis(pres.relations, pres.P, m=pres.m)
            r = (1,) * pres.P.p
            oracle = RankOracle(G)
            value = oracle.dimension(r)
            rows = built_rows(oracle)
            with monkeypatch.context() as budget:
                budget.setattr(oracle_module, "MAX_ROWS", rows)
                assert RankOracle(G).dimension(r) == value, label
                budget.setattr(oracle_module, "MAX_ROWS", rows - 1)
                with pytest.raises(InputError, match=f"^rank oracle: {rows} relation"):
                    RankOracle(G).dimension(r)


# completion's reduction internals, which the rank oracle must not reach
REDUCTION_INTERNALS = {"multi_reduce", "_shifted", "_term_orders", "leader_data", "s_element"}


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
        assert {"RankOracle._d_row", "RankOracle.dimension", "RankOracle._insert"} <= names
        for f in funcs:
            assert not REDUCTION_INTERNALS & set(_code_names(f.__code__)), f.__qualname__
