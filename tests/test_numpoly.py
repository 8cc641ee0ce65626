"""Numerical polynomials: binomial basis, interpolation, counting, invariants."""
import itertools
import sys
from operator import le
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weyldim import (
    IndexSet,
    InputError,
    NumericalPolynomial,
    interpolate,
    invariant_set,
    minimize,
    omega,
)
from weyldim.numpoly import (
    MonoPoly,
    binom_int,
    binomial_sum,
    count_polynomial,
    k_numerator,
    shift_coeffs,
)

from conftest import (
    binom_product,
    canonicalize,
    enum_V_A,
    grid,
    mp_add,
    mp_eval,
    mp_mul,
    random_index_sets,
    ref_interpolate,
    ref_monomial_view,
    shifted_binomial,
)


def num_polys(p: int, deg: int = 3, coeff: int = 5):
    idx = st.tuples(*([st.integers(0, deg)] * p))
    return st.builds(
        NumericalPolynomial,
        st.just(p),
        st.dictionaries(idx, st.integers(-coeff, coeff), max_size=4),
    )


def ref_shift_weights(A: IndexSet) -> dict:
    """Sum of (-1)^|sigma| t^blockdeg(lcm sigma) over all 2^k subsets."""
    pts = minimize(A.points)
    shift_weights: dict = {(0,) * A.p: 1}
    for size in range(1, len(pts) + 1):
        sign = (-1) ** size
        for sigma in itertools.combinations(pts, size):
            bar = tuple(max(a[h] for a in sigma) for h in range(A.q))
            b = tuple(sum(bar[x:y]) for x, y in A.blocks())
            shift_weights[b] = shift_weights.get(b, 0) + sign
    return shift_weights


def ref_omega(A: IndexSet) -> NumericalPolynomial:
    """Staircase polynomial by inclusion-exclusion over all 2^k subsets.

    Exponential in the number of minimal points; kept as the reference
    for `omega` and assembled through rational monomial polynomials.
    """
    p = A.p
    sizes = A.partition
    acc: MonoPoly = {}
    for b, w in ref_shift_weights(A).items():
        if w == 0:
            continue
        term = {(0,) * p: Fraction(w)}
        for axis in range(p):
            q_j = sizes[axis]
            term = mp_mul(term, shifted_binomial(p, axis, q_j - b[axis], q_j))
        acc = mp_add(acc, term)
    return canonicalize(acc, p)


@st.composite
def index_sets(draw):
    """Multi-block point sets with duplicates and non-minimal points."""
    part = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    point = st.tuples(*([st.integers(0, 3)] * sum(part)))
    pts = draw(st.lists(point, max_size=6))
    if pts:
        bump = st.tuples(*([st.integers(0, 2)] * sum(part)))
        for a in draw(st.lists(st.sampled_from(pts), max_size=3)):
            pts += [a, tuple(x + y for x, y in zip(a, draw(bump)))]
    return IndexSet(tuple(pts), part)


class TestBinomInt:
    def test_matches_comb(self):
        from math import comb

        for t in range(8):
            for k in range(t + 1):
                assert binom_int(t, k) == comb(t, k)

    def test_negative_argument(self):
        assert binom_int(-2, 2) == 3
        assert binom_int(-1, 3) == -1
        assert binom_int(5, -1) == 0

    @given(st.integers(-20, 20), st.integers(0, 8))
    def test_pascal(self, t, k):
        assert binom_int(t, k) + binom_int(t, k + 1) == binom_int(t + 1, k + 1)


class TestNumericalPolynomial:
    def test_validation(self):
        with pytest.raises(InputError):
            NumericalPolynomial(0, {})
        with pytest.raises(InputError):
            NumericalPolynomial(2, {(1,): 1})
        with pytest.raises(InputError):
            NumericalPolynomial(1, {(-1,): 1})
        with pytest.raises(InputError):
            NumericalPolynomial(1, {(1,): Fraction(1, 2)})

    def test_variable_count_must_be_an_int(self):
        for p in (True, 2.0, 1.5, "1", None):
            with pytest.raises(InputError, match="need at least one variable"):
                NumericalPolynomial(p, {})

    def test_rejects_booleans_and_floats(self):
        for coeffs in ({(True,): 1}, {(1.0,): 1}, {(1,): True}, {(1,): 2.0}):
            with pytest.raises(InputError):
                NumericalPolynomial(1, coeffs)

    def test_eval_rejects_booleans_and_floats(self):
        f = NumericalPolynomial(1, {(1,): 2})
        for r in ((2.5,), (True,), (2.0,)):
            with pytest.raises(InputError):
                f.eval(r)

    def test_eval(self):
        # C(t1+2,2) * C(t2+1,1)
        f = NumericalPolynomial(2, {(2, 1): 1})
        assert f.eval((3, 4)) == 50
        assert f.eval((0, 0)) == 1
        with pytest.raises(InputError):
            f.eval((1,))

    def test_zero_degree_data(self):
        z = NumericalPolynomial.zero(2)
        assert z.is_zero()
        assert z.degree_data() == (-1, (-1, -1), {})

    def test_degree_data(self):
        f = NumericalPolynomial(2, {(2, 1): 2, (0, 1): -7})
        d, per, top = f.degree_data()
        assert d == 3
        assert per == (2, 1)
        assert top == {(2, 1): Fraction(1)}

    @given(num_polys(3))
    def test_degree_data_matches_monomial_view(self, f):
        mono = f.monomial_view()
        if not mono:
            assert f.degree_data() == (-1, (-1, -1, -1), {})
            return
        d = max(sum(k) for k in mono)
        per = tuple(max(k[i] for k in mono) for i in range(3))
        top = {k: c for k, c in mono.items() if sum(k) == d}
        assert f.degree_data() == (d, per, top)

    @given(num_polys(2))
    def test_monomial_view_consistent(self, f):
        mono = f.monomial_view()
        for r in grid(2, -2, 2):
            assert mp_eval(mono, r) == f.eval(r)

    @given(num_polys(2))
    def test_canonicalize_round_trip(self, f):
        assert canonicalize(f.monomial_view(), 2) == f

    @given(st.integers(1, 3).flatmap(lambda p: num_polys(p, deg=4)))
    def test_monomial_view_matches_reference(self, f):
        assert f.monomial_view() == ref_monomial_view(f)

    @given(num_polys(1, deg=4), num_polys(1, deg=4))
    def test_ring_ops(self, f, g):
        for r in range(-3, 4):
            assert (f + g).eval((r,)) == f.eval((r,)) + g.eval((r,))
            assert (f - g).eval((r,)) == f.eval((r,)) - g.eval((r,))
            assert f.scale(-3).eval((r,)) == -3 * f.eval((r,))

    def test_canonicalize_rejects_non_integer_valued(self):
        with pytest.raises(InputError):
            canonicalize({(1, 0): Fraction(1, 2)}, 2)

    def test_canonicalize_arity(self):
        with pytest.raises(InputError):
            canonicalize({(1,): Fraction(1)}, 2)


class TestInterpolate:
    def test_recovers_polynomial(self):
        target = binom_product(2, [(0, 2, 2), (1, 1, 2)])

        def f(r):
            return int(mp_eval(target, r))

        out = interpolate((3, 2), (2, 2), f)
        assert out == canonicalize(target, 2)

    def test_base_offsets(self):
        out = interpolate((5,), (1,), lambda r: 3 * r[0] + 1)
        assert out == NumericalPolynomial(1, {(1,): 3, (0,): -2})

    @pytest.mark.parametrize(
        "base, degs",
        [((0, 0), (1,)), ((0,), (-1,)), ((True,), (1,))],
        ids=["length-mismatch", "negative-degree", "bool-base"],
    )
    def test_rejects_bad_grid(self, base, degs):
        def f(r):
            raise AssertionError("sampled a rejected grid")

        with pytest.raises(InputError, match="interpolation needs"):
            interpolate(base, degs, f)

    @given(st.data())
    def test_matches_reference(self, data):
        p = data.draw(st.integers(1, 3))
        base = data.draw(st.tuples(*([st.integers(-4, 6)] * p)))
        degs = data.draw(st.tuples(*([st.integers(0, 4)] * p)))
        target = data.draw(num_polys(p, deg=4))
        out = interpolate(base, degs, target.eval)
        assert out == canonicalize(ref_interpolate(base, degs, target.eval), p)
        if all(all(map(le, k, degs)) for k in target.coeffs):
            assert out == target


class TestShiftedBinomial:
    @given(st.integers(-4, 4), st.integers(0, 4), st.integers(-6, 6))
    def test_pointwise(self, shift, k, t):
        poly = shifted_binomial(1, 0, shift, k)
        assert mp_eval(poly, (t,)) == binom_int(t + shift, k)

    def test_axis_placement(self):
        poly = shifted_binomial(3, 1, 2, 2)
        assert mp_eval(poly, (9, 1, 7)) == binom_int(3, 2)


class TestShiftCoeffs:
    @given(st.integers(0, 5), st.integers(-6, 10), st.integers(-8, 8))
    def test_pointwise(self, q, b, t):
        coeffs = shift_coeffs(q, b)
        f = NumericalPolynomial(1, {(i,): c for i, c in enumerate(coeffs)})
        assert f.eval((t,)) == binom_int(t + q - b, q)

    def test_binomial_sum_is_tensor_product(self):
        f = binomial_sum(2, [(3, [shift_coeffs(2, 5), shift_coeffs(1, 2)])])
        for r in grid(2, -2, 4):
            assert f.eval(r) == 3 * binom_int(r[0] - 3, 2) * binom_int(r[1] - 1, 1)
        assert binomial_sum(2, [(0, [(1,), (1,)])]).is_zero()


class TestMinimize:
    def test_fixed(self):
        pts = [(1, 1), (0, 2), (2, 0), (2, 2), (1, 1)]
        assert minimize(pts) == ((0, 2), (1, 1), (2, 0))

    @given(st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=8))
    def test_antichain_and_cover(self, pts):
        out = minimize(tuple(pts))
        for a, b in itertools.permutations(out, 2):
            assert not all(x <= y for x, y in zip(a, b))
        for a in pts:
            assert any(all(x <= y for x, y in zip(b, a)) for b in out)


class TestOmega:
    def test_empty_set_counts_box(self):
        A = IndexSet((), (2, 1))
        assert omega(A) == NumericalPolynomial(2, {(2, 1): 1})

    def test_origin_kills_everything(self):
        A = IndexSet(((0, 0),), (1, 1))
        assert omega(A).is_zero()

    def test_single_wall(self):
        # points below 2 in one variable: constant 2
        A = IndexSet(((2,),), (1,))
        assert omega(A) == NumericalPolynomial(1, {(0,): 2})

    def test_inclusion_exclusion_two_points(self):
        A = IndexSet(((2, 0), (0, 3)), (1, 1))
        f = omega(A)
        # direct count at a few points
        for r1, r2 in grid(2, 0, 4):
            count = sum(
                1
                for v1 in range(r1 + 1)
                for v2 in range(r2 + 1)
                if not (v1 >= 2) and not (v2 >= 3)
            )
            if r1 >= 1 and r2 >= 2:
                assert f.eval((r1, r2)) == count

    def test_index_set_validation(self):
        with pytest.raises(InputError):
            IndexSet(((0, 0),), (0, 2))
        with pytest.raises(InputError):
            IndexSet(((1,),), (1, 1))
        with pytest.raises(InputError):
            IndexSet(((-1, 0),), (1, 1))

    def test_index_set_rejects_booleans_and_floats(self):
        for points, partition in (
            (((True, False),), (True, 1)),
            (((True, 0),), (1, 1)),
            (((1, 0),), (True, 1)),
            (((1.0, 0),), (1, 1)),
            (((1, 0),), (2.0,)),
        ):
            with pytest.raises(InputError):
                IndexSet(points, partition)

    def test_matches_reference_on_fixed_sets(self):
        for A in (
            IndexSet((), (2, 1)),
            IndexSet(((0, 0, 0),), (2, 1)),
            IndexSet(((0, 0, 0), (1, 2, 0)), (2, 1)),
            IndexSet(((1, 2, 0), (1, 2, 0), (3, 2, 1), (0, 1, 1)), (2, 1)),
            IndexSet(((1, 0, 2, 0), (0, 3, 0, 1), (2, 2, 0, 0)), (4,)),
        ):
            assert omega(A) == ref_omega(A), A

    @given(index_sets())
    def test_matches_reference(self, A):
        assert omega(A) == ref_omega(A)

    def test_omega_is_count_polynomial_on_its_own_blocks(self):
        for A in random_index_sets(40, 5):
            assert count_polynomial(A.points, A.blocks(), A.partition) == omega(A), A

    @given(index_sets())
    def test_numerator_matches_subset_sum(self, A):
        expect = {b: w for b, w in ref_shift_weights(A).items() if w}
        assert k_numerator(minimize(A.points), A.blocks()) == expect

    def test_level_set_antichain(self):
        # all 56 points of {|a| = 3} in N^6 are minimal: 2^56 subsets
        pts = tuple(a for a in itertools.product(range(4), repeat=6) if sum(a) == 3)
        A = IndexSet(pts, (2, 2, 2))
        f = omega(A)
        # every lcm has block degree at most 6, so r_j >= 6 - 2 is exact
        for r in ((4, 4, 4), (5, 4, 6), (6, 6, 5)):
            assert f.eval(r) == enum_V_A(A, r), r

    def test_antichain_past_recursion_limit(self):
        # {|a| = K} in N^3 with more minimal points than Python frames
        K = 0
        while (K + 2) * (K + 1) // 2 <= sys.getrecursionlimit():
            K += 1
        pts = tuple(a for a in itertools.product(range(K + 1), repeat=3) if sum(a) == K)
        A = IndexSet(pts, (1, 1, 1))
        f = omega(A)
        # lcm coordinates reach K, so r_j >= K - 1 is exact; there the
        # survivors are exactly the points with |v| < K
        for r in ((K - 1, K - 1, K - 1), (K, K + 1, K - 1)):
            assert f.eval(r) == enum_V_A(A, r) == (K + 2) * (K + 1) * K // 6, r


class TestInvariants:
    def test_lex_maximal_support(self):
        S = [
            (1, 1, 2),
            (3, 1, 1),
            (2, 3, 0),
            (3, 0, 2),
            (1, 4, 0),
            (2, 3, 1),
            (0, 4, 1),
            (0, 3, 3),
            (1, 0, 3),
        ]
        f = NumericalPolynomial(3, {k: 1 for k in S})
        inv = invariant_set(f)
        assert inv.support == tuple(sorted(S))
        assert inv.maximal_support == (
            (0, 3, 3),
            (0, 4, 1),
            (1, 0, 3),
            (1, 4, 0),
            (3, 0, 2),
            (3, 1, 1),
        )
        assert inv.maximal_coeffs == tuple((k, 1) for k in inv.maximal_support)

    def test_diagonal_leading_coeff(self):
        # top part (1/2) t1 t2^2 + t1^2 t2 restricted to the diagonal
        f = NumericalPolynomial(2, {(1, 2): 1, (2, 1): 2})
        inv = invariant_set(f)
        assert inv.total_degree == 3
        assert inv.diagonal_leading_coeff == "3/2"
        assert dict(inv.top_monomials) == {(1, 2): "1/2", (2, 1): "1"}

    def test_zero_polynomial(self):
        inv = invariant_set(NumericalPolynomial.zero(2))
        assert inv.total_degree == -1
        assert inv.support == ()
        assert inv.maximal_support == ()
        assert inv.diagonal_leading_coeff == "0"

    @given(num_polys(2))
    def test_diagonal_coeff_matches_univariate(self, f):
        inv = invariant_set(f)
        # restrict to t1 = t2 = t; the reported value is the coefficient
        # of t^total_degree in that restriction
        mono = f.monomial_view()
        uni: dict[int, Fraction] = {}
        for k, c in mono.items():
            e = sum(k)
            uni[e] = uni.get(e, Fraction(0)) + c
        expect = uni.get(inv.total_degree, Fraction(0))
        assert inv.diagonal_leading_coeff == str(expect)
