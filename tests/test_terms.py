"""Term orders, leaders, shape data, and the module action."""
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from weyldim import (
    GammaTerm,
    InputError,
    ModuleElement,
    Partition,
    Term,
    ZeroElementError,
    leader,
    rho,
)
from weyldim.terms import leader_data, term_key
from weyldim.weyl import ExponentPair, mono_mul

from conftest import WeylElement, act, gamma_divides, term_compare, worked_pair
from test_weyl import weyl_elements


def t(gen, alpha, beta):
    return Term(gen, ExponentPair(tuple(alpha), tuple(beta)))


def mono_act(theta: ExponentPair, gen_shift: Term) -> list[tuple[Term, int]]:
    """theta acting on a single term, expanded with integer weights."""
    gen, tau = gen_shift
    return [(Term(gen, key), w) for key, w in mono_mul(theta, tau)]


def module_elements(n: int, m: int, hi: int = 2, terms: int = 3):
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    vec = st.tuples(*([st.integers(0, hi)] * n))
    keys = st.tuples(st.integers(1, m), st.tuples(vec, vec))
    return st.builds(
        ModuleElement, st.just(n), st.just(m), st.dictionaries(keys, coeffs, max_size=terms)
    )


class TestTermOrder:
    P = Partition((1, 1))

    def test_own_order_dominates(self):
        x1 = t(1, (1, 0), (0, 0))
        d2 = t(1, (0, 0), (0, 1))
        assert term_compare(1, x1, d2, self.P) == 1
        assert term_compare(2, x1, d2, self.P) == -1

    def test_other_orders_ascending(self):
        # equal ord_1; ord_2 decides before any exponent comparison
        a = t(1, (1, 0), (0, 2))
        b = t(1, (0, 1), (1, 1))
        assert term_compare(1, a, b, self.P) == 1

    def test_x_before_d_within_block(self):
        assert term_compare(1, t(1, (1, 0), (0, 0)), t(1, (0, 0), (1, 0)), self.P) == 1

    def test_generator_breaks_ties(self):
        a = t(1, (1, 0), (0, 1))
        b = t(2, (1, 0), (0, 1))
        for i in (1, 2):
            assert term_compare(i, a, b, self.P) == -1
        assert term_compare(1, a, a, self.P) == 0

    def test_key_rejects_bad_order(self):
        with pytest.raises(InputError):
            term_key(3, t(1, (0, 0), (0, 0)), self.P)

    def test_total_order(self):
        # antisymmetry and transitivity on a small closed sample
        sample = [
            t(g, (a1, a2), (b1, b2))
            for g in (1, 2)
            for a1 in (0, 1)
            for a2 in (0, 1)
            for b1 in (0, 1)
            for b2 in (0, 1)
        ]
        keys = {u: term_key(1, u, self.P) for u in sample}
        assert len(set(keys.values())) == len(sample)
        ordered = sorted(sample, key=keys.get)
        for u, v in zip(ordered, ordered[1:]):
            assert term_compare(1, u, v, self.P) == -1


class TestModuleElement:
    def test_validation(self):
        with pytest.raises(InputError):
            ModuleElement(1, 0, {})
        with pytest.raises(InputError):
            ModuleElement(1, 2, {(3, ((0,), (0,))): 1})
        with pytest.raises(InputError):
            ModuleElement(2, 1, {(1, ((0,), (0, 0))): 1})

    def test_rejects_booleans(self):
        with pytest.raises(InputError, match="generator index must be an integer"):
            ModuleElement(1, 1, {(True, ((1,), (0,))): 1})
        with pytest.raises(InputError, match="nonnegative integers"):
            ModuleElement(1, 1, {(1, ((True,), (0,))): 1})

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ModuleElement(1, 1, {(1,): 1}),
            lambda: ModuleElement(1, 1, {(1, ((0,),)): 1}),
            lambda: ModuleElement(1, 1, [1, 2]),
            lambda: ModuleElement(1, 1, {(1, (0, 1)): 1}),
            lambda: ModuleElement(1, 1, {(1, ((0,), (1,))): True}),
            lambda: ModuleElement(1, 1, {(1, ((0,), (1,))): 0.5}),
            lambda: ModuleElement(1, 1, {(1, ((0,), (1,))): "1.5"}),
            lambda: ModuleElement(1, 1, {(1, ((0,), (1,))): "1e3"}),
            lambda: ModuleElement.single(1, 1, 1, (0,), (1,), True),
            lambda: ModuleElement.single(1, 1, 1, (0,), (1,), 0.5),
            lambda: ModuleElement.single(1, 1, 1, (0,), (1,), "1.5"),
            lambda: ModuleElement.single(1, 1, 1, (0,), (1,), "1e3"),
            lambda: ModuleElement.basis_vector(1, 1, 1).scale(True),
            lambda: ModuleElement.basis_vector(1, 1, 1).scale(0.5),
            lambda: ModuleElement.basis_vector(1, 1, 1).scale("1.5"),
            lambda: ModuleElement.basis_vector(1, 1, 1).scale("1e3"),
        ],
        ids=[
            "key-gen-only",
            "key-one-exponent",
            "ints-for-pairs",
            "int-exponents",
            *(
                f"{via}-{what}"
                for via in ("init", "single", "scale")
                for what in ("bool", "float", "str", "str-exponent")
            ),
        ],
    )
    def test_malformed_input_refused(self, build):
        # only int (not bool) or Fraction coefficients, keyed (gen, (alpha, beta))
        with pytest.raises(InputError):
            build()

    def test_linear_ops(self):
        e1 = ModuleElement.basis_vector(1, 2, 1)
        e2 = ModuleElement.basis_vector(1, 2, 2)
        f = e1 + e2.scale(Fraction(-1, 2))
        assert f.coeff(t(2, (0,), (0,))) == Fraction(-1, 2)
        assert (f - f).is_zero()
        assert f.scale(0).is_zero()
        with pytest.raises(InputError):
            e1 + ModuleElement.basis_vector(1, 3, 1)

    def test_sorted_terms_descending(self):
        P = Partition((1, 1))
        f = ModuleElement(
            2,
            1,
            {
                (1, ((0, 0), (0, 0))): Fraction(1),
                (1, ((2, 0), (0, 0))): Fraction(1),
                (1, ((1, 0), (0, 0))): Fraction(1),
            },
        )
        keys = [term_key(1, u, P) for u, _ in f.sorted_terms(P)]
        assert keys == sorted(keys, reverse=True)

    def test_leader_of_zero(self):
        with pytest.raises(ZeroElementError):
            leader(ModuleElement.zero(1, 1), 1, Partition((1,)))

    @pytest.mark.parametrize("i", [True, 1.0])
    def test_leader_rejects_inexact_order_index(self, i):
        # i == 1, so i also finds the order-1 leader that sits in the memo
        P, h1, _, _ = worked_pair()
        leader(h1, 1, P)
        for f in (h1, ModuleElement(h1.n, h1.m, h1.terms)):
            with pytest.raises(InputError, match="order index"):
                leader(f, i, P)


class TestWorkedLeaders:
    def test_leaders_and_rho(self):
        P, h1, h2, h3 = worked_pair()
        assert leader(h1, 1, P) == (t(1, (1, 1), (1, 1)), Fraction(1))
        assert leader(h1, 2, P) == (t(2, (0, 2), (1, 1)), Fraction(1))
        assert leader(h2, 1, P) == (t(1, (1, 0), (2, 0)), Fraction(1))
        assert leader(h2, 2, P) == (t(2, (0, 1), (2, 0)), Fraction(1))
        assert leader(h3, 1, P) == (t(2, (0, 1), (2, 0)), Fraction(-1))
        assert leader(h3, 2, P) == (t(1, (0, 1), (1, 1)), Fraction(1))
        assert rho(h1, P) == GammaTerm((1,), t(1, (1, 1), (1, 1)))
        assert rho(h2, P) == GammaTerm((1,), t(1, (1, 0), (2, 0)))
        assert rho(h3, P) == GammaTerm((1,), t(2, (0, 1), (2, 0)))

    def test_gamma_divides(self):
        P, h1, h2, h3 = worked_pair()
        for f in (h1, h2, h3):
            assert gamma_divides(rho(f, P), rho(f, P))
        # heads sit on different generators
        assert not gamma_divides(rho(h1, P), rho(h3, P))
        with pytest.raises(InputError):
            gamma_divides(GammaTerm((), t(1, (0,), (0,))), GammaTerm((0,), t(1, (0,), (0,))))


class TestAction:
    def test_leibniz(self):
        # d (x f) = x (d f) + f
        f = ModuleElement(1, 1, {(1, ((2,), (1,))): Fraction(3)})
        x = WeylElement.x(0, 1)
        d = WeylElement.d(0, 1)
        assert act(d, act(x, f)) == act(x, act(d, f)) + f

    def test_shape_check(self):
        with pytest.raises(InputError):
            act(WeylElement.one(2), ModuleElement.basis_vector(1, 1, 1))

    def test_mono_act_matches(self):
        theta = ExponentPair((0, 1), (2, 0))
        u = t(2, (1, 0), (1, 1))
        f = ModuleElement(2, 2, {u: Fraction(1)})
        D = WeylElement.monomial(2, theta.alpha, theta.beta)
        expect = ModuleElement(2, 2, dict(mono_act(theta, u)))
        assert act(D, f) == expect

    @given(weyl_elements(2), weyl_elements(2), module_elements(2, 2))
    def test_action_composes(self, a, b, f):
        assert act(a * b, f) == act(a, act(b, f))

    @given(weyl_elements(2), module_elements(2, 2), module_elements(2, 2))
    def test_action_additive(self, a, f, g):
        assert act(a, f + g) == act(a, f) + act(a, g)

    def test_leader_respects_action(self):
        # acting by a monomial moves the leader to the product of terms
        P, h1, _, _ = worked_pair()
        D = WeylElement.monomial(2, (0, 1), (1, 0))
        u = leader_data(h1, 1, P).term
        v = leader_data(act(D, h1), 1, P).term
        assert v == t(u.gen, (1, 2), (2, 1))


def assert_canonical(x):
    """No zero coefficient, only Fractions, and what the public
    constructor would build from the same dict."""
    assert all(type(c) is Fraction and c != 0 for c in x.terms.values())
    if isinstance(x, ModuleElement):
        assert all(type(k) is Term and type(k.theta) is ExponentPair for k in x.terms)
        again = ModuleElement(x.n, x.m, dict(x.terms))
    else:
        assert all(type(k) is ExponentPair for k in x.terms)
        again = WeylElement(x.n, dict(x.terms))
    assert again == x
    assert again.terms == x.terms


class TestTrustedArithmetic:
    """Results built through `_trusted` stay canonical."""

    scalars = st.fractions(min_value=-3, max_value=3, max_denominator=4)

    @given(module_elements(2, 2, terms=4), module_elements(2, 2, terms=4), scalars)
    def test_module_operations(self, f, g, c):
        # f - f and f + (-f) cancel every term
        for out in (f + g, f - g, f - f, f + (-f), -f, f.scale(c), g.scale(0)):
            assert_canonical(out)
        assert (f - f).is_zero() and (f + (-f)).is_zero()
        assert f - g == f + (-g)

    @given(weyl_elements(2, terms=4), weyl_elements(2, terms=4), scalars)
    @example(  # (x1 + x2)(x2 - x1): the two x1 x2 terms cancel
        WeylElement(2, {((1, 0), (0, 0)): 1, ((0, 1), (0, 0)): 1}),
        WeylElement(2, {((0, 1), (0, 0)): 1, ((1, 0), (0, 0)): -1}),
        Fraction(1),
    )
    def test_weyl_operations(self, a, b, c):
        for out in (a + b, a - b, a - a, -a, a.scale(c), a * b, b * a, a * b - b * a):
            assert_canonical(out)
        assert a - b == a + (-b)

    @given(weyl_elements(2, terms=4), module_elements(2, 2, terms=4))
    @example(  # (x1 + x2)(x2 - x1) e1: the two x1 x2 e1 terms cancel
        WeylElement(2, {((1, 0), (0, 0)): 1, ((0, 1), (0, 0)): 1}),
        ModuleElement(2, 2, {(1, ((0, 1), (0, 0))): 1, (1, ((1, 0), (0, 0))): -1}),
    )
    def test_action(self, D, f):
        assert_canonical(act(D, f))
        # acting twice is acting by the square, so every term cancels
        diff = act(D * D, f) - act(D, act(D, f))
        assert_canonical(diff)
        assert diff.is_zero()
