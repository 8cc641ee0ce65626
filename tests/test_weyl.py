"""Normal-form arithmetic in A_n: products, orders, box counts."""
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weyldim import InputError, Partition, monomial_orders, weyl_dimension
from weyldim.weyl import ExponentPair, mono_mul

from conftest import WeylElement, unpack, weyl_mul


def vecs(n: int, hi: int = 2):
    return st.tuples(*([st.integers(0, hi)] * n))


def weyl_elements(n: int, hi: int = 2, terms: int = 3):
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.builds(
        WeylElement,
        st.just(n),
        st.dictionaries(st.tuples(vecs(n, hi), vecs(n, hi)), coeffs, max_size=terms),
    )


class TestPartition:
    def test_blocks(self):
        P = Partition((2, 1, 3))
        assert P.n == 6
        assert P.p == 3
        assert P.blocks == ((0, 2), (2, 3), (3, 6))
        assert P.collapse() == Partition((6,))

    def test_rejects_bad_sizes(self):
        with pytest.raises(InputError):
            Partition(())
        with pytest.raises(InputError):
            Partition((2, 0))
        with pytest.raises(InputError):
            Partition((1, -1))
        for sizes in (None, 5):
            with pytest.raises(InputError):
                Partition(sizes)

    def test_packed_layout(self):
        P = Partition((2, 1))
        assert P.widths == (4, 2)
        assert P.packed_blocks == ((0, 4), (4, 6))
        assert P.pack(ExponentPair((1, 2, 3), (4, 5, 6))) == (1, 2, 4, 5, 3, 6)

    @given(st.data())
    def test_unpack_inverts_pack(self, data):
        P = Partition(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
        theta = data.draw(st.builds(ExponentPair, vecs(P.n, 5), vecs(P.n, 5)))
        assert unpack(P, P.pack(theta)) == theta

    def test_list_sizes_become_a_tuple(self):
        # a partition keys caches, so it must hash whatever the sizes came as
        P = Partition([1, 1])
        assert P == Partition((1, 1)) and P.sizes == (1, 1)
        assert hash(P) == hash(Partition((1, 1)))


class TestOrders:
    def test_monomial_orders(self):
        P = Partition((1, 1))
        theta = ExponentPair((2, 0), (0, 3))
        assert monomial_orders(theta, P) == (5, (2, 3))

    def test_weyl_dimension(self):
        assert weyl_dimension(Partition((1, 1)), (3, 3)) == 100
        assert weyl_dimension(Partition((2,)), (1,)) == 5
        assert weyl_dimension(Partition((1,)), (-1,)) == 0
        with pytest.raises(InputError):
            weyl_dimension(Partition((1, 1)), (1,))

    def test_weyl_dimension_needs_ints(self):
        for bad in ((True, 2), (2.0, 2), (1.5, 2), (None, 2)):
            with pytest.raises(InputError):
                weyl_dimension(Partition((1, 1)), bad)


class TestElement:
    def test_constructor_cleans(self):
        D = WeylElement(1, [(((1,), (0,)), 2), (((1,), (0,)), -2)])
        assert D.is_zero()

    def test_constructor_merges(self):
        D = WeylElement(1, [(((1,), (0,)), 2), (((1,), (0,)), 3)])
        assert D.terms == {ExponentPair((1,), (0,)): Fraction(5)}

    def test_constructor_rejects(self):
        with pytest.raises(InputError):
            WeylElement(2, {((1,), (0, 0)): 1})
        with pytest.raises(InputError):
            WeylElement(1, {((-1,), (0,)): 1})

    def test_constructor_rejects_booleans(self):
        with pytest.raises(InputError, match="nonnegative integers"):
            WeylElement.monomial(1, (True,), (False,))
        with pytest.raises(InputError):
            WeylElement(2, {((1, 0), (0, True)): 1})

    def test_linear_ops(self):
        x = WeylElement.x(0, 1)
        d = WeylElement.d(0, 1)
        assert x + d - x == d
        assert x.scale(Fraction(1, 2)) == Fraction(1, 2) * x
        assert (x - x).is_zero()
        assert x.scale(0).is_zero()

    def test_mixed_n_rejected(self):
        with pytest.raises(InputError):
            WeylElement.one(1) + WeylElement.one(2)
        with pytest.raises(InputError):
            weyl_mul(WeylElement.one(1), WeylElement.one(2))


class TestProduct:
    def test_commutator(self):
        # d x = x d + 1
        x = WeylElement.x(0, 1)
        d = WeylElement.d(0, 1)
        assert d * x == x * d + WeylElement.one(1)

    def test_dxx_expansion(self):
        # d^2 x^2 = x^2 d^2 + 4 x d + 2
        d2 = WeylElement.monomial(1, (0,), (2,))
        x2 = WeylElement.monomial(1, (2,), (0,))
        expect = WeylElement(
            1,
            {
                ((2,), (2,)): Fraction(1),
                ((1,), (1,)): Fraction(4),
                ((0,), (0,)): Fraction(2),
            },
        )
        assert d2 * x2 == expect

    def test_mono_mul_weights(self):
        out = dict(
            (k, w) for k, w in mono_mul(ExponentPair((0,), (2,)), ExponentPair((2,), (0,)))
        )
        assert out == {
            ExponentPair((2,), (2,)): 1,
            ExponentPair((1,), (1,)): 4,
            ExponentPair((0,), (0,)): 2,
        }

    def test_two_variable_product(self):
        # (x1 d1 d2)(x1 x2 d2) = x1^2 x2 d1 d2^2 + x1^2 d1 d2 + x1 x2 d2^2 + x1 d2
        a = WeylElement.monomial(2, (1, 0), (1, 1))
        b = WeylElement.monomial(2, (1, 1), (0, 1))
        expect = WeylElement(
            2,
            {
                ((2, 1), (1, 2)): Fraction(1),
                ((2, 0), (1, 1)): Fraction(1),
                ((1, 1), (0, 2)): Fraction(1),
                ((1, 0), (0, 1)): Fraction(1),
            },
        )
        assert a * b == expect

    @given(weyl_elements(2), weyl_elements(2), weyl_elements(2))
    def test_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(weyl_elements(2), weyl_elements(2), weyl_elements(2))
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(weyl_elements(1, hi=3))
    def test_one_is_neutral(self, a):
        one = WeylElement.one(1)
        assert one * a == a
        assert a * one == a
