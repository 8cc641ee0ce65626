"""Multi-order reduction, S-elements, completion, and multiplier bounds."""
import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weyldim import (
    GroebnerBasis,
    InputError,
    ModuleElement,
    Partition,
    RankOracle,
    VerificationError,
    WeylDimError,
    ZeroElementError,
    complete_basis,
    is_groebner,
    leader,
    membership,
    multi_reduce,
    rho,
    s_element,
)
from weyldim import groebner
from weyldim.terms import (
    Term,
    block_orders,
    leader_data,
    leader_term,
    term_divides,
    term_key,
)
from weyldim.weyl import ExponentPair, mono_mul

from conftest import (
    WeylElement,
    _dense_presentation,
    act,
    corpus_presentations,
    derivative_presentation,
    gamma_divides,
    is_reduced,
    random_module_element,
    worked_pair,
)
from test_terms import module_elements


# --------------------------------------------------------- reference reduction


def ref_eligible(w, g, r, caps, P):
    """Quotient theta if g can eliminate w at stage r within the order caps."""
    q = term_divides(leader_term(g, r, P), w)
    if q is None:
        return None
    qbo = block_orders(q, P)
    for i, cap in zip(range(r + 1, P.p + 1), caps):
        gi = block_orders(leader_term(g, i, P).theta, P)[i - 1]
        if qbo[i - 1] + gi > cap:
            return None
    return q


def ref_multi_reduce(f, G, r, P):
    """Reduction by whole-element arithmetic, rescanning every term per step.

    Each step sorts the remainder under the r-th order, takes the first
    term some reducer can eliminate (the reducer with the greatest r-th
    leader, smallest list position on ties) and subtracts that multiple.
    Returns the remainder, the quotients and the steps (idx, q) in order.
    """
    assert 1 <= r <= P.p
    n = f.n
    quotients = [WeylElement.zero(n) for _ in G]
    steps = []
    work = f
    while not work.is_zero():
        caps = [
            block_orders(leader_term(work, i, P).theta, P)[i - 1]
            for i in range(r + 1, P.p + 1)
        ]
        chosen = None
        for w in sorted(work.terms, key=lambda t: term_key(r, t, P), reverse=True):
            cands = []
            for idx, g in enumerate(G):
                q = ref_eligible(w, g, r, caps, P)
                if q is not None:
                    lk = term_key(r, leader_term(g, r, P), P)
                    cands.append((lk, -idx, idx, q))
            if cands:
                _, _, idx, q = max(cands)
                chosen = (w, idx, q)
                break
        if chosen is None:
            break
        w, idx, q = chosen
        g = G[idx]
        factor = work.terms[w] / leader(g, r, P)[1]
        step = WeylElement.monomial(n, q.alpha, q.beta, factor)
        quotients[idx] = quotients[idx] + step
        steps.append((idx, q))
        work = work - act(step, g)
    return work, quotients, steps


def ref_steps(f, G, r, P):
    """The reference's remainder and steps, as `multi_reduce` returns them."""
    rem, _, steps = ref_multi_reduce(f, G, r, P)
    return rem, steps


def recombine(rem, quotients, G):
    """rem + sum_i Q_i * G[i]."""
    out = rem
    for Q, g in zip(quotients, G):
        if not Q.is_zero():
            out = out + act(Q, g)
    return out


# the step theta = 1 on n = 2
ONE2 = ExponentPair((0, 0), (0, 0))


def assert_int_row(g):
    """g's stored integer row is primitive, in g's term order, and k * g."""
    row, kn, kd = g.row, g.kn, g.kd
    assert type(kn) is int and type(kd) is int
    assert kn > 0 and kd > 0 and gcd(kn, kd) == 1
    assert all(type(v) is int for v in row.values())
    assert list(row) == list(g.terms)
    assert gcd(*row.values()) == (1 if row else 0)
    k = Fraction(kn, kd)
    assert all(v == k * g.terms[t] for t, v in row.items())


def on_e1(terms):
    """The rank-1 element sum c * theta e1 of a dict theta -> c."""
    n = len(next(iter(terms))[0])
    return ModuleElement(n, 1, {(1, theta): c for theta, c in terms.items()})


# a negative factor with a multi-word numerator and denominator: an element
# scaled by it keeps its row up to sign, so its leads turn negative and its
# scale k becomes a big int
BIG = Fraction(-(2**70 + 1), 3**45)


@st.composite
def reduction_cases(draw):
    """(f, reducers, r, P) with duplicates and equal stage leaders mixed in."""
    P = Partition(draw(st.sampled_from([(1,), (2,), (1, 1), (2, 1), (1, 1, 1)])))
    n, m = P.n, draw(st.integers(1, 2))
    r = draw(st.integers(1, P.p))
    nonzero = module_elements(n, m).filter(lambda g: not g.is_zero())
    G = draw(st.lists(nonzero, min_size=1, max_size=3))
    for _ in range(draw(st.integers(0, 2))):
        g = draw(st.sampled_from(G))
        kind = draw(st.sampled_from(["duplicate", "scaled", "tail"]))
        if kind == "scaled":
            g = g.scale(draw(st.sampled_from([2, -1, Fraction(1, 3), BIG])))
        elif kind == "tail":
            # same stage leader, other coefficients below it
            head = leader_term(g, r, P)
            others = [t for t in g.terms if t != head]
            if others:
                t = draw(st.sampled_from(others))
                c = draw(st.sampled_from([1, BIG]))
                g = g + ModuleElement(n, m, {t: c * g.terms[t]})
        G.insert(draw(st.integers(0, len(G))), g)
    f = draw(module_elements(n, m, terms=4))
    for g in draw(st.lists(st.sampled_from(G), max_size=2)):
        D = draw(module_elements(n, 1, terms=2))
        D = WeylElement(n, {theta: c for (_, theta), c in D.terms.items()})
        f = f + act(D, g)
    return f, G, r, P


class TestStages:
    def test_stage_out_of_range(self):
        P = Partition((1, 1, 1))
        f = ModuleElement.single(3, 1, 1, (1, 0, 0), (0, 0, 0))
        for r in (0, 4, True):
            with pytest.raises(InputError):
                multi_reduce(f, [f], r, P)
            with pytest.raises(InputError):
                is_reduced(f, f, r, P)
            with pytest.raises(InputError, match="stage"):
                s_element(f, f, r, P)
        assert multi_reduce(f, [f], 3, P)[0].is_zero()

    def test_partition_must_cover_the_element(self):
        # x1 x2 e1 on a partition of x1 alone
        h = ModuleElement.single(2, 1, 1, (1, 1), (0, 0))
        P = Partition((1,))
        for call in (
            lambda: multi_reduce(h, [h], 1, P),
            lambda: s_element(h, h, 1, P),
            lambda: is_reduced(h, h, 1, P),
            lambda: leader(h, 1, P),
            lambda: rho(h, P),
        ):
            with pytest.raises(InputError, match="partition covers 1 variables"):
                call()

    def test_is_reduced_mixed_shapes(self):
        P = Partition((2,))
        f = ModuleElement.single(2, 1, 1, (1, 0), (0, 0))
        g = ModuleElement.single(1, 1, 1, (1,), (0,))
        with pytest.raises(InputError, match="mixed module shapes"):
            is_reduced(f, g, 1, P)


class TestReduction:
    def test_identity_random(self):
        rng = random.Random(7)
        P = Partition((1, 1))
        for _ in range(25):
            f = random_module_element(rng, 2, 2)
            G = [random_module_element(rng, 2, 2) for _ in range(2)]
            rem, steps = multi_reduce(f, G, 1, P)
            ref_rem, quots, ref = ref_multi_reduce(f, G, 1, P)
            assert (rem, steps) == (ref_rem, ref)
            assert recombine(rem, quots, G) == f
            for g in G:
                assert is_reduced(rem, g, 1, P)

    def test_deterministic(self):
        P, h1, h2, h3 = worked_pair()
        out1 = multi_reduce(h3, [h1, h2], 1, P)
        out2 = multi_reduce(h3, [h1, h2], 1, P)
        assert out1 == out2

    def test_zero_reducer_rejected(self):
        P = Partition((1,))
        f = ModuleElement.basis_vector(1, 1, 1)
        with pytest.raises(ZeroElementError):
            multi_reduce(f, [ModuleElement.zero(1, 1)], 1, P)

    def test_reduces_by_itself(self):
        P, h1, _, _ = worked_pair()
        rem, steps = multi_reduce(h1, [h1], 1, P)
        assert rem.is_zero()
        assert steps == [(0, ONE2)]
        ref_rem, quots, ref = ref_multi_reduce(h1, [h1], 1, P)
        assert (rem, steps) == (ref_rem, ref)
        assert quots == [WeylElement.one(2)]


class TestAgainstReference:
    @given(reduction_cases())
    def test_same_remainder_and_quotients(self, case):
        f, G, r, P = case
        rem, steps = multi_reduce(f, G, r, P)
        ref_rem, quots, ref = ref_multi_reduce(f, G, r, P)
        assert rem == ref_rem
        assert steps == ref
        assert recombine(rem, quots, G) == f
        # the thetas of i's steps are Q_i's support, none twice
        assert len(set(steps)) == len(steps)
        for i, Q in enumerate(quots):
            assert set(Q.terms) == {q for k, q in steps if k == i}
        for g in G:
            assert is_reduced(rem, g, r, P)
        for g in (f, rem, *G):
            assert_int_row(g)

    def test_big_negative_leads(self):
        # g1's row leads with -3 at both stages; of the six steps at each
        # stage, three multiply the remainder, and it returns with a
        # content of 3 to divide out
        P = Partition((1, 1))

        def el(terms):
            return ModuleElement(2, 1, {(1, theta): c for theta, c in terms.items()})

        g1 = el({((1, 1), (1, 0)): 15, ((2, 1), (0, 0)): 9}).scale(BIG)
        g2 = el({((1, 1), (1, 0)): 6, ((2, 0), (0, 0)): 9}).scale(BIG * BIG)
        f = el(
            {
                ((0, 0), (0, 0)): 2,
                ((0, 2), (1, 1)): 7,
                ((2, 1), (0, 0)): 2,
                ((2, 2), (1, 0)): 7,
            }
        )
        for r in (1, 2):
            out = multi_reduce(f, [g1, g2], r, P)
            assert out == ref_steps(f, [g1, g2], r, P)
            for g in (f, out[0], g1, g2):
                assert_int_row(g)

    def test_equal_head_leaders_take_the_first(self):
        P, h1, h2, _ = worked_pair()
        G = [h2, h1.scale(3), h1, h1.scale(-1)]
        rem, steps = multi_reduce(h1, G, 1, P)
        assert rem.is_zero()
        assert steps == [(1, ONE2)]
        ref_rem, quots, ref = ref_multi_reduce(h1, G, 1, P)
        assert (rem, steps) == (ref_rem, ref)
        assert quots[1] == WeylElement.one(2).scale(Fraction(1, 3))

    @given(st.data())
    def test_random_elements(self, data):
        # independent random elements, no planted multiples, p in {1, 2, 3}
        sizes = data.draw(
            st.sampled_from([(1,), (2,), (3,), (1, 1), (2, 1), (1, 2), (1, 1, 1)])
        )
        P = Partition(sizes)
        n, m = P.n, data.draw(st.integers(1, 2))
        r = data.draw(st.integers(1, P.p))
        nonzero = module_elements(n, m, hi=3).filter(lambda g: not g.is_zero())
        G = data.draw(st.lists(nonzero, min_size=1, max_size=4))
        f = data.draw(module_elements(n, m, hi=3, terms=6))
        rem, steps = multi_reduce(f, G, r, P)
        assert (rem, steps) == ref_steps(f, G, r, P)

    def test_cancelled_term_comes_back(self, monkeypatch):
        # eliminating x d^2 with d * (x d + x + 1), expanded as
        # x d^2 + d + x d + 1 + d, cancels f's d and adds it again, so d has
        # two heap entries, and cancels x d and 1 for good, so theirs are
        # stale; the second reducer then eliminates d
        P = Partition((1,))
        d = on_e1({((0,), (1,)): 1})
        f = on_e1({((1,), (2,)): 1, ((0,), (1,)): 1, ((1,), (1,)): 1, ((0,), (0,)): 1})
        g1 = on_e1({((1,), (1,)): 1, ((1,), (0,)): 1, ((0,), (0,)): 1})
        pushed = []

        def spy(heap, item):
            pushed.append(item[1])
            push(heap, item)

        push = groebner.heappush
        monkeypatch.setattr(groebner, "heappush", spy)
        three = on_e1({((0,), (0,)): 3})
        for G, rem in (([g1], d.scale(-1)), ([g1, d + three], three)):
            pushed.clear()
            out = multi_reduce(f, G, 1, P)
            assert out[0] == rem
            assert out == ref_steps(f, G, 1, P)
            # f's d came back: the heap held a second entry for it
            assert pushed[0] == next(iter(d.terms))

    def test_leader_equal_to_the_term(self):
        # the scan starts at the reducers whose leader is no greater than w:
        # x^3 is skipped, x^2 d (equal to w) is the first tried and wins
        # over x d, which divides w too
        P = Partition((1,))
        f = on_e1({((2,), (1,)): 2, ((0,), (0,)): 1})
        G = [
            on_e1({((3,), (0,)): 1}),
            on_e1({((1,), (1,)): 1}),
            on_e1({((2,), (1,)): 1, ((0,), (1,)): 1}),
        ]
        rem, steps = multi_reduce(f, G, 1, P)
        assert steps == [(2, ExponentPair((0,), (0,)))]
        assert rem == on_e1({((0,), (1,)): -2, ((0,), (0,)): 1})
        ref_rem, quots, ref = ref_multi_reduce(f, G, 1, P)
        assert (rem, steps) == (ref_rem, ref)
        assert quots[2] == WeylElement.one(1).scale(2)

    def test_equal_leaders_with_other_tails(self):
        # g1 and g3 share the leader x1^2 e1 but differ below it; g2's
        # greater leader x1^3 leads the list, g1 comes before g3, and g1's
        # tail decides the remainder
        P = Partition((2,))
        g1 = on_e1({((2, 0), (0, 0)): 1, ((0, 1), (0, 0)): 1})
        g2 = on_e1({((3, 0), (0, 0)): 1})
        g3 = on_e1({((2, 0), (0, 0)): 2, ((0, 0), (0, 0)): 1})
        f = on_e1({((2, 1), (0, 0)): 1})
        G = [g2, g1, g3]
        rem, steps = multi_reduce(f, G, 1, P)
        assert steps == [(1, ExponentPair((0, 1), (0, 0)))]
        assert rem == on_e1({((0, 2), (0, 0)): -1})
        assert (rem, steps) == ref_steps(f, G, 1, P)

    def test_caps_fall_when_a_term_leaves(self):
        # eliminating x1 x2 drops the ord_2 cap from 1 to 0, and then
        # x1 + d2 may no longer eliminate x1 (theta * d2 would reach ord_2 1)
        P = Partition((1, 1))
        w = ModuleElement.single(2, 1, 1, (1, 1), (0, 0))
        x1 = ModuleElement.single(2, 1, 1, (1, 0), (0, 0))
        g2 = x1 + ModuleElement.single(2, 1, 1, (0, 0), (0, 1))
        G = [w, g2]
        rem, steps = multi_reduce(w + x1, G, 1, P)
        assert rem == x1
        assert steps == [(0, ONE2)]
        assert (rem, steps) == ref_steps(w + x1, G, 1, P)

    def test_content_left_by_the_last_step(self):
        # x1 + 2 x2 reduced by x1 - 2 x3 (x1 leads at stage 1) leaves
        # 2 x2 + 2 x3: the returned row is x2 + x3 over k = 1/2
        P = Partition((1, 2))

        def x(i, c=1):
            alpha = tuple(int(j == i) for j in range(3))
            return ModuleElement.single(3, 1, 1, alpha, (0, 0, 0), c)

        f, g = x(0) + x(1, 2), x(0) + x(2, -2)
        rem, steps = multi_reduce(f, [g], 1, P)
        assert steps == [(0, ExponentPair((0, 0, 0), (0, 0, 0)))]
        assert rem == x(1, 2) + x(2, 2)
        assert (rem.row, rem.kn, rem.kd) == ((x(1) + x(2)).row, 1, 2)
        assert_int_row(rem)
        assert (rem, steps) == ref_steps(f, [g], 1, P)

    def test_completion_of_corpus(self, monkeypatch):
        # every reduction run while completing (and certifying) real
        # presentations agrees with the reference
        calls = []

        def both(f, G, r, P):
            out = fast(f, G, r, P)
            assert out == ref_steps(f, G, r, P)
            calls.append(out[0].is_zero())
            return out

        fast = groebner.multi_reduce
        monkeypatch.setattr(groebner, "multi_reduce", both)
        cases = [pres for _, pres in corpus_presentations()]
        cases.append(_dense_presentation(7, (1, 1, 1)))
        for pres in cases:
            complete_basis(pres.relations, pres.P, m=pres.m)
        assert len(calls) > 100 and not all(calls)

    def test_completion_rows(self, monkeypatch):
        # every row cached while completing the corpus: S-elements,
        # remainders and basis elements
        def checked(f, G, r, P):
            out = fast(f, G, r, P)
            for g in (f, out[0], *G):
                assert_int_row(g)
            return out

        fast = groebner.multi_reduce
        monkeypatch.setattr(groebner, "multi_reduce", checked)
        for _, pres in corpus_presentations():
            basis = complete_basis(pres.relations, pres.P, m=pres.m)
            for g in basis.elements:
                assert_int_row(g)


def sorted_index(G, r, P):
    """A stage-r reducer index by one stable sort of all of G by negated key."""
    by_gen = {}
    for idx, red in sorted(
        enumerate(leader_data(g, r, P) for g in G), key=lambda ir: ir[1].neg_key
    ):
        negs, reds = by_gen.setdefault(red.term.gen, ([], []))
        negs.append(red.neg_key)
        reds.append((idx, red))
    return by_gen


class TestReducers:
    def test_completion_keeps_every_stage_index(self, monkeypatch):
        # at every reduction while completing real presentations, each
        # stage index holds a prefix of G as a fresh sort would, and the
        # stage asked for holds all of G
        lagged = []

        def checked(f, G, r, P):
            assert isinstance(G, groebner.Reducers)
            for k, (count, by_gen) in G._stages.items():
                assert by_gen == sorted_index(G.elements[:count], k, P)
                lagged.append(count < len(G))
            out = fast(f, G, r, P)
            count, by_gen = G._stages[r]
            assert count == len(G)
            assert by_gen == sorted_index(G.elements, r, P)
            return out

        fast = groebner.multi_reduce
        monkeypatch.setattr(groebner, "multi_reduce", checked)
        cases = [pres for _, pres in corpus_presentations()]
        cases.append(_dense_presentation(7, (1, 1, 1)))
        for pres in cases:
            complete_basis(pres.relations, pres.P, m=pres.m)
        # some stage caught up with elements inserted while others ran
        assert any(lagged)

    def test_equal_leader_enters_after(self):
        P = Partition((1,))
        xd = ModuleElement(1, 1, {(1, ((1,), (1,))): 1})
        d = ModuleElement(1, 1, {(1, ((0,), (1,))): 1})
        xd_tail = ModuleElement(1, 1, {(1, ((1,), (1,))): 2, (1, ((0,), (0,))): 1})
        x2d2 = ModuleElement(1, 1, {(1, ((2,), (2,))): 1})
        G = [xd, d]
        reducers = groebner.Reducers(G, P, 1, 1)
        reducers.stage(1)
        G += [xd_tail, x2d2]
        _, reds = reducers.stage(1)[1]
        assert [i for i, _ in reds] == [3, 0, 2, 1]
        assert reducers.stage(1) == sorted_index(G, 1, P)
        # of the equal leaders the first position reduces
        f = ModuleElement(1, 1, {(1, ((2,), (1,))): 1})
        assert multi_reduce(f, reducers, 1, P)[1][0][0] == 0

    @given(reduction_cases())
    def test_plain_list_and_index_agree(self, case):
        f, G, r, P = case
        reducers = groebner.Reducers(G, P, f.n, f.m)
        out = multi_reduce(f, G, r, P)
        assert multi_reduce(f, reducers, r, P) == out
        # a second reduction reuses the index, and other stages get their own
        assert multi_reduce(f, reducers, r, P) == out
        for k in range(1, P.p + 1):
            assert multi_reduce(f, reducers, k, P) == multi_reduce(f, G, k, P)

    def test_index_path_checks_its_elements(self):
        P = Partition((1,))
        f = ModuleElement.basis_vector(1, 1, 1)
        zero = groebner.Reducers([f, ModuleElement.zero(1, 1)], P, 1, 1)
        with pytest.raises(ZeroElementError) as exc:
            multi_reduce(f, zero, 1, P)
        assert str(exc.value) == "zero element among the reducers"
        other = ModuleElement.basis_vector(1, 2, 1)
        for G in ([f, other], groebner.Reducers([f, other], P, 1, 1)):
            with pytest.raises(InputError) as exc:
                multi_reduce(f, G, 1, P)
            assert str(exc.value) == "mixed module shapes: (1,1) vs (1,2)"
        # an element of another shape than the index's is checked like a list
        for G in ([f], groebner.Reducers([f], P, 1, 1)):
            with pytest.raises(InputError) as exc:
                multi_reduce(other, G, 1, P)
            assert str(exc.value) == "mixed module shapes: (1,2) vs (1,1)"


class TestShifted:
    def fresh(self, g, q):
        return [
            (Term(gen, key), cg * wt)
            for (gen, theta), cg in g.row.items()
            for key, wt in mono_mul(q, theta)
        ]

    def test_memo_is_the_expansion(self):
        P, h1, h2, _ = worked_pair()
        g = (h1 + h2).scale(BIG)
        for q in (((0, 0), (0, 0)), ((1, 0), (0, 2)), ((2, 1), (1, 1))):
            q = ExponentPair(*q)
            out = groebner._shifted(g, q)
            assert list(out) == self.fresh(g, q)
            assert groebner._shifted(g, q) is out

    def test_monic_copy_has_its_own_memo(self):
        # the copy's row is the parent's with every sign flipped
        P, h1, h2, _ = worked_pair()
        g = (h1 + h2).scale(-3)
        q = ExponentPair((1, 1), (1, 0))
        parent = groebner._shifted(g, q)
        copy = groebner._monic(g, P)
        assert list(copy.row.items()) == [(t, -v) for t, v in g.row.items()]
        out = groebner._shifted(copy, q)
        assert out == tuple((t, -v) for t, v in parent)
        assert list(out) == self.fresh(copy, q)
        assert copy._memo["shifted"] is not g._memo["shifted"]


def ref_s_element(f, g, r, P):
    """The critical difference by element arithmetic over Fractions."""
    (uf, cf), (ug, cg) = leader(f, r, P), leader(g, r, P)
    if uf.gen != ug.gen:
        return ModuleElement.zero(f.n, f.m)
    lcm = tuple(map(max, uf.theta.alpha + uf.theta.beta, ug.theta.alpha + ug.theta.beta))
    n = f.n

    def lift(u, c, h):
        q = [a - b for a, b in zip(lcm, u.theta.alpha + u.theta.beta)]
        return act(WeylElement.monomial(n, q[:n], q[n:], 1 / c), h)

    return lift(uf, cf, f) - lift(ug, cg, g)


class TestSElement:
    @given(reduction_cases())
    def test_against_reference(self, case):
        # pairs of drawn reducers, some scaled by negative multi-word factors
        _, G, r, P = case
        for f, g in itertools.combinations(G, 2):
            s = s_element(f, g, r, P)
            assert s == ref_s_element(f, g, r, P)
            if not s.is_zero():
                assert_int_row(s)

    def test_worked_pair_stage2(self):
        P, h1, h2, h3 = worked_pair()
        assert s_element(h1, h2, 2, P) == h3

    def test_worked_pair_stage1(self):
        P, h1, h2, h3 = worked_pair()
        assert s_element(h1, h2, 1, P) == h3

    def test_cross_generator_zero(self):
        P = Partition((1,))
        f = ModuleElement.basis_vector(1, 2, 1)
        g = ModuleElement.basis_vector(1, 2, 2)
        assert s_element(f, g, 1, P).is_zero()

    def test_zero_input(self):
        P = Partition((1,))
        f = ModuleElement.basis_vector(1, 1, 1)
        with pytest.raises(ZeroElementError):
            s_element(f, ModuleElement.zero(1, 1), 1, P)


class TestCompletion:
    def test_worked_pair(self):
        P, h1, h2, h3 = worked_pair()
        G = complete_basis([h1, h2], P)
        assert G.certified == (1, 2)
        assert G.fully_certified()
        for r in (1, 2):
            assert is_groebner(G, r)
        shapes = [rho(g, P) for g in G.elements]
        for f in (h1, h2, h3):
            assert any(gamma_divides(s, rho(f, P)) for s in shapes)

    def test_keeps_scaled_generators(self):
        P, h1, h2, _ = worked_pair()
        G = complete_basis([h1.scale(3), h2], P)
        assert G.elements[0] == h1
        assert G.elements[1] == h2

    def test_zero_generators_dropped(self):
        P, h1, h2, _ = worked_pair()
        G = complete_basis([ModuleElement.zero(2, 2), h1, h2], P)
        assert G.elements[0] == h1
        assert len(G.relations) == 2

    def test_empty_family_needs_rank(self):
        P = Partition((1,))
        with pytest.raises(InputError):
            complete_basis([], P)
        G = complete_basis([], P, m=2)
        assert G.elements == ()
        assert G.fully_certified()

    def test_element_cap(self, monkeypatch):
        P, h1, h2, _ = worked_pair()
        monkeypatch.setattr(groebner, "MAX_ELEMENTS", 2)
        with pytest.raises(WeylDimError, match="basis exceeded 2 elements"):
            complete_basis([h1, h2], P)

    def test_shape_mismatch(self):
        P = Partition((1, 1))
        with pytest.raises(InputError):
            complete_basis([ModuleElement.basis_vector(1, 1, 1)], P)

    def test_list_partition(self):
        P, h1, h2, _ = worked_pair()
        listed = Partition(list(P.sizes))
        assert leader(h1, 1, listed) == leader(h1, 1, P)
        G = complete_basis([h1, h2], listed)
        assert G.P == P and G.fully_certified()
        assert G.elements == complete_basis([h1, h2], P).elements


class TestCoreCertificate:
    def test_slack_blocks_domination(self):
        # j's leaders divide i's at both stages, but j's stage-1 slack is 2
        # against i's 0: within i's own caps j cannot reduce i at stage 1
        P = Partition((1, 1))
        i = ModuleElement(2, 1, {(1, ((0, 0), (1, 2))): Fraction(1)})
        j = ModuleElement(
            2, 1, {(1, ((0, 0), (1, 0))): Fraction(1), (1, ((0, 0), (0, 2))): Fraction(1)}
        )
        assert [leader_data(j, r, P).slack for r in (1, 2)] == [(2,), ()]
        assert [leader_data(i, r, P).slack for r in (1, 2)] == [(0,), ()]
        for r in (1, 2):
            assert term_divides(leader_term(j, r, P), leader_term(i, r, P)) is not None
        assert not multi_reduce(i, [j], 1, P)[0].is_zero()
        assert groebner._core([j, i], P) == [0, 1]

    def test_mutual_domination_keeps_first(self):
        P, h1, h2, _ = worked_pair()
        assert groebner._core([h2, h1, h1.scale(-3)], P) == [0, 1]
        assert groebner._core([h1.scale(2), h1], P) == [0]

    def test_dominated_element_dropped(self):
        P = Partition((1,))
        d = ModuleElement(1, 1, {(1, ((0,), (1,))): Fraction(1)})
        xd = ModuleElement(1, 1, {(1, ((1,), (1,))): Fraction(1)})
        assert groebner._core([xd, d], P) == [1]

    def test_membership_step_is_live(self, monkeypatch):
        # a core that misses a needed element must not certify the basis
        P, h1, h2, _ = worked_pair()
        monkeypatch.setattr(groebner, "_core", lambda G, P: [0])
        with pytest.raises(VerificationError, match="failed certification at stage 1"):
            complete_basis([h1, h2], P)

    def test_whole_basis_passes_every_pair(self):
        cases = [pres for _, pres in corpus_presentations()]
        cases.append(_dense_presentation(11, (2, 1)))
        for pres in cases:
            G = complete_basis(pres.relations, pres.P, m=pres.m)
            for r in range(pres.P.p, 0, -1):
                assert is_groebner(G, r)
        # the dense case certifies through a proper core
        assert len(groebner._core(G.elements, G.P)) < len(G.elements)


def multipliers(P: Partition, bound):
    """Every monomial theta with block_orders(theta, P) <= bound."""
    per_block = [
        [
            v
            for v in itertools.product(range(cap + 1), repeat=2 * (b - a))
            if sum(v) <= cap
        ]
        for (a, b), cap in zip(P.blocks, bound)
    ]
    for choice in itertools.product(*per_block):
        alpha, beta = [], []
        for v in choice:
            alpha += v[: len(v) // 2]
            beta += v[len(v) // 2 :]
        yield WeylElement.monomial(P.n, tuple(alpha), tuple(beta))


def echelon_reduce(pivots: dict, terms) -> dict:
    """Remainder of terms modulo monic pivot rows keyed by their greatest term."""
    v = dict(terms)
    while v:
        lead = max(v)
        piv = pivots.get(lead)
        if piv is None:
            return v
        c = v[lead]
        for t, x in piv.items():
            s = v.get(t, 0) - c * x
            if s:
                v[t] = s
            else:
                del v[t]
    return v


def in_multiplier_span(G: GroebnerBasis, bound) -> bool:
    """Whether every basis element lies in the Q-span of the multiples
    theta * g, g in G.relations, block_orders(theta) <= bound."""
    pivots: dict = {}
    for D in multipliers(G.P, bound):
        for g in G.relations:
            v = echelon_reduce(pivots, act(D, g).terms)
            if v:
                lead = max(v)
                pivots[lead] = {t: x / v[lead] for t, x in v.items()}
    return all(not echelon_reduce(pivots, el.terms) for el in G.elements)


# multiplier bounds of the rank oracle's inputs, as recorded from the exact
# provenance rows completion once carried; a looser recurrence would make
# `check` enumerate more multipliers on the benchmark's documents
EXACT_BOUNDS = {
    "dense-n1-0": (4,),
    **{f"dense-n1-{k}": (0,) for k in range(1, 8)},
    **{f"dense-n2p1-{k}": (0,) for k in range(4)},
    "dense-n2p1-4": (9,),
    "dense-n2p1-5": (2,),
    "dense-n2p2-0": (3, 1),
    "dense-n2p2-1": (5, 3),
    "dense-n2p2-2": (0, 0),
    "dense-n2p2-3": (0, 0),
    "dense-n2p2-4": (2, 1),
    "dense-n2p2-5": (0, 0),
    **{f"light-n3p1-{k}": (0,) for k in range(4)},
    **{f"mono-n3p2-{k}": (0, 0) for k in range(3)},
    "sparse-n3p3": (0, 0, 0),
    "dense-s11-(2, 1)": (9, 6),
    "dense-s13-(2, 2)": (4, 7),
}


@lru_cache(maxsize=None)
def bound_cases() -> dict:
    cases = dict(corpus_presentations())
    for seed, sizes in ((11, (2, 1)), (13, (2, 2))):
        cases[f"dense-s{seed}-{sizes}"] = _dense_presentation(seed, sizes)
    return cases


class TestProvenance:
    def check_bound(self, gens, G):
        assert G.relations == tuple(g for g in gens if not g.is_zero())
        assert in_multiplier_span(G, G.multiplier_bound)

    def test_worked_pair(self):
        P, h1, h2, _ = worked_pair()
        gens = [h1.scale(-2), h2]
        self.check_bound(gens, complete_basis(gens, P))

    def test_random(self):
        rng = random.Random(23)
        P = Partition((1, 1))
        for _ in range(10):
            gens = [random_module_element(rng, 2, 2) for _ in range(2)]
            self.check_bound(gens, complete_basis(gens, P, m=2))

    def test_orders_on_plain_family(self):
        pres = derivative_presentation()
        G = complete_basis(pres.relations, pres.P, m=1)
        assert len(G.elements) == 2
        assert G.multiplier_bound == (0, 0)

    def test_orders_require_provenance(self):
        # a hand-built basis carries no bound, so the oracle refuses it
        P, h1, h2, _ = worked_pair()
        G = GroebnerBasis([h1, h2], P, 2, certified=[])
        assert G.relations is None and G.multiplier_bound is None
        with pytest.raises(InputError):
            RankOracle(G)

    def test_orders_catch_long_combinations(self):
        # e1 lies in the span only through degree-4 multipliers
        P = Partition((1,))
        r1 = ModuleElement(
            1, 2, {(1, ((0,), (0,))): Fraction(-2), (1, ((2,), (0,))): Fraction(-2)}
        )
        r2 = ModuleElement(
            1, 2, {(1, ((0,), (1,))): Fraction(-3), (1, ((2,), (1,))): Fraction(1)}
        )
        G = complete_basis([r1, r2], P, m=2)
        assert ModuleElement.basis_vector(1, 2, 1) in G.elements
        assert G.multiplier_bound == (4,)
        self.check_bound([r1, r2], G)
        assert not in_multiplier_span(G, (3,))

    @pytest.mark.parametrize("label", sorted(EXACT_BOUNDS))
    def test_bound_matches_exact_orders(self, label):
        pres = bound_cases()[label]
        G = complete_basis(pres.relations, pres.P, m=pres.m)
        assert G.multiplier_bound == EXACT_BOUNDS[label]


class TestMembership:
    def test_combination_is_member(self):
        P, h1, h2, _ = worked_pair()
        G = complete_basis([h1, h2], P)
        D = WeylElement.monomial(2, (1, 0), (0, 2), Fraction(2, 3))
        f = act(D, h1) - act(WeylElement.x(1, 2), h2)
        assert membership(f, G)

    def test_basis_vector_not_member(self):
        P, h1, h2, _ = worked_pair()
        G = complete_basis([h1, h2], P)
        assert not membership(ModuleElement.basis_vector(2, 2, 1), G)

    def test_shape_checked_before_shortcuts(self):
        # a zero element, and any element tested against an empty basis,
        # must have the basis' shape too, as reduction checks for the rest
        P, h1, h2, _ = worked_pair()
        G = complete_basis([h1, h2], P)
        empty = complete_basis([], Partition((1,)), m=1)
        for f, basis in (
            (ModuleElement.zero(2, 1), G),
            (ModuleElement.zero(1, 2), G),
            (ModuleElement.zero(2, 1), empty),
            (ModuleElement.basis_vector(3, 5, 1), empty),
        ):
            with pytest.raises(InputError):
                membership(f, basis)
        assert membership(ModuleElement.zero(1, 1), empty)
        assert not membership(ModuleElement.basis_vector(1, 1, 1), empty)

    def test_needs_certification(self):
        P, h1, h2, _ = worked_pair()
        G = GroebnerBasis([h1, h2], P, 2, certified=[2])
        with pytest.raises(InputError):
            membership(h1, G)
