"""Counting kernels against slow pure-Python references."""
import itertools
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb, prod

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from weyldim import GroebnerBasis, InputError, ModuleElement, Partition, kernels
from weyldim.engine import count_grid
from weyldim.kernels import (
    MAX_CELLS,
    _capped,
    _check_cells,
    block_classes,
    block_sum_matrix,
    box_vectors,
    check_exact,
    class_table,
    classify_box,
)
from weyldim.terms import leader_data, rho

from conftest import count_not_dominated, grid, ref_box

def ref_not_dominated(V, A):
    points = A.tolist()
    return sum(
        1
        for v in V.tolist()
        if not any(all(x >= y for x, y in zip(v, a)) for a in points)
    )


def ref_classify(V, BS, L, SL, r):
    card_v = card_vp = 0
    p = BS.shape[1]
    leaders = L.tolist()
    for v, bs in zip(V.tolist(), BS.tolist()):
        divs = [
            g
            for g, lead in enumerate(leaders)
            if all(x >= y for x, y in zip(v, lead))
        ]
        if not divs:
            card_v += 1
        elif all(
            any(bs[j] + int(SL[g, j - 1]) > int(r[j]) for j in range(1, p))
            for g in divs
        ):
            card_vp += 1
    return card_v, card_vp


def random_case(rng, sizes=(2, 2), rmax=4, leaders=3, slack_hi=2):
    q, p = sum(sizes), len(sizes)
    r = tuple(rng.randint(0, rmax) for _ in range(p))
    V = box_vectors(sizes, r)
    BS = block_sum_matrix(V, sizes)
    L = np.array(
        [[rng.randint(0, 2) for _ in range(q)] for _ in range(leaders)], dtype=np.int64
    )
    SL = np.array(
        [[rng.randint(0, slack_hi) for _ in range(p - 1)] for _ in range(leaders)],
        dtype=np.int64,
    )
    return V, BS, L, SL, np.asarray(r, dtype=np.int64)


def chunk_crossing_case():
    """One box of 67,456 rows: past both chunk sizes (2^15 and 2^16)."""
    sizes, r = (2, 2), (30, 15)
    V = box_vectors(sizes, r)
    assert V.shape[0] == comb(32, 2) * comb(17, 2) > 1 << 16
    BS = block_sum_matrix(V, sizes)
    L = np.array([[3, 1, 0, 2], [0, 5, 4, 0], [10, 0, 0, 1]], dtype=np.int64)
    SL = np.array([[3], [0], [9]], dtype=np.int64)
    return V, BS, L, SL, np.asarray(r, dtype=np.int64)


def sub_bounds(rng, r, count):
    """r, count random bounds below it, and one bound with a negative entry."""
    below = [tuple(rng.randint(0, int(b)) for b in r) for _ in range(count)]
    negative = [int(b) for b in r]
    negative[rng.randrange(len(r))] = -1
    return [tuple(int(b) for b in r)] + below + [tuple(negative)]


def ref_points(sizes, L, SL, points):
    """ref_classify on the box at each point separately."""
    return [ref_classify(*ref_box(sizes, r), L, SL, r) for r in points]


def leader_masks(V, L):
    """Packed leader masks of exponent rows, as `class_table` gives them.

    Bit g % 64 of word g // 64 of a row's mask is set when the row
    dominates row g of L.
    """
    leaders = L.tolist()
    words = -(-len(leaders) // 64)
    out = []
    for v in V.tolist():
        bits = sum(
            1 << g
            for g, a in enumerate(leaders)
            if all(x >= y for x, y in zip(v, a))
        )
        out.append([bits >> (64 * i) & (1 << 64) - 1 for i in range(words)])
    return np.array(out, dtype=np.uint64).reshape(len(out), words)


def mask_bits(words):
    """The leader rows a packed mask (a list of words) marks."""
    return frozenset(
        64 * i + b for i, word in enumerate(words) for b in range(64) if word >> b & 1
    )


def classify_weighted(V, BS, L, SL, points, weights):
    """classify_box on box rows, their masks read off the leaders."""
    v, vp = classify_box(BS, leader_masks(V, L), SL, weights, points)
    return list(zip(v.tolist(), vp.tolist()))


def classify_unit(V, BS, L, SL, points):
    """classify_box with every row standing for one box term."""
    ones = np.ones(V.shape[0], dtype=np.int64)
    return classify_weighted(V, BS, L, SL, points, ones)


def random_basis(rng, sizes, count, terms):
    """A (not completed) basis of count random elements on generator 1.

    Generator 2 carries no leader.  With one term per element every
    first leader is also the leader in every order, so all slack is 0.
    """
    P = Partition(sizes)
    elements = []
    for _ in range(count):
        out = {}
        for _ in range(terms):
            alpha = tuple(rng.randint(0, 2) for _ in range(P.n))
            beta = tuple(rng.randint(0, 2) for _ in range(P.n))
            out[(1, (alpha, beta))] = Fraction(rng.choice((1, -1, 2)))
        elements.append(ModuleElement(P.n, 2, out))
    return GroebnerBasis(elements, P, 2, certified=())


def ref_grid(G, points):
    """Per-point (cardV, cardV', cardU) from ref_classify over full boxes."""
    P = G.P
    sizes2 = tuple(2 * s for s in P.sizes)
    L = np.array(
        [P.pack(leader_data(g, 1, P).term.theta) for g in G.elements], dtype=np.int64
    )
    SL = np.array([rho(g, P).d for g in G.elements], dtype=np.int64)
    out = []
    for (v, vp), r in zip(ref_points(sizes2, L, SL, points), points):
        free = prod(comb(b + q, q) for q, b in zip(sizes2, r)) if min(r) >= 0 else 0
        # generator 2 has no leaders: all of its box is in V
        out.append((v + free, vp, v + free + vp))
    return out


class TestBoxVectors:
    def test_counts_and_bounds(self):
        # against the plain enumerator of conftest, row for row
        for sizes in ((2, 1), (1, 3, 2)):
            for r in grid(len(sizes), 0, 3):
                V, BS = ref_box(sizes, r)
                assert len(V) == prod(comb(b + q, q) for q, b in zip(sizes, r))
                assert np.array_equal(box_vectors(sizes, r), V)
                assert np.array_equal(block_sum_matrix(V, sizes), BS)

    def test_empty_for_negative(self):
        assert box_vectors((2,), (-1,)).shape == (0, 2)

    def test_arity(self):
        with pytest.raises(ValueError):
            box_vectors((1, 1), (2,))

    def test_cached_arrays_frozen(self):
        V = box_vectors((1, 1), (1, 1))
        assert not V.flags.writeable

    def test_cell_budget(self):
        # refused from the binomial, before anything is allocated
        with pytest.raises(InputError, match=f"budget kernels.MAX_CELLS = {MAX_CELLS}"):
            box_vectors((2,), (6000,))
        with pytest.raises(InputError, match="box counting: the box"):
            box_vectors((1, 1), (3000, 3000))

    def test_budget_counts_cells(self):
        # a narrow array may have more rows than a wide one
        _check_cells(4_504_501, 2, "the simplex of width 2 at bound 3000")
        with pytest.raises(InputError, match="2097153 rows of 8 columns"):
            _check_cells(2_097_153, 8, "a box")


class TestBlockSums:
    def test_manual(self):
        V = np.array([[1, 2, 3], [0, 0, 5]], dtype=np.int64)
        BS = block_sum_matrix(V, (2, 1))
        assert BS.tolist() == [[3, 3], [0, 5]]
        V = np.arange(12, dtype=np.int64).reshape(2, 6)
        assert block_sum_matrix(V, (2, 1, 3)).tolist() == [[1, 2, 12], [13, 8, 30]]
        assert block_sum_matrix(V[:0], (2, 1, 3)).shape == (0, 3)


class TestCountNotDominated:
    def test_paths_agree(self):
        rng = random.Random(5)
        for sizes in ((2, 2), (4,), (1, 1, 2)):
            for _ in range(20):
                V, _, L, _, _ = random_case(rng, sizes)
                assert count_not_dominated(V, L) == ref_not_dominated(V, L)

    def test_crosses_chunk_boundary(self):
        V, _, L, _, _ = chunk_crossing_case()
        expect = ref_not_dominated(V, L)
        assert 0 < expect < V.shape[0]
        assert count_not_dominated(V, L) == expect

    def test_trivial_shapes(self):
        V = box_vectors((2,), (2,))
        empty = np.empty((0, 2), dtype=np.int64)
        assert count_not_dominated(V, empty) == V.shape[0]
        assert count_not_dominated(empty, V) == 0


class TestClassifyBox:
    def test_paths_agree(self):
        rng = random.Random(11)
        for sizes in ((2, 2), (1, 1, 2), (1, 1, 1, 1)):
            for _ in range(20):
                V, BS, L, SL, r = random_case(rng, sizes)
                points = sub_bounds(rng, r, 3)
                expect = ref_points(sizes, L, SL, points)
                assert classify_unit(V, BS, L, SL, points) == expect

    def test_single_order(self):
        rng = random.Random(13)
        for _ in range(10):
            V, BS, L, SL, r = random_case(rng, (4,))
            points = sub_bounds(rng, r, 3)
            expect = ref_points((4,), L, SL, points)
            assert classify_unit(V, BS, L, SL, points) == expect

    def test_zero_slack(self):
        # a box row never overshoots by itself, so nothing lands in V'
        rng = random.Random(17)
        for sizes in ((2, 2), (1, 1, 2), (1, 1, 1, 1)):
            for _ in range(10):
                V, BS, L, SL, r = random_case(rng, sizes, slack_hi=0)
                points = sub_bounds(rng, r, 3)
                expect = ref_points(sizes, L, SL, points)
                assert all(vp == 0 for _, vp in expect)
                assert classify_unit(V, BS, L, SL, points) == expect

    def test_crosses_chunk_boundary(self):
        V, BS, L, SL, r = chunk_crossing_case()
        points = [tuple(r.tolist()), (24, 12)]
        expect = ref_points((2, 2), L, SL, points)
        assert all(all(e) for e in expect)
        assert classify_unit(V, BS, L, SL, points) == expect

    def test_no_leaders(self):
        V = box_vectors((2,), (2,))
        BS = block_sum_matrix(V, (2,))
        L = np.empty((0, 2), dtype=np.int64)
        SL = np.empty((0, 0), dtype=np.int64)
        points = [(2,), (1,), (-1,)]
        assert classify_unit(V, BS, L, SL, points) == [(6, 0), (3, 0), (0, 0)]

    def test_more_points_than_chunk_rows(self):
        # more points than a chunk has rows: every point is read off the
        # same tables, and no temporary has rows times points
        rng = random.Random(23)
        for sizes, count in (((2,), (1 << 15) + 3), ((1, 2), 5000)):
            r = (3,) * len(sizes)
            V = box_vectors(sizes, r)
            BS = block_sum_matrix(V, sizes)
            L = np.array([[1, 0, 1][: sum(sizes)], [0, 2, 0][: sum(sizes)]])
            later = len(sizes) - 1
            SL = np.array([[1][:later], [0][:later]], dtype=np.int64)
            distinct = sub_bounds(rng, r, 3)
            points = [distinct[k % len(distinct)] for k in range(count)]
            expect = ref_points(sizes, L, SL, distinct)
            got = classify_unit(V, BS, L, SL, points)
            assert got == [expect[k % len(distinct)] for k in range(count)]

    def test_weights_scale_counts(self):
        rng = random.Random(19)
        V, BS, L, SL, r = random_case(rng, (2, 2), rmax=3, slack_hi=3)
        points = sub_bounds(rng, r, 4)
        w = np.array([rng.randint(0, 5) for _ in range(V.shape[0])], dtype=np.int64)
        # the weighted count equals the unit count of the rows repeated
        rep = np.repeat(np.arange(V.shape[0]), w)
        assert classify_weighted(V, BS, L, SL, points, w) == classify_unit(
            V[rep], BS[rep], L, SL, points
        )

    def test_leaders_past_one_mask_word(self):
        # 64 leaders past the box fill the first mask word with zeros, so
        # only the leaders 64..69 of the second word divide anything
        rng = random.Random(41)
        V, BS, L, SL, r = random_case(rng, (1, 2), rmax=4, leaders=6, slack_hi=3)
        L = np.vstack([np.full((64, 3), 9), L])
        SL = np.vstack([np.zeros((64, 1), dtype=np.int64), SL])
        assert leader_masks(V, L).shape == (V.shape[0], 2)
        points = sub_bounds(rng, r, 3)
        expect = ref_points((1, 2), L, SL, points)
        assert any(v for v, _ in expect) and any(vp for _, vp in expect)
        assert classify_unit(V, BS, L, SL, points) == expect

    def test_table_cell_budget(self):
        # the tables are priced at the points' top, before any row is read
        BS = np.zeros((1, 2), dtype=np.int64)
        masks = np.zeros((1, 0), dtype=np.uint64)
        SL = np.empty((0, 1), dtype=np.int64)
        ones = np.ones(1, dtype=np.int64)
        assert classify_box(BS, masks, SL, ones, [(3, 2)])[0].tolist() == [1]
        # two tables of 4096 x 2049 cells; the negative point is not priced
        with pytest.raises(InputError, match=r"up to bound \(4095, 2048\) would have"):
            classify_box(BS, masks, SL, ones, [(4095, 2048), (-1, 1 << 40)])

    def test_int64_edge_weights(self):
        # weights summing to 2^63 - 1: a float64 sum rounds that up to 2^63
        big = np.array([1 << 62, (1 << 62) - 1], dtype=np.int64)
        BS = np.array([[0, 0], [1, 1]], dtype=np.int64)
        points = [(1, 1), (0, 0), (1, 0), (0, 5), (-1, 3), (1, 5)]
        free = np.zeros((2, 1), dtype=np.uint64)
        v, vp = classify_box(BS, free, np.empty((0, 1), dtype=np.int64), big, points)
        assert v.tolist() == [(1 << 63) - 1, 1 << 62, 1 << 62, 1 << 62, 0, (1 << 63) - 1]
        assert vp.tolist() == [0] * len(points)
        # both rows divided by leader 0 of slack 5: V' until r_2 reaches BS_2 + 5
        divided = np.ones((2, 1), dtype=np.uint64)
        v, vp = classify_box(BS, divided, np.array([[5]]), big, points)
        assert v.tolist() == [0] * len(points)
        assert vp.tolist() == [(1 << 63) - 1, 1 << 62, 1 << 62, 0, 0, (1 << 62) - 1]
        # p = 4, both rows divided by leaders of slack (1,1,0), (1,0,1) and
        # (0,1,1): the corner (1,1,1) has coefficient 2, so 2w wraps
        BS = np.array([[0, 0, 0, 0], [1, 0, 0, 1]], dtype=np.int64)
        SL = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]], dtype=np.int64)
        points = [(1, 1, 1, 1), (0, 0, 0, 0), (1, 0, 0, 1), (0, 5, 0, 0), (-1, 3, 0, 0),
                  (1, 2, 2, 1), (1, 0, 3, 1)]
        v, vp = classify_box(BS, np.full((2, 1), 7, dtype=np.uint64), SL, big, points)
        assert v.tolist() == [0] * len(points)
        assert vp.tolist() == [0, 1 << 62, (1 << 63) - 1, 1 << 62, 0, 0, (1 << 62) - 1]

    def test_points_below_the_bound(self):
        # every point strictly below the rows' bound: rows past the points'
        # top are dropped, and large slacks cut past the top
        rng = random.Random(43)
        V = box_vectors((2, 2), (6, 6))
        BS = block_sum_matrix(V, (2, 2))
        for _ in range(10):
            _, _, L, SL, _ = random_case(rng, (2, 2), leaders=4, slack_hi=8)
            below = [tuple(rng.randint(0, 5) for _ in range(2)) for _ in range(4)]
            top = np.max(below, axis=0)
            expect = ref_points((2, 2), L, SL, below)
            assert (BS > top).any(axis=1).any()
            assert classify_unit(V, BS, L, SL, below) == expect

    def test_many_leaders_and_negative_points(self):
        # 70 leaders over two mask words, and points negative on some
        # axis; on (2,1) the slacks are 1..5, on (1,1,1) they are 70
        # distinct vectors, and all 70 divide every row from (2,2,2) up
        rng = random.Random(47)
        for sizes in ((2, 1), (1, 1, 1)):
            p = len(sizes)
            _, _, L, SL, _ = random_case(rng, sizes, leaders=70, slack_hi=4)
            SL = SL + 1
            if p > 2:
                SL = np.array(rng.sample(list(itertools.product(range(10), repeat=2)), 70))
                assert len(set(map(tuple, SL.tolist()))) > 64
            V = box_vectors(sizes, (5,) * p)
            BS = block_sum_matrix(V, sizes)
            negative = [(-1, -1), (3, -2), (-4, 2)]
            points = sub_bounds(rng, (5,) * p, 5) + [(*a, *(2,) * (p - 2)) for a in negative]
            rng.shuffle(points)
            expect = ref_points(sizes, L, SL, points)
            assert any(vp for _, vp in expect)
            assert classify_unit(V, BS, L, SL, points) == expect


def class_key(v, leaders):
    """Coordinate sum and the set of leader rows that v dominates."""
    dominated = (
        g for g, a in enumerate(leaders) if all(x >= y for x, y in zip(v, a))
    )
    return sum(v), frozenset(dominated)


def ref_classes(q, r, L):
    leaders = L.tolist()
    return Counter(class_key(v, leaders) for v in ref_box((q,), (r,))[0].tolist())


# The first leaders of a staircase document: 18 points of {|a| = 3} in
# N^4 as x0^a0 x1^a1 d2^a2 d3^a3 on one block of four variables, packed
# as x0..x3 then d0..d3.
STAIRCASE = np.array(
    [
        (a[0], a[1], 0, 0, 0, 0, a[2], a[3])
        for a in itertools.product(range(4), repeat=4)
        if sum(a) == 3 and a not in {(1, 1, 1, 0), (0, 1, 1, 1)}
    ],
    dtype=np.int64,
)


class TestCapped:
    @pytest.mark.parametrize(
        "caps, r",
        [((2, 0, 3), 3), ((1, 1, 1, 1), 2), ((0,), 0), ((4, 1, 2), 9), ((3, 3), -1)],
    )
    def test_matches_brute_force_in_order(self, caps, r):
        ref = [
            list(v)
            for v in itertools.product(*(range(c + 1) for c in caps))
            if sum(v) <= r
        ]
        U = _capped(caps, r)
        assert U.shape == (len(ref), len(caps)) and U.tolist() == ref
        assert not U.flags.writeable

    def test_many_columns_without_recursion(self):
        # one step per column, so the width is not held to the
        # interpreter's recursion limit
        U = _capped((1,) * 3000, 1)
        assert U.shape == (3001, 3000)
        # the zero row, then the unit vectors from the last column to the first
        assert (U[1:] == np.eye(3000, dtype=np.int64)[::-1]).all() and not U[0].any()


class TestBlockClasses:
    def check(self, q, r, L):
        sums, masks, counts = block_classes(q, r, L)
        assert masks.shape == (len(sums), -(-len(L) // 64))
        assert sums.tolist() == sorted(sums.tolist())
        got = Counter()
        for s, words, n in zip(sums.tolist(), masks.tolist(), counts.tolist()):
            key = s, mask_bits(words)
            assert key not in got  # one record per class
            got[key] = n
        assert got == ref_classes(q, r, L)

    @pytest.mark.parametrize("k", [0, 1, 7, 8, 9, 63, 64, 65, 130])
    def test_matches_grouping(self, k):
        # 8 and 64 leaders fill a packed byte and a packed word exactly
        rng = random.Random(23 + k)
        for q in (1, 2, 4):
            L = np.array(
                [[rng.randint(0, 3) for _ in range(q)] for _ in range(k)],
                dtype=np.int64,
            ).reshape(k, q)
            self.check(q, rng.randint(0, 6), L)

    def test_caps_below_bound_leave_long_saturated_spans(self):
        # caps (150, 200) sit far below r = 300, so the saturated clamped
        # vectors stand for runs of sums up to 300 across 45,451 simplex rows
        L = np.array([[3, 1], [0, 200], [150, 0]], dtype=np.int64)
        assert comb(302, 2) > 1 << 15
        self.check(2, 300, L)

    def test_leader_past_bound_caps_at_bound(self):
        # a column's largest exponent above r caps that column at r
        L = np.array([[12, 0, 1], [0, 2, 0], [1, 1, 40]], dtype=np.int64)
        for r in (0, 1, 5, 11):
            self.check(3, r, L)

    def test_no_leaders(self):
        # every column is saturated at cap 0: one class per sum
        L = np.empty((0, 8), dtype=np.int64)
        sums, masks, counts = block_classes(8, 10, L)
        assert sums.tolist() == list(range(11)) and masks.shape == (11, 0)
        assert counts.tolist() == [comb(s + 7, 7) for s in range(11)]
        self.check(8, 10, L)

    def test_staircase_leaders(self):
        self.check(8, 8, STAIRCASE)

    def test_weights_exact_up_to_int64(self):
        # width 32 at bound 34: the last sums weigh up to C(65, 31), within
        # int64, where products of ratios for C(t + 31, 31) would not stay
        sums, masks, counts = block_classes(32, 34, np.empty((0, 32), dtype=np.int64))
        assert sums.tolist() == list(range(35)) and masks.shape == (35, 0)
        assert counts.tolist() == [comb(s + 31, 31) for s in range(35)]
        assert int(counts.sum()) == comb(66, 32)
        # x^(1, 0, ..., 0): the rows of sum s with v_1 = 0 have no divisor
        L = np.zeros((1, 32), dtype=np.int64)
        L[0, 0] = 1
        sums, masks, counts = block_classes(32, 34, L)
        free = masks[:, 0] == 0
        assert sums[free].tolist() == list(range(35))
        assert counts[free].tolist() == [comb(s + 30, 30) for s in range(35)]
        assert sums[~free].tolist() == list(range(1, 35))
        assert counts[~free].tolist() == [comb(s + 30, 31) for s in range(1, 35)]

    @given(st.data())
    def test_matches_grouping_property(self, data):
        q = data.draw(st.integers(1, 4))
        r = data.draw(st.integers(0, 8))
        leaders = data.draw(
            st.lists(st.lists(st.integers(0, 10), min_size=q, max_size=q), max_size=6)
        )
        self.check(q, r, np.array(leaders, dtype=np.int64).reshape(-1, q))

    @pytest.mark.parametrize(
        "e, r, what, rows",
        [
            (3000, 6000, "clamped vectors", 9006001),
            (1000, 100_000, r"\(u, s\) pairs", 198101001),
        ],
        ids=["clamped-vectors", "pairs"],
    )
    def test_budgets_what_it_builds(self, e, r, what, rows):
        # caps (e, e) are far below r: (e + 1)^2 clamped vectors, or their
        # pairs across the sums up to r, break the budget at 3 columns
        L = np.array([[e, e]], dtype=np.int64)
        with pytest.raises(
            InputError,
            match=f"the {what} of the block of width 2 at bound {r} "
            f"would have {rows} rows of 3 columns",
        ):
            block_classes(2, r, L)

    def test_clamped_vectors_bounded_by_simplex(self):
        # caps of 5 in 12 columns allow 6^12 vectors, but |u| <= 3 leaves
        # C(15, 12) = 455, and the budget reads the smaller
        L = np.full((1, 12), 5, dtype=np.int64)
        assert 6**12 * 13 > MAX_CELLS
        self.check(12, 3, L)

    def test_wide_caps_do_not_multiply_out(self):
        # 800,000 caps of 1: their product, 2^800000, would take seconds;
        # past 63 factors the simplex's 800,001 rows are the smaller bound
        L = np.ones((1, 800_000), dtype=np.int64)
        start = time.perf_counter()
        with pytest.raises(InputError, match="clamped vectors .* 800001 rows of 800001"):
            block_classes(800_000, 1, L)
        assert time.perf_counter() - start < 1

    def test_never_builds_the_simplex(self):
        # the simplex of width 8 at bound 15 has 490,314 rows, 31 MB of
        # int64; its classes are read off a few hundred clamped vectors
        _capped.cache_clear()
        tracemalloc.start()
        try:
            *_, counts = block_classes(8, 15, STAIRCASE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert int(counts.sum()) == comb(23, 8)
        assert peak < 4 << 20


class TestClassTable:
    @staticmethod
    def check(sizes, r, L):
        starts = np.cumsum((0, *sizes))
        blocks = [
            block_classes(w, b, L[:, a:a + w]) for w, b, a in zip(sizes, r, starts)
        ]
        BS, masks, weights = class_table(blocks)
        assert BS.shape == (prod(len(c) for *_, c in blocks), len(sizes))
        assert masks.shape == (BS.shape[0], -(-len(L) // 64))
        box, box_sums = ref_box(sizes, r)
        assert int(weights.sum()) == box.shape[0]
        # every joined row stands for its weight in box rows with the same
        # block sums and the same dividing leaders
        ref = Counter(
            zip(
                map(tuple, box_sums.tolist()),
                map(tuple, leader_masks(box, L).tolist()),
            )
        )
        got = Counter()
        for bs, words, w in zip(BS.tolist(), masks.tolist(), weights.tolist()):
            got[tuple(bs), tuple(words)] += w
        assert got == ref

    def test_product_of_classes(self):
        L = np.array([[1, 0, 2, 1], [0, 2, 0, 0]], dtype=np.int64)
        self.check((2, 2), (4, 3), L)

    def test_masks_past_one_word(self):
        # 70 leaders on three blocks: each joined mask ANDs two words
        rng = random.Random(43)
        L = np.array([[rng.randint(0, 2) for _ in range(4)] for _ in range(70)])
        self.check((1, 1, 2), (3, 2, 2), L)

    def test_cell_budget(self):
        # 9,000,000 rows of two block sums, no mask word and one weight are
        # 27 M cells; the exponent width of the box is not counted
        wide = (
            np.zeros(3000, dtype=np.int64),
            np.zeros((3000, 0), dtype=np.uint64),
            np.ones(3000, dtype=np.int64),
        )
        with pytest.raises(InputError, match="9000000 rows of 3 columns"):
            class_table([wide, wide])
        BS, masks, weights = class_table([tuple(a[:1000] for a in wide)] * 2)
        assert BS.shape == (1_000_000, 2) and masks.shape == (1_000_000, 0)
        assert int(weights.sum()) == 1_000_000

    def test_width_counts_mask_words(self):
        # 65 leaders take two mask words: 2 block sums + 2 words + 1 weight
        narrow = (
            np.zeros(2000, dtype=np.int64),
            np.zeros((2000, 2), dtype=np.uint64),
            np.ones(2000, dtype=np.int64),
        )
        with pytest.raises(InputError, match="4000000 rows of 5 columns"):
            class_table([narrow, narrow])


class TestCheckExact:
    def test_refuses_int64_overflow(self):
        # four blocks of C(1002, 2) = 501,501 terms: about 6.3e22 in all
        check_exact((2, 2, 2), (1000, 1000, 1000))
        with pytest.raises(InputError, match="overflows the exact int64 counts"):
            check_exact((2, 2, 2, 2), (1000, 1000, 1000, 1000))

    def test_box_alone_sets_the_edge(self):
        # C(66, 32) is the last box of width 32 in int64, however far its
        # size times its bound passes 2^63
        check_exact((32,), (34,))
        assert comb(66, 32) * 66 > 1 << 63 > comb(66, 32)
        assert comb(67, 32) > 1 << 63
        with pytest.raises(
            InputError,
            match=r"^box counting: the box of block widths \(32,\) at bound \(35,\) "
            "overflows the exact int64 counts$",
        ):
            check_exact((32,), (35,))

    @pytest.mark.parametrize("q, b", [(63, 63), (10**6, 10**6), (8000, 8000)])
    def test_huge_binomials_are_not_taken(self, monkeypatch, q, b):
        taken = []
        monkeypatch.setattr(kernels, "comb", lambda n, k: taken.append(k) or comb(n, k))
        with pytest.raises(InputError, match="overflows the exact int64 counts"):
            check_exact((q,), (b,))
        assert taken == []

    def test_small_side_binomial_is_taken(self):
        # C(q + 1, 1) = q + 1 is taken exactly; min(b, q) = 1
        check_exact((10**12,), (1,))
        check_exact(((1 << 63) - 2,), (1,))
        with pytest.raises(InputError, match="overflows the exact int64 counts"):
            check_exact(((1 << 63) - 1,), (1,))


class TestCountGrid:
    @pytest.mark.parametrize(
        "sizes, count, terms, top",
        [
            ((2,), 4, 2, (4,)),
            ((1, 1), 5, 2, (4, 4)),
            ((1, 2), 12, 3, (3, 2)),
            ((1, 1, 1), 5, 2, (3, 3, 3)),
            ((1, 1), 70, 2, (4, 4)),
            ((1, 1, 1), 6, 1, (3, 2, 3)),
        ],
        ids=["p1", "p2", "p2-12-leaders", "p3", "p2-70-leaders", "p3-zero-slack"],
    )
    def test_matches_reference(self, sizes, count, terms, top):
        rng = random.Random(29 + count)
        G = random_basis(rng, sizes, count, terms)
        points = sub_bounds(rng, top, 8)
        rng.shuffle(points)  # the largest bound need not come first
        expect = ref_grid(G, points)
        overshoots = sum(1 for _, vp, _ in expect if vp)
        if terms == 1 or len(sizes) == 1:
            assert overshoots == 0  # no slack, or no later order to overshoot
        else:
            assert overshoots >= 2
        assert count_grid(G, points) == expect

    def test_only_negative_points(self):
        G = random_basis(random.Random(31), (1, 1), 3, 2)
        assert count_grid(G, [(-1, 2), (0, -3)]) == [(0, 0, 0)] * 2
        assert count_grid(G, []) == []

    def test_arity(self):
        G = random_basis(random.Random(37), (1, 1), 2, 2)
        with pytest.raises(InputError, match="length 1"):
            count_grid(G, [(1, 1), (1,)])
