"""Counting kernels against slow pure-Python references."""
import random
from math import comb

import numpy as np
import pytest

from weyldim.kernels import (
    block_sum_matrix,
    box_vectors,
    classify_box,
    count_not_dominated,
)

from conftest import grid

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
            any(bs[j] + int(SL[g, j]) > int(r[j]) for j in range(1, p)) for g in divs
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
        [[0] + [rng.randint(0, slack_hi) for _ in range(p - 1)] for _ in range(leaders)],
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
    SL = np.array([[0, 3], [0, 0], [0, 9]], dtype=np.int64)
    return V, BS, L, SL, np.asarray(r, dtype=np.int64)


class TestBoxVectors:
    def test_counts_and_bounds(self):
        sizes = (2, 1)
        for r in grid(2, 0, 3):
            V = box_vectors(sizes, r)
            assert V.shape[0] == len(set(map(tuple, V.tolist())))
            assert V.shape[0] == comb(r[0] + 2, 2) * (r[1] + 1)
            BS = block_sum_matrix(V, sizes)
            assert (BS <= np.asarray(r)).all()

    def test_empty_for_negative(self):
        assert box_vectors((2,), (-1,)).shape == (0, 2)

    def test_arity(self):
        with pytest.raises(ValueError):
            box_vectors((1, 1), (2,))

    def test_cached_arrays_frozen(self):
        V = box_vectors((1, 1), (1, 1))
        assert not V.flags.writeable


class TestBlockSums:
    def test_manual(self):
        V = np.array([[1, 2, 3], [0, 0, 5]], dtype=np.int64)
        BS = block_sum_matrix(V, (2, 1))
        assert BS.tolist() == [[3, 3], [0, 5]]


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
        for sizes in ((2, 2), (1, 1, 2)):
            for _ in range(20):
                V, BS, L, SL, r = random_case(rng, sizes)
                expect = ref_classify(V, BS, L, SL, r)
                assert classify_box(V, BS, L, SL, r) == expect

    def test_single_order(self):
        rng = random.Random(13)
        for _ in range(10):
            V, BS, L, SL, r = random_case(rng, (4,))
            assert classify_box(V, BS, L, SL, r) == ref_classify(V, BS, L, SL, r)

    def test_zero_slack(self):
        # a box row never overshoots by itself, so nothing lands in V'
        rng = random.Random(17)
        for sizes in ((2, 2), (1, 1, 2)):
            for _ in range(10):
                V, BS, L, SL, r = random_case(rng, sizes, slack_hi=0)
                expect = ref_classify(V, BS, L, SL, r)
                assert expect[1] == 0
                assert classify_box(V, BS, L, SL, r) == expect

    def test_crosses_chunk_boundary(self):
        V, BS, L, SL, r = chunk_crossing_case()
        expect = ref_classify(V, BS, L, SL, r)
        assert all(expect)
        assert classify_box(V, BS, L, SL, r) == expect

    def test_no_leaders(self):
        V = box_vectors((2,), (2,))
        BS = block_sum_matrix(V, (2,))
        L = np.empty((0, 2), dtype=np.int64)
        SL = np.empty((0, 1), dtype=np.int64)
        assert classify_box(V, BS, L, SL, np.asarray((2,))) == (V.shape[0], 0)
