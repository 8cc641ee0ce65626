"""Groebner bases of A_n^m submodules under several simultaneous orders.

Every reduction runs at a stage r in 1..p: it eliminates the greatest
eligible term under the r-th order while respecting order caps taken
from the later orders r+1..p.  Completion and its certificate reduce at
the stage of the pair at hand, membership at stage 1.  Reduction works in
place on one term dict.  The terms still to look at wait in a heap, and
each step tries only the reducers whose leader is no greater than the
term, since no greater leader divides it.  The caps move as the remainder
changes, but only downwards, so a term found ineligible never needs a
second look (see `multi_reduce`).  Work that repeats across steps is done
once: each element's leader record per stage (`terms.leader_data`), which
S-elements and the core read too; each element's row packed at a stage
(`_packed`), and each product q * g of that row with a monomial q, both
kept with the element (`_products`).  The reducers' leaders are looked up
in one index per stage (`Reducers`): completion keeps one over its
growing basis and lets each new element into a stage's index the next
time a reduction at that stage asks, and `is_groebner` builds one per
call, so no reduction sorts its reducers again.  Completion runs staged
from the last order down to the first; every nonzero reduced S-element is
inserted and re-opens the pair queues of its stage and all later stages.
A pair of one-term elements that are both x-only, or both d-only, has a
zero S-element (`_pure`), so neither completion nor `is_groebner` forms
it.

The finished basis G is certified through a core.  Element j dominates
element i when, at every stage r, j's r-th leader divides i's (the same
generator, componentwise smaller exponents) and j's later-order slack is
componentwise no larger than i's; then j is eligible wherever i is, within
any caps.  Each element has one key: at every stage, its leader's x and d
exponents, then its slack.  Between elements whose leaders sit on the same
generator at every stage, j dominates i exactly when j's key is
componentwise no greater than i's, and elements whose generators differ at
some stage never dominate one another.  So the core is, per tuple of leader
generators, the minimal keys (`numpoly.minimize`), each kept at the first
position that has it: the elements no other element dominates, and of
elements that dominate each other, which have equal keys, the first.
Domination is transitive, so every dropped element is dominated by a kept
one.  The core is certified stage by stage with `is_groebner`, and each
dropped element must reduce to zero modulo the core at stage 1.  This is
sound: the core is then a basis of its own submodule at every stage, and
the dropped elements lie in that submodule, so the core generates the same
submodule as G.  Being a basis means that for every f in the submodule some
element's r-th leader divides u_f, f's r-th leader, within the caps, and
that passes to any superset inside the submodule, so G is a basis too.  It
is also complete: if G is a basis, then every u_f is covered by some g in
G, and a core element that dominates g covers it as well, so the core is a
basis, its S-elements and the dropped elements reduce to zero, and the
certificate accepts exactly the bases that checking every pair of G does.

Completion computes on ints.  Every element is stored as its primitive
integer row: int coefficients of content 1, equal to k * g for a rational
k > 0 held as two ints (see `terms.ModuleElement`).  `s_element` combines
two rows, and `multi_reduce` carries the remainder as an int dict over
one rational scale and eliminates by pseudo-division, one gcd a step,
not one per term.  Both divide their dict by its content once, at return
(`terms._primitive`), and neither reads the `Fraction` view.  Which
terms a step may eliminate depends only on the support, so the steps,
and with them the exact results, are those of reduction over `Fraction`s.

The terms are ints too.  At stage r a term is one int whose fields are
those of `terms.term_key(r, .)`, most significant first: ord_r, the other
block orders, the exponents in stage order, then the generator (`_Layout`).
Each field is `width` bits wide and its top bit is a guard that stays
clear, so comparing two ints compares the two keys, and equal ints are
equal terms.  The key is linear in the exponents, so the product of a
monomial q with a term t is key(q) + key(t), less one correction per
term of the normal-order expansion (`_corrections`), and a leader u
divides w exactly when the guarded difference (w | guard) - u keeps every
guard bit.  The later-order caps are one more guarded difference on the
order fields of the later orders.  Every value stored stays below a
quarter of its field (`_Layout.limit`), so no sum or difference these
tests form crosses a field.  A term, slack or product that might reach
that limit raises `_Overflow` (a term is checked by its total order, a
product q * row by q plus the bitwise or of the row's keys), and the call
that met it starts over at twice the width.  Every `s_element` starts at
`_WIDTH`; a `Reducers` keeps the width its last reduction needed, so the
reductions over it do not widen again.  Each width orders and divides the
same terms the same way, so the steps, and with them the output bytes,
do not depend on it.  Only what leaves a call is decoded back to
`Term`s, through a bounded cache (`_decode`): the remainder, the
S-element and the thetas of the steps.

Each element also carries a multiplier-order bound B: a vector with
ord_j(D) <= B_j for every coefficient D of some way of writing the element
as sum_i D_i * g_i over the input relations g_i.  Inputs start at zero.
An element inserted from the pair (a, b) at stage r is
t_a * G[a] - t_b * G[b] - sum_k Q_k * G[k], with t_a, t_b the monomials
that lift the stage-r leaders to their lcm (`_lifts`) and Q_k the
quotients of the reduction.  Q_k's support is the thetas of the
reduction's steps (k, theta) (see `multi_reduce`), so the bound is the
componentwise max of ord(t_a) + B[a], ord(t_b) + B[b] and
ord(theta) + B[k] over those steps.  This is sound because every term of
a product D1 * D2 has ord_j <= ord_j(D1) + ord_j(D2), and summing terms
can only cancel them.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from functools import lru_cache, reduce
from heapq import heapify, heappop, heappush
from itertools import combinations, islice, repeat
from math import gcd
from operator import add, mul, or_, sub
from typing import Sequence

from .errors import InputError, VerificationError, WeylDimError, ZeroElementError
from .numpoly import minimize
from .terms import (
    ModuleElement,
    Term,
    _primitive,
    block_orders,
    check_cover,
    check_rank,
    leader_data,
    share_leaders,
)
from .weyl import ExponentPair, Partition, Vector, _normal_order


# Most elements a completion may hold before it gives up.
MAX_ELEMENTS = 500

# Bits per field of a packed term, its guard bit included, at which every
# call starts (see `_Layout`).
_WIDTH = 16


def _check_stage(r, P: Partition, n: int) -> None:
    """Reject a stage out of 1..p, or elements on other than P's n variables."""
    # exact type: bool is an int subclass
    if type(r) is not int or not 1 <= r <= P.p:
        raise InputError(f"stage {r!r} out of range 1..{P.p}")
    check_cover(n, P)


class _Overflow(Exception):
    """A packed value reached its field's limit: start over, twice as wide."""


class _Layout:
    """How the terms of A_n^m pack into ints at stage r of P.

    The fields, most significant first, are those of `terms.term_key(r, .)`:
    ord_r, the other block orders by ascending block index, block r's x
    then d exponents, every other block's by ascending block index, and
    the generator.  Each field is `width` bits; its top bit is a guard,
    clear in every packed term, and every value stays below `limit`, a
    quarter of the field.  A monomial packs with generator 0, so the
    exponents of w / u are w - u.  The later orders r+1..p have their
    block orders in the `tail` fields, and a slack or a cap sits there.
    """

    __slots__ = (
        "r", "limit", "mask", "guard", "high", "coef", "kc", "places",
        "d_mask", "tail", "tail_mask", "tail_guard", "tail_ones",
    )

    def __init__(self, P: Partition, r: int, width: int):
        p, n = P.p, P.n
        fields = p + 2 * n + 1
        shifts = [(fields - 1 - f) * width for f in range(fields)]
        # order field f holds block blocks[f]; later order k sits at k - 1
        blocks = [r - 1, *range(r - 1), *range(r, p)]
        ord_shift = {j: shifts[f] for f, j in enumerate(blocks)}
        a, b = P.packed_blocks[r - 1]
        order = P.packed_order
        # position in alpha + beta of each exponent field, in field order
        exps = order[a:b] + order[:a] + order[b:]
        block_of = [0] * (2 * n)
        for j, (lo, hi) in enumerate(P.blocks):
            for i in range(lo, hi):
                block_of[i] = block_of[n + i] = j
        coef = [0] * (2 * n)
        for sh, pos in zip(shifts[p:], exps):
            coef[pos] = (1 << sh) + (1 << ord_shift[block_of[pos]])
        self.r = r
        self.limit = 1 << (width - 2)
        self.mask = (1 << (width - 1)) - 1
        self.guard = sum(1 << (sh + width - 1) for sh in shifts)
        self.high = sum(1 << (sh + width - 2) for sh in shifts)
        # a packed monomial is sum(v * coef) over v = alpha + beta; kc[i]
        # packs x_i d_i, the pair each normal-order swap removes
        self.coef = tuple(coef)
        self.kc = tuple(map(add, coef[:n], coef[n:]))
        # (position in alpha + beta, shift) of every exponent field
        self.places = tuple(zip(exps, shifts[p:]))
        self.d_mask = sum(self.mask << sh for pos, sh in self.places if pos >= n)
        self.tail = tuple(shifts[r:p])
        self.tail_mask = sum(self.mask << sh for sh in self.tail)
        self.tail_guard = sum(1 << (sh + width - 1) for sh in self.tail)
        self.tail_ones = sum(1 << sh for sh in self.tail)

    def encode(self, v: Vector, gen: int = 0) -> int:
        """The packed key of x^alpha d^beta e_gen for v = alpha + beta; a
        monomial packs with gen 0."""
        # the total order bounds every field but the generator
        if sum(v) >= self.limit or gen >= self.limit:
            raise _Overflow
        return sum(map(mul, v, self.coef)) + gen

    def slack(self, s: Vector) -> int:
        """A later-order slack, one value per tail field."""
        if any(x >= self.limit for x in s):
            raise _Overflow
        return sum(x << sh for x, sh in zip(s, self.tail))

    def caps(self, keys) -> int:
        """The greatest later-order fields over keys, with the tail guards set."""
        m = self.mask
        return self.tail_guard + sum(
            max((k >> sh & m for k in keys), default=0) << sh for sh in self.tail
        )


@lru_cache(maxsize=1024)
def _layout(sizes: tuple[int, ...], r: int, width: int) -> _Layout:
    """The layout at stage r of Partition(sizes), shared by every call."""
    return _Layout(Partition(sizes), r, width)


@lru_cache(maxsize=65536)
def _decode(L: _Layout, key: int) -> Term:
    """The term packed as key under L (generator 0 for a monomial)."""
    m = L.mask
    v = [0] * len(L.coef)
    for pos, sh in L.places:
        v[pos] = key >> sh & m
    n = len(v) // 2
    return Term(key & m, ExponentPair(tuple(v[:n]), tuple(v[n:])))


def _unpack(row: dict[int, int], L: _Layout) -> dict[Term, int]:
    """A packed row keyed by `Term`s, in the same order."""
    return dict(zip(map(_decode, repeat(L), row), row.values()))


@lru_cache(maxsize=65536)
def _corrections(L: _Layout, beta: Vector, alpha: Vector) -> tuple[tuple[int, int], ...]:
    """(key correction, weight) per term of d^beta x^alpha in normal order.

    The term that removes k_i pairs x_i d_i packs as the plain product less
    sum k_i * kc_i, so x^a d^beta times x^alpha d^b expands to the keys
    key(x^a d^beta) + key(x^alpha d^b) - correction.
    """
    return tuple((sum(map(mul, k, L.kc)), wt) for k, wt in _normal_order(beta, alpha))


def _packed(g: ModuleElement, L: _Layout) -> tuple[dict[int, int], dict, int, int]:
    """g's primitive row keyed under L, in row order, g's product memo under
    L, the key of g's leader at L's stage, and the bitwise or of the keys;
    kept in g's memo."""
    hit = g._memo.get(L)
    if hit is None:
        row = {L.encode(a + b, gen): v for (gen, (a, b)), v in g.row.items()}
        hit = g._memo[L] = _memo_entry(row)
    return hit


def _memo_entry(row: dict[int, int]) -> tuple[dict[int, int], dict, int, int]:
    """What `_packed` keeps for a packed row."""
    # ints compare as the stage keys do, so the greatest is the leader; the
    # or bounds every field of every key by less than twice its max
    return row, {}, max(row, default=0), reduce(or_, row, 0)


def _products(g: ModuleElement, q: int, L: _Layout) -> tuple[tuple[int, int], ...]:
    """q * row for g's primitive row and the monomial packed as q, as
    (key, int) pairs under L.

    The pairs follow the row, each term's normal-order expansion in turn,
    unmerged.  Kept in g's memo per q, so each product is built once.
    """
    row, memo, _, bound = g._memo.get(L) or _packed(g, L)
    hit = memo.get(q)
    if hit is None:
        # every product key is at most q + t <= q + bound, field by field
        if (q + bound) & L.high:
            raise _Overflow
        if q & L.d_mask:
            beta = _decode(L, q).theta.beta
            out = []
            add_term = out.append
            for (_, (alpha, _)), (t, c) in zip(g.row, row.items()):
                t += q
                for k, wt in _corrections(L, beta, alpha):
                    add_term((t - k, c * wt))
            hit = tuple(out)
        else:
            # q has no d to meet the row's x: one product term per term
            hit = tuple([(q + t, c) for t, c in row.items()])
        memo[q] = hit
    return hit


def _monic(g: ModuleElement, P: Partition) -> ModuleElement:
    """g scaled to leading coefficient 1 under the first order, keeping its
    row up to sign, and its leader records."""
    # row = k * g = (k * c) * out for g's leading coefficient c, and k * c
    # is row's coefficient at the head
    row, lead = g.row, leader_data(g, 1, P).lead
    sign = 1
    if lead < 0:
        row, lead, sign = {t: -v for t, v in row.items()}, -lead, -1
    out = ModuleElement._trusted(g.n, g.m, row, lead, 1)
    share_leaders(g, out, P, sign)
    return out


class Reducers:
    """The reducers G of a reduction with one index per stage, kept up to date.

    `elements` is the caller's sequence, read and never changed here;
    completion appends to it, and `stage(r)` lets the new tail in the
    next time a reduction at stage r asks.  The stage-r index lists, for
    each generator, the reducers as (position, packed stage-r leader,
    packed slack, lead) in ascending negated leader, beside those negated
    leaders; `bisect_right` puts a leader after the equal ones already
    there, so equal leaders stay in position order.  That is the order a
    stable sort of all of G by negated key gives.  Every reducer must be
    nonzero and of shape (n, m), checked as it enters an index.  The
    indexes pack at `width`, which a reduction that overflows doubles,
    dropping every index.

    Not a `typing.Sequence`: that class's `__iter__` goes through
    `__getitem__`, one Python call per element.
    """

    __slots__ = ("elements", "P", "shape", "width", "_stages")

    def __init__(
        self, elements: Sequence[ModuleElement], P: Partition, n: int, m: int
    ):
        self.elements = elements
        self.P = P
        self.shape = (n, m)
        self.width = _WIDTH
        # stage r -> [elements indexed so far, {gen: (negated leaders, entries)}]
        self._stages: dict[int, list] = {}

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, i: int) -> ModuleElement:
        return self.elements[i]

    def __iter__(self):
        return iter(self.elements)

    def stage(self, r: int) -> dict[int, tuple[list, list]]:
        """The stage-r index, after letting in the elements not yet in it."""
        index = self._stages.get(r)
        if index is None:
            index = self._stages[r] = [0, {}]
        done, by_gen = index
        els = self.elements
        if done == len(els):
            return by_gen
        new = [els[i] for i in range(done, len(els))]
        if any(g.is_zero() for g in new):
            raise ZeroElementError("zero element among the reducers")
        n, m = self.shape
        for g in new:
            if (g.n, g.m) != (n, m):
                raise InputError(f"mixed module shapes: ({n},{m}) vs ({g.n},{g.m})")
        L = _layout(self.P.sizes, r, self.width)
        for i, g in enumerate(new, done):
            red = leader_data(g, r, self.P)
            gen, (alpha, beta) = red.term
            u = L.encode(alpha + beta, gen)
            negs, reds = by_gen.setdefault(gen, ([], []))
            at = bisect_right(negs, -u)
            negs.insert(at, -u)
            reds.insert(at, (i, u, L.slack(red.slack), red.lead))
        index[0] = len(els)
        return by_gen


def multi_reduce(
    f: ModuleElement,
    G: Sequence[ModuleElement] | Reducers,
    r: int,
    P: Partition,
) -> tuple[ModuleElement, list[tuple[int, ExponentPair]]]:
    """Remainder of f modulo G at stage r, and the steps that made it.

    The r-th order leads and the later orders r+1..p cap each step.
    Deterministic: each step removes the greatest eligible term under the
    r-th order, using the reducer with the greatest r-th leader (smallest
    list position on ties).  steps lists the eliminations in the order
    made, one (i, theta) each: the reducer's position in G and the monomial
    it was shifted by.  Then f = sum_i Q_i * G[i] + remainder exactly, each
    step adding one term c * theta to Q_i; the c are not kept.  Each
    eliminated term lies below the last, so no theta comes twice for one i,
    and the thetas of i's steps are exactly the support of Q_i.

    The remainder is kept as one int term dict `work` over a rational
    scale held as two ints, remainder = work / scale (at the start f's
    primitive row over its k), and reduced in place.  To eliminate w with
    reducer g, whose row has the int coefficient a at g's stage-r leader,
    let c = work[w] and h = gcd(c, a): the step multiplies work and the
    scale by a / h (both signs flipped if that is negative, which keeps
    the scale positive) and subtracts (c / h) * theta * row term by term.
    Each step removes exactly the rational multiple of theta * g that
    reduction over `Fraction`s removes, so the support after every step,
    and with it every later choice, is the same.  The content is taken
    once, at return: work is a positive multiple of the row that dividing
    at every step would hold, and the primitive form is unique.

    `work` is keyed by the terms packed at stage r (see the module
    docstring and `_Layout`), so ints compare as the stage-r keys do.  A
    leader u may eliminate w when the guarded difference (w | guard) - u
    keeps every guard bit, which is divisibility, and when, on the fields
    of the later orders i, caps - w - slack keeps its guard bits, which is
    ord_i(w) + slack_i <= cap_i.  The caps are the greatest ord_i over the
    current remainder, and they move as terms are removed, so each step
    looks again from the greatest remaining term.  The caps only fall,
    though: every term of theta * g has ord_i <= ord_i(theta) + ord_i of
    g's i-th leader, which an eligible step keeps within cap_i.  And every
    term a step adds lies below the eliminated term under the r-th order.
    So a term once found ineligible stays so and is never touched again;
    each step takes the greatest term not yet found ineligible, which is
    the term a full rescan would pick.  A cancelled term lowers the caps
    only if one of its later-order fields equals its cap, one more
    guarded difference.

    Those terms wait in a heap of negated keys.  A term enters it when it
    enters `work`, and a cancelled term is dropped only when popped:
    entries for terms no longer in `work` are skipped.  A cancelled term
    can come back, below the eliminated term, with a second entry; equal
    keys mean equal terms, so the two pop one after the other, and the
    second is skipped as well.

    The reducers are read from their stage-r index (`Reducers`): per
    generator, by descending r-th leader, equal leaders in list order,
    beside their negated packed leaders.  A `Reducers` over P and f's
    shape is reused, so completion, which appends to one, and
    `is_groebner`, which builds one per call, index each element once per
    stage; any other G gets a one-call index built the same way, with the
    same zero and shape checks.

    A step starts its scan at the first leader whose key is no greater
    than w's (`bisect_left`).  The ones it passes over cannot divide w: if
    a leader u divides w, then each block order of u is at most w's, and
    where they are all equal so are the exponents, so key(u) <= key(w),
    with equality only when u == w.  The pick stays the greatest eligible
    leader, the smallest position on ties.  Each multiple theta * row of a
    reducer's row is expanded once and kept with the reducer (`_products`).

    A call that packs a value past its field's limit starts over with the
    index at twice the width, which the index keeps.  The packed keys
    order and divide at every width as the terms do, so the steps and the
    result are those of any other width.  Only the remainder and the
    thetas of the steps are decoded back to `Term`s.
    """
    _check_stage(r, P, f.n)
    if not (isinstance(G, Reducers) and G.P == P and G.shape == (f.n, f.m)):
        G = Reducers(G, P, f.n, f.m)
    while True:
        L = _layout(P.sizes, r, G.width)
        try:
            work, sn, steps = _reduce(f, G, L)
            break
        except _Overflow:
            G.width *= 2
            G._stages.clear()
    row, kn, kd = _primitive(work, sn, f.kd)
    return ModuleElement._trusted(f.n, f.m, _unpack(row, L), kn, kd), steps


def _first_eligible(entries, w: int, caps: int, L: _Layout) -> tuple | None:
    """The first index entry (i, u, slack, lead) whose leader u may
    eliminate the term packed as w, or None.

    u divides w when (w | guard) - u keeps every guard bit, and the step
    keeps ord_i(w) + slack_i <= cap_i for each later order i when
    caps - w - slack keeps the guard bits of the later-order fields; caps
    holds the caps there, with those guard bits set.
    """
    guard, tail_guard = L.guard, L.tail_guard
    above, room = w | guard, caps - (w & L.tail_mask)
    for entry in entries:
        _, u, slack, _ = entry
        if (above - u) & guard == guard and (room - slack) & tail_guard == tail_guard:
            return entry
    return None


def _reduce(f: ModuleElement, G: Reducers, L: _Layout) -> tuple[dict, int, list]:
    """`multi_reduce`'s loop under L: the packed work dict, the scale's
    numerator and the steps."""
    by_gen = G.stage(L.r)
    elements = G.elements
    gen_mask = L.mask
    tail_mask, tail_guard, tail_ones = L.tail_mask, L.tail_guard, L.tail_ones
    steps: list[tuple[int, ExponentPair]] = []
    # the remainder is work / scale, scale = sn / f.kd > 0
    work, sn = dict(_packed(f, L)[0]), f.kn
    caps = L.caps(work)
    # terms not yet found ineligible, greatest first; cancelled terms
    # leave lazily, and one that came back has a second entry
    heap = [-t for t in work]
    heapify(heap)
    last = None
    while heap:
        w = -heappop(heap)
        if w == last or w not in work:
            continue
        last = w
        # a leader dividing w has a key no greater than w's
        negs, reds = by_gen.get(w & gen_mask, ((), ()))
        pick = _first_eligible(islice(reds, bisect_left(negs, -w), None), w, caps, L)
        if pick is None:
            continue  # stays in the remainder for good
        idx, u, _, lead = pick
        q = w - u
        theta = _decode(L, q).theta
        # work <- mult * work - e * theta * row, with the lead of theta * row
        # being lead, cancels w; mult > 0 keeps the scale positive
        h = gcd(work[w], lead)
        mult, e = lead // h, work[w] // h
        if mult < 0:
            mult, e = -mult, -e
        if mult != 1:
            work = {t: v * mult for t, v in work.items()}
            sn *= mult
        steps.append((idx, theta))
        lowered = False
        get = work.get
        for t, v in _products(elements[idx], q, L):
            s = get(t)
            if s is None:
                work[t] = -e * v
                heappush(heap, -t)
            elif s := s - e * v:
                work[t] = s
            else:
                del work[t]
                # a later-order field at its cap: the caps may fall
                if tail_guard and not lowered:
                    lowered = (caps - (t & tail_mask) - tail_ones) & tail_guard != tail_guard
        if lowered and work:
            caps = L.caps(work)
    return work, sn, steps


def s_element(
    f: ModuleElement, g: ModuleElement, r: int, P: Partition
) -> ModuleElement:
    """The critical difference of f and g with respect to the r-th order.

    Zero when the r-th leaders sit on different generators.  Formed on
    packed keys, starting over at twice the width on overflow; the result
    keeps its packed row in its memo for `multi_reduce`.
    """
    _check_stage(r, P, f.n)
    f._check_compat(g)
    if f.is_zero() or g.is_zero():
        raise ZeroElementError("critical pair with a zero element")
    ldf, ldg = leader_data(f, r, P), leader_data(g, r, P)
    if ldf.term.gen != ldg.term.gen:
        return ModuleElement.zero(f.n, f.m)
    (fa, fb), (ga, gb) = ldf.term.theta, ldg.term.theta
    # the lcm of the two leaders, as alpha + beta
    top = tuple(map(max, fa + fb, ga + gb))
    # with rows row = k * f, lead l = k * (f's leader coefficient), the
    # S-element is q_f * row_f / l_f - q_g * row_g / l_g; acc holds it
    # times l_f * l_g / h
    lf, lg = ldf.lead, ldg.lead
    h = gcd(lf, lg)
    width = _WIDTH
    while True:
        L = _layout(P.sizes, r, width)
        try:
            lcm = L.encode(top, ldf.term.gen)
            acc: dict[int, int] = {}
            for el, mult in ((f, lg // h), (g, -(lf // h))):
                # q lifts el's leader to the lcm
                for t, v in _products(el, lcm - _packed(el, L)[2], L):
                    s = acc.get(t, 0) + mult * v
                    if s:
                        acc[t] = s
                    else:
                        del acc[t]
            break
        except _Overflow:
            width *= 2
    row, kn, kd = _primitive(acc, lf * lg, h)
    out = ModuleElement._trusted(f.n, f.m, _unpack(row, L), kn, kd)
    if row:
        out._memo[L] = _memo_entry(row)
    return out


def _pure(g: ModuleElement) -> int:
    """1 for a one-term x-only element, 2 for a one-term d-only one, else 0.

    Two elements of the same nonzero kind have an S-element that is exactly
    zero at every stage: their lifts to the lcm are of that kind too, and
    a product of x-only (or of d-only) monomials has no lower terms, so
    both lifted elements are the same single term.  Kept in g's memo.
    """
    kind = g._memo.get("pure")
    if kind is None:
        kind = 0
        if len(g.row) == 1:
            (alpha, beta), = (t.theta for t in g.row)
            kind = 1 if not any(beta) else 2 if not any(alpha) else 0
        g._memo["pure"] = kind
    return kind


def _lifts(f: ModuleElement, g: ModuleElement, r: int, P: Partition):
    """The monomials that lift f's and g's r-th leaders to their lcm, or
    None when the leaders sit on different generators."""
    uf, ug = leader_data(f, r, P).term, leader_data(g, r, P).term
    if uf.gen != ug.gen:
        return None
    (fa, fb), (ga, gb) = uf.theta, ug.theta
    alpha, beta = tuple(map(max, fa, ga)), tuple(map(max, fb, gb))
    return tuple(
        ExponentPair(tuple(map(sub, alpha, a)), tuple(map(sub, beta, b)))
        for a, b in (uf.theta, ug.theta)
    )


class GroebnerBasis:
    """A completed basis with its certification marks.

    A basis from `complete_basis` also keeps `relations`, the nonzero
    input family as given, and `bounds`, aligned with `elements`: element
    k is a combination sum_i D_i * relations[i] with ord_j(D_i) <=
    bounds[k][j] (see the module docstring for the recurrence).  A
    hand-built basis has None in both.
    """

    def __init__(
        self,
        elements: Sequence[ModuleElement],
        P: Partition,
        m: int,
        certified: Sequence[int],
        relations: Sequence[ModuleElement] | None = None,
        bounds: Sequence[Vector] | None = None,
    ):
        check_rank(m)
        self.P = P
        self.m = m
        self.n = P.n
        self.elements = tuple(elements)
        self.certified = tuple(sorted(certified))
        self.relations = tuple(relations) if relations is not None else None
        self.bounds = tuple(map(tuple, bounds)) if bounds is not None else None
        for g in self.elements:
            if g.is_zero():
                raise ZeroElementError("zero element in a basis")
            if (g.n, g.m) != (self.n, m):
                raise InputError("basis element shape mismatch")

    @property
    def multiplier_bound(self) -> Vector | None:
        """The componentwise max of `bounds`, zero for no elements."""
        if self.bounds is None:
            return None
        return tuple(map(max, zip((0,) * self.P.p, *self.bounds)))

    def fully_certified(self) -> bool:
        return self.certified == tuple(range(1, self.P.p + 1))


def _core(G: Sequence[ModuleElement], P: Partition) -> list[int]:
    """Positions, ascending, of the elements of G no other element dominates.

    Of elements that dominate each other, which have equal keys, only the
    first is kept.
    """
    # per tuple of leader generators, the first position of each key
    groups: dict[tuple, dict[tuple, int]] = {}
    for i, g in enumerate(G):
        lds = [leader_data(g, r, P) for r in range(1, P.p + 1)]
        key = tuple(e for ld in lds for v in (*ld.term.theta, ld.slack) for e in v)
        groups.setdefault(tuple(ld.term.gen for ld in lds), {}).setdefault(key, i)
    return sorted(first[k] for first in groups.values() for k in minimize(first))


def is_groebner(G: GroebnerBasis, r: int) -> bool:
    """Check the stage-r criterion: pairwise S-elements reduce to zero.

    Meaningful once the later stages r+1..p already hold.
    """
    _check_stage(r, G.P, G.n)
    reducers = Reducers(G.elements, G.P, G.n, G.m)
    kinds = [_pure(g) for g in G.elements]
    for (f, kf), (g, kg) in combinations(zip(G.elements, kinds), 2):
        if kf and kf == kg:
            continue  # a zero S-element (see `_pure`), never formed
        s = s_element(f, g, r, G.P)
        if s.is_zero():
            continue
        rem, _ = multi_reduce(s, reducers, r, G.P)
        if not rem.is_zero():
            return False
    return True


def complete_basis(
    generators: Sequence[ModuleElement],
    P: Partition,
    m: int | None = None,
) -> GroebnerBasis:
    """Complete the given relations to a basis certified for every stage.

    Inserted elements are fully reduced remainders, made monic under the
    first order.  Raises if the basis grows past MAX_ELEMENTS.  Each
    element's multiplier-order bound is carried along as the module
    docstring describes, and the basis keeps them.

    The certificate checks the core, the elements no other element
    dominates, with `is_groebner` at every stage, and reduces each other
    element to zero modulo the core at stage 1.  The core then generates
    the same submodule and is a basis of it, and so is every superset of
    it inside the submodule, the whole basis included.  A whole basis that
    is a basis always passes: a core element dominating g covers every
    leader g covers.  A failed check raises VerificationError.  Every
    element is returned, the dropped ones too.
    """
    if m is not None:
        check_rank(m)
    gens = [g for g in generators if not g.is_zero()]
    if m is None:
        if not gens:
            raise InputError("cannot infer module rank from an empty family")
        m = gens[0].m
    for g in gens:
        if (g.n, g.m) != (P.n, m):
            raise InputError("generator shape mismatch")
    p = P.p
    G = [_monic(g, P) for g in gens]
    # G only grows; each stage's index lets new elements in when asked
    reducers = Reducers(G, P, P.n, m)
    bounds = [(0,) * p for _ in gens]
    # pairs of one nonzero kind have a zero S-element (see `_pure`): never queued
    kinds = [_pure(g) for g in G]
    pairs = [
        (a, b)
        for a in range(len(G))
        for b in range(a + 1, len(G))
        if not kinds[a] or kinds[a] != kinds[b]
    ]
    pending: dict[int, deque] = {r: deque(pairs) for r in range(1, p + 1)}
    while True:
        stage = 0
        for r in range(p, 0, -1):
            if pending[r]:
                stage = r
                break
        if stage == 0:
            break
        a, b = pending[stage].popleft()
        s = s_element(G[a], G[b], stage, P)
        if s.is_zero():
            continue
        rem, steps = multi_reduce(s, reducers, stage, P)
        if rem.is_zero():
            continue
        # s = t_a * G[a] - t_b * G[b], and s - rem = sum_k Q_k * G[k], the
        # support of Q_k being the thetas of the steps (k, theta)
        lifts = zip((a, b), _lifts(G[a], G[b], stage, P))
        shifts = (map(add, block_orders(q, P), bounds[k]) for k, q in [*lifts, *steps])
        bounds.append(tuple(map(max, *shifts)))
        G.append(_monic(rem, P))
        kinds.append(_pure(G[-1]))
        if len(G) > MAX_ELEMENTS:
            raise WeylDimError(
                f"completion: basis exceeded {MAX_ELEMENTS} elements "
                "(groebner.MAX_ELEMENTS); presentation too large"
            )
        t = len(G) - 1
        kt = kinds[t]
        pairs = [(k, t) for k in range(t) if not kt or kinds[k] != kt]
        for r in range(1, p + 1):
            pending[r].extend(pairs)
    core = _core(G, P)
    basis = GroebnerBasis([G[k] for k in core], P, m, certified=[])
    certified = []
    for r in range(p, 0, -1):
        if not is_groebner(basis, r):
            raise VerificationError(f"completion failed certification at stage {r}")
        certified.append(r)
    kept = set(core)
    core_reducers = Reducers(basis.elements, P, P.n, m)
    for i, g in enumerate(G):
        if i not in kept and not multi_reduce(g, core_reducers, 1, P)[0].is_zero():
            raise VerificationError("completion failed certification at stage 1")
    return GroebnerBasis(G, P, m, certified, relations=gens, bounds=bounds)


def membership(f: ModuleElement, G: GroebnerBasis) -> bool:
    """Whether f lies in the submodule generated by the basis."""
    if not G.fully_certified():
        raise InputError("membership needs a basis certified for all stages")
    if (f.n, f.m) != (G.n, G.m):
        raise InputError(
            f"element of A_{f.n}^{f.m} tested against a basis of A_{G.n}^{G.m}"
        )
    if f.is_zero():
        return True
    if not G.elements:
        return False
    rem, _ = multi_reduce(f, G.elements, 1, G.P)
    return rem.is_zero()
