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
S-elements and the core read too; each product q * g of a reducer's
integer row with a monomial q, kept with the element (`_shifted`); and
each term's order data per stage and partition, in a bounded cache shared
by every call (`_term_orders`).  The reducers' leaders are looked up in
one index per stage (`Reducers`): completion keeps one over its growing
basis and lets each new element into a stage's index the next time a
reduction at that stage asks, and `is_groebner` builds one per call, so
no reduction sorts its reducers again.  Completion runs staged from the
last order down to the first; every nonzero reduced S-element is inserted
and re-opens the pair queues of its stage and all later stages.

The finished basis G is certified through a core.  Element j dominates
element i when, at every stage r, j's r-th leader divides i's (the same
generator, componentwise smaller exponents) and j's later-order slack is
componentwise no larger than i's; then j is eligible wherever i is, within
any caps.  The core keeps the elements that no other element dominates,
and of elements that dominate each other the first.  Domination is
transitive, so every dropped element is dominated by a kept one.  The core
is certified stage by stage with `is_groebner`, and each dropped element
must reduce to zero modulo the core at stage 1.  This is sound: the core
is then a basis of its own submodule at every stage, and the dropped
elements lie in that submodule, so the core generates the same submodule
as G.  Being a basis means that for every f in the submodule some
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
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import combinations, islice
from math import gcd
from operator import add, eq, le, neg, sub
from typing import Sequence

from .errors import InputError, VerificationError, WeylDimError, ZeroElementError
from .terms import (
    Leader,
    ModuleElement,
    Term,
    _primitive,
    block_orders,
    check_cover,
    check_rank,
    leader_data,
    leader_term,
    term_divides,
    term_key,
    term_lcm,
)
from .weyl import ExponentPair, Partition, Vector, mono_mul


# Most elements a completion may hold before it gives up.
MAX_ELEMENTS = 500


def _check_stage(r, P: Partition, n: int) -> None:
    """Reject a stage out of 1..p, or elements on other than P's n variables."""
    # exact type: bool is an int subclass
    if type(r) is not int or not 1 <= r <= P.p:
        raise InputError(f"stage {r!r} out of range 1..{P.p}")
    check_cover(n, P)


# one Term object per term of the memoised products, however many hold it
_term = lru_cache(maxsize=65536)(Term)


def _shifted(g: ModuleElement, q: ExponentPair) -> tuple[tuple[Term, int], ...]:
    """q * row for g's primitive integer row, expanded as (Term, int) pairs.

    The pairs follow the row, each term's normal-order expansion in turn,
    unmerged.  Kept in g's memo per q, so each product is built once.
    """
    memo = g._memo.get("shifted")
    if memo is None:
        memo = g._memo["shifted"] = {}
    hit = memo.get(q)
    if hit is None:
        hit = memo[q] = tuple(
            (_term(gen, key), cg * wt)
            for (gen, theta), cg in g.row.items()
            for key, wt in mono_mul(q, theta)
        )
    return hit


def _monic(g: ModuleElement, P: Partition) -> ModuleElement:
    """g scaled to leading coefficient 1 under the first order, keeping its row."""
    # row = k * g = (k * c) * out for g's leading coefficient c, and k * c
    # is row's coefficient at the head
    row, lead = g.row, leader_data(g, 1, P).lead
    if lead < 0:
        row, lead = {t: -v for t, v in row.items()}, -lead
    return ModuleElement._trusted(g.n, g.m, row, lead, 1)


@lru_cache(maxsize=65536)
def _term_orders(t: Term, r: int, P: Partition) -> tuple[tuple, tuple]:
    """The negated order-r key of t, and ord_i(t) for each later order i.

    Cached across calls: reductions at one stage meet the same terms again.
    """
    key = term_key(r, t, P)
    # an order-r key starts with ord_r, then the other blockwise orders by
    # ascending block index (see `terms.monomial_key`), so ord_{r+1}, ...,
    # ord_p sit at positions r, ..., p-1
    return tuple(map(neg, key)), key[r:P.p]


def _caps(tails) -> list[int]:
    """Greatest ord_i over the given terms, per later order: the order caps."""
    return [max(col) for col in zip(*tails)]


def _eligible(w: Term, tail: tuple, ld: Leader, caps: Sequence[int]) -> bool:
    """Whether the reducer whose stage-order leader record is ld may
    eliminate w: its leader divides w, and theta times it fits the caps.

    tail holds ord_i(w) for each later order i.
    """
    (gen, (alpha, beta)), _, _, _, slack = ld
    return (
        w.gen == gen
        and all(map(le, alpha, w.theta.alpha))
        and all(map(le, beta, w.theta.beta))
        and all(b + s <= cap for b, s, cap in zip(tail, slack, caps))
    )


class Reducers:
    """The reducers G of a reduction with one index per stage, kept up to date.

    `elements` is the caller's sequence, read and never changed here;
    completion appends to it, and `stage(r)` lets the new tail in the
    next time a reduction at stage r asks.  The stage-r index lists, for
    each generator, the stage-r leader records in ascending negated key,
    beside the keys; `bisect_right` puts a leader after the equal ones
    already there, so equal leaders stay in position order.  That is the
    order a stable sort of all of G by negated key gives.  Every reducer
    must be nonzero and of shape (n, m), checked as it enters an index.

    Not a `typing.Sequence`: that class's `__iter__` goes through
    `__getitem__`, one Python call per element.
    """

    __slots__ = ("elements", "P", "shape", "_stages")

    def __init__(
        self, elements: Sequence[ModuleElement], P: Partition, n: int, m: int
    ):
        self.elements = elements
        self.P = P
        self.shape = (n, m)
        # stage r -> [elements indexed so far, {gen: (negated keys, (i, leader))}]
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
        for i, g in enumerate(new, done):
            red = leader_data(g, r, self.P)
            negs, reds = by_gen.setdefault(red.term.gen, ([], []))
            at = bisect_right(negs, red.neg_key)
            negs.insert(at, red.neg_key)
            reds.insert(at, (i, red))
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

    Eligibility depends on the caps, the greatest ord_i over the current
    remainder for each later order i, and the caps move as terms are
    removed, so each step looks again from the greatest remaining term.
    The caps only fall, though: every term of theta * g has ord_i <=
    ord_i(theta) + ord_i of g's i-th leader, which an eligible step keeps
    within cap_i.  And every term a step adds lies below the eliminated
    term under the r-th order.  So a term once found ineligible stays so
    and is never touched again; each step takes the greatest term not yet
    found ineligible, which is the term a full rescan would pick.

    Those terms wait in a heap keyed on the negated order-r key.  A term
    enters it when it enters `work`, and a cancelled term is dropped only
    when popped: entries for terms no longer in `work` are skipped.  A
    cancelled term can come back, below the eliminated term, with a second
    entry; equal keys mean equal terms, so the two pop one after the
    other, and the second is skipped as well.

    The reducers are read from their stage-r index (`Reducers`): per
    generator, by descending r-th leader, equal leaders in list order,
    beside their negated keys.  A `Reducers` over P and f's shape is
    reused, so completion, which appends to one, and `is_groebner`, which
    builds one per call, index each element once per stage; any other G
    gets a one-call index built the same way, with the same zero and shape
    checks.

    A step starts its scan at the first leader whose key is no greater
    than w's (`bisect_left`).  The ones it passes over cannot divide w: if
    a leader u divides w, then each block order of u is at most w's, and
    where they are all equal so are the exponents, so key(u) <= key(w),
    with equality only when u == w.  The pick stays the greatest eligible
    leader, the smallest position on ties.  Each multiple theta * row of a
    reducer's row is expanded once and kept with the reducer (`_shifted`).
    """
    _check_stage(r, P, f.n)
    if not (isinstance(G, Reducers) and G.P == P and G.shape == (f.n, f.m)):
        G = Reducers(G, P, f.n, f.m)
    by_gen = G.stage(r)
    elements = G.elements
    steps: list[tuple[int, ExponentPair]] = []
    # the remainder is work / scale, scale = sn / sd > 0
    work, sn, sd = dict(f.row), f.kn, f.kd
    orders = {t: _term_orders(t, r, P) for t in work}
    caps = _caps(tail for _, tail in orders.values())
    # terms not yet found ineligible, least negated key first; cancelled
    # terms leave lazily, and one that came back has a second entry
    heap = [(nk, t) for t, (nk, _) in orders.items()]
    heapify(heap)
    last = None
    while heap:
        w = heappop(heap)[1]
        if w == last or w not in work:
            continue
        last = w
        nk, tail = orders[w]
        # a leader dividing w has a key no greater than w's
        negs, reds = by_gen.get(w.gen, ((), ()))
        for idx, red in islice(reds, bisect_left(negs, nk), None):
            if _eligible(w, tail, red, caps):
                break
        else:
            continue  # stays in the remainder for good
        u = red.term.theta
        q = ExponentPair(
            tuple(map(sub, w.theta.alpha, u.alpha)),
            tuple(map(sub, w.theta.beta, u.beta)),
        )
        # work <- mult * work - e * theta * row, with the lead of theta * row
        # being red.lead, cancels w; mult > 0 keeps the scale positive
        h = gcd(work[w], red.lead)
        mult, e = red.lead // h, work[w] // h
        if mult < 0:
            mult, e = -mult, -e
        if mult != 1:
            work = {t: v * mult for t, v in work.items()}
            sn *= mult
        steps.append((idx, q))
        lowered = False
        for t, v in _shifted(elements[idx], q):
            d = -e * v
            s = work.get(t)
            if s is None:
                work[t] = d
                o = orders.get(t)
                if o is None:
                    o = orders[t] = _term_orders(t, r, P)
                heappush(heap, (o[0], t))
                continue
            s += d
            if s:
                work[t] = s
            else:
                del work[t]
                lowered = lowered or any(map(eq, orders[t][1], caps))
        if lowered and work:
            caps = _caps(orders[t][1] for t in work)
    return ModuleElement._trusted(f.n, f.m, *_primitive(work, sn, sd)), steps


def s_element(
    f: ModuleElement, g: ModuleElement, r: int, P: Partition
) -> ModuleElement:
    """The critical difference of f and g with respect to the r-th order.

    Zero when the r-th leaders sit on different generators.
    """
    _check_stage(r, P, f.n)
    f._check_compat(g)
    if f.is_zero() or g.is_zero():
        raise ZeroElementError("critical pair with a zero element")
    lifts = _lifts(f, g, r, P)
    if lifts is None:
        return ModuleElement.zero(f.n, f.m)
    # with rows row = k * f, lead l = k * (f's leader coefficient), the
    # S-element is q_f * row_f / l_f - q_g * row_g / l_g; acc holds it
    # times l_f * l_g / h
    lf, lg = leader_data(f, r, P).lead, leader_data(g, r, P).lead
    h = gcd(lf, lg)
    acc: dict[Term, int] = {}
    for el, q, mult in zip((f, g), lifts, (lg // h, -(lf // h))):
        for t, v in _shifted(el, q):
            s = acc.get(t, 0) + mult * v
            if s:
                acc[t] = s
            else:
                del acc[t]
    return ModuleElement._trusted(f.n, f.m, *_primitive(acc, lf * lg, h))


def _lifts(f: ModuleElement, g: ModuleElement, r: int, P: Partition):
    """The monomials that lift f's and g's r-th leaders to their lcm, or
    None when the leaders sit on different generators."""
    uf, ug = leader_term(f, r, P), leader_term(g, r, P)
    top = term_lcm(uf, ug)
    if top is None:
        return None
    return term_divides(uf, top), term_divides(ug, top)


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


def _dominates(lj: Sequence[Leader], li: Sequence[Leader]) -> bool:
    """Whether the element with per-stage leaders lj dominates the one with li.

    At every stage its leader divides the other's and its slack is no larger.
    """
    return all(
        term_divides(a.term, b.term) is not None and all(map(le, a.slack, b.slack))
        for a, b in zip(lj, li)
    )


def _core(G: Sequence[ModuleElement], P: Partition) -> list[int]:
    """Positions, ascending, of the elements of G no other element dominates.

    Of elements that dominate each other only the first is kept.
    """
    lds = [[leader_data(g, r, P) for r in range(1, P.p + 1)] for g in G]
    return [
        i
        for i, li in enumerate(lds)
        if not any(
            j != i and _dominates(lj, li) and (j < i or not _dominates(li, lj))
            for j, lj in enumerate(lds)
        )
    ]


def is_groebner(G: GroebnerBasis, r: int) -> bool:
    """Check the stage-r criterion: pairwise S-elements reduce to zero.

    Meaningful once the later stages r+1..p already hold.
    """
    _check_stage(r, G.P, G.n)
    reducers = Reducers(G.elements, G.P, G.n, G.m)
    for f, g in combinations(G.elements, 2):
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
    pending: dict[int, deque] = {
        r: deque((a, b) for a in range(len(G)) for b in range(a + 1, len(G)))
        for r in range(1, p + 1)
    }
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
        if len(G) > MAX_ELEMENTS:
            raise WeylDimError(
                f"completion: basis exceeded {MAX_ELEMENTS} elements "
                "(groebner.MAX_ELEMENTS); presentation too large"
            )
        t = len(G) - 1
        for r in range(1, p + 1):
            pending[r].extend((k, t) for k in range(t))
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
