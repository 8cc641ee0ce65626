"""Groebner bases of A_n^m submodules under several simultaneous orders.

Reduction eliminates the greatest eligible term under the head order while
respecting order caps taken from the tail orders.  It works in place on
one term dict, with each reducer's leader data built once and each term's
order data once per call.  The caps move as the remainder changes, but
only downwards, so a term found ineligible never needs a second look (see
`multi_reduce`).  Completion runs staged from the last order down to the
first; every nonzero reduced S-element is inserted and re-opens the pair
queues of its stage and all later stages.  The finished basis is
certified stage by stage with `is_groebner`.

Each element also carries a multiplier-order bound B: a vector with
ord_j(D) <= B_j for every coefficient D of some way of writing the element
as sum_i D_i * g_i over the input relations g_i.  Inputs start at zero.
An element inserted from the pair (a, b) at stage r is
t_a * G[a] - t_b * G[b] - sum_k Q_k * G[k], with t_a, t_b the monomials
that lift the stage-r leaders to their lcm and Q_k the quotients of the
reduction, so its bound is the componentwise max of ord(t_a) + B[a],
ord(t_b) + B[b] and ord(Q_k) + B[k] over nonzero Q_k.  This is sound
because every term of a product D1 * D2 has ord_j <= ord_j(D1) + ord_j(D2),
and summing terms can only cancel them.
"""
from __future__ import annotations

from fractions import Fraction
from operator import add, eq, le, sub
from typing import NamedTuple, Sequence

from .errors import InputError, WeylDimError, ZeroElementError
from .terms import (
    GammaTerm,
    ModuleElement,
    Term,
    act,
    block_orders,
    leader,
    leader_term,
    rho,
    term_divides,
    term_key,
    term_lcm,
)
from .weyl import ExponentPair, Partition, Vector, WeylElement, element_orders, mono_mul


class OrderSequence(NamedTuple):
    """A head order plus the tail orders constraining each reduction step."""

    head: int
    tail: tuple[int, ...]

    def check(self, p: int):
        seen = {self.head, *self.tail}
        if len(seen) != 1 + len(self.tail):
            raise InputError(f"order sequence repeats an index: {self}")
        if any(not 1 <= i <= p for i in seen):
            raise InputError(f"order sequence {self} out of range 1..{p}")


def suffix_sequence(r: int, p: int) -> OrderSequence:
    """The sequence (<_r, <_{r+1}, ..., <_p)."""
    return OrderSequence(r, tuple(range(r + 1, p + 1)))


def full_sequence(p: int) -> OrderSequence:
    return suffix_sequence(1, p)


class _Reducer(NamedTuple):
    """What a reduction step needs of a reducer g under one order sequence."""

    gen: int  # the head leader's generator and exponents
    alpha: Vector
    beta: Vector
    coeff: Fraction  # the head leader's coefficient
    key: tuple  # the head leader's term key under the head order
    # per tail order i: ord_i of g's i-th leader minus ord_i of its head
    # leader, so theta * g stays within cap_i exactly when the term theta
    # * head leader has ord_i + slack_i <= cap_i
    slack: tuple[int, ...]


def _reducer(g: ModuleElement, seq: OrderSequence, P: Partition) -> _Reducer:
    """Reducer data of g, kept with g's leaders so it is built once."""
    memo_key = ("reducer", P.sizes, seq)
    hit = g._memo.get(memo_key)
    if hit is not None:
        return hit
    head, c = leader(g, seq.head, P)
    hbo = block_orders(head.theta, P)
    slack = tuple(
        block_orders(leader_term(g, i, P).theta, P)[i - 1] - hbo[i - 1]
        for i in seq.tail
    )
    out = g._memo[memo_key] = _Reducer(
        head.gen, *head.theta, c, term_key(seq.head, head, P), slack
    )
    return out


def _term_orders(t: Term, seq: OrderSequence, P: Partition) -> tuple[tuple, tuple]:
    """The head-order key of t, and ord_i(t) for each tail order i."""
    key = term_key(seq.head, t, P)
    # a head-order key starts with ord_head, then the other blockwise
    # orders by ascending block index (see `terms.monomial_key`)
    return key, tuple(key[i if i < seq.head else i - 1] for i in seq.tail)


def _caps(tails) -> list[int]:
    """Greatest ord_i over the given terms, per tail order: the order caps."""
    return [max(col) for col in zip(*tails)]


def _eligible(w: Term, tail: tuple, r: _Reducer, caps: Sequence[int]) -> bool:
    """Whether r's head leader divides w and theta * r fits the caps.

    tail holds ord_i(w) for each tail order i.
    """
    return (
        w.gen == r.gen
        and all(map(le, r.alpha, w.theta.alpha))
        and all(map(le, r.beta, w.theta.beta))
        and all(b + s <= cap for b, s, cap in zip(tail, r.slack, caps))
    )


def is_reduced(
    f: ModuleElement, g: ModuleElement, seq: OrderSequence, P: Partition
) -> bool:
    """True when no term of f is eliminable by g under seq."""
    seq.check(P.p)
    if f.is_zero():
        return True
    if g.is_zero():
        raise ZeroElementError("reduction against the zero element")
    r = _reducer(g, seq, P)
    tails = {w: _term_orders(w, seq, P)[1] for w in f.terms}
    caps = _caps(tails.values())
    return not any(_eligible(w, tail, r, caps) for w, tail in tails.items())


def multi_reduce(
    f: ModuleElement,
    G: Sequence[ModuleElement],
    seq: OrderSequence,
    P: Partition,
) -> tuple[ModuleElement, list[WeylElement]]:
    """Remainder of f modulo G under seq, with quotients.

    Deterministic: each step removes the greatest eligible term under the
    head order, using the reducer with the greatest head leader (smallest
    list position on ties).  The identity f = sum Q_i g_i + remainder
    holds exactly.

    The remainder is kept as one term dict and reduced in place: a step
    subtracts factor * theta * g term by term.  Eligibility depends on the
    caps, the greatest ord_i over the current remainder for each tail
    order i, and the caps move as terms are removed, so each step looks
    again from the greatest remaining term.  The caps only fall, though:
    every term of theta * g has ord_i <= ord_i(theta) + ord_i of g's i-th
    leader, which an eligible step keeps within cap_i.  And every term a
    step adds lies below the eliminated term under the head order.  So a
    term once found ineligible stays so and is never touched again; each
    step takes the greatest term not yet found ineligible, which is the
    term a full rescan would pick.
    """
    seq.check(P.p)
    if any(g.is_zero() for g in G):
        raise ZeroElementError("zero element among the reducers")
    n, m = f.n, f.m
    for g in G:
        f._check_compat(g)
    # reducers by generator, greatest head leader first, then by position
    by_gen: dict[int, list[tuple[int, _Reducer]]] = {}
    for idx, r in sorted(
        enumerate(_reducer(g, seq, P) for g in G),
        key=lambda ir: ir[1].key,
        reverse=True,  # stable: equal head leaders stay in list order
    ):
        by_gen.setdefault(r.gen, []).append((idx, r))
    quotients: list[dict[ExponentPair, Fraction]] = [{} for _ in G]
    work = dict(f.terms)
    orders = {t: _term_orders(t, seq, P) for t in work}  # per call, never shared
    caps = _caps(tail for _, tail in orders.values())
    pending = set(work)  # terms not yet found ineligible
    while pending:
        w = max(pending, key=lambda t: orders[t][0])
        pending.remove(w)
        for idx, r in by_gen.get(w.gen, ()):
            if _eligible(w, orders[w][1], r, caps):
                break
        else:
            continue  # stays in the remainder for good
        q = ExponentPair(
            tuple(map(sub, w.theta.alpha, r.alpha)),
            tuple(map(sub, w.theta.beta, r.beta)),
        )
        factor = work[w] / r.coeff
        # each eliminated term lies below the last, so q is new for idx
        quotients[idx][q] = factor
        lowered = False
        neg = -factor
        for (gen, theta), cg in G[idx].terms.items():
            c = neg * cg
            for key, wt in mono_mul(q, theta):
                t = Term(gen, key)
                d = c if wt == 1 else c * wt
                s = work.get(t)
                if s is None:
                    work[t] = d
                    pending.add(t)
                    if t not in orders:
                        orders[t] = _term_orders(t, seq, P)
                    continue
                s += d
                if s:
                    work[t] = s
                else:
                    del work[t]
                    pending.discard(t)
                    lowered = lowered or any(map(eq, orders[t][1], caps))
        if lowered and work:
            caps = _caps(orders[t][1] for t in work)
    return (
        ModuleElement._trusted(n, m, work),
        [WeylElement._trusted(n, qd) for qd in quotients],
    )


def s_element(
    f: ModuleElement, g: ModuleElement, r: int, P: Partition
) -> ModuleElement:
    """The critical difference of f and g with respect to the r-th order.

    Zero when the r-th leaders sit on different generators.
    """
    if f.is_zero() or g.is_zero():
        raise ZeroElementError("critical pair with a zero element")
    f._check_compat(g)
    uf, cf = leader(f, r, P)
    ug, cg = leader(g, r, P)
    lcm = term_lcm(uf, ug)
    if lcm is None:
        return ModuleElement.zero(f.n, f.m)
    qf = term_divides(uf, lcm)
    qg = term_divides(ug, lcm)
    left = act(WeylElement.monomial(f.n, qf.alpha, qf.beta, 1 / cf), f)
    right = act(WeylElement.monomial(g.n, qg.alpha, qg.beta, 1 / cg), g)
    return left - right


class GroebnerBasis:
    """A completed basis with cached leader data and certification marks.

    A basis from `complete_basis` also keeps `relations`, the nonzero
    input family as given, and `multiplier_bound`: every element is a
    combination sum_i D_i * relations[i] with ord_j(D_i) <=
    multiplier_bound[j] (see the module docstring for the recurrence).
    A hand-built basis has None in both.
    """

    def __init__(
        self,
        elements: Sequence[ModuleElement],
        P: Partition,
        m: int,
        certified: Sequence[int],
        relations: Sequence[ModuleElement] | None = None,
        multiplier_bound: Vector | None = None,
    ):
        self.P = P
        self.m = m
        self.n = P.n
        self.elements = tuple(elements)
        self.certified = tuple(sorted(certified))
        self.relations = tuple(relations) if relations is not None else None
        self.multiplier_bound = (
            tuple(multiplier_bound) if multiplier_bound is not None else None
        )
        for g in self.elements:
            if g.is_zero():
                raise ZeroElementError("zero element in a basis")
            if (g.n, g.m) != (self.n, m):
                raise InputError("basis element shape mismatch")
        self.leaders = tuple(
            tuple(leader(g, i, P) for i in range(1, P.p + 1)) for g in self.elements
        )
        self.rho = tuple(rho(g, P) for g in self.elements)
        # order shifts: b[i][j] for the first leader, c[i][j] for the i-th
        self.b = tuple(
            tuple(block_orders(ld[0][0].theta, P)[i] for ld in self.leaders)
            for i in range(P.p)
        )
        self.c = tuple(
            tuple(block_orders(ld[i][0].theta, P)[i] for ld in self.leaders)
            for i in range(P.p)
        )

    def fully_certified(self) -> bool:
        return self.certified == tuple(range(1, self.P.p + 1))


def is_groebner(G: GroebnerBasis, r: int) -> bool:
    """Check the stage-r criterion: pairwise S-elements reduce to zero.

    Meaningful once the later stages r+1..p already hold.
    """
    if not 1 <= r <= G.P.p:
        raise InputError(f"stage {r} out of range 1..{G.P.p}")
    seq = suffix_sequence(r, G.P.p)
    els = G.elements
    for a in range(len(els)):
        for b in range(a + 1, len(els)):
            s = s_element(els[a], els[b], r, G.P)
            if s.is_zero():
                continue
            rem, _ = multi_reduce(s, els, seq, G.P)
            if not rem.is_zero():
                return False
    return True


def complete_basis(
    generators: Sequence[ModuleElement],
    P: Partition,
    m: int | None = None,
    max_elements: int = 500,
) -> GroebnerBasis:
    """Complete the given relations to a basis certified for every stage.

    Inserted elements are fully reduced remainders, made monic under the
    first order.  Raises if the basis grows past max_elements.  Each
    element's multiplier-order bound is carried along as the module
    docstring describes; the basis keeps their componentwise max.
    """
    gens = [g for g in generators if not g.is_zero()]
    if m is None:
        if not gens:
            raise InputError("cannot infer module rank from an empty family")
        m = gens[0].m
    for g in gens:
        if (g.n, g.m) != (P.n, m):
            raise InputError("generator shape mismatch")
    p = P.p
    G = [g.scale(1 / leader(g, 1, P)[1]) for g in gens]
    bounds = [(0,) * p for _ in gens]
    pending: dict[int, list] = {
        r: [(a, b) for a in range(len(G)) for b in range(a + 1, len(G))]
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
        a, b = pending[stage].pop(0)
        s = s_element(G[a], G[b], stage, P)
        if s.is_zero():
            continue
        rem, quots = multi_reduce(s, G, suffix_sequence(stage, p), P)
        if rem.is_zero():
            continue
        # s = t_a * G[a] - t_b * G[b], and s - rem = sum_k Q_k * G[k]
        lcm = term_lcm(leader_term(G[a], stage, P), leader_term(G[b], stage, P))
        shifts = [
            (block_orders(term_divides(leader_term(G[k], stage, P), lcm), P), bounds[k])
            for k in (a, b)
        ] + [
            (element_orders(Q, P)[1], bounds[k])
            for k, Q in enumerate(quots)
            if not Q.is_zero()
        ]
        bounds.append(tuple(map(max, *(map(add, o, B) for o, B in shifts))))
        G.append(rem.scale(1 / leader(rem, 1, P)[1]))
        if len(G) > max_elements:
            raise WeylDimError(
                f"basis exceeded {max_elements} elements; presentation too large"
            )
        t = len(G) - 1
        for r in range(1, p + 1):
            pending[r].extend((k, t) for k in range(t))
    basis = GroebnerBasis(G, P, m, certified=[])
    certified = []
    for r in range(p, 0, -1):
        if not is_groebner(basis, r):
            raise WeylDimError(f"completion failed certification at stage {r}")
        certified.append(r)
    bound = tuple(map(max, zip((0,) * p, *bounds)))
    return GroebnerBasis(G, P, m, certified, relations=gens, multiplier_bound=bound)


def membership(f: ModuleElement, G: GroebnerBasis) -> bool:
    """Whether f lies in the submodule generated by the basis."""
    if not G.fully_certified():
        raise InputError("membership needs a basis certified for all stages")
    if f.is_zero():
        return True
    if not G.elements:
        return False
    rem, _ = multi_reduce(f, G.elements, full_sequence(G.P.p), G.P)
    return rem.is_zero()
