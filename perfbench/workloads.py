"""Seeded request lists for the weyldim benchmark.

Pure Python: nothing here imports weyldim, so the inputs cannot change
with the program under test.  `build(workload, seed)` returns the
presentation documents (JSON-ready dicts, the format `weyldim.io` reads)
and the ordered list of CLI requests that serve them.

Workload seed 0 reproduces the fixed corpus of `tests/conftest.py`.  A
seed changes the documents without changing their cost: it permutes
variables inside blocks, picks staircase points from one level set,
draws the non-maximal exponents of the `boxes` relations, and shuffles
the request order.  The dense draws stay at their fixed seeds because
random dense draws are heavy-tailed.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

# Draw seeds whose first draw presents the zero module, mapped to the
# reroll count the conftest builders settle on (they test each draw with
# weyldim, which the generators here may not call).
REROLLS = {101: 1, 102: 1, 107: 2, 206: 1, 403: 1, 404: 1}

STAIRCASE_LEADERS = 18
STAIRCASE_LEVEL = 3
STAIRCASE_PARTITION = (4,)
ORACLE_RMAX = 2
DENSE_REFERENCE = "dense-n3p2-s11"
BOXES_RELATIONS = 3
# (partition, per-axis maxima of x0, x1, d2, d3): x-exponents sit on
# variables 0 and 1, d-exponents on variables 2 and 3, so all relations
# commute and every S-element vanishes.
BOXES_SLOTS = (
    ((2, 2), (3, 3, 2, 2)),
    ((2, 2), (2, 2, 3, 3)),
    ((2, 2), (2, 2, 2, 2)),
    ((3, 1), (2, 2, 2, 3)),
    ((3, 1), (2, 3, 2, 2)),
    ((3, 1), (3, 2, 2, 3)),
)


@dataclass(frozen=True)
class Request:
    """One CLI call: `weyldim <kind> <extra...> <document>`."""

    rid: str
    kind: str
    doc: str
    extra: tuple[str, ...] = ()


# ------------------------------------------------------------ term records


def _record(gen, alpha, beta, coeff) -> dict:
    return {"gen": gen, "alpha": list(alpha), "beta": list(beta), "coeff": str(coeff)}


def _doc(sizes, m, relations) -> dict:
    return {"n": sum(sizes), "partition": list(sizes), "m": m, "relations": relations}


def _relation(terms: dict) -> list[dict]:
    """Records of a {(gen, alpha, beta): coeff} map, zero sums dropped."""
    return [_record(g, a, b, c) for (g, a, b), c in terms.items() if c]


# ------------------------------------------- draws mirroring tests/conftest.py


def _bounded_vector(rng: random.Random, n: int, total: int) -> tuple[int, ...]:
    v = [0] * n
    for _ in range(rng.randint(0, total)):
        v[rng.randrange(n)] += 1
    return tuple(v)


def _random_relation(rng: random.Random, n: int, m: int, max_exp=2, max_terms=3):
    while True:
        out: dict = {}
        for _ in range(rng.randint(1, max_terms)):
            gen = rng.randint(1, m)
            alpha = tuple(rng.choice((0, 0, 1, max_exp)) for _ in range(n))
            beta = tuple(rng.choice((0, 0, 1, max_exp)) for _ in range(n))
            c = rng.randint(-3, 3)
            if c:
                key = (gen, alpha, beta)
                out[key] = out.get(key, 0) + c
        rel = _relation(out)
        if rel:
            return rel


def _rng(draw_seed: int) -> random.Random:
    return random.Random(draw_seed + 1000 * REROLLS.get(draw_seed, 0))


def dense_doc(draw_seed: int, sizes) -> dict:
    rng = _rng(draw_seed)
    n = sum(sizes)
    m = rng.randint(1, 2)
    count = rng.randint(1, 2)
    return _doc(sizes, m, [_random_relation(rng, n, m) for _ in range(count)])


def light_doc(draw_seed: int, sizes) -> dict:
    """Two-term relations x_i^a e_g +- d_j^b e_h."""
    rng = _rng(draw_seed)
    n = sum(sizes)
    zero = (0,) * n
    m = rng.randint(1, 2)
    rels = []
    for _ in range(rng.randint(1, 2)):
        i, j = rng.randrange(n), rng.randrange(n)
        a, b = rng.randint(1, 2), rng.randint(1, 2)
        alpha = tuple(a if k == i else 0 for k in range(n))
        beta = tuple(b if k == j else 0 for k in range(n))
        g1 = rng.randint(1, m)
        g2 = rng.randint(1, m)
        sign = rng.choice((1, -1))
        rels.append([_record(g1, alpha, zero, 1), _record(g2, zero, beta, sign)])
    return _doc(sizes, m, rels)


def monomial_doc(draw_seed: int, sizes) -> dict:
    """Single-term relations with |alpha|, |beta| <= 2."""
    rng = _rng(draw_seed)
    n = sum(sizes)
    m = rng.randint(1, 2)
    rels = []
    for _ in range(rng.randint(1, 2)):
        alpha = _bounded_vector(rng, n, 2)
        beta = _bounded_vector(rng, n, 2)
        if alpha == beta == (0,) * n:
            alpha = tuple(1 if k == 0 else 0 for k in range(n))
        rels.append([_record(rng.randint(1, m), alpha, beta, 1)])
    return _doc(sizes, m, rels)


def sparse_doc() -> dict:
    """d1^2 e + d2 d3 e on three one-variable blocks."""
    zero = (0, 0, 0)
    return _doc((1, 1, 1), 1, [[_record(1, zero, (2, 0, 0), 1), _record(1, zero, (0, 1, 1), 1)]])


def permute_variables(doc: dict, rng: random.Random) -> dict:
    """The same presentation with variables permuted inside each block.

    Such a permutation is an automorphism of the Weyl algebra that keeps
    every block, so the module and its dimension polynomial are unchanged
    and the cost barely moves; the documents and bases differ.
    """
    perm: list[int] = []
    for size in doc["partition"]:
        block = list(range(len(perm), len(perm) + size))
        rng.shuffle(block)
        perm += block
    relations = [
        [
            dict(rec, alpha=[rec["alpha"][v] for v in perm], beta=[rec["beta"][v] for v in perm])
            for rec in rel
        ]
        for rel in doc["relations"]
    ]
    return dict(doc, relations=relations)


def conftest_corpus(seed: int) -> dict[str, dict]:
    """The 28 presentations of `conftest.corpus_presentations`.

    Seed 0 gives them as they are.  Other seeds permute the variables of
    the light, monomial and sparse families inside their blocks; the dense
    draws, whose cost is heavy-tailed, stay as they are.
    """
    docs: dict[str, dict] = {}
    for k in range(8):
        docs[f"dense-n1-{k}"] = dense_doc(101 + k, (1,))
    for k in range(6):
        docs[f"dense-n2p1-{k}"] = dense_doc(201 + k, (2,))
    for k in range(6):
        docs[f"dense-n2p2-{k}"] = dense_doc(301 + k, (1, 1))
    for k in range(4):
        docs[f"light-n3p1-{k}"] = light_doc(401 + k, (3,))
    for k, sizes in enumerate(((2, 1), (1, 2), (2, 1))):
        docs[f"mono-n3p2-{k}"] = monomial_doc(501 + k, sizes)
    docs["sparse-n3p3"] = sparse_doc()
    if seed:
        rng = random.Random(seed)
        for name in docs:
            if not name.startswith("dense"):
                docs[name] = permute_variables(docs[name], rng)
    return docs


# ------------------------------------------------ commuting monomial families


def _monomial(x: tuple[int, int], d: tuple[int, int]) -> list[dict]:
    """x0^x[0] x1^x[1] d2^d[0] d3^d[1] e1 on four variables."""
    return [_record(1, (x[0], x[1], 0, 0), (0, 0, d[0], d[1]), 1)]


def _per_block(values, sizes) -> list[tuple[int, ...]]:
    """Split per-variable values (exponent h sits on variable h) by block."""
    out, start = [], 0
    for s in sizes:
        out.append(tuple(values[start:start + s]))
        start += s
    return out


def _block_degrees(a: tuple[int, ...], sizes) -> list[int]:
    """Block orders of the monomial with used exponents a = (x0, x1, d2, d3)."""
    return [sum(block) for block in _per_block(a, sizes)]


def boxes_caps(sizes, maxima) -> list[int]:
    """Per-block cap on any relation's block order in a `boxes` document.

    It is the larger of the staircase overshoot (sum of the block's maxima
    minus twice the block size) and the block's largest single maximum, so
    the first-leader orders and staircase widths, and with them the
    counting grid, are the same for every seed.
    """
    return [
        max(sum(inside) - 2 * s, max(inside))
        for inside, s in zip(_per_block(maxima, sizes), sizes)
    ]


def boxes_doc(rng: random.Random, sizes, maxima) -> dict:
    """Commuting monomial relations with pinned per-axis maxima."""
    caps = boxes_caps(sizes, maxima)
    while True:
        rows = [
            [rng.randint(0, mx - 1) for mx in maxima] for _ in range(BOXES_RELATIONS)
        ]
        for h, mx in enumerate(maxima):
            rows[rng.randrange(BOXES_RELATIONS)][h] = mx
        if all(
            deg <= cap
            for row in rows
            for deg, cap in zip(_block_degrees(tuple(row), sizes), caps)
        ):
            break
    rels = [_monomial((a[0], a[1]), (a[2], a[3])) for a in rows]
    return _doc(sizes, 1, rels)


def staircase_points(rng: random.Random, k: int, s: int) -> list[tuple[int, ...]]:
    """k points of {|a| = s} in N^4: the four axis points plus k - 4 drawn.

    Points of one level set form an antichain, so all k are minimal.  The
    axis points pin each coordinate's maximum at s.
    """
    level = [a for a in itertools.product(range(s + 1), repeat=4) if sum(a) == s]
    axis = [a for a in level if max(a) == s]
    rest = [a for a in level if max(a) < s]
    return sorted(axis + rng.sample(rest, k - len(axis)))


def staircase_doc(rng: random.Random, k: int, s: int) -> dict:
    pts = staircase_points(rng, k, s)
    return _doc(STAIRCASE_PARTITION, 1, [_monomial(a[:2], a[2:]) for a in pts])


# ------------------------------------------------------------------ builders


def _corpus(seed: int):
    docs = conftest_corpus(seed)
    reqs = [Request(f"{d}:{k}", k, d) for d in docs for k in ("gb", "dimpoly", "bernstein")]
    # the ROADMAP's dense reference case, served for its completion only
    docs[DENSE_REFERENCE] = dense_doc(11, (2, 1))
    reqs.append(Request(f"{DENSE_REFERENCE}:gb", "gb", DENSE_REFERENCE))
    random.Random(seed).shuffle(reqs)
    return docs, reqs


def _oracle(seed: int):
    docs = conftest_corpus(seed)
    reqs = [Request(f"{d}:check", "check", d, ("--rmax", str(ORACLE_RMAX))) for d in docs]
    random.Random(seed).shuffle(reqs)
    return docs, reqs


def corner(sizes, maxima) -> tuple[int, ...]:
    """Corner of the verification grid: starting bound plus 2 * block size."""
    return tuple(1 + cap + 2 * s for cap, s in zip(boxes_caps(sizes, maxima), sizes))


def _boxes(seed: int):
    rng = random.Random(seed)
    docs, groups = {}, []
    for idx, (sizes, maxima) in enumerate(BOXES_SLOTS):
        name = f"box-{''.join(map(str, sizes))}-{idx}"
        docs[name] = boxes_doc(rng, sizes, maxima)
        at = corner(sizes, maxima)
        past = tuple(v + 1 for v in at)
        groups.append(
            [
                Request(f"{name}:dimpoly", "dimpoly", name),
                Request(f"{name}:eval-corner", "eval", name, ("--at", _csv(at))),
                Request(f"{name}:eval-past", "eval", name, ("--at", _csv(past))),
            ]
        )
    # presentations are shuffled, each keeps dimpoly before its evals
    rng.shuffle(groups)
    return docs, [r for g in groups for r in g]


def _csv(v) -> str:
    return ",".join(map(str, v))


def _staircase(seed: int):
    rng = random.Random(seed)
    name = f"stair-k{STAIRCASE_LEADERS}"
    docs = {name: staircase_doc(rng, STAIRCASE_LEADERS, STAIRCASE_LEVEL)}
    return docs, [Request(f"{name}:dimpoly", "dimpoly", name)]


_BUILDERS = {
    "corpus": _corpus,
    "boxes": _boxes,
    "staircase": _staircase,
    "oracle": _oracle,
}
WORKLOADS = tuple(_BUILDERS)


def build(workload: str, seed: int) -> tuple[dict[str, dict], list[Request]]:
    """Documents and ordered requests of one workload at one seed."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _BUILDERS[workload](seed)
