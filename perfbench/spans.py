"""Spans around the calls into weyldim's layers, recorded from outside.

`Tracer.install()` patches a timing wrapper onto every name that callers
look up (modules import functions by name, so a wrapper on the defining
module alone would miss those calls).  Spans stay in memory as plain
lists and are written out when the run ends; `layer_metrics` turns them
into the per-layer metrics.  Nothing here changes what the wrapped
functions return.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict

# span fields, in order, as stored in a span list
NAME, SITE, T0, T1, PARENT, REQ, ATTRS = range(7)

ROOT = "cli.main"
SERIALIZE = "io.serialize"

# (span name, defining module, attribute, modules whose lookup is patched)
TARGETS = (
    ("io.load_presentation", "io", "load_presentation", ("io",)),
    (SERIALIZE, "io", "dumps", ("io",)),
    (SERIALIZE, "io", "basis_doc", ("io",)),
    (SERIALIZE, "io", "report_doc", ("io",)),
    (SERIALIZE, "io", "bernstein_doc", ("io",)),
    ("engine.dimension_polynomial", "engine", "dimension_polynomial", ("engine", "cli")),
    ("engine.bernstein_polynomial", "engine", "bernstein_polynomial", ("cli",)),
    ("engine.count_UVW", "engine", "count_UVW", ("engine", "cli")),
    ("groebner.complete_basis", "groebner", "complete_basis", ("engine", "cli", "oracle")),
    ("groebner.is_groebner", "groebner", "is_groebner", ("groebner",)),
    ("groebner.multi_reduce", "groebner", "multi_reduce", ("groebner",)),
    ("numpoly.omega", "numpoly", "omega", ("engine",)),
    ("numpoly.interpolate", "numpoly", "interpolate", ("engine",)),
    ("kernels.box_vectors", "kernels", "box_vectors", ("engine", "oracle")),
    ("kernels.block_sum_matrix", "kernels", "block_sum_matrix", ("engine",)),
    ("kernels.classify_box", "kernels", "classify_box", ("engine",)),
)


class Tracer:
    """Records spans for one worker process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._minimize = None
        self.req = None

    def _attrs(self, name: str, args, result) -> dict | None:
        """Work counts taken at the span boundary."""
        if name == "groebner.multi_reduce":
            return {"zero": int(result[0].is_zero())}
        if name == "groebner.complete_basis":
            return {"elements": len(result.elements)}
        if name == "kernels.box_vectors":
            return {"rows": int(result.shape[0])}
        if name == "kernels.classify_box":
            V, BS, L, SL = args[:4]
            return {
                "rows": int(V.shape[0]),
                "pairs": int(V.shape[0]) * int(L.shape[0]),
                "bytes": int(V.nbytes + BS.nbytes + L.nbytes + SL.nbytes),
            }
        if name == "numpoly.omega":
            return {"subsets": 2 ** len(self._minimize(args[0].points))}
        return None

    def wrap(self, name: str, site: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, site, clock(), 0.0, stack[-1] if stack else -1, self.req, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[T1] = clock()
            span[ATTRS] = self._attrs(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every target on each module that looks it up by name."""
        mod = {
            m: importlib.import_module(f"weyldim.{m}")
            for m in ("io", "cli", "engine", "groebner", "numpoly", "kernels", "oracle")
        }
        self._minimize = mod["numpoly"].minimize
        for name, home, attr, sites in TARGETS:
            original = getattr(mod[home], attr)
            for site in sites:
                setattr(mod[site], attr, self.wrap(name, site, original))
        cls = mod["oracle"].RankOracle
        cls.dimension = self.wrap("oracle.RankOracle.dimension", "oracle", cls.dimension)

    def root(self, req: str, fn):
        """Run one request under its root span."""
        self.req = req
        try:
            return self.wrap(ROOT, "cli", fn)()
        finally:
            self.req = None


# ------------------------------------------------------------------ analysis


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[T0], s[T1]))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        end = s[T0]
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, end), min(b, s[T1])
            if b > a:
                covered += b - a
                end = b
        out.append(s[T1] - s[T0] - covered)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


LAYERS = ("cli", "io", "engine", "groebner", "numpoly", "kernels", "oracle")


def layer_metrics(spans: list[list], box_cache: tuple[int, int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in seconds).

    box_cache is (hits, misses) of `weyldim.kernels.box_vectors`.
    """
    own = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    selfs: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    attr: dict[str, int] = defaultdict(int)
    for s, t_self in zip(spans, own):
        name = s[NAME]
        names = [name]
        if (name, s[SITE]) == ("groebner.complete_basis", "oracle"):
            names.append("oracle.complete_basis")
        for k in names:
            total[k] += s[T1] - s[T0]
            calls[k] += 1
        selfs[name] += t_self
        layer_self[layer_of(name)] += t_self
        for a, v in (s[ATTRS] or {}).items():
            attr[f"{name}.{a}"] += v
    hits, misses = box_cache
    reductions = calls["groebner.multi_reduce"]
    out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    out.update(
        {
            "groebner.complete_basis_s": total["groebner.complete_basis"],
            "groebner.complete_basis_calls": calls["groebner.complete_basis"],
            "groebner.is_groebner_s": total["groebner.is_groebner"],
            "groebner.multi_reduce_s": total["groebner.multi_reduce"],
            "groebner.multi_reduce_calls": reductions,
            "groebner.zero_remainder_ratio": (
                attr["groebner.multi_reduce.zero"] / reductions if reductions else 0.0
            ),
            "groebner.basis_elements": attr["groebner.complete_basis.elements"],
            "engine.count_UVW_s": total["engine.count_UVW"],
            "engine.count_UVW_calls": calls["engine.count_UVW"],
            "engine.dimension_polynomial_self_s": selfs["engine.dimension_polynomial"],
            "kernels.box_vectors_s": total["kernels.box_vectors"],
            "kernels.box_vectors_calls": calls["kernels.box_vectors"],
            "kernels.box_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "kernels.box_rows": attr["kernels.box_vectors.rows"],
            "kernels.classify_box_s": total["kernels.classify_box"],
            "kernels.classify_box_calls": calls["kernels.classify_box"],
            "kernels.classify_rows": attr["kernels.classify_box.rows"],
            "kernels.classify_row_leader_pairs": attr["kernels.classify_box.pairs"],
            "kernels.classify_bytes": attr["kernels.classify_box.bytes"],
            "numpoly.omega_s": total["numpoly.omega"],
            "numpoly.omega_calls": calls["numpoly.omega"],
            "numpoly.omega_subsets": attr["numpoly.omega.subsets"],
            "numpoly.interpolate_self_s": selfs["numpoly.interpolate"],
            "oracle.dimension_s": total["oracle.RankOracle.dimension"],
            "oracle.dimension_calls": calls["oracle.RankOracle.dimension"],
            "oracle.complete_basis_s": total["oracle.complete_basis"],
            "oracle.complete_basis_calls": calls["oracle.complete_basis"],
            "io.load_presentation_s": total["io.load_presentation"],
            "io.serialize_s": total[SERIALIZE],
        }
    )
    return out
