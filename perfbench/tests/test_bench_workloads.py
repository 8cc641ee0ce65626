"""The generators: deterministic, weyldim-free, valid, and shaped as stated."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from weyldim import io as wio
from weyldim.numpoly import minimize

BENCH = Path(workloads.__file__).resolve().parent
SEEDS = (0, 1, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_deterministic_per_seed(workload):
    for seed in SEEDS:
        assert workloads.build(workload, seed) == workloads.build(workload, seed)
    assert workloads.build(workload, 1) != workloads.build(workload, 2)


def test_generators_never_import_weyldim():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "import workloads\n"
        "for w in workloads.WORKLOADS:\n"
        "    workloads.build(w, 3)\n"
        "print(sorted(m for m in sys.modules if m.startswith('weyldim')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_documents_parse(workload):
    for seed in SEEDS:
        docs, requests = workloads.build(workload, seed)
        for doc in docs.values():
            wio.parse_presentation(json.dumps(doc))
        assert {r.doc for r in requests} == set(docs)


def _conftest():
    path = BENCH.parent / "tests" / "conftest.py"
    spec = importlib.util.spec_from_file_location("weyldim_suite_builders", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_seed_zero_is_the_conftest_corpus():
    ours = workloads.conftest_corpus(0)
    theirs = dict(_conftest().corpus_presentations())
    assert list(ours) == list(theirs)
    for name, pres in theirs.items():
        parsed = wio.parse_presentation(json.dumps(ours[name]))
        assert wio.presentation_doc(parsed) == wio.presentation_doc(pres), name


def test_dense_draws_fixed_across_seeds():
    a, b = workloads.conftest_corpus(0), workloads.conftest_corpus(5)
    for name in a:
        if name.startswith("dense"):
            assert a[name] == b[name]
    assert any(a[n] != b[n] for n in a if n.startswith(("light", "mono")))


def _packed(rel) -> tuple[int, ...]:
    (rec,) = rel
    return tuple(rec["alpha"][:2]) + tuple(rec["beta"][2:])


@pytest.mark.parametrize("seed", range(6))
def test_staircase_minimal_leaders(seed):
    docs, _ = workloads.build("staircase", seed)
    (doc,) = docs.values()
    pts = [_packed(rel) for rel in doc["relations"]]
    assert len(minimize(pts)) == workloads.STAIRCASE_LEADERS == len(pts)


@pytest.mark.parametrize("seed", range(6))
def test_boxes_pinned_maxima(seed):
    docs, requests = workloads.build("boxes", seed)
    by_slot = dict(zip(docs, workloads.BOXES_SLOTS))
    for name, doc in docs.items():
        sizes, maxima = by_slot[name]
        assert doc["partition"] == list(sizes)
        rows = [_packed(rel) for rel in doc["relations"]]
        assert len(rows) == workloads.BOXES_RELATIONS
        assert tuple(max(col) for col in zip(*rows)) == maxima
        caps = workloads.boxes_caps(sizes, maxima)
        for row in rows:
            assert all(d <= c for d, c in zip(workloads._block_degrees(row, sizes), caps))
    kinds = [r.kind for r in requests]
    assert kinds == ["dimpoly", "eval", "eval"] * len(docs)
