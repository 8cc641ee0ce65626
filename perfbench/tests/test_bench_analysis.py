"""Span analysis, the tail rule, the output checks and the worker."""
import json
import subprocess
import sys

import pytest

import checks
import compare
import run
import spans
import workloads


def _span(name, t0, t1, parent=-1, site="x", attrs=None):
    return [name, site, t0, t1, parent, "req", attrs]


def test_self_time_on_a_synthetic_tree():
    tree = [
        _span("cli.main", 0.0, 10.0),
        _span("groebner.complete_basis", 1.0, 4.0, parent=0),
        _span("groebner.multi_reduce", 1.5, 2.0, parent=1),
        _span("groebner.multi_reduce", 2.5, 3.5, parent=1),
        _span("engine.count_UVW", 5.0, 9.0, parent=0),
        _span("kernels.classify_box", 6.0, 8.0, parent=4),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 1.5, 0.5, 1.0, 2.0, 2.0])


def test_self_time_clips_overlapping_children():
    tree = [
        _span("a.x", 0.0, 4.0),
        _span("a.y", 1.0, 3.0, parent=0),
        _span("a.z", 2.0, 5.0, parent=0),
    ]
    # children cover [1, 4] of the parent's [0, 4]
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


def test_layer_metrics_on_a_synthetic_tree():
    tree = [
        _span("cli.main", 0.0, 10.0),
        _span("groebner.complete_basis", 1.0, 4.0, parent=0, site="oracle",
              attrs={"elements": 3}),
        _span("groebner.multi_reduce", 1.5, 2.0, parent=1, attrs={"zero": 1}),
        _span("groebner.multi_reduce", 2.5, 3.5, parent=1, attrs={"zero": 0}),
        _span("numpoly.omega", 5.0, 6.0, parent=0, attrs={"subsets": 8}),
    ]
    m = spans.layer_metrics(tree, (3, 1))
    assert m["cli.self_s"] == pytest.approx(6.0)
    assert m["groebner.self_s"] == pytest.approx(3.0)
    assert m["groebner.multi_reduce_calls"] == 2
    assert m["groebner.zero_remainder_ratio"] == pytest.approx(0.5)
    assert m["groebner.basis_elements"] == 3
    assert m["oracle.complete_basis_calls"] == 1
    assert m["oracle.complete_basis_s"] == pytest.approx(3.0)
    assert m["numpoly.omega_subsets"] == 8
    assert m["kernels.box_cache_hit_ratio"] == pytest.approx(0.75)


@pytest.mark.parametrize(
    "n, q", [(100, 90), (87, 88), (200, 95), (1000, 99), (20, 50), (19, None), (1, None)]
)
def test_tail_rank(n, q):
    assert run.tail_rank(n) == q


def test_tail_percentile_leaves_ten_samples_beyond():
    samples = [float(v) for v in range(1, 101)]
    q, value = run.tail_percentile(samples[::-1])
    assert (q, value) == (90, 90.0)
    assert sum(1 for v in samples if v > value) == 10
    assert run.tail_percentile(samples[:19]) is None


def test_eval_binomial():
    # C(t + 1, 1) - 1 = t and 2 * C(t + 2, 2) = (t + 2)(t + 1)
    phi = [{"index": [1], "coeff": 1}, {"index": [0], "coeff": -1}]
    assert checks.eval_binomial(phi, [7]) == 7
    assert checks.eval_binomial([{"index": [2, 0], "coeff": 2}], [3, 9]) == 20


def test_dimpoly_check_catches_a_wrong_count():
    rep = {
        "phi": {"binomial": [{"index": [1], "coeff": 1}]},
        "omega_part": {"binomial": [{"index": [1], "coeff": 1}]},
        "psi_part": {"binomial": []},
        "module_is_zero": False,
        "verified_points": [{"r": [3], "card_u": 4}],
    }
    assert checks.check_dimpoly({}, rep) is None
    rep["verified_points"][0]["card_u"] = 5
    assert "differs" in checks.check_dimpoly({}, rep)


def test_eval_check_compares_with_phi_past_the_threshold():
    dim = {"threshold": [2], "phi": {"binomial": [{"index": [1], "coeff": 1}]}}
    assert checks.check_eval({}, {"r": [3], "dim": 4}, [3], dim) is None
    assert checks.check_eval({}, {"r": [3], "dim": 5}, [3], dim) is not None
    # below the threshold phi need not match
    assert checks.check_eval({}, {"r": [1], "dim": 7}, [1], dim) is None


def test_compare_refuses_different_stamps():
    base = {"workload": "w", "seed": 0, "stamp": {"using_numba": False},
            "digests": {}, "end_to_end": {}, "per_layer": {}}
    changed = dict(base, stamp={"using_numba": True})
    assert compare.compare(base, changed)[0] == 3
    assert compare.compare(base, dict(base))[0] == 0


def test_traced_worker_patches_caller_names(tmp_path):
    docs, requests = workloads.build("boxes", 0)
    name = requests[0].doc
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(docs[name]))
    plan = {
        "src": str(run.ROOT / "src"),
        "memory_limit": run.MEMORY_LIMIT,
        "trace": True,
        "requests": [["gb", ["gb", str(doc_path)]], ["eval", ["eval", "--at", "1,1", str(doc_path)]]],
    }
    plan_path, result_path = tmp_path / "plan.json", tmp_path / "result.json"
    plan_path.write_text(json.dumps(plan))
    subprocess.run(
        [sys.executable, str(run.BENCH / "worker.py"), str(plan_path), str(result_path)],
        check=True,
        timeout=120,
    )
    result = json.loads(result_path.read_text())
    assert [r["rc"] for r in result["requests"]] == [0, 0]
    seen = {(s[spans.NAME], s[spans.SITE]) for s in result["spans"]}
    assert ("groebner.complete_basis", "cli") in seen
    assert ("groebner.is_groebner", "groebner") in seen
    assert ("engine.count_UVW", "cli") in seen
    assert ("kernels.classify_box", "engine") in seen
    assert ("io.load_presentation", "io") in seen
    roots = [s for s in result["spans"] if s[spans.PARENT] < 0]
    assert [s[spans.REQ] for s in roots] == ["gb", "eval"]
    assert all(s[spans.NAME] == spans.ROOT for s in roots)


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in run.BENCH.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((run.ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
