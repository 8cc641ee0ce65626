"""The weyldim benchmark: seeded workloads served through the real CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 25 --trace 0

Workloads: corpus, boxes, staircase, oracle (see workloads.py and
BENCHMARK.json).  Load model: one client, closed loop, one request at a
time.  Each pass is a fresh worker process (worker.py) that serves the
workload's whole request list through `weyldim.cli.main(argv)`, so the
kernel caches start cold as in a CLI call and fill during the pass.
Passes repeat until --seconds have passed; the metrics are medians over
passes.  Set-up time is also probed by workers that only start up.

With --trace 0 the last line carries the end-to-end metrics; with
--trace 1, untraced and traced passes alternate and it carries the
per-layer metrics from the traced passes (spans.py) plus the tracing
overhead.  Every output is checked (checks.py); at seed 0 the sha256 of
each output must also match expected_seed0.json.  A report and a results
file under .perfbench/results/ (for compare.py) are written as well.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from math import ceil
from pathlib import Path

import checks
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED = BENCH / "expected_seed0.json"
# Address-space cap each worker sets on itself: well above the ~0.55 GB
# peak of `boxes`, well below the machine, so a blow-up fails one request.
MEMORY_LIMIT = 3 << 30
SETUP_PROBES = 5
# A run starts no pass that its slowest pass so far could push past this.
RUN_BUDGET_S = 150.0
KINDS = ("gb", "dimpoly", "bernstein", "eval", "check")


# ------------------------------------------------------------------ statistics


def tail_rank(n: int) -> int | None:
    """Highest whole percentile (>= 50) with at least ten of n samples beyond it.

    Nearest-rank: percentile q reads the ceil(q n / 100)-th smallest sample.
    """
    for q in range(99, 49, -1):
        if n - ceil(q * n / 100) >= 10:
            return q
    return None


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """(q, value) of the tail percentile of samples, or None if none qualifies."""
    q = tail_rank(len(samples))
    if q is None:
        return None
    return q, sorted(samples)[ceil(q * len(samples) / 100) - 1]


def median(values):
    return statistics.median(values) if values else 0.0


# ------------------------------------------------------------------ workers


def environment_stamp(worker: dict) -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": worker["numpy"],
        "using_numba": worker["using_numba"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
    }


class Runner:
    """Starts workers one at a time inside a scratch directory."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.count = 0

    def spawn(self, requests, trace: bool) -> tuple[dict | None, float]:
        """Run one worker: (its result or None, its set-up time)."""
        self.count += 1
        plan_path = self.work / f"plan-{self.count}.json"
        result_path = self.work / f"result-{self.count}.json"
        plan = {
            "src": str(ROOT / "src"),
            "memory_limit": MEMORY_LIMIT,
            "requests": requests,
            "trace": trace,
        }
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        cmd = [sys.executable, str(BENCH / "worker.py"), str(plan_path), str(result_path)]
        start = time.monotonic()
        try:
            proc = subprocess.run(
                cmd,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                timeout=max(1.0, self.deadline - start),
            )
        except subprocess.TimeoutExpired:
            print(f"worker {self.count} timed out", file=sys.stderr)
            return None, 0.0
        if proc.returncode != 0 or not result_path.exists():
            tail = proc.stderr.decode(errors="replace")[-2000:]
            print(f"worker {self.count} exited {proc.returncode}: {tail}", file=sys.stderr)
            return None, 0.0
        result = json.loads(result_path.read_text(encoding="utf-8"))
        return result, result["ready"] - start


# ------------------------------------------------------------------ checks


def check_request(req, res: dict, docs: dict, dimpolys: dict) -> str | None:
    if res["error"] or res["rc"] != 0:
        return f"exit {res['rc']}: {res['error'] or res['stderr'].strip()}"
    try:
        rep = json.loads(res["stdout"])
        doc = docs[req.doc]
        if req.kind == "gb":
            return checks.check_gb(doc, rep)
        if req.kind == "dimpoly":
            dimpolys[req.doc] = rep
            return checks.check_dimpoly(doc, rep)
        if req.kind == "bernstein":
            return checks.check_bernstein(doc, rep)
        if req.kind == "check":
            return checks.check_check(doc, rep, int(req.extra[1]))
        if req.kind == "eval":
            at = [int(v) for v in req.extra[1].split(",")]
            return checks.check_eval(doc, rep, at, dimpolys.get(req.doc))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
    return f"unknown request kind {req.kind!r}"


def check_pass(requests, served, docs, expected, digests) -> list[tuple[str, str]]:
    """(request id, reason) for each failed request of one pass.

    digests collects (exit code, sha256) per request id across passes;
    expected holds the recorded ones (seed 0 only, else None).
    """
    failures = []
    dimpolys: dict[str, dict] = {}
    if served is None:
        return [(req.rid, "worker died") for req in requests]
    for req, res in zip(requests, served):
        reason = check_request(req, res, docs, dimpolys)
        got = [res["rc"], checks.digest(res["stdout"])]
        first = digests.setdefault(req.rid, got)
        if reason is None and first != got:
            reason = "output differs between passes"
        if reason is None and expected is not None and expected.get(req.rid) != got:
            reason = "output digest differs from the recorded one"
        if reason:
            failures.append((req.rid, reason))
    return failures


# ------------------------------------------------------------------ metrics


def pass_metrics(requests, served: list[dict], run_s: float, rss: float) -> dict:
    lat = [r["latency"] for r in served]
    out = {"run_s": run_s, "latency_p50_s": median(lat), "peak_rss_mb": rss}
    tail = tail_percentile(lat)
    if tail:
        out["latency_tail_s"] = tail[1]
    for kind in KINDS:
        out[f"{kind}_s"] = sum(r["latency"] for q, r in zip(requests, served) if q.kind == kind)
    return out


def median_over(rows: list[dict]) -> dict:
    keys = {k for row in rows for k in row}
    return {k: median([row[k] for row in rows if k in row]) for k in sorted(keys)}


class Measurement:
    """Everything one run measured."""

    def __init__(self):
        self.setups: list[float] = []
        self.untraced: list[dict] = []  # one row of metrics per pass
        self.traced: list[dict] = []
        self.latencies: list[list[float]] = []  # per untraced pass
        self.failures: list[tuple[str, str]] = []
        self.digests: dict[str, list] = {}
        self.attempted = 0
        self.spans = None
        self.stamp = None

    def end_to_end(self) -> dict:
        out = median_over(self.untraced)
        out["setup_s"] = median(self.setups)
        out["failed_ratio"] = len(self.failures) / max(1, self.attempted)
        return out

    def per_layer(self) -> dict:
        out = median_over(self.traced)
        if self.traced and self.untraced:
            out["trace.overhead_ratio"] = out["run_s"] / median_over(self.untraced)["run_s"]
        return out


def measure(args, docs, requests, expected, runner: Runner, plan, t_start) -> Measurement:
    m = Measurement()
    for _ in range(SETUP_PROBES):
        res, setup = runner.spawn(None, False)
        if res is None:
            raise RuntimeError("a worker failed to start")
        m.setups.append(setup)
        m.stamp = environment_stamp(res)
    slowest = 0.0
    t_loop = time.monotonic()
    while True:
        trace = bool(args.trace) and len(m.untraced) > len(m.traced)
        t0 = time.monotonic()
        res, setup = runner.spawn(plan, trace)
        m.attempted += len(requests)
        slowest = max(slowest, time.monotonic() - t0)
        served = res["requests"] if res else None
        m.failures += check_pass(requests, served, docs, expected, m.digests)
        if res is not None:
            m.setups.append(setup)
            row = pass_metrics(requests, served, res["run_s"], res["peak_rss_mb"])
            if trace:
                row.update(spans.layer_metrics(res["spans"], tuple(res["box_cache"])))
                m.spans = res["spans"]
                m.traced.append(row)
            else:
                m.untraced.append(row)
                m.latencies.append([r["latency"] for r in served])
        now = time.monotonic()
        if now - t_loop >= args.seconds and (not args.trace or m.traced):
            return m
        if now + slowest > t_start + RUN_BUDGET_S:
            return m


# ------------------------------------------------------------------ entry point


def load_config() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--record-expected",
        action="store_true",
        help="store this run's output digests as the seed-0 reference",
    )
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "weyldim" / "__init__.py").is_file():
        print(f"error: no weyldim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_expected and args.seed != 0:
        print("error: digests are recorded for seed 0 only", file=sys.stderr)
        return 2
    config = load_config()
    docs, requests = workloads.build(args.workload, args.seed)
    expected = None
    if args.seed == 0 and not args.record_expected:
        expected = json.loads(EXPECTED.read_text(encoding="utf-8")).get(args.workload, {})

    t_start = time.monotonic()
    work = ROOT / ".perfbench" / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        docdir = work / "docs"
        docdir.mkdir()
        for name, doc in docs.items():
            (docdir / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
        plan = [
            [req.rid, [req.kind, *req.extra, str(docdir / f"{req.doc}.json")]]
            for req in requests
        ]
        runner = Runner(work, t_start + RUN_BUDGET_S + 20)
        m = measure(args, docs, requests, expected, runner, plan, t_start)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e, layer = m.end_to_end(), m.per_layer()
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if m.spans is not None:
        (results_dir / f"{tag}-spans.json").write_text(json.dumps(m.spans), encoding="utf-8")
    if args.record_expected and not m.failures:
        ref = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
        ref[args.workload] = m.digests
        EXPECTED.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "stamp": m.stamp,
        "end_to_end": e2e,
        "per_layer": layer,
        "digests": m.digests,
        "failures": m.failures,
        "passes": m.untraced,
        "latencies": m.latencies,
    }
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print_report(args, requests, m, e2e, layer)

    specs = config["per_layer"] if args.trace else config["end_to_end"]
    values = layer if args.trace else e2e
    missing = [s["name"] for s in specs if s["name"] not in values]
    for name in missing:
        print(f"  MISSING metric {name}")
    metrics = {
        s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
        for s in specs
        if s["name"] in values
    }
    verdict = {
        "correct": not m.failures and not missing,
        "attempted": m.attempted,
        "failed": len(m.failures),
        "metrics": metrics,
    }
    print(json.dumps(verdict))
    return 0


def print_report(args, requests, m: Measurement, e2e: dict, layer: dict) -> None:
    n = len(requests)
    print(
        f"weyldim benchmark: workload {args.workload}, seed {args.seed}, {n} requests "
        f"per pass, {len(m.untraced)} untraced and {len(m.traced)} traced passes, "
        f"{len(m.setups)} set-ups"
    )
    print("environment: " + ", ".join(f"{k}={v}" for k, v in m.stamp.items()))
    print(f"worker memory cap: {MEMORY_LIMIT >> 20} MiB (RLIMIT_AS)")
    print(f"  {'end-to-end (median over passes)':<34} {'value':>12}  unit")
    for name, value in e2e.items():
        if name[:-2] in KINDS and not value:
            continue
        unit = {"peak_rss_mb": "MB", "failed_ratio": "ratio"}.get(name, "s")
        note = f"  p{tail_rank(n)} of {n} per pass" if name == "latency_tail_s" else ""
        print(f"  {name:<34} {value:>12.6g}  {unit}{note}")
    if "latency_tail_s" not in e2e:
        print(f"  {'latency_tail_s':<34} {'n/a':>12}  ({n} requests per pass, needs 20)")
    if layer:
        print(f"  {'per-layer (traced passes)':<34} {'value':>12}")
    for name, value in layer.items():
        if "." in name:
            print(f"  {name:<34} {value:>12.6g}")
    for rid, why in m.failures[:20]:
        print(f"  FAILED {rid}: {why}")


if __name__ == "__main__":
    sys.exit(main())
