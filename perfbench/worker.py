"""One benchmark pass in a fresh process.

Usage: python3 perfbench/worker.py PLAN RESULT

PLAN is a JSON file written by run.py.  The worker caps its own address
space, imports weyldim from the plan's source directory, then serves the
plan's requests in order through `weyldim.cli.main(argv)` with stdout
and stderr captured.  It writes timings, outputs, exit codes, peak RSS
and (when traced) the spans to RESULT.  A plan without requests only
measures set-up.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

from spans import Tracer


def serve(main, rid: str, argv: list[str], tracer: Tracer | None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None

    def call():
        return main(argv)

    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = tracer.root(rid, call) if tracer else call()
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a failed request, MemoryError from the cap included
        rc, error = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    return {
        "rid": rid,
        "rc": rc,
        "latency": latency,
        "stdout": out.getvalue(),
        "stderr": err.getvalue()[-2000:],
        "error": error,
    }


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    limit = plan["memory_limit"]
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    sys.path.insert(0, plan["src"])
    import numpy
    import weyldim.cli
    import weyldim.kernels

    result = {
        "ready": time.monotonic(),
        "numpy": numpy.__version__,
        "using_numba": weyldim.kernels.USING_NUMBA,
    }
    if plan["requests"]:
        tracer = None
        if plan["trace"]:
            tracer = Tracer()
            tracer.install()
        served = []
        t0 = time.perf_counter()
        for rid, argv in plan["requests"]:
            served.append(serve(weyldim.cli.main, rid, argv, tracer))
        result["run_s"] = time.perf_counter() - t0
        result["requests"] = served
        info = weyldim.kernels.box_vectors.cache_info()
        result["box_cache"] = [info.hits, info.misses]
        if tracer:
            result["spans"] = tracer.spans
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
