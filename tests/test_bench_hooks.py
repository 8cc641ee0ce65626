"""The names the benchmark in perfbench/ patches or reads still exist.

perfbench/spans.py wraps functions by name on each module that looks
them up, and perfbench/worker.py reads two kernel attributes.  A rename
or deletion in weyldim would otherwise surface only in a traced
benchmark run.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

import weyldim.kernels
import weyldim.numpoly
import weyldim.oracle

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_spans().TARGETS

# sites TARGETS lists that no longer look the name up: counting never
# builds a box, the class table carries its block sums, RankOracle takes
# an already completed basis, and phi has one closed form, so the engine
# interpolates nothing.  Patching them is a no-op and their
# spans read zero.  Should one of them bind the name again, the test
# fails so that this exception is revisited.
UNUSED_SITES = {
    ("box_vectors", "engine"),
    ("block_sum_matrix", "engine"),
    ("complete_basis", "oracle"),
    ("interpolate", "engine"),
}


@pytest.mark.parametrize(
    "name,home,attr,sites", TARGETS, ids=[f"{t[0]}:{t[2]}" for t in TARGETS]
)
def test_target_resolves_at_every_site(name, home, attr, sites):
    fn = getattr(importlib.import_module(f"weyldim.{home}"), attr)
    assert callable(fn)
    for site in sites:
        bound = getattr(importlib.import_module(f"weyldim.{site}"), attr, None)
        if (attr, site) in UNUSED_SITES:
            assert bound is None, f"weyldim.{site} binds {attr} again"
        else:
            assert bound is fn, f"weyldim.{site}.{attr} is not weyldim.{home}.{attr}"


def test_attributes_the_tracer_and_worker_read():
    assert callable(weyldim.numpoly.minimize)
    assert callable(weyldim.oracle.RankOracle.dimension)
    assert isinstance(weyldim.kernels.USING_NUMBA, bool)
    info = weyldim.kernels.box_vectors.cache_info()
    assert info.hits >= 0 and info.misses >= 0
