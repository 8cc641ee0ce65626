"""What `src/weyldim` holds: every import is read, every function runs.

Every name a weyldim module imports is used in that module; `__init__` is
left out, since it imports names only to re-export them.  The test
modules are held to the same rule.  And every function and method that
`src/weyldim` defines is run by the command line over a few corpus
presentations, apart from a short list of entry points for library
callers, so that test-only code lives under `tests/`.

`Fraction`s stay at the edges: only the element type, the numerical
polynomials and the JSON layer import `fractions`, and completion and the
rank oracle never read an element's `Fraction` view.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from weyldim import ModuleElement, RankOracle, complete_basis
from weyldim import io as wio

from conftest import corpus_presentations

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "weyldim"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(p.name for p in Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of source that nothing else in it reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_finds_an_unused_import():
    source = "import os\nfrom math import gcd, lcm\nimport numpy as np\nnp.sum(gcd)\n"
    assert unused_imports(source) == ["os", "lcm"]


def imports(source: str, module: str) -> bool:
    """Whether source imports the top-level module, in either import form."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == module for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == module:
                return True
    return False


def test_fractions_imported_only_at_the_edges():
    assert imports("from fractions import Fraction\n", "fractions")
    assert imports("import fractions as fr\n", "fractions")
    assert not imports("from .terms import Fraction\n", "fractions")
    importers = {m for m in MODULES if imports((SRC / m).read_text(), "fractions")}
    assert importers <= {"terms.py", "numpoly.py", "io.py"}


def test_completion_and_oracle_read_no_fractions(monkeypatch):
    corpus = dict(corpus_presentations())
    reads = []
    view = ModuleElement.terms

    def counted(self):
        reads.append(self)
        return view.fget(self)

    monkeypatch.setattr(ModuleElement, "terms", property(counted))
    for label in REACH_CASES:
        pres = corpus[label]
        G = complete_basis(pres.relations, pres.P, m=pres.m)
        assert reads == [], label
        RankOracle(G).dimensions([(0,) * pres.P.p, (1,) * pres.P.p])
        assert reads == [], label
    # the patched view counts
    G.elements[0].terms
    assert len(reads) == 1


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


@pytest.mark.parametrize("module", TEST_MODULES)
def test_no_unused_imports_in_tests(module):
    assert unused_imports((Path(__file__).parent / module).read_text()) == []


# Functions the command line need not run: entry points that README.md
# documents for library callers, with the certification check membership
# makes, the whole-basis multiplier bound, and the constructors and
# accessor of the documented input type ModuleElement, then what perfbench
# reads, and what runs only at import time, before the profiler is set.
NOT_RUN_BY_CLI = {
    "groebner.membership",
    "groebner.GroebnerBasis.fully_certified",
    "groebner.GroebnerBasis.multiplier_bound",
    "terms.ModuleElement.single",
    "terms.ModuleElement.basis_vector",
    "terms.ModuleElement.coeff",
    "terms.ModuleElement.scale",
    "engine.bernstein_inequality_check",
    "engine.count_UVW",
    "numpoly.invariant_set",
    "oracle.RankOracle.dimension",
    "oracle.RankOracle.dimensions",
    "io.presentation_doc",
    "cli.build_parser",
    "cli._add_file",
}

# between them these reach every function the command line runs
REACH_CASES = (
    "dense-n1-0",
    "dense-n1-7",
    "dense-n2p1-0",
    "dense-n2p1-5",
    "dense-n2p2-3",
    "mono-n3p2-2",
    "sparse-n3p3",
    "light-n3p1-0",
)

# a fresh interpreter: earlier tests warm the lru_caches, and a cache hit
# answers without entering the function, so the profiler would not see it
CHILD = """
import contextlib, io, json, sys
import weyldim.cli as cli

calls = set()

def hook(frame, event, arg):
    if event == "call":
        calls.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

codes = []
sink = io.StringIO()
sys.setprofile(hook)
with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
    for argv in json.loads(sys.argv[1]):
        codes.append(cli.main(argv))
sys.setprofile(None)
json.dump({"codes": codes, "calls": sorted(calls)}, sys.stdout)
"""


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> module.qualname of every function in src/weyldim.

    Dunder methods are left out.  Code objects carry no qualified name
    before Python 3.11, so a function is matched by its file and first
    line, which for a decorated function is the line of its first
    decorator.
    """
    out = {}

    def walk(node, path: Path, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(os.path.realpath(path), line)] = f"{path.stem}.{name}"
                walk(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path, "")
    return out


def test_defined_functions_sees_methods_and_nested_functions():
    names = set(defined_functions().values())
    assert {"oracle.RankOracle.dimensions", "oracle.RankOracle._eliminate.count"} <= names
    assert "terms.ModuleElement.__init__" not in names


def test_cli_runs_every_function_in_src(tmp_path):
    corpus = dict(corpus_presentations())
    argv = []
    for label in REACH_CASES:
        pres = corpus[label]
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(wio.presentation_doc(pres)))
        at = ",".join(["2"] * pres.P.p)
        for cmd in (["gb"], ["dimpoly"], ["bernstein"], ["invariants"],
                    ["check", "--rmax", "1"], ["eval", "--at", at]):
            argv.append([*cmd, str(path)])
    argv.append(["dimpoly"])  # a usage error: no document
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argv)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)
    assert result["codes"] == [0] * (len(argv) - 1) + [1]
    called = {(os.path.realpath(f), line) for f, line in result["calls"]}
    unreached = {
        name
        for key, name in defined_functions().items()
        if key not in called and name not in NOT_RUN_BY_CLI
    }
    assert not unreached, f"never run: {sorted(unreached)}"
