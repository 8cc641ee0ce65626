"""Document parsing, canonical serialization, and the command line."""
import hashlib
import itertools
import json
import subprocess
import sys
import time
from fractions import Fraction
from itertools import accumulate
from math import comb

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from weyldim import InputError, Partition, Presentation, RankOracle, dimension_polynomial
from weyldim import cli, engine, groebner, oracle
from weyldim.cli import _COMMANDS, main
from weyldim.io import (
    dumps,
    element_doc,
    load_presentation,
    parse_fraction,
    parse_presentation,
    presentation_doc,
)

from conftest import (
    corpus_presentations,
    derivative_presentation,
    run_cli_capped,
    two_term_presentation,
    worked_pair,
)

EX_DOC = {
    "n": 2,
    "partition": [1, 1],
    "m": 1,
    "relations": [
        [
            {"gen": 1, "alpha": [1, 0], "beta": [0, 1], "coeff": 1},
            {"gen": 1, "alpha": [0, 2], "beta": [1, 0], "coeff": "1"},
        ]
    ],
}


def _term2(alpha, beta, coeff):
    return {"gen": 2, "alpha": alpha, "beta": beta, "coeff": coeff}


def _term(gen, alpha, beta, coeff=1):
    return {"gen": gen, "alpha": alpha, "beta": beta, "coeff": coeff}


def rank_one_file(tmp_path, partition, relations) -> str:
    """Write a rank-1 document on the given blocks; return its path."""
    path = tmp_path / "doc.json"
    doc = {"n": sum(partition), "partition": partition, "m": 1, "relations": relations}
    path.write_text(json.dumps(doc))
    return str(path)


# a two-relation n=2 document whose completion swells to 32 elements
SWELL_DOC = {
    "n": 2,
    "partition": [2],
    "m": 2,
    "relations": [
        [_term2([0, 1], [2, 0], 1), _term2([2, 1], [2, 2], -1)],
        [_term2([1, 0], [2, 0], "-3/4"), _term2([0, 1], [0, 2], 1)],
    ],
}


# a (1,1) document whose phi(300, 300) is 40815901
FAR_DOC = {
    "n": 2,
    "partition": [1, 1],
    "m": 1,
    "relations": [
        [
            {"gen": 1, "alpha": [1, 0], "beta": [0, 2], "coeff": "1"},
            {"gen": 1, "alpha": [0, 1], "beta": [1, 0], "coeff": "1"},
        ]
    ],
}


@pytest.fixture
def ex_file(tmp_path):
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(EX_DOC))
    return str(path)


@pytest.fixture
def far_file(tmp_path):
    path = tmp_path / "far.json"
    path.write_text(json.dumps(FAR_DOC))
    return str(path)


class TestParseFraction:
    def test_accepted_forms(self):
        assert parse_fraction(3, "x") == Fraction(3)
        assert parse_fraction("-2/6", "x") == Fraction(-1, 3)
        assert parse_fraction(" 5 ", "x") == Fraction(5)

    def test_rejected_forms(self):
        for bad in (
            True, False, 1.5, None, "1/0", "a/b", [1],
            "1.5", "1e3", "1_000", "1e100000000", "9" * 5000,
        ):
            with pytest.raises(InputError):
                parse_fraction(bad, "x")


class TestParsePresentation:
    def test_round_trip(self):
        pres = two_term_presentation(1, 1, 2)
        again = parse_presentation(presentation_doc(pres))
        assert again == pres

    def test_accepts_json_text(self):
        pres = parse_presentation(json.dumps(EX_DOC))
        assert pres.P == Partition((1, 1))
        assert len(pres.relations) == 1

    def test_merges_duplicate_records(self):
        doc = dict(EX_DOC)
        rec = {"gen": 1, "alpha": [1, 0], "beta": [0, 1], "coeff": "1/2"}
        doc["relations"] = [[rec, rec]]
        pres = parse_presentation(doc)
        (rel,) = pres.relations
        assert list(rel.terms.values()) == [Fraction(1)]

    def test_free_module(self):
        doc = dict(EX_DOC, relations=[])
        assert parse_presentation(doc).relations == ()

    @pytest.mark.parametrize(
        "mangle,path",
        [
            (lambda d: d.pop("m"), "missing field 'm'"),
            (lambda d: d.update(n=0), "n:"),
            (lambda d: d.update(partition=[1]), "partition"),
            (lambda d: d.update(partition=[1, "x"]), "partition[1]"),
            (lambda d: d.update(m="2"), "m:"),
            (lambda d: d.update(relations="no"), "relations:"),
            (lambda d: d["relations"].append([]), "relations[1]"),
            (
                lambda d: d["relations"][0].append(
                    {"gen": 3, "alpha": [0, 0], "beta": [0, 0], "coeff": 1}
                ),
                "relations[0][2].gen",
            ),
            (
                lambda d: d["relations"][0].append(
                    {"gen": 1, "alpha": [0], "beta": [0, 0], "coeff": 1}
                ),
                "relations[0][2].alpha",
            ),
            (
                lambda d: d["relations"][0].append(
                    {"gen": 1, "alpha": [0, -1], "beta": [0, 0], "coeff": 1}
                ),
                "relations[0][2].alpha[1]",
            ),
            (
                lambda d: d["relations"][0].append(
                    {"gen": 1, "alpha": [0, 0], "beta": [0, 0], "coeff": True}
                ),
                "relations[0][2].coeff",
            ),
            (
                lambda d: d["relations"][0][0].pop("beta"),
                "relations[0][0]",
            ),
        ],
    )
    def test_diagnostics_carry_paths(self, mangle, path):
        doc = json.loads(json.dumps(EX_DOC))
        mangle(doc)
        with pytest.raises(InputError) as err:
            parse_presentation(doc)
        assert path in str(err.value)

    @pytest.mark.parametrize(
        "mangle,path",
        [
            (lambda d: d.update(n=True), "n"),
            (lambda d: d.update(partition=[True]), "partition[0]"),
            (lambda d: d.update(m=True), "m"),
            (lambda d: d["relations"][0][0].update(gen=True), "relations[0][0].gen"),
        ],
        ids=["n", "partition", "m", "gen"],
    )
    def test_booleans_are_not_integers(self, capsys, tmp_path, mangle, path):
        doc = {
            "n": 1,
            "partition": [1],
            "m": 1,
            "relations": [[{"gen": 1, "alpha": [1], "beta": [0], "coeff": "1"}]],
        }
        mangle(doc)
        bad = tmp_path / "bool.json"
        bad.write_text(json.dumps(doc))
        assert main(["dimpoly", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {path}: " in captured.err

    def test_partition_rejects_booleans(self):
        with pytest.raises(InputError):
            Partition((True,))

    def test_cancelling_relation_rejected(self):
        doc = json.loads(json.dumps(EX_DOC))
        rec = dict(doc["relations"][0][0], coeff=-1)
        doc["relations"][0] = [doc["relations"][0][0], rec]
        with pytest.raises(InputError) as err:
            parse_presentation(doc)
        assert "cancel" in str(err.value)

    def test_invalid_json_text(self):
        with pytest.raises(InputError) as err:
            parse_presentation("{not json")
        assert "invalid JSON" in str(err.value)

    def test_load_missing_file(self):
        with pytest.raises(InputError):
            load_presentation("/nonexistent/mod.json")


class TestSerialization:
    def test_dumps_canonical(self):
        text = dumps({"b": 1, "a": [1, 2]})
        assert text == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'

    def test_element_doc_order_is_stable(self):
        pres = derivative_presentation()
        docs = [element_doc(f, pres.P) for f in pres.relations]
        assert docs == [element_doc(f, pres.P) for f in pres.relations]

    def test_report_doc_serializes(self):
        rep = dimension_polynomial(two_term_presentation(1, 1, 2))
        from weyldim.io import report_doc

        text = dumps(report_doc(rep))
        doc = json.loads(text)
        assert doc["holonomic"] is False
        assert doc["invariants"]["diagonal_leading_coeff"] == "3/2"
        assert doc["psi_path"] == "symbolic"


class TestCli:
    def run_ok(self, capsys, argv):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        return json.loads(out)

    def test_gb(self, capsys, ex_file):
        doc = self.run_ok(capsys, ["gb", ex_file])
        assert doc["certified_stages"] == [1, 2]
        assert doc["elements"]

    def test_gb_shapes_read_the_leaders(self, capsys, tmp_path):
        # each shape recomputed from the document's own leader exponents:
        # gaps[i-2] = ord_i(leaders[i-1]) - ord_i(leaders[0]), head = leaders[0]
        gaps = []
        for label, pres in corpus_presentations():
            path = tmp_path / f"{label}.json"
            path.write_text(json.dumps(presentation_doc(pres)))
            doc = self.run_ok(capsys, ["gb", str(path)])
            ends = list(accumulate(doc["partition"]))
            blocks = list(zip([0, *ends], ends))

            def order(ld, i):
                a, b = blocks[i - 1]
                return sum(ld["alpha"][a:b]) + sum(ld["beta"][a:b])

            for el in doc["elements"]:
                lds, shape = el["leaders"], el["shape"]
                assert [ld["order"] for ld in lds] == list(range(1, len(blocks) + 1))
                assert shape["gaps"] == [
                    order(lds[i - 1], i) - order(lds[0], i)
                    for i in range(2, len(blocks) + 1)
                ], label
                assert shape["head"] == {k: lds[0][k] for k in ("gen", "alpha", "beta")}
                gaps += shape["gaps"]
        # the corpus has shapes with nonzero gaps
        assert any(gaps)

    def test_gb_big_coefficients_pinned(self, capsys, tmp_path, monkeypatch):
        # a two-relation n=2 document whose completion swells to 32
        # elements with numerators and denominators of up to 312 digits;
        # the digest pins the bytes of the Fraction-only reduction, and the
        # reduction count the work of completion and its core certificate
        calls = []

        def counted(*args):
            calls.append(1)
            return fast(*args)

        fast = groebner.multi_reduce
        monkeypatch.setattr(groebner, "multi_reduce", counted)
        path = tmp_path / "swell.json"
        path.write_text(json.dumps(SWELL_DOC))
        assert main(["gb", str(path)]) == 0
        out = capsys.readouterr().out
        assert len(json.loads(out)["elements"]) == 32
        assert len(calls) == 525
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b74a741641eea30a621321b693cf81db9219e10728985f898c7f7cdfcee723ca"
        )

    def test_dimpoly(self, capsys, ex_file):
        doc = self.run_ok(capsys, ["dimpoly", ex_file])
        assert doc["total_degree"] == 3
        assert doc["phi"]["binomial"]

    def test_bernstein(self, capsys, ex_file):
        doc = self.run_ok(capsys, ["bernstein", ex_file])
        assert doc["dimension"] == 3
        assert doc["multiplicity"] == 3

    def test_invariants(self, capsys, ex_file):
        doc = self.run_ok(capsys, ["invariants", ex_file])
        assert doc["diagonal_leading_coeff"] == "3/2"

    def test_check(self, capsys, ex_file):
        doc = self.run_ok(capsys, ["check", ex_file, "--rmax", "1"])
        assert doc["mismatches"] == 0

    def test_element_budget_exit(self, capsys, monkeypatch, tmp_path):
        # the first element completion inserts is the third
        monkeypatch.setattr(groebner, "MAX_ELEMENTS", 2)
        path = tmp_path / "swell.json"
        path.write_text(json.dumps(SWELL_DOC))
        assert main(["gb", str(path)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            "error: completion: basis exceeded 2 elements "
            "(groebner.MAX_ELEMENTS); presentation too large\n"
        )

    def test_check_mismatch_writes_the_document(self, capsys, monkeypatch, ex_file):
        # engine counts one too high at every point: the document is still
        # written, then the mismatch is reported with exit 2
        count_grid = cli.count_grid
        monkeypatch.setattr(
            cli,
            "count_grid",
            lambda G, points: [(v, vp, u + 1) for v, vp, u in count_grid(G, points)],
        )
        assert main(["check", ex_file, "--rmax", "1"]) == 2
        out = capsys.readouterr()
        assert json.loads(out.out)["mismatches"] == 4
        assert out.err == "mismatch: 4 grid points disagree\n"

    def test_eval(self, capsys, ex_file):
        doc = self.run_ok(capsys, ["eval", ex_file, "--at", "3,3"])
        assert doc == {"r": [3, 3], "dim": 82}

    def test_eval_bad_at(self, capsys, ex_file):
        assert main(["eval", ex_file, "--at", "3"]) == 1
        assert main(["eval", ex_file, "--at", "a,b"]) == 1
        assert main(["eval", ex_file, "--at=-1,0"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "at",
        [
            *("1_0,3", "\u0663,3", "\uff13,3"),  # digit forms int() also reads
            *("3.0,3", "3e0,3", "0x3,3", "3,", " ,3", "+-3,3"),
        ],
    )
    def test_eval_at_needs_ascii_integers(self, capsys, ex_file, at):
        # int() alone would read "1_0" as 10 and an Arabic-Indic three as 3
        assert main(["eval", ex_file, f"--at={at}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--at expects integers" in captured.err

    def test_eval_at_sign_and_spaces(self, capsys, ex_file):
        doc = self.run_ok(capsys, ["eval", ex_file, "--at= +3 ,03"])
        assert doc == {"r": [3, 3], "dim": 82}
        assert main(["eval", ex_file, "--at=-1, 0"]) == 1
        assert "--at bounds must be nonnegative" in capsys.readouterr().err

    def test_input_error_exit(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["dimpoly", str(bad)]) == 1
        assert main(["dimpoly", str(tmp_path / "missing.json")]) == 1

    def test_exception_mapping(self, capsys, ex_file, monkeypatch):
        from weyldim import ConvergenceError, VerificationError, WeylDimError

        cases = [
            (VerificationError("x"), 2),
            (ConvergenceError("x"), 3),
            (WeylDimError("x"), 1),
        ]
        for exc, code in cases:

            def boom(pres, args, exc=exc):
                raise exc

            monkeypatch.setitem(_COMMANDS, "gb", boom)
            assert main(["gb", ex_file]) == code

    def test_phi_disagreement_exits_2(self, capsys, monkeypatch, tmp_path):
        # from a zero start the sample grid of dense-n2p2-1, on one block
        # where no slack moves it, lies below the bound phi is exact past;
        # the grid is never moved, so its first point is a failed check
        pres = dict(corpus_presentations())["dense-n2p2-1"]
        flat = Presentation(pres.P.collapse(), pres.m, pres.relations)
        path = tmp_path / "dense.json"
        path.write_text(json.dumps(presentation_doc(flat)))
        monkeypatch.setattr(engine, "_base_threshold", lambda G, leaders: (0,) * G.P.p)
        assert main(["dimpoly", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            "mismatch: verification: phi gives 27 at r = (0,), "
            "but enumeration counts 2\n"
        )

    def test_failed_certificate_exits_2(self, capsys, monkeypatch, tmp_path):
        # a core that misses a needed element fails the certificate's
        # membership step: an internal cross-check, not bad input
        P, h1, h2, _ = worked_pair()
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(presentation_doc(Presentation(P, 2, [h1, h2]))))
        monkeypatch.setattr(groebner, "_core", lambda G, P: [0])
        assert main(["gb", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "mismatch: completion failed certification at stage 1\n"

    def test_omega_part_is_checked(self, capsys, monkeypatch, ex_file):
        # one term moved from V' to V: cardU and so phi still match, and
        # only the check of omega_part against cardV sees it
        count_grid = engine.count_grid
        monkeypatch.setattr(
            engine,
            "count_grid",
            lambda G, points: [(v + 1, vp - 1, u) for v, vp, u in count_grid(G, points)],
        )
        assert main(["dimpoly", ex_file]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            "mismatch: verification: omega_part gives 51 at r = (2, 3), "
            "but enumeration counts 52\n"
        )

    def test_subprocess_byte_identical(self, ex_file):
        cmd = [sys.executable, "-m", "weyldim.cli", "dimpoly", ex_file]
        a = subprocess.run(cmd, capture_output=True)
        b = subprocess.run(cmd, capture_output=True)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_start_up_skips_numpy_ma(self, ex_file):
        # one fresh process per command: importing numpy.ma (np.unique does
        # on its first call) would add about 12 ms to every run
        code = (
            "import sys\n"
            "from weyldim.cli import main\n"
            "for args in (['dimpoly', sys.argv[1]], ['eval', sys.argv[1], '--at=3,3'],"
            " ['check', sys.argv[1], '--rmax', '1']):\n"
            "    assert main(args) == 0, args\n"
            "sys.exit('numpy.ma' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", code, ex_file], capture_output=True)
        assert out.returncode == 0, out.stderr

    @pytest.mark.parametrize("args", [["--help"], ["dimpoly", "{file}"]])
    def test_module_entry_point(self, ex_file, args):
        args = [a.format(file=ex_file) for a in args]
        via_pkg = subprocess.run(
            [sys.executable, "-m", "weyldim", *args], capture_output=True
        )
        via_cli = subprocess.run(
            [sys.executable, "-m", "weyldim.cli", *args], capture_output=True
        )
        assert via_pkg.returncode == via_cli.returncode == 0, via_pkg.stderr
        assert via_pkg.stdout == via_cli.stdout
        assert via_pkg.stdout

    def test_eval_far_bound_counts_blockwise(self, far_file):
        # the whole box at (300, 300) would take 61.6 GiB; its block
        # simplices have 45,451 rows each
        out = run_cli_capped(["eval", far_file, "--at=300,300"])
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == {"r": [300, 300], "dim": 40815901}

    def test_eval_far_on_one_axis(self, far_file):
        # phi(6000, 3), past the threshold (2, 3): 180,090,010 box terms in
        # 72,006 weighted classes; no block simplex is built or budgeted
        out = run_cli_capped(["eval", far_file, "--at=6000,3"])
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == {"r": [6000, 3], "dim": 126081010}

    def test_eval_past_cell_budget(self, far_file):
        out = run_cli_capped(["eval", far_file, "--at=1000000,3"])
        assert out.returncode == 1
        assert out.stdout == ""
        assert out.stderr == (
            "error: box counting: the combined class table would have 12000006 "
            "rows of 4 columns, over the budget kernels.MAX_CELLS = 16777216\n"
        )

    def test_eval_class_table_budget(self, tmp_path):
        # one leader on each block: the combined class table is budgeted
        # as rows times the 4 exponent columns of the box, though it
        # stores only the block sums and the leader masks
        doc = {
            "n": 2,
            "partition": [1, 1],
            "m": 1,
            "relations": [[{"gen": 1, "alpha": [1, 1], "beta": [1, 0], "coeff": 1}]],
        }
        path = tmp_path / "one.json"
        path.write_text(json.dumps(doc))
        out = run_cli_capped(["eval", str(path), "--at=1000,1000"])
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == {"r": [1000, 1000], "dim": 1503503001}
        out = run_cli_capped(["eval", str(path), "--at=2000,2000"])
        assert (out.returncode, out.stdout) == (1, "")
        assert out.stderr == (
            "error: box counting: the combined class table would have 16004000 "
            "rows of 4 columns, over the budget kernels.MAX_CELLS = 16777216\n"
        )

    def test_check_stops_at_oracle_cap(self, tmp_path):
        # the grid up to 500 per axis has 251,001 points; the oracle
        # refuses (0, 140) and nothing past it is built or counted
        doc = {"n": 2, "partition": [1, 1], "m": 1, "relations": []}
        path = tmp_path / "free.json"
        path.write_text(json.dumps(doc))
        out = run_cli_capped(["check", str(path), "--rmax", "500"])
        assert out.returncode == 1
        assert out.stdout == ""
        assert out.stderr == (
            "error: rank oracle: box of size 10011 exceeds the budget "
            "oracle.MAX_BOX = 10000\n"
        )

    def test_check_walks_a_huge_grid_lazily(self, tmp_path):
        # a grid of 10^18 points: only the points up to the refused
        # (0, 140) are ever generated
        doc = {"n": 2, "partition": [1, 1], "m": 1, "relations": []}
        path = tmp_path / "free.json"
        path.write_text(json.dumps(doc))
        out = run_cli_capped(["check", str(path), "--rmax", "1000000000"])
        assert out.returncode == 1
        assert out.stdout == ""
        assert out.stderr == (
            "error: rank oracle: box of size 10011 exceeds the budget "
            "oracle.MAX_BOX = 10000\n"
        )

    def test_check_stops_at_row_budget(self, capsys, monkeypatch, ex_file):
        # a budget of exactly the rows at (1, 1) refuses (1, 2), the first
        # point of the grid's walk that needs more, before the (0, *) chain
        # that the budget passes is eliminated
        first = RankOracle(dimension_polynomial(load_presentation(ex_file)).basis)
        first.dimension((1, 1))
        rows = sum(map(len, first._rows.values()))
        monkeypatch.setattr(oracle, "MAX_ROWS", rows)
        inserts = []
        insert = RankOracle._insert

        def counted(pivots, row):
            inserts.append(row)
            return insert(pivots, row)

        monkeypatch.setattr(RankOracle, "_insert", staticmethod(counted))
        assert main(["check", ex_file, "--rmax", "2"]) == 1
        assert inserts == []
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: rank oracle: ")
        assert out.err.endswith(
            f" at r=(1, 2) are over the budget oracle.MAX_ROWS = {rows}\n"
        )

    def test_eval_refuses_int64_overflow(self, tmp_path):
        # each block simplex fits the cell budget, the box of ~6.3e22 terms
        # does not fit int64
        doc = {
            "n": 4,
            "partition": [1, 1, 1, 1],
            "m": 1,
            "relations": [
                [{"gen": 1, "alpha": [1, 0, 0, 0], "beta": [0, 0, 0, 0], "coeff": 1}]
            ],
        }
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        out = run_cli_capped(["eval", str(path), "--at=1000,1000,1000,1000"])
        assert out.returncode == 1
        assert out.stderr.startswith("error: box counting:")
        assert "overflows the exact int64 counts" in out.stderr

    @pytest.mark.parametrize(
        "n,argv",
        [(4000, ["eval", "--at=8000"]), (100_000, ["dimpoly"]), (3_000_000, ["dimpoly"])],
        ids=["eval-n4000", "dimpoly-n1e5", "dimpoly-n3e6"],
    )
    def test_large_block_is_refused_at_once(self, tmp_path, n, argv):
        # the block's size runs past the int-to-str digit limit and is never
        # taken; dimpoly refuses before omega, whose binomials are huge
        path = tmp_path / "block.json"
        path.write_text(json.dumps({"n": n, "partition": [n], "m": 1, "relations": []}))
        start = time.perf_counter()
        out = run_cli_capped([argv[0], str(path), *argv[1:]])
        assert time.perf_counter() - start < 30
        assert out.returncode == 1
        assert out.stdout == ""
        assert out.stderr.startswith("error: box counting: the box of block widths")
        assert out.stderr.endswith(" overflows the exact int64 counts\n")
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize(
        "n,relations,dim",
        [(248, [], 497), (400, [[_term(1, [1] * 400, [0] * 400)]], 801)],
        ids=["free-n248", "x1-to-x400"],
    )
    def test_wide_block_clamps_without_recursion(self, tmp_path, n, relations, dim):
        # 496 and 800 clamped columns, each one step of the enumerator
        path = rank_one_file(tmp_path, [n], relations)
        out = run_cli_capped(["eval", path, "--at=1"])
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == {"r": [1], "dim": dim}

    def test_exact_counts_up_to_int64(self, tmp_path):
        # a relation-free block of width 32: every box through C(66, 32) at
        # 34 fits int64 and is counted exactly; C(67, 32) at 35 does not,
        # so it is refused rather than wrapped
        path = rank_one_file(tmp_path, [16], [])
        for at, dim in [
            (28, 103719945525634515),
            (33, 3609714217008132870),
            (34, 7007092303604022630),
        ]:
            out = run_cli_capped(["eval", path, f"--at={at}"])
            assert out.returncode == 0, out.stderr
            assert json.loads(out.stdout) == {"r": [at], "dim": dim}
            assert dim == comb(at + 32, 32)
        out = run_cli_capped(["eval", path, "--at=35"])
        assert (out.returncode, out.stdout) == (1, "")
        assert out.stderr == (
            "error: box counting: the box of block widths (32,) at bound (35,) "
            "overflows the exact int64 counts\n"
        )

    @pytest.mark.parametrize(
        "e,at,message",
        [
            (3000, 6000, "the clamped vectors of the block of width 2 at bound 6000 "
             "would have 9006001 rows of 3 columns"),
            (1000, 100000, "the (u, s) pairs of the block of width 2 at bound 100000 "
             "would have 198101001 rows of 3 columns"),
        ],
        ids=["clamped-vectors", "pairs"],
    )
    def test_block_classes_budgets(self, tmp_path, e, at, message):
        # one relation x^e d^e: caps (e, e), far below the box's
        # C(at + 2, 2) rows, which are neither built nor budgeted
        path = rank_one_file(tmp_path, [1], [[_term(1, [e], [e])]])
        out = run_cli_capped(["eval", path, f"--at={at}"])
        assert (out.returncode, out.stdout) == (1, "")
        assert out.stderr == (
            f"error: box counting: {message}, over the budget "
            "kernels.MAX_CELLS = 16777216\n"
        )

    def test_level_set_staircase(self, tmp_path):
        # the 286 x-monomials x^a with |a| = 10 in N^4: on one block their
        # classes come from 14,641 clamped vectors; on (2, 2) the combined
        # class table is 2,869,636 rows of 2 sums, 5 mask words and a weight
        level = [a for a in itertools.product(range(11), repeat=4) if sum(a) == 10]
        rels = [[_term(1, list(a), [0] * 4)] for a in level]
        assert len(rels) == 286
        out = run_cli_capped(["dimpoly", rank_one_file(tmp_path, [4], rels)])
        assert out.returncode == 0, out.stderr
        assert hashlib.sha256(out.stdout.encode()).hexdigest() == (
            "89ff50384cc9b6e76381a20bfb330258659afeca2bc90ab4081fac400df775f1"
        )
        out = run_cli_capped(["dimpoly", rank_one_file(tmp_path, [2, 2], rels)])
        assert (out.returncode, out.stdout) == (1, "")
        assert out.stderr == (
            "error: box counting: the combined class table would have 2869636 "
            "rows of 8 columns, over the budget kernels.MAX_CELLS = 16777216\n"
        )

    def test_many_blocks_refuse_the_sample_grid(self, tmp_path):
        # 14 one-variable blocks give a sample grid of 3^14 + 28 points of
        # 14 cells each; it is refused before any point is built
        doc = {"n": 14, "partition": [1] * 14, "m": 1, "relations": []}
        path = tmp_path / "blocks.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        out = run_cli_capped(["dimpoly", str(path)])
        assert time.perf_counter() - start < 10
        assert out.returncode == 1
        assert out.stdout == ""
        assert out.stderr.startswith(
            "error: box counting: the sample grid would have 4782997 rows of 14 columns"
        )
        assert "Traceback" not in out.stderr

    def test_free_rank_counts_free_generators_once(self, tmp_path):
        doc = {"n": 1, "partition": [1], "m": 10**9, "relations": []}
        path = tmp_path / "rank.json"
        path.write_text(json.dumps(doc))
        out = run_cli_capped(["dimpoly", str(path)])
        assert out.returncode == 0, out.stderr
        rep = json.loads(out.stdout)
        assert rep["phi"]["binomial"] == [{"index": [2], "coeff": 10**9}]
        out = run_cli_capped(["check", str(path)])
        assert out.returncode == 1
        assert out.stderr == (
            "error: rank oracle: box of size 1000000000 exceeds the budget "
            "oracle.MAX_BOX = 10000\n"
        )

    def test_eval_at_past_the_digit_limit(self, capsys, ex_file):
        assert main(["eval", ex_file, "--at=" + "9" * 5000 + ",3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --at expects integers")

    def test_psi_path_option_is_gone(self, capsys, ex_file):
        assert main(["dimpoly", ex_file, "--psi-path", "interpolation"]) == 1
        assert "unrecognized arguments: --psi-path" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload,message",
        [
            (b'{"n": 1, "partition": [1], "m": 1, "relations": [], "x": "\xff"}', "not UTF-8"),
            (b"[" * 200_000 + b"]" * 200_000, "nested too deeply"),
            (b'{"n": ' + b"9" * 5000 + b', "partition": [1], "m": 1, "relations": []}', "digits"),
        ],
        ids=["non-utf8", "deep-nesting", "long-integer"],
    )
    def test_malformed_file_is_an_input_error(self, tmp_path, payload, message):
        path = tmp_path / "bad.json"
        path.write_bytes(payload)
        out = run_cli_capped(["gb", str(path)])
        assert out.returncode == 1
        assert out.stdout == ""
        assert out.stderr.startswith("error: ")
        assert message in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize(
        "argv",
        [[], ["bogus"], ["eval", "{file}"], ["check", "{file}", "--rmax", "x"], ["gb"]],
        ids=["no-command", "unknown-command", "eval-without-at", "bad-rmax", "no-file"],
    )
    def test_usage_error_exits_1(self, capsys, ex_file, argv):
        assert main([a.format(file=ex_file) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: weyldim")
        assert "error: weyldim" in err

    def test_exponent_coefficient_rejected_at_once(self, capsys, tmp_path):
        doc = dict(EX_DOC)
        rec = {"gen": 1, "alpha": [1, 0], "beta": [0, 1], "coeff": "1e100000000"}
        doc["relations"] = [[rec]]
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        t0 = time.perf_counter()
        assert main(["gb", str(path)]) == 1
        assert time.perf_counter() - t0 < 5.0
        err = capsys.readouterr().err
        assert "relations[0][0].coeff" in err

    def test_parser_built_once(self, capsys, monkeypatch, ex_file):
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1))
        assert main(["gb", ex_file]) == 0
        assert main(["gb", ex_file]) == 0
        assert built == []

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["--help"])
        assert done.value.code == 0
        assert capsys.readouterr().out.startswith("usage: weyldim")


# small well-formed documents, each possibly with one value replaced by
# arbitrary JSON or one field dropped
json_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False), st.text(max_size=4)
)
json_any = st.recursive(
    json_leaf,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _slots(node):
    """(container, key) for every value inside a parsed document."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for k in keys:
        yield node, k
        if isinstance(node[k], (dict, list)):
            yield from _slots(node[k])


@st.composite
def fuzz_documents(draw):
    n = draw(st.integers(1, 2))
    # exponents up to 1: with exponents up to 2, completing two two-term
    # relations on n = 2 can take over a minute
    vec = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    record = st.fixed_dictionaries(
        {
            "gen": st.integers(1, 2),
            "alpha": vec,
            "beta": vec,
            "coeff": st.sampled_from([1, -1, 2, "1/2", "-3/4"]),
        }
    )
    doc = {
        "n": n,
        "partition": draw(st.sampled_from([[n], [1] * n])),
        "m": draw(st.integers(1, 2)),
        "relations": draw(st.lists(st.lists(record, min_size=1, max_size=2), max_size=2)),
    }
    change = draw(st.sampled_from(["none", "replace", "drop"]))
    if change != "none":
        node, key = draw(st.sampled_from(list(_slots(doc))))
        if change == "replace":
            node[key] = draw(json_any)
        else:
            del node[key]
    return json.dumps(doc).encode()


class TestCliFuzz:
    """Every document and byte string ends in an exit code, never an exception."""

    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        payload=st.one_of(fuzz_documents(), st.binary(max_size=40)),
        argv=st.sampled_from(
            [["gb"], ["dimpoly"], ["eval", "--at=1,1"], ["eval", "--at=2"], ["eval", "--at=x"]]
        ),
    )
    def test_exit_code_contract(self, capsys, tmp_path, payload, argv):
        path = tmp_path / "fuzz.json"
        path.write_bytes(payload)
        code = main([argv[0], str(path), *argv[1:]])
        assert code in (0, 1, 2, 3)
        # these commands print only a finished result
        assert (capsys.readouterr().out != "") == (code == 0)
