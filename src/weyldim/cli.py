"""Command line interface.

Exit codes: 0 success, 1 input or usage error, 2 engine/oracle mismatch,
3 non-convergence of an iterative procedure.
"""
from __future__ import annotations

import argparse
import re
import sys

from . import io as wio
from .engine import (
    bernstein_polynomial,
    count_grid,
    count_UVW,
    dimension_polynomial,
)
from .errors import ConvergenceError, InputError, VerificationError, WeylDimError
from .groebner import complete_basis
from .oracle import RankOracle

_BOUND = re.compile(r"[+-]?[0-9]+")


class _Parser(argparse.ArgumentParser):
    """argparse ends a usage error with exit 2, which the exit codes above
    reserve for a mismatch; report it as an input error instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(f"{self.prog}: {message}")


def _add_file(sub):
    sub.add_argument("file", help="presentation document (JSON)")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="weyldim",
        description="Dimension polynomials of modules over Weyl algebras",
    )
    sp = ap.add_subparsers(dest="command", required=True)

    gb = sp.add_parser("gb", help="multi-order Groebner basis of the relations")
    _add_file(gb)

    dim = sp.add_parser("dimpoly", help="dimension polynomial report")
    _add_file(dim)

    bern = sp.add_parser("bernstein", help="univariate dimension and multiplicity")
    _add_file(bern)

    inv = sp.add_parser("invariants", help="generator-independent invariants")
    _add_file(inv)

    chk = sp.add_parser("check", help="compare engine counts against the rank oracle")
    _add_file(chk)
    chk.add_argument("--rmax", type=int, default=2, help="grid bound per axis")

    ev = sp.add_parser("eval", help="dim M_r by direct enumeration")
    _add_file(ev)
    ev.add_argument("--at", required=True, help="comma-separated bounds r1,...,rp")
    return ap


def _cmd_gb(args) -> int:
    pres = wio.load_presentation(args.file)
    G = complete_basis(pres.relations, pres.P, m=pres.m)
    sys.stdout.write(wio.dumps(wio.basis_doc(G)))
    return 0


def _cmd_dimpoly(args) -> int:
    pres = wio.load_presentation(args.file)
    rep = dimension_polynomial(pres)
    sys.stdout.write(wio.dumps(wio.report_doc(rep)))
    return 0


def _cmd_bernstein(args) -> int:
    pres = wio.load_presentation(args.file)
    rep = bernstein_polynomial(pres)
    sys.stdout.write(wio.dumps(wio.bernstein_doc(rep)))
    return 0


def _cmd_invariants(args) -> int:
    pres = wio.load_presentation(args.file)
    rep = dimension_polynomial(pres)
    sys.stdout.write(wio.dumps(wio.invariants_doc(rep.invariants)))
    return 0


def _prefixes(rmax: int, k: int):
    """{0, ..., rmax}^k in lexicographic order, one tuple at a time."""
    # not itertools.product: it materializes each input range before it
    # yields anything, a 10^9-entry tuple at --rmax 1000000000
    if k == 0:
        yield ()
        return
    for head in _prefixes(rmax, k - 1):
        for v in range(rmax + 1):
            yield head + (v,)


def _cmd_check(args) -> int:
    pres = wio.load_presentation(args.file)
    if args.rmax < 0:
        raise InputError(f"--rmax must be nonnegative, got {args.rmax}")
    rep = dimension_polynomial(pres)
    oracle = RankOracle(rep.basis)
    # the grid in lexicographic order is one chain along the last axis per
    # prefix; each chain shares one echelon.  Prefixes and chains are
    # generated lazily and the oracle refuses the first box or row count
    # over its budget, so only an accepted grid is ever built and counted
    ranks = {}
    for head in _prefixes(args.rmax, pres.P.p - 1):
        chain = (head + (v,) for v in range(args.rmax + 1))
        for v, rank in enumerate(oracle.dimensions(chain)):
            ranks[head + (v,)] = rank
    counts = count_grid(rep.basis, list(ranks))
    points = []
    mismatches = 0
    for (r, rank), (_, _, card_u) in zip(ranks.items(), counts):
        phi_val = rep.phi.eval(r)
        must_match = all(a >= b for a, b in zip(r, rep.threshold))
        ok = card_u == rank and (not must_match or phi_val == card_u)
        mismatches += 0 if ok else 1
        points.append(
            {
                "r": list(r),
                "card_u": card_u,
                "rank_dim": rank,
                "phi": phi_val,
                "phi_must_match": must_match,
                "ok": ok,
            }
        )
    doc = {
        "rmax": args.rmax,
        "threshold": list(rep.threshold),
        "points": points,
        "mismatches": mismatches,
    }
    sys.stdout.write(wio.dumps(doc))
    if mismatches:
        raise VerificationError(f"{mismatches} grid points disagree")
    return 0


def _bounds(text: str) -> tuple[int, ...]:
    """The integers of a comma-separated --at value."""
    entries = [v.strip() for v in text.split(",")]
    # as in the documents: no digit separators, no non-ASCII digits
    if all(_BOUND.fullmatch(v) for v in entries):
        try:
            return tuple(map(int, entries))
        except ValueError:  # past the interpreter's int-to-str digit limit
            pass
    raise InputError(f"--at expects integers, got {text!r}")


def _cmd_eval(args) -> int:
    pres = wio.load_presentation(args.file)
    r = _bounds(args.at)
    if len(r) != pres.P.p:
        raise InputError(f"--at needs {pres.P.p} bounds, got {len(r)}")
    if any(v < 0 for v in r):
        raise InputError(f"--at bounds must be nonnegative, got {r}")
    G = complete_basis(pres.relations, pres.P, m=pres.m)
    card = count_UVW(G, r)[2]
    sys.stdout.write(wio.dumps({"r": list(r), "dim": card}))
    return 0


_PARSER = build_parser()

_COMMANDS = {
    "gb": _cmd_gb,
    "dimpoly": _cmd_dimpoly,
    "bernstein": _cmd_bernstein,
    "invariants": _cmd_invariants,
    "check": _cmd_check,
    "eval": _cmd_eval,
}


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"not converged: {exc}", file=sys.stderr)
        return 3
    except WeylDimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
