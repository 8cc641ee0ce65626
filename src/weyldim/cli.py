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


def _cmd_gb(pres, args) -> dict:
    return wio.basis_doc(complete_basis(pres.relations, pres.P, m=pres.m))


def _cmd_dimpoly(pres, args) -> dict:
    return wio.report_doc(dimension_polynomial(pres))


def _cmd_bernstein(pres, args) -> dict:
    return wio.bernstein_doc(bernstein_polynomial(pres))


def _cmd_invariants(pres, args) -> dict:
    return wio.invariants_doc(dimension_polynomial(pres).invariants)


def _cmd_check(pres, args) -> dict:
    if args.rmax < 0:
        raise InputError(f"--rmax must be nonnegative, got {args.rmax}")
    rep = dimension_polynomial(pres)
    # the oracle refuses an over-budget grid before it builds any row, so
    # only an accepted grid is ever eliminated and counted
    ranks = RankOracle(rep.basis).grid(args.rmax)
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
    return {
        "rmax": args.rmax,
        "threshold": list(rep.threshold),
        "points": points,
        "mismatches": mismatches,
    }


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


def _cmd_eval(pres, args) -> dict:
    r = _bounds(args.at)
    if len(r) != pres.P.p:
        raise InputError(f"--at needs {pres.P.p} bounds, got {len(r)}")
    if any(v < 0 for v in r):
        raise InputError(f"--at bounds must be nonnegative, got {r}")
    G = complete_basis(pres.relations, pres.P, m=pres.m)
    return {"r": list(r), "dim": count_UVW(G, r)[2]}


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
        doc = _COMMANDS[args.command](wio.load_presentation(args.file), args)
        sys.stdout.write(wio.dumps(doc))
        # only a check document reports mismatches
        if doc.get("mismatches"):
            raise VerificationError(f"{doc['mismatches']} grid points disagree")
        return 0
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
