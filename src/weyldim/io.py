"""JSON presentation documents and canonical serialization.

Input format (one JSON object):

    {
      "n": 2,
      "partition": [1, 1],
      "m": 2,
      "relations": [
        [{"gen": 2, "alpha": [0, 2], "beta": [1, 1], "coeff": "1"},
         {"gen": 1, "alpha": [1, 1], "beta": [1, 1], "coeff": "1"}]
      ]
    }

Coefficients are integer or "num/den" strings: an optional sign, ASCII
digits, and optionally "/" and digits, surrounding whitespace ignored
(plain JSON integers are also accepted).  Duplicate (gen, alpha, beta)
records within a relation are summed.  All output is emitted with
sorted keys and a fixed element order, so equal inputs produce
byte-identical output.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any

from .engine import BernsteinReport, DimensionReport, Presentation
from .errors import InputError
from .groebner import GroebnerBasis
from .numpoly import InvariantReport, NumericalPolynomial
from .terms import ModuleElement, Term, leader, rho
from .weyl import Partition


def _expect(cond: bool, where: str, msg: str):
    if not cond:
        raise InputError(f"{where}: {msg}")


def _is_int(value: Any) -> bool:
    """JSON integer; bool is an int subclass in Python, so exclude it."""
    return isinstance(value, int) and not isinstance(value, bool)


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_fraction(value: Any, where: str) -> Fraction:
    if isinstance(value, bool):
        raise InputError(f"{where}: booleans are not coefficients")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        # Fraction(str) also takes decimals, exponents and underscores;
        # an exponent like "1e100000000" would expand without bound
        if not _RATIONAL.fullmatch(text):
            raise InputError(
                f"{where}: bad rational {value!r} (expected an integer or 'num/den')"
            )
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{where}: bad rational {value!r} ({exc})") from None
    raise InputError(f"{where}: coefficient must be an integer or 'num/den' string")


def _parse_vector(value: Any, n: int, where: str) -> tuple[int, ...]:
    _expect(isinstance(value, list), where, "expected a list of integers")
    _expect(len(value) == n, where, f"expected length {n}, got {len(value)}")
    for k, e in enumerate(value):
        _expect(
            _is_int(e) and e >= 0,
            f"{where}[{k}]",
            f"expected a nonnegative integer, got {e!r}",
        )
    return tuple(value)


def parse_presentation(doc: Any) -> Presentation:
    """Validate a presentation document; diagnostics carry JSON paths."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except RecursionError:
            raise InputError("invalid JSON: nested too deeply") from None
        except ValueError as exc:
            # JSONDecodeError, bytes that are not UTF-8, and integers past
            # the interpreter's digit limit
            raise InputError(f"invalid JSON: {exc}") from None
    _expect(isinstance(doc, dict), "document", "expected a JSON object")
    for field in ("n", "partition", "m", "relations"):
        _expect(field in doc, "document", f"missing field {field!r}")
    n = doc["n"]
    _expect(_is_int(n) and n >= 1, "n", f"expected a positive integer, got {n!r}")
    part = doc["partition"]
    _expect(isinstance(part, list) and part, "partition", "expected a nonempty list")
    for k, s in enumerate(part):
        _expect(
            _is_int(s) and s >= 1,
            f"partition[{k}]",
            f"expected a positive integer, got {s!r}",
        )
    _expect(
        sum(part) == n,
        "partition",
        f"block sizes sum to {sum(part)}, expected n={n}",
    )
    P = Partition(tuple(part))
    m = doc["m"]
    _expect(_is_int(m) and m >= 1, "m", f"expected a positive integer, got {m!r}")
    rels_doc = doc["relations"]
    _expect(isinstance(rels_doc, list), "relations", "expected a list")
    relations = []
    for i, rel in enumerate(rels_doc):
        where = f"relations[{i}]"
        _expect(isinstance(rel, list), where, "expected a list of term records")
        _expect(bool(rel), where, "empty relation (would be zero)")
        items = []
        for j, rec in enumerate(rel):
            wt = f"{where}[{j}]"
            _expect(isinstance(rec, dict), wt, "expected a term record object")
            for field in ("gen", "alpha", "beta", "coeff"):
                _expect(field in rec, wt, f"missing field {field!r}")
            gen = rec["gen"]
            _expect(
                _is_int(gen) and 1 <= gen <= m,
                f"{wt}.gen",
                f"index {gen!r} out of range 1..{m}",
            )
            alpha = _parse_vector(rec["alpha"], n, f"{wt}.alpha")
            beta = _parse_vector(rec["beta"], n, f"{wt}.beta")
            coeff = parse_fraction(rec["coeff"], f"{wt}.coeff")
            items.append(((gen, (alpha, beta)), coeff))
        f = ModuleElement(n, m, items)
        _expect(not f.is_zero(), where, "terms cancel to the zero relation")
        relations.append(f)
    return Presentation(P, m, tuple(relations))


def load_presentation(path: str) -> Presentation:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 text ({exc})") from None
    return parse_presentation(text)


def frac_str(c: Fraction) -> str:
    return str(Fraction(c))


def _term_record(t: Term) -> dict:
    return {"gen": t.gen, "alpha": list(t.theta.alpha), "beta": list(t.theta.beta)}


def element_doc(f: ModuleElement, P: Partition) -> list[dict]:
    return [{**_term_record(t), "coeff": frac_str(c)} for t, c in f.sorted_terms(P)]


def presentation_doc(pres: Presentation) -> dict:
    return {
        "n": pres.P.n,
        "partition": list(pres.P.sizes),
        "m": pres.m,
        "relations": [element_doc(f, pres.P) for f in pres.relations],
    }


def polynomial_doc(poly: NumericalPolynomial) -> dict:
    return {
        "binomial": [
            {"index": list(k), "coeff": c} for k, c in sorted(poly.coeffs.items())
        ],
        "monomial": [
            {"exponents": list(k), "coeff": frac_str(c)}
            for k, c in sorted(poly.monomial_view().items())
        ],
    }


def basis_doc(G: GroebnerBasis) -> dict:
    elements = []
    for g in G.elements:
        leaders_doc = []
        for i in range(1, G.P.p + 1):
            t, c = leader(g, i, G.P)
            leaders_doc.append({"order": i, **_term_record(t), "coeff": frac_str(c)})
        shape = rho(g, G.P)
        elements.append(
            {
                "terms": element_doc(g, G.P),
                "leaders": leaders_doc,
                "shape": {"gaps": list(shape.d), "head": _term_record(shape.head)},
            }
        )
    return {
        "partition": list(G.P.sizes),
        "m": G.m,
        "certified_stages": list(G.certified),
        "elements": elements,
    }


def invariants_doc(inv: InvariantReport) -> dict:
    return {
        "total_degree": inv.total_degree,
        "diagonal_leading_coeff": inv.diagonal_leading_coeff,
        "support": [list(k) for k in inv.support],
        "maximal_support": [list(k) for k in inv.maximal_support],
        "maximal_coeffs": [
            {"index": list(k), "coeff": c} for k, c in inv.maximal_coeffs
        ],
        "top_monomials": [
            {"exponents": list(k), "coeff": c} for k, c in inv.top_monomials
        ],
    }


def report_doc(rep: DimensionReport) -> dict:
    return {
        "partition": list(rep.presentation.P.sizes),
        "m": rep.presentation.m,
        "phi": polynomial_doc(rep.phi),
        "omega_part": polynomial_doc(rep.omega_part),
        "psi_part": polynomial_doc(rep.psi_part),
        "psi_path": rep.psi_path,
        "total_degree": rep.phi.degree_data()[0],
        "holonomic": rep.holonomic,
        "module_is_zero": rep.module_is_zero,
        "invariants": invariants_doc(rep.invariants),
        "threshold": list(rep.threshold),
        "verified_points": [
            {"r": list(r), "card_u": c} for r, c in rep.verified_points
        ],
    }


def bernstein_doc(rep: BernsteinReport) -> dict:
    return {
        "psi": polynomial_doc(rep.psi),
        "dimension": rep.dimension,
        "multiplicity": rep.multiplicity,
        "module_is_zero": rep.report.module_is_zero,
    }


def dumps(doc: dict) -> str:
    """Canonical rendering: sorted keys, two-space indent, newline end."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
