"""Output checks that do not call weyldim.

Each check reads one CLI report (parsed JSON) and returns an error
message, or None when the report is consistent.  Polynomials are
evaluated from their binomial-basis coefficients with `math.comb`:
phi(r) = sum_i a_i * prod_j C(r_j + i_j, i_j).
"""
from __future__ import annotations

import hashlib
from math import comb


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def eval_binomial(entries: list[dict], r) -> int:
    total = 0
    for e in entries:
        v = e["coeff"]
        for i, t in zip(e["index"], r):
            v *= comb(t + i, i)
        total += v
    return total


def _coeffs(entries: list[dict]) -> dict[tuple, int]:
    return {tuple(e["index"]): e["coeff"] for e in entries}


def check_gb(doc: dict, rep: dict) -> str | None:
    p = len(doc["partition"])
    if rep["certified_stages"] != list(range(1, p + 1)):
        return f"certified stages {rep['certified_stages']}, expected 1..{p}"
    if doc["relations"] and not rep["elements"]:
        return "empty basis for a nonempty family"
    return None


def check_dimpoly(doc: dict, rep: dict) -> str | None:
    phi = rep["phi"]["binomial"]
    parts = _coeffs(rep["omega_part"]["binomial"])
    for k, c in _coeffs(rep["psi_part"]["binomial"]).items():
        parts[k] = parts.get(k, 0) + c
    if _coeffs(phi) != {k: c for k, c in parts.items() if c}:
        return "phi differs from omega_part + psi_part"
    for pt in rep["verified_points"]:
        if eval_binomial(phi, pt["r"]) != pt["card_u"]:
            return f"phi({pt['r']}) differs from the verified count {pt['card_u']}"
    if rep["module_is_zero"] != (not phi):
        return "module_is_zero disagrees with phi"
    return None


def check_bernstein(doc: dict, rep: dict) -> str | None:
    psi = _coeffs(rep["psi"]["binomial"])
    if rep["module_is_zero"]:
        ok = not psi and rep["dimension"] == -1 and rep["multiplicity"] == 0
        return None if ok else "zero module with nonzero Bernstein data"
    d = max(k[0] for k in psi)
    # the C(t + d, d) coefficient is the multiplicity: its t^d term is a/d!
    if (rep["dimension"], rep["multiplicity"]) != (d, psi[(d,)]):
        return f"dimension/multiplicity {rep['dimension']}/{rep['multiplicity']} vs psi"
    return None


def check_check(doc: dict, rep: dict, rmax: int) -> str | None:
    p = len(doc["partition"])
    if len(rep["points"]) != (rmax + 1) ** p:
        return f"{len(rep['points'])} grid points, expected {(rmax + 1) ** p}"
    if rep["mismatches"] or not all(pt["ok"] for pt in rep["points"]):
        return f"{rep['mismatches']} grid points disagree"
    return None


def check_eval(doc: dict, rep: dict, at: list[int], dimpoly: dict | None) -> str | None:
    """An eval at or past the threshold must equal phi of the dimpoly report."""
    if rep["r"] != at or not isinstance(rep["dim"], int) or rep["dim"] < 0:
        return f"eval report {rep} for r={at}"
    if dimpoly is None:
        return None
    if all(a >= t for a, t in zip(at, dimpoly["threshold"])):
        phi = eval_binomial(dimpoly["phi"]["binomial"], at)
        if phi != rep["dim"]:
            return f"eval at {at} gives {rep['dim']}, phi gives {phi}"
    return None
