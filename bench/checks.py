"""Correctness checks for benchmark ops, run outside the timed region.

Each check returns None when the result is right and a short reason when it
is wrong.  The references are independent of the path under test where one
exists: closed forms for the heisenberg5 special flags, the Levi-Civita
table with the identity Gram for zero deformation, and flag invariance
otherwise.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

import randersflag as rf

#: Special-flag closed forms must hold to this absolute error (the table1
#: contract).
CLOSED_FORM_TOL = 1e-9

#: Relative agreement, on max(1, |K|), between two evaluations of one flag
#: curvature by different routes.
RELATIVE_TOL = 1e-9

#: Defect contract of connection-tables.
CONNECTION_TOL = 1e-10

#: Witness margin of sign_search.
WITNESS_MIN_CURVATURE = 1e-8

#: Default sign_search sample budget.
SEARCH_BUDGET = 512

#: Samples a heisenberg5 search takes: cases 1.1, 1.2, 2.1 are positive and
#: 2.2 is the first negative one.
HEISENBERG_SEARCH_SAMPLES = 4


def _close(k: float, reference: float, tol: float) -> bool:
    return bool(np.isfinite(k)) and abs(k - reference) <= tol


def _relative_close(k: float, reference: float) -> bool:
    return _close(k, reference, RELATIVE_TOL * max(1.0, abs(reference)))


def special_flag(report, case_id: str, lam: float, mu: float, xi: float) -> str | None:
    expected = rf.special_flag_closed_form(case_id, lam, mu, xi)
    if report.degenerate or not _close(report.k, expected, CLOSED_FORM_TOL):
        return f"special flag {case_id}: K={report.k!r}, closed form {expected!r}"
    return None


def invariant(report, mixed) -> str | None:
    """``mixed`` is K(c w, a x + b w) for the same flag."""
    if report.degenerate or mixed.degenerate or not _relative_close(report.k, mixed.k):
        return f"invariance: K={report.k!r}, K(cw, ax+bw)={mixed.k!r}"
    return None


def riemannian_k(structure, w, x) -> float:
    """Sectional curvature from the Levi-Civita table (identity Gram)."""
    table = rf.levi_civita_table(structure.algebra)
    r = rf.curvature_operator(table, x, w, w)
    return float(r @ x) / float((w @ w) * (x @ x) - (w @ x) ** 2)


def riemannian(report, structure, w, x) -> str | None:
    expected = riemannian_k(structure, np.asarray(w, float), np.asarray(x, float))
    if report.degenerate or not _relative_close(report.k, expected):
        return f"zero deformation: K={report.k!r}, Levi-Civita {expected!r}"
    return None


def _witness_signs(certificate) -> str | None:
    pos, neg = certificate.positive_witness, certificate.negative_witness
    if not (pos.k > WITNESS_MIN_CURVATURE and neg.k < -WITNESS_MIN_CURVATURE):
        return f"witness signs wrong: {pos.k!r}, {neg.k!r}"
    if not 1 <= certificate.samples_tried <= SEARCH_BUDGET:
        return f"samples_tried {certificate.samples_tried} outside 1..{SEARCH_BUDGET}"
    return None


def heisenberg_certificate(certificate, error, lam: float, mu: float, xi: float) -> str | None:
    if error is not None:
        return f"heisenberg5 search raised {error!r}"
    reason = _witness_signs(certificate)
    if reason:
        return reason
    if certificate.samples_tried != HEISENBERG_SEARCH_SAMPLES:
        return f"heisenberg5 search took {certificate.samples_tried} samples"
    pos = rf.special_flag_closed_form("1.1", lam, mu, xi)
    neg = rf.special_flag_closed_form("2.2", lam, mu, xi)
    if not (
        _close(certificate.positive_witness.k, pos, CLOSED_FORM_TOL)
        and _close(certificate.negative_witness.k, neg, CLOSED_FORM_TOL)
    ):
        return "heisenberg5 witnesses differ from cases 1.1 / 2.2"
    return None


def riemannian_certificate(certificate, error, structure) -> str | None:
    if error is not None:
        return f"nilpotent search raised {error!r}"
    reason = _witness_signs(certificate)
    if reason:
        return reason
    for witness in (certificate.positive_witness, certificate.negative_witness):
        reason = riemannian(witness, structure, witness.w, witness.x)
        if reason:
            return "witness " + reason
    return None


def flat_search(certificate, error) -> str | None:
    """On a flat model the documented outcome is SearchFailure."""
    if isinstance(error, rf.SearchFailure):
        return None
    if error is not None:
        return f"flat search raised {error!r} instead of SearchFailure"
    return "flat search returned a certificate"


# --- CLI outputs: (exit code, stdout text, written file text or None) -------


def _exit_ok(rc) -> str | None:
    return None if rc == 0 else f"exit code {rc}"


def _status_field(stdout: str, name: str) -> float | None:
    # "<cmd>: wrote <path>; max_abs_err=4.4e-16; pass=True"
    fields = dict(part.strip().split("=", 1) for part in stdout.split(";")[1:] if "=" in part)
    if fields.get("pass") != "True":
        return None
    try:
        return float(fields[name])
    except (KeyError, ValueError):
        return None


def table1_output(rc, stdout: str, csv_text: str | None, lam, mu, xi) -> str | None:
    reason = _exit_ok(rc)
    if reason:
        return reason
    err = _status_field(stdout, "max_abs_err")
    if err is None or err > CLOSED_FORM_TOL:
        return f"table1 status line: {stdout.strip()!r}"
    rows = list(csv.DictReader(io.StringIO(csv_text or "")))
    if [row["case"] for row in rows] != list(rf.SPECIAL_FLAG_CASES):
        return "table1 CSV rows are not the eight special cases"
    for row in rows:
        expected = rf.special_flag_closed_form(row["case"], lam, mu, xi)
        if not _close(float(row["k_computed"]), expected, CLOSED_FORM_TOL):
            return f"table1 case {row['case']}: {row['k_computed']} vs {expected!r}"
    return None


def connection_tables_output(rc, stdout: str, doc_text: str | None) -> str | None:
    reason = _exit_ok(rc)
    if reason:
        return reason
    status = _status_field(stdout, "max_defect")
    if status is None or status > CONNECTION_TOL:
        return f"connection-tables status line: {stdout.strip()!r}"
    doc = json.loads(doc_text or "{}")
    cells = [cell for block in doc.get("blocks", {}).values() for cell in block["cells"]]
    if not doc.get("pass") or len(doc.get("blocks", {})) != 4 or not cells:
        return "connection-tables document incomplete or failing"
    worst = max(cell["defect"] for cell in cells)
    if worst > CONNECTION_TOL or doc["max_defect"] > CONNECTION_TOL:
        return f"connection-tables defect {worst!r}"
    return None


def verify_output(rc, stdout: str) -> str | None:
    reason = _exit_ok(rc)
    if reason:
        return reason
    doc = json.loads(stdout or "{}")
    checks = doc.get("checks", [])
    if doc.get("pass") is not True or len(checks) != 5:
        return "verify document fails or is incomplete"
    for check in checks:
        if not (check["pass"] is True and check["max_defect"] <= check["tolerance"]):
            return f"verify check {check['name']} fails"
    return None


def search_output(rc, stdout: str, lam, mu, xi) -> str | None:
    reason = _exit_ok(rc)
    if reason:
        return reason
    doc = json.loads(stdout or "{}")
    if doc.get("samples_tried") != HEISENBERG_SEARCH_SAMPLES:
        return f"search samples_tried {doc.get('samples_tried')!r}"
    pos = rf.special_flag_closed_form("1.1", lam, mu, xi)
    neg = rf.special_flag_closed_form("2.2", lam, mu, xi)
    kp, kn = doc["positive_witness"]["k"], doc["negative_witness"]["k"]
    if not (
        isinstance(kp, float) and isinstance(kn, float)
        and _close(kp, pos, CLOSED_FORM_TOL) and _close(kn, neg, CLOSED_FORM_TOL)
    ):
        return f"search witnesses {kp!r}, {kn!r} vs {pos!r}, {neg!r}"
    return None


def flag_output(rc, stdout: str, case_id: str, lam, mu, xi) -> str | None:
    reason = _exit_ok(rc)
    if reason:
        return reason
    doc = json.loads(stdout or "{}")
    k = doc.get("k")
    expected = rf.special_flag_closed_form(case_id, lam, mu, xi)
    if doc.get("degenerate") is not False or not isinstance(k, float) or not _close(k, expected, CLOSED_FORM_TOL):
        return f"flag {case_id}: {stdout.strip()!r}, closed form {expected!r}"
    return None
