"""Self-test of the benchmark's correctness checks.

    python3 bench/selftest.py

Shows that the checks reject wrong results: a flag curvature off by 1e-6, a
certificate returned for the flat model, a ``verify`` document with
``pass: false``, and more.  It then injects such results into one cycle of
each workload's measurement loop and requires the loop to count exactly the
corrupted ops as failed, and a clean cycle to count none.
Exits 0 when every expectation holds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile

import run  # sets the BLAS environment and finds the library sources

run._load_library()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import randersflag as rf  # noqa: E402
from measure import Stats, run_loop  # noqa: E402
from workloads import CliResult  # noqa: E402

EPS = 1e-6


def shifted(report, delta=EPS):
    return dataclasses.replace(report, k=report.k + delta)


def unit_checks() -> list[str]:
    """Problems found when the checks meet right and wrong results."""
    problems = []

    def expect(description, reason, wrong):
        if (reason is not None) != wrong:
            problems.append(f"{description}: check returned {reason!r}")

    lam, mu, xi = 2.0, 1.0, 0.5
    structure = inputs.heisenberg_model(lam, mu, xi)
    w, x = np.array([1.0, 0, 0, 0, 0]), np.array([0, 1.0, 0, 0, 0])
    report = rf.flag_curvature(structure, w, x)
    expect("special flag, right K", checks.special_flag(report, "2.2", lam, mu, xi), False)
    expect("special flag, K + 1e-6", checks.special_flag(shifted(report), "2.2", lam, mu, xi), True)

    rng = np.random.default_rng(0)
    gw, gx = inputs.generic_flag(5, rng)
    generic = rf.flag_curvature(structure, gw, gx)
    mixed = rf.flag_curvature(structure, 1.5 * gw, -0.7 * gx + 0.3 * gw)
    expect("invariance, right K", checks.invariant(generic, mixed), False)
    expect("invariance, K + 1e-6", checks.invariant(shifted(generic), mixed), True)

    nil = rf.RandersStructure(inputs.validated(inputs.nilpotent_constants(16, rng)), np.zeros(16))
    nw, nx = inputs.generic_flag(16, rng)
    sectional = rf.flag_curvature(nil, nw, nx)
    expect("zero deformation, right K", checks.riemannian(sectional, nil, nw, nx), False)
    expect("zero deformation, K + 1e-6", checks.riemannian(shifted(sectional), nil, nw, nx), True)

    flat = inputs.flat_model(rng)
    fake = rf.SignCertificate(report, report, 4)
    expect("flat search, SearchFailure", checks.flat_search(None, rf.SearchFailure("budget")), False)
    expect("flat search, certificate", checks.flat_search(fake, None), True)
    expect("flat search, other error", checks.flat_search(None, ValueError("x")), True)
    try:
        rf.sign_search(flat, 0)
        expect("flat search, library", "returned", False)
    except rf.SearchFailure as exc:
        expect("flat search, library", checks.flat_search(None, exc), False)

    certificate = rf.sign_search(structure, 3)
    expect("heisenberg5 certificate", checks.heisenberg_certificate(certificate, None, lam, mu, xi), False)
    wrong_count = dataclasses.replace(certificate, samples_tried=5)
    expect("heisenberg5 certificate, samples", checks.heisenberg_certificate(wrong_count, None, lam, mu, xi), True)
    wrong_witness = dataclasses.replace(certificate, negative_witness=shifted(certificate.negative_witness))
    expect("heisenberg5 certificate, witness K + 1e-6",
           checks.heisenberg_certificate(wrong_witness, None, lam, mu, xi), True)

    doc = {"checks": [{"name": n, "max_defect": 0.0, "tolerance": 1e-10, "pass": True}
                      for n in ("osculating_fd", "cartan_fd", "torsion", "almost_metric", "levi_civita_x0_zero")],
           "pass": True}
    expect("verify, passing document", checks.verify_output(0, json.dumps(doc)), False)
    doc["pass"] = False
    expect("verify, pass: false", checks.verify_output(0, json.dumps(doc)), True)
    doc["pass"] = True
    doc["checks"][2]["max_defect"] = 1e-9
    expect("verify, defect over tolerance", checks.verify_output(0, json.dumps(doc)), True)

    expect("table1, failing status line",
           checks.table1_output(1, "table1: wrote t.csv; max_abs_err=1e-3; pass=False", "", lam, mu, xi), True)
    expect("flag, K + 1e-6",
           checks.flag_output(0, json.dumps({"k": report.k + EPS, "denominator": 1.0, "degenerate": False}),
                              "2.2", lam, mu, xi), True)
    return problems


class Injected:
    """A workload whose ops of some kinds return corrupted results."""

    def __init__(self, workload, corrupt):
        self.workload = workload
        self.cycle = workload.cycle
        self.corrupt = corrupt

    def op(self, kind, rng):
        op = self.workload.op(kind, rng)
        call = self.corrupt(kind, op.call)
        return op if call is None else dataclasses.replace(op, call=call)


def corrupt_flag(kind, call):
    return lambda: shifted(call())


def corrupt_search(kind, call):
    if kind != "flat":
        return None
    report = rf.FlagReport(np.eye(5)[4], np.eye(5)[0], 1.0, 1.0, False)
    negative = dataclasses.replace(report, k=-1.0)
    return lambda: rf.SignCertificate(report, negative, 7)


def corrupt_reports(kind, call):
    if not kind.startswith("verify"):
        return None

    def failing():
        result = call()
        doc = json.loads(result.stdout)
        doc["pass"] = False
        return CliResult(result.rc, json.dumps(doc))

    return failing


def loop_checks() -> list[str]:
    problems = []
    workdir = tempfile.mkdtemp(dir=run.OUT_DIR)
    try:
        cases = {
            "h5_flags": (corrupt_flag, lambda cycle: len(cycle)),
            "h5_search": (corrupt_search, lambda cycle: cycle.count("flat")),
            "wide_flags": (corrupt_flag, lambda cycle: len(cycle)),
            "reports": (corrupt_reports, lambda cycle: sum(k.startswith("verify") for k in cycle)),
        }
        for name, (corrupt, expected) in cases.items():
            workload = run.make_workload(name, 0, workdir)
            rng = np.random.default_rng(0)
            clean = Stats()
            run_loop(workload, rng, clean, cycles=1)
            injected = Stats()
            run_loop(Injected(workload, corrupt), rng, injected, cycles=1)
            want = expected(workload.cycle)
            if clean.failed != 0:
                problems.append(f"{name}: clean cycle failed {clean.failed} ops: {clean.first_failure}")
            if injected.failed != want:
                problems.append(f"{name}: injected cycle failed {injected.failed} ops, expected {want}")
            print(f"selftest: {name}: clean {clean.failed}/{clean.attempted} failed, "
                  f"injected {injected.failed}/{injected.attempted} failed ({injected.first_failure})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return problems


def main() -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    problems = unit_checks() + loop_checks()
    for problem in problems:
        print(f"selftest: FAIL {problem}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
