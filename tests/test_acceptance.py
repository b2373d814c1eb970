"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; tolerances and sample counts are pinned here and match the library's
documented contracts.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from randersflag import (
    RandersStructure,
    chern_rund_table,
    flag_curvature,
    heisenberg5,
    levi_civita_table,
    riemannian_sectional,
    sign_search,
    special_flag_closed_form,
    special_flag_vectors,
    torsion_defect,
    almost_metric_defect,
)
from randersflag.reference_tables import (
    SPECIAL_FLAG_CASES,
    pole_frame_cells,
    pole_rows_cells,
    pole_z_cells,
)
from helpers import package_env, random_heisenberg_params, unit, unit_in_plane, z_randers

E = np.eye(5)
Z = E[4]

PARAM_GRID = [(2.0, 1.0), (1.0, 1.0), (3.0, 0.5), (5.0, 5.0), (1.5, 1.4)]
XI_GRID = (0.1, 0.5, 0.9)


def report(index, name, ok, details):
    print(f"[acceptance {index}] {name}: {'PASS' if ok else 'FAIL'} ({details})")
    assert ok, f"criterion {index} failed: {details}"


def test_criterion_1_special_flag_reproduction(rng):
    start = time.perf_counter()
    worst = 0.0
    for lam, mu in PARAM_GRID:
        for xi in XI_GRID:
            structure = z_randers(lam, mu, xi)
            for case_id in SPECIAL_FLAG_CASES:
                w, x = special_flag_vectors(case_id, rng)
                expected = special_flag_closed_form(case_id, lam, mu, xi)
                computed = flag_curvature(structure, w, x)
                assert not computed.degenerate
                err = abs(computed.k - expected) / max(1.0, abs(expected))
                worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    report(1, "special-flag curvature closed forms", ok,
           f"max rel err {worst:.3e} (tol 1e-9), {elapsed:.2f}s (limit 1s)")


def test_criterion_2_connection_tables(rng):
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        lam, mu, xi = random_heisenberg_params(rng)
        structure = z_randers(lam, mu, xi)
        w12 = unit_in_plane(rng, 0)
        w34 = unit_in_plane(rng, 2)
        layouts = [
            (Z, pole_z_cells(lam, mu, xi)),
            (w12, pole_frame_cells("e12", lam, mu, xi, w12)),
            (w12, pole_rows_cells("e12", lam, mu, xi, w12)),
            (w34, pole_rows_cells("e34", lam, mu, xi, w34)),
        ]
        for pole, cells in layouts:
            table = chern_rund_table(structure.osculating_gram(pole))
            for direction, argument, expected in zip(
                cells.directions, cells.arguments, cells.expected
            ):
                computed = table.derivative(direction, argument)
                worst = max(worst, float(np.abs(computed - expected).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    report(2, "closed-form connection components", ok,
           f"max abs defect {worst:.3e} (tol 1e-10), {elapsed:.2f}s (limit 1s)")


def test_criterion_3_sign_certificates(rng):
    start = time.perf_counter()
    ok = True
    details = ""
    for draw in range(50):
        lam, mu, xi = random_heisenberg_params(rng)
        certificate = sign_search(z_randers(lam, mu, xi), seed=draw)
        positive_bound = mu**2 / 4.0 - 1e-9
        negative_bound = (xi**2 - 3.0) * mu**2 / 4.0 + 1e-9
        if not (certificate.positive_witness.k >= positive_bound
                and certificate.negative_witness.k <= negative_bound):
            ok = False
            details = (f"draw {draw} ({lam:.3f},{mu:.3f},{xi:.3f}): "
                       f"k+={certificate.positive_witness.k:.6f}, "
                       f"k-={certificate.negative_witness.k:.6f}")
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 2.0
    report(3, "sign certificates on 50 random models", ok,
           details or f"all witnesses within the family bounds, {elapsed:.2f}s (limit 2s)")


def test_criterion_4_difference_oracles(rng):
    start = time.perf_counter()
    worst_osc = worst_cartan = 0.0
    for _ in range(200):
        lam, mu = 2.0, 1.0
        xi = float(rng.choice([0.1, 0.5, 0.9]))
        s = z_randers(lam, mu, xi)
        w, u, v, x = unit(rng), unit(rng), unit(rng), unit(rng)
        worst_osc = max(
            worst_osc,
            abs(s.osculating_product(w, u, v) - s.osculating_product_fd(w, u, v, 1e-4)),
        )
        worst_cartan = max(
            worst_cartan,
            abs(s.cartan(w, u, v, x) - s.cartan_fd(w, u, v, x, 5e-3)),
        )
    elapsed = time.perf_counter() - start
    ok = worst_osc <= 1e-6 and worst_cartan <= 1e-4 and elapsed < 5.0
    report(4, "closed forms vs difference oracles", ok,
           f"osculating {worst_osc:.3e} (tol 1e-6), cartan {worst_cartan:.3e} (tol 1e-4), "
           f"{elapsed:.2f}s (limit 5s)")


def test_criterion_5_connection_contracts(rng):
    worst_torsion = worst_metric = 0.0
    for _ in range(100):
        lam, mu, xi = random_heisenberg_params(rng)
        table = chern_rund_table(z_randers(lam, mu, xi).osculating_gram(unit(rng)))
        worst_torsion = max(worst_torsion, torsion_defect(table))
        worst_metric = max(worst_metric, almost_metric_defect(table))
    ok = worst_torsion <= 1e-10 and worst_metric <= 1e-10
    report(5, "torsion and almost-metric contracts", ok,
           f"torsion {worst_torsion:.3e}, almost-metric {worst_metric:.3e} (tol 1e-10)")


def test_criterion_6_riemannian_degeneration(rng):
    algebra = heisenberg5(2.0, 1.0)
    zero = RandersStructure(algebra, np.zeros(5))
    reference = levi_civita_table(algebra)
    worst_lc = 0.0
    for _ in range(10):
        table = chern_rund_table(zero.osculating_gram(unit(rng)))
        worst_lc = max(worst_lc, float(np.abs(table.gamma - reference.gamma).max()))
    milnor_ok = True
    worst_milnor = 0.0
    for _ in range(500):
        x = rng.standard_normal(5)
        if np.linalg.norm(x - (x @ Z) * Z) < 1e-8:
            continue
        k = riemannian_sectional(algebra, Z, x)
        worst_milnor = min(worst_milnor, k)
        milnor_ok = milnor_ok and k >= -1e-12
    certificate = sign_search(zero, seed=0)
    wolf_ok = certificate.positive_witness.k > 0 and certificate.negative_witness.k < 0
    ok = worst_lc <= 1e-12 and milnor_ok and wolf_ok
    report(6, "zero-deformation degeneration", ok,
           f"Levi-Civita defect {worst_lc:.3e} (tol 1e-12), min center curvature "
           f"{worst_milnor:.3e} (>= -1e-12), both signs found: {wolf_ok}")


def test_criterion_7_spot_values():
    structure = z_randers(2.0, 1.0, 0.5)
    expectations = [
        ((Z, E[0]), 1.0),
        ((E[0], Z), 0.75),
        ((E[0], E[1]), -2.75),
        ((E[0], E[2]), -0.1875),
        ((E[2], Z), 0.1875),
        ((E[2], E[0]), 0.1875),
        ((E[2], E[3]), -0.6875),
    ]
    worst = 0.0
    for (pole, transverse), expected in expectations:
        computed = flag_curvature(structure, pole, transverse)
        worst = max(worst, abs(computed.k - expected))
    ok = worst <= 1e-10
    report(7, "pinned curvature spot values", ok, f"max abs err {worst:.3e} (tol 1e-10)")


def test_criterion_8_search_determinism(tmp_path):
    config = tmp_path / "model.json"
    config.write_text(
        json.dumps({"preset": {"name": "heisenberg5", "lambda": 2.0, "mu": 1.0, "xi": 0.5}}),
        encoding="utf-8",
    )
    command = [sys.executable, "-m", "randersflag", "search",
               "--config", str(config), "--seed", "7"]
    first = subprocess.run(command, capture_output=True, env=package_env())
    second = subprocess.run(command, capture_output=True, env=package_env())
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
    )
    report(8, "byte-identical search output", ok,
           f"exit codes {first.returncode}/{second.returncode}, "
           f"stdout identical: {first.stdout == second.stdout}")
