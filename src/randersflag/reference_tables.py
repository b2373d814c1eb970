"""Closed-form Chern-Rund connection components of the heisenberg5 model.

Four cell layouts cover the poles where the connection has closed forms:

* ``pole_z``            -- pole Z, all 25 derivatives in the rescaled frame
                           (e1, e2, e3, e4, e5 = Z/(1+xi));
* ``pole_e12_frame``    -- pole in span(e1, e2), the 3x3 block on
                           (W, Wperp, Z);
* ``pole_e12_rows_e34`` -- same pole, derivatives along e3, e4 of W and Wperp;
* ``pole_e34_rows_e12`` -- pole in span(e3, e4), derivatives along e1, e2.

``pole_frame_cells`` and ``pole_rows_cells`` take the pole plane, "e12" or
"e34", as their first argument; the 3x3 frame block for poles in span(e3, e4)
(``pole_frame_cells("e34", ...)``) is not reported but is exercised by the
test suite.  Expected vectors are in the fixed orthonormal basis;
``direction``/``argument`` feed ConnectionTable.derivative directly, so
rescaled frame vectors are passed verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connection import w_perp
from .curvature import _span_unit
from .lie_algebra import heisenberg5


@dataclass(frozen=True, eq=False)
class TableCell:
    """One closed-form cell: nabla_{direction} argument = expected."""

    row: str
    col: str
    direction: np.ndarray
    argument: np.ndarray
    expected: np.ndarray


def _basis():
    eye = np.eye(5)
    return eye, eye[4]


def pole_z_cells(lam: float, mu: float, xi: float) -> list[TableCell]:
    """All 25 derivatives at pole Z in the frame (e1..e4, e5 = Z/(1+xi)),
    which is orthonormal for the osculating product at Z."""
    eye, z = _basis()
    half_lam, half_mu = 0.5 * lam, 0.5 * mu
    expected = np.zeros((5, 5, 5))
    expected[0, 1] = half_lam * z
    expected[0, 4] = -half_lam * eye[1]
    expected[1, 0] = -half_lam * z
    expected[1, 4] = half_lam * eye[0]
    expected[2, 3] = half_mu * z
    expected[2, 4] = -half_mu * eye[3]
    expected[3, 2] = -half_mu * z
    expected[3, 4] = half_mu * eye[2]
    expected[4, 0] = -half_lam * eye[1]
    expected[4, 1] = half_lam * eye[0]
    expected[4, 2] = -half_mu * eye[3]
    expected[4, 3] = half_mu * eye[2]
    labels = ("e1", "e2", "e3", "e4", "e5")
    vectors = [eye[0], eye[1], eye[2], eye[3], z / (1.0 + xi)]
    return [
        TableCell(labels[i], labels[j], vectors[i], vectors[j], expected[i, j])
        for i in range(5)
        for j in range(5)
    ]


def _plane_coefficients(plane: str, lam: float, mu: float) -> tuple[float, float, int]:
    """For a pole in ``plane`` ("e12" or "e34"): its own bracket coefficient,
    the other plane's coefficient, and the other plane's first 0-based index."""
    return {"e12": (lam, mu, 2), "e34": (mu, lam, 0)}[plane]


def pole_frame_cells(plane: str, lam: float, mu: float, xi: float, w: np.ndarray) -> list[TableCell]:
    """3x3 (W, Wperp, Z) block for a unit pole in ``plane`` ("e12" or
    "e34"); the two planes differ only in the squared bracket coefficient."""
    own, _, _ = _plane_coefficients(plane, lam, mu)
    _, z = _basis()
    wp = w_perp(heisenberg5(lam, mu), w)
    a = own * own
    expected = {
        ("W", "W"): xi * wp,
        ("W", "Wperp"): -0.5 * a * (xi * w + z),
        ("W", "Z"): 0.5 * wp,
        ("Wperp", "W"): 0.5 * a * (z - xi * w),
        ("Wperp", "Wperp"): -0.25 * xi * a * wp,
        ("Wperp", "Z"): 0.25 * a * ((xi**2 - 2.0) * w - xi * z),
        ("Z", "W"): 0.5 * wp,
        ("Z", "Wperp"): 0.25 * a * ((xi**2 - 2.0) * w - xi * z),
        ("Z", "Z"): 0.25 * xi * wp,
    }
    vectors = {"W": w, "Wperp": wp, "Z": z}
    order = ("W", "Wperp", "Z")
    return [
        TableCell(r, c, vectors[r], vectors[c], expected[(r, c)])
        for r in order
        for c in order
    ]


def pole_rows_cells(plane: str, lam: float, mu: float, xi: float, w: np.ndarray) -> list[TableCell]:
    """Derivatives along the other bracket plane's basis vectors of W and
    Wperp, for a unit pole in ``plane`` ("e12" or "e34")."""
    own, other, first = _plane_coefficients(plane, lam, mu)
    eye, _ = _basis()
    wp = w_perp(heisenberg5(lam, mu), w)
    ea, eb = f"e{first + 1}", f"e{first + 2}"
    expected = {
        (ea, "W"): -0.5 * other * xi * eye[first + 1],
        (ea, "Wperp"): -0.25 * xi * own * own * eye[first],
        (eb, "W"): 0.5 * other * xi * eye[first],
        (eb, "Wperp"): -0.25 * xi * own * own * eye[first + 1],
    }
    vectors = {ea: eye[first], eb: eye[first + 1], "W": w, "Wperp": wp}
    return [
        TableCell(r, c, vectors[r], vectors[c], expected[(r, c)])
        for r in (ea, eb)
        for c in ("W", "Wperp")
    ]


def reference_blocks(
    lam: float, mu: float, xi: float, rng: np.random.Generator
) -> dict[str, tuple[np.ndarray, list[TableCell]]]:
    """The four reporting blocks, keyed by layout name, each as
    (pole, cells).  Center-free poles are sampled from ``rng`` (the closed
    forms hold for every unit pole in the respective plane)."""
    _, z = _basis()
    w12 = _span_unit("e12", rng)
    w34 = _span_unit("e34", rng)
    return {
        "pole_z": (z, pole_z_cells(lam, mu, xi)),
        "pole_e12_frame": (w12, pole_frame_cells("e12", lam, mu, xi, w12)),
        "pole_e12_rows_e34": (w12, pole_rows_cells("e12", lam, mu, xi, w12)),
        "pole_e34_rows_e12": (w34, pole_rows_cells("e34", lam, mu, xi, w34)),
    }
