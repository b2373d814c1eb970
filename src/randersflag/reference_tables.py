"""Closed-form Chern-Rund connection components of the heisenberg5 model.

Four cell layouts cover the poles where the connection has closed forms:

* ``pole_z``            -- pole Z, all 25 derivatives in the rescaled frame
                           (e1, e2, e3, e4, e5 = Z/(1+xi));
* ``pole_e12_frame``    -- pole in span(e1, e2), the 3x3 block on
                           (W, Wperp, Z);
* ``pole_e12_rows_e34`` -- same pole, derivatives along e3, e4 of W and Wperp;
* ``pole_e34_rows_e12`` -- pole in span(e3, e4), derivatives along e1, e2.

The 3x3 frame block for poles in span(e3, e4) (``pole_e34_frame_cells``) is
structurally the e12 block with the squared bracket coefficient swapped; it is
exercised by the test suite.  Expected vectors are in the fixed orthonormal
basis; ``direction``/``argument`` feed ConnectionTable.derivative directly, so
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


def _frame_cells(scale_sq: float, xi: float, w: np.ndarray, wp: np.ndarray) -> list[TableCell]:
    """The 3x3 block on (W, Wperp, Z) shared by both center-free pole planes;
    ``scale_sq`` is lam**2 for span(e1, e2) poles, mu**2 for span(e3, e4)."""
    _, z = _basis()
    a = scale_sq
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


def pole_e12_frame_cells(lam: float, mu: float, xi: float, w: np.ndarray) -> list[TableCell]:
    """3x3 (W, Wperp, Z) block for a unit pole in span(e1, e2)."""
    wp = w_perp(heisenberg5(lam, mu), w)
    return _frame_cells(lam * lam, xi, w, wp)


def pole_e34_frame_cells(lam: float, mu: float, xi: float, w: np.ndarray) -> list[TableCell]:
    """3x3 (W, Wperp, Z) block for a unit pole in span(e3, e4)."""
    wp = w_perp(heisenberg5(lam, mu), w)
    return _frame_cells(mu * mu, xi, w, wp)


def pole_e12_rows_e34_cells(lam: float, mu: float, xi: float, w: np.ndarray) -> list[TableCell]:
    """Derivatives along e3, e4 of W and Wperp, pole in span(e1, e2)."""
    eye, _ = _basis()
    wp = w_perp(heisenberg5(lam, mu), w)
    expected = {
        ("e3", "W"): -0.5 * mu * xi * eye[3],
        ("e3", "Wperp"): -0.25 * xi * lam * lam * eye[2],
        ("e4", "W"): 0.5 * mu * xi * eye[2],
        ("e4", "Wperp"): -0.25 * xi * lam * lam * eye[3],
    }
    vectors = {"e3": eye[2], "e4": eye[3], "W": w, "Wperp": wp}
    return [
        TableCell(r, c, vectors[r], vectors[c], expected[(r, c)])
        for r in ("e3", "e4")
        for c in ("W", "Wperp")
    ]


def pole_e34_rows_e12_cells(lam: float, mu: float, xi: float, w: np.ndarray) -> list[TableCell]:
    """Derivatives along e1, e2 of W and Wperp, pole in span(e3, e4)."""
    eye, _ = _basis()
    wp = w_perp(heisenberg5(lam, mu), w)
    expected = {
        ("e1", "W"): -0.5 * lam * xi * eye[1],
        ("e1", "Wperp"): -0.25 * xi * mu * mu * eye[0],
        ("e2", "W"): 0.5 * lam * xi * eye[0],
        ("e2", "Wperp"): -0.25 * xi * mu * mu * eye[1],
    }
    vectors = {"e1": eye[0], "e2": eye[1], "W": w, "Wperp": wp}
    return [
        TableCell(r, c, vectors[r], vectors[c], expected[(r, c)])
        for r in ("e1", "e2")
        for c in ("W", "Wperp")
    ]


def reference_blocks(
    lam: float, mu: float, xi: float, rng: np.random.Generator | None = None
) -> dict[str, tuple[np.ndarray, list[TableCell]]]:
    """The four reporting blocks, keyed by layout name, each as
    (pole, cells).  Center-free poles are sampled from ``rng`` when given
    (the closed forms hold for every unit pole in the respective plane)."""
    _, z = _basis()
    w12 = _span_unit("e12", rng)
    w34 = _span_unit("e34", rng)
    return {
        "pole_z": (z, pole_z_cells(lam, mu, xi)),
        "pole_e12_frame": (w12, pole_e12_frame_cells(lam, mu, xi, w12)),
        "pole_e12_rows_e34": (w12, pole_e12_rows_e34_cells(lam, mu, xi, w12)),
        "pole_e34_rows_e12": (w34, pole_e34_rows_e12_cells(lam, mu, xi, w34)),
    }
