"""The heisenberg5 model, the one module that knows its basis layout.

:func:`heisenberg5` has the orthonormal basis (e1, e2, e3, e4, Z = e5) and
brackets [e1, e2] = lam * Z, [e3, e4] = mu * Z, lam >= mu > 0;
:func:`z_randers` adds x0 = xi * Z, 0 < xi < 1 (the CLI preset).  One case
table gives each special flag family of Table 1 its spans, canonical basis
representative and closed-form curvature; :data:`CANONICAL_FLAGS` stacks the
representatives, which seed :func:`~randersflag.curvature.sign_search`.

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
test suite.  Each layout returns one :class:`Cells` record: the row and
column labels, and the cells' ``directions``, ``arguments`` and ``expected``
vectors stacked as (cells, 5) arrays, built by whole-array operations.
Expected vectors are in the fixed orthonormal basis; a direction and an
argument feed ConnectionTable.derivative directly, so rescaled frame
vectors are passed verbatim.  Each expected entry is the product of one
scalar coefficient and one entry of a vector, formed in the order the
closed forms are written, so its bits (signed zeros too) do not depend on
how the cells are stacked.  :func:`reference_blocks` gathers the four
reported layouts at the poles :func:`reference_poles` draws.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ParameterError
from .lie_algebra import MetricLieAlgebra, _as_vector, _frozen, _real_scalar
from .randers import RandersStructure

#: Center coordinates larger than this disqualify a pole from :func:`w_perp`.
CENTER_TOL = 1e-12

# Per case id, in search order: pole span, transverse span, the 0-based basis
# indices of the canonical (pole, transverse) representative, and the
# closed-form flag curvature.
_CASES = {
    "1.1": ("Z", "e12", (4, 0), lambda lam, mu, xi: lam**2 / 4.0),
    "1.2": ("Z", "e34", (4, 2), lambda lam, mu, xi: mu**2 / 4.0),
    "2.1": ("e12", "Z", (0, 4), lambda lam, mu, xi: (1.0 - xi**2) * lam**2 / 4.0),
    "2.2": ("e12", "e12", (0, 1), lambda lam, mu, xi: (xi**2 - 3.0) * lam**2 / 4.0),
    "2.3": ("e12", "e34", (0, 2), lambda lam, mu, xi: (mu**2 - lam**2) * xi**2 / 4.0),
    "3.1": ("e34", "Z", (2, 4), lambda lam, mu, xi: (1.0 - xi**2) * mu**2 / 4.0),
    "3.2": ("e34", "e12", (2, 0), lambda lam, mu, xi: (lam**2 - mu**2) * xi**2 / 4.0),
    "3.3": ("e34", "e34", (2, 3), lambda lam, mu, xi: (xi**2 - 3.0) * mu**2 / 4.0),
}

#: Case ids of the special flag families, in search order.
SPECIAL_FLAG_CASES = tuple(_CASES)

#: Pole span and transverse span of each case.
SPECIAL_FLAG_SPANS = {case_id: case[:2] for case_id, case in _CASES.items()}

#: Human-readable span labels used in emitted reports.
SPAN_LABELS = {"Z": "Z-span", "e12": "e1-span", "e34": "e3-span"}

#: Canonical (pole, transverse) basis representatives of the cases, stacked
#: in case order as one read-only (8, 2, 5) array.
CANONICAL_FLAGS = _frozen(np.eye(5)[[indices for _, _, indices, _ in _CASES.values()]])


def _check_brackets(lam: float, mu: float) -> tuple[float, float]:
    """``(lam, mu)`` as floats in the model's domain: real lam >= mu > 0."""
    lam, mu = _real_scalar(lam, "lam"), _real_scalar(mu, "mu")
    if not (lam >= mu > 0.0):
        raise ParameterError(f"heisenberg5 requires lam >= mu > 0, got lam={lam}, mu={mu}")
    return lam, mu


def _check_xi(xi: float) -> float:
    """xi as a float in the Z-Randers domain: real 0 < xi < 1."""
    xi = _real_scalar(xi, "xi")
    if not (0.0 < xi < 1.0):
        raise ParameterError(
            f"Z-Randers metrics require 0 < xi < 1, got xi={xi}; "
            "give x0 = 0 explicitly for the Euclidean metric"
        )
    return xi


def heisenberg5(lam: float, mu: float) -> MetricLieAlgebra:
    """Five-dimensional Heisenberg algebra in an orthonormal adapted basis.

    Basis order is (e1, e2, e3, e4, Z) with the one-dimensional center spanned
    by Z = e5.  The only nonzero brackets are [e1, e2] = lam * Z and
    [e3, e4] = mu * Z, normalized to lam >= mu > 0.
    """
    lam, mu = _check_brackets(lam, mu)
    c = np.zeros((5, 5, 5))
    c[0, 1, 4] = lam
    c[1, 0, 4] = -lam
    c[2, 3, 4] = mu
    c[3, 2, 4] = -mu
    return MetricLieAlgebra(c)


def z_randers(lam: float, mu: float, xi: float) -> RandersStructure:
    """The Z-Randers metric x0 = xi * Z on heisenberg5(lam, mu), with
    lam >= mu > 0 and 0 < xi < 1; other parameters raise
    :class:`ParameterError`."""
    return RandersStructure(heisenberg5(lam, mu), _check_xi(xi) * _Z)


def _case(case_id: str) -> tuple:
    try:
        return _CASES[str(case_id)]
    except KeyError:
        raise ParameterError(
            f"unknown case id {case_id!r}; expected one of {', '.join(SPECIAL_FLAG_CASES)}"
        ) from None


def special_flag_closed_form(case_id: str, lam: float, mu: float, xi: float) -> float:
    """Closed-form flag curvature of one special flag family on heisenberg5.

    Case ids: "1.1", "1.2" pole in the center; "2.1".."2.3" pole in
    span(e1, e2); "3.1".."3.3" pole in span(e3, e4), with the transverse span
    cycling through the center and the two bracket planes.
    """
    *_, form = _case(case_id)
    lam, mu, xi = *_check_brackets(lam, mu), _check_xi(xi)
    # ** raises OverflowError, but * overflows to inf silently
    try:
        value = float(form(lam, mu, xi))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ParameterError(f"closed form of case {case_id} overflows at lam={lam}, mu={mu}")
    return value


def _span_unit(span: str, rng: np.random.Generator) -> np.ndarray:
    v = np.zeros(5)
    if span == "Z":
        v[4] = 1.0 if rng.random() < 0.5 else -1.0
        return v
    i = 0 if span == "e12" else 2
    theta = rng.uniform(0.0, 2.0 * np.pi)
    v[i] = np.cos(theta)
    v[i + 1] = np.sin(theta)
    return v


def special_flag_vectors(
    case_id: str, rng: np.random.Generator | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Pole and transverse representatives of one special flag family.

    Without ``rng`` returns the canonical basis representatives; with ``rng``
    samples uniform unit vectors in the corresponding spans, resampling the
    transverse vector when it is nearly parallel to the pole; an ``rng``
    that is not a numpy ``Generator`` raises :class:`ParameterError`.
    """
    pole_span, transverse_span, indices, _ = _case(case_id)
    if rng is None:
        return tuple(np.eye(5)[list(indices)])
    if not isinstance(rng, np.random.Generator):
        raise ParameterError(f"rng must be a numpy Generator or None, got {rng!r}")
    w = _span_unit(pole_span, rng)
    x = _span_unit(transverse_span, rng)
    while pole_span == transverse_span and abs(float(w @ x)) > 0.999:
        x = _span_unit(transverse_span, rng)
    return w, x


def _w_perp(lam: float, mu: float, w: np.ndarray) -> np.ndarray:
    return np.array([lam * w[1], -lam * w[0], mu * w[3], -mu * w[2], 0.0])


def w_perp(algebra: MetricLieAlgebra, w) -> np.ndarray:
    """Distinguished orthogonal direction of a center-free pole on the
    five-dimensional Heisenberg model.

    For w = w1 e1 + w2 e2 + w3 e3 + w4 e4 returns
    lam*w2 e1 - lam*w1 e2 + mu*w4 e3 - mu*w3 e4, which is Euclidean-orthogonal
    to w, with lam and mu read from the heisenberg5 bracket layout.
    """
    if algebra.dim != 5:
        raise DomainError("w_perp is defined only on the 5-dimensional Heisenberg model")
    w = _as_vector(w, 5)
    if abs(w[4]) > CENTER_TOL:
        raise DomainError(
            f"pole must be center-free (|center component| = {abs(w[4]):.3g} > {CENTER_TOL:g})"
        )
    return _w_perp(float(algebra.structure[0, 1, 4]), float(algebra.structure[2, 3, 4]), w)


class Cells(NamedTuple):
    """Closed-form cells of one layout, stacked: for each cell c,
    nabla_{directions[c]} arguments[c] = expected[c], labelled ``rows[c]``,
    ``cols[c]``; the arrays are (cells, 5)."""

    rows: tuple[str, ...]
    cols: tuple[str, ...]
    directions: np.ndarray
    arguments: np.ndarray
    expected: np.ndarray


_EYE = _frozen(np.eye(5))
_Z = _EYE[4]

# Pole Z: every derivative nabla_{e_i} e_j, i, j = 1..5, in row-major
# order, is a coefficient of (0, lam/2, -lam/2, mu/2, -mu/2) times a basis
# vector; _Z_TERMS gives (coefficient index, 0-based basis index) of the
# cells that do not vanish.
_Z_TERMS = {
    (0, 1): (1, 4), (0, 4): (2, 1), (1, 0): (2, 4), (1, 4): (1, 0),
    (2, 3): (3, 4), (2, 4): (4, 3), (3, 2): (4, 4), (3, 4): (3, 2),
    (4, 0): (2, 1), (4, 1): (1, 0), (4, 2): (4, 3), (4, 3): (3, 2),
}
_Z_ROW_INDEX, _Z_COL_INDEX = np.divmod(np.arange(25), 5)
_Z_PAIRS = list(zip(_Z_ROW_INDEX.tolist(), _Z_COL_INDEX.tolist()))
_Z_ROWS = tuple(f"e{i + 1}" for i, _ in _Z_PAIRS)
_Z_COLS = tuple(f"e{j + 1}" for _, j in _Z_PAIRS)
_Z_COEFFICIENT = np.array([[_Z_TERMS.get(pair, (0, 0))[0]] for pair in _Z_PAIRS])
_Z_UNITS = _frozen([_EYE[_Z_TERMS[pair][1]] if pair in _Z_TERMS else 0.0 * _Z for pair in _Z_PAIRS])

# The (W, Wperp, Z) block in row-major order: each cell is a coefficient
# times one of (Wperp, xi W + Z, Z - xi W, (xi^2 - 2) W - xi Z).
_FRAME_ROW_INDEX, _FRAME_COL_INDEX = np.divmod(np.arange(9), 3)
_FRAME_LABELS = ("W", "Wperp", "Z")
_FRAME_ROWS = tuple(_FRAME_LABELS[i] for i in _FRAME_ROW_INDEX)
_FRAME_COLS = tuple(_FRAME_LABELS[j] for j in _FRAME_COL_INDEX)
_FRAME_VECTOR = np.array([0, 1, 0, 2, 0, 3, 0, 3, 0])

# The rows blocks, per pole plane: cells (ea, W), (ea, Wperp), (eb, W),
# (eb, Wperp) with ea, eb the other plane's basis vectors, their row labels,
# directions, and the basis vector each cell is a multiple of.
_ROWS_COLS = ("W", "Wperp") * 2
_ROWS = {
    plane: (
        (f"e{first + 1}",) * 2 + (f"e{first + 2}",) * 2,
        _frozen(_EYE[[first, first, first + 1, first + 1]]),
        _frozen(_EYE[[first + 1, first, first, first + 1]]),
    )
    for plane, first in (("e12", 2), ("e34", 0))
}


def pole_z_cells(lam: float, mu: float, xi: float) -> Cells:
    """All 25 derivatives at pole Z in the frame (e1..e4, e5 = Z/(1+xi)),
    which is orthonormal for the osculating product at Z."""
    half_lam, half_mu = 0.5 * lam, 0.5 * mu
    coefficients = np.array([0.0, half_lam, -half_lam, half_mu, -half_mu])
    vectors = _EYE.copy()
    vectors[4] /= 1.0 + xi
    return Cells(
        _Z_ROWS,
        _Z_COLS,
        vectors[_Z_ROW_INDEX],
        vectors[_Z_COL_INDEX],
        coefficients[_Z_COEFFICIENT] * _Z_UNITS,
    )


def _plane_coefficients(plane: str, lam: float, mu: float) -> tuple[float, float]:
    """For a pole in ``plane`` ("e12" or "e34"): its own bracket coefficient
    and the other plane's."""
    return {"e12": (lam, mu), "e34": (mu, lam)}[plane]


def pole_frame_cells(plane: str, lam: float, mu: float, xi: float, w: np.ndarray) -> Cells:
    """3x3 (W, Wperp, Z) block for a unit pole in ``plane`` ("e12" or
    "e34"); the two planes differ only in the squared bracket coefficient."""
    own, _ = _plane_coefficients(plane, lam, mu)
    wp = _w_perp(lam, mu, w)
    a = own * own
    xw = xi * w
    vectors = np.array([wp, xw + _Z, _Z - xw, (xi**2 - 2.0) * w - xi * _Z])
    coefficients = np.array(
        [xi, -0.5 * a, 0.5, 0.5 * a, -0.25 * xi * a, 0.25 * a, 0.5, 0.25 * a, 0.25 * xi]
    )
    frame = np.array([w, wp, _Z])
    return Cells(
        _FRAME_ROWS,
        _FRAME_COLS,
        frame[_FRAME_ROW_INDEX],
        frame[_FRAME_COL_INDEX],
        coefficients[:, None] * vectors[_FRAME_VECTOR],
    )


def pole_rows_cells(plane: str, lam: float, mu: float, xi: float, w: np.ndarray) -> Cells:
    """Derivatives along the other bracket plane's basis vectors of W and
    Wperp, for a unit pole in ``plane`` ("e12" or "e34")."""
    own, other = _plane_coefficients(plane, lam, mu)
    rows, directions, units = _ROWS[plane]
    wp = _w_perp(lam, mu, w)
    coefficients = np.array(
        [
            [-0.5 * other * xi],
            [-0.25 * xi * own * own],
            [0.5 * other * xi],
            [-0.25 * xi * own * own],
        ]
    )
    return Cells(rows, _ROWS_COLS, directions, np.array([w, wp, w, wp]), coefficients * units)


def reference_poles(rng: np.random.Generator) -> np.ndarray:
    """The center-free poles of :func:`reference_blocks`, drawn from
    ``rng``: a unit vector in span(e1, e2), then one in span(e3, e4), as a
    (2, 5) array."""
    return np.array([_span_unit("e12", rng), _span_unit("e34", rng)])


def reference_blocks(
    lam: float, mu: float, xi: float, w12: np.ndarray, w34: np.ndarray
) -> dict[str, tuple[np.ndarray, Cells]]:
    """The four reporting blocks, keyed by layout name, each as
    (pole, cells), at the unit poles ``w12`` in span(e1, e2) and ``w34`` in
    span(e3, e4) (the closed forms hold for every unit pole in the
    respective plane; :func:`reference_poles` draws them).  Parameters
    off lam >= mu > 0 and 0 < xi < 1, and those whose cells overflow, those
    with no finite squared norm (the rule every coordinate vector of the
    library obeys; it sets in near lam = 1e51), raise
    :class:`ParameterError`."""
    lam, mu, xi = *_check_brackets(lam, mu), _check_xi(xi)
    # an overflowing cell (inf, or inf * 0 = NaN) is a rejected input below,
    # not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = {
            "pole_z": (_Z, pole_z_cells(lam, mu, xi)),
            "pole_e12_frame": (w12, pole_frame_cells("e12", lam, mu, xi, w12)),
            "pole_e12_rows_e34": (w12, pole_rows_cells("e12", lam, mu, xi, w12)),
            "pole_e34_rows_e12": (w34, pole_rows_cells("e34", lam, mu, xi, w34)),
        }
        expected = np.concatenate([cells.expected for _, cells in blocks.values()])
        squares = np.vecdot(expected, expected)
    if not (squares < math.inf).all():
        raise ParameterError(
            f"closed-form connection cells overflow at lam={lam}, mu={mu}, xi={xi}: "
            "a cell has no finite squared norm"
        )
    return blocks
