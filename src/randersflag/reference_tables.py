"""The heisenberg5 model, the one module that knows its basis layout.

:func:`heisenberg5` has the orthonormal basis (e1, e2, e3, e4, Z = e5) and
brackets [e1, e2] = lam * Z, [e3, e4] = mu * Z, lam >= mu > 0;
:func:`z_randers` adds x0 = xi * Z, 0 < xi < 1 (the CLI preset).  One case
table gives each special flag family of Table 1 its spans, canonical basis
representative and closed-form curvature; :data:`CANONICAL_FLAGS` stacks the
representatives, which seed :func:`~randersflag.curvature.sign_search`.

:func:`reference_blocks` gives the closed-form Chern-Rund cells of the four
blocks that ``connection-tables`` reports (:data:`REFERENCE_BLOCKS`):

* ``pole_z``            -- pole Z, all 25 derivatives in the rescaled frame
                           (e1, e2, e3, e4, e5 = Z/(1+xi));
* ``pole_e12_frame``    -- pole in span(e1, e2), the 3x3 block on
                           (W, Wperp, Z);
* ``pole_e12_rows_e34`` -- same pole, derivatives along e3, e4 of W and Wperp;
* ``pole_e34_rows_e12`` -- pole in span(e3, e4), derivatives along e1, e2.

One constant table writes each cell once: its block and pole, its labels,
its direction and argument, and its closed form as a named coefficient times
a named vector.  Expected vectors are in the fixed orthonormal basis; a
direction and an argument feed ConnectionTable.derivative directly, so
rescaled frame vectors are passed verbatim.  Each expected entry is the
product of one coefficient and one entry of a vector, formed in the order
the closed forms are written, so its bits (signed zeros too) do not depend
on how the cells are stacked.
"""

from __future__ import annotations

import math
from itertools import chain
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


def _w_perp(lam: float, mu: float, w: list) -> list:
    return [lam * w[1], -lam * w[0], mu * w[3], -mu * w[2], 0.0]


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
    lam, mu = float(algebra.structure[0, 1, 4]), float(algebra.structure[2, 3, 4])
    return np.array(_w_perp(lam, mu, w.tolist()))


class Cells(NamedTuple):
    """Closed-form connection cells, stacked: for each cell c,
    nabla_{directions[c]} arguments[c] = expected[c], each a (cells, 5)
    array."""

    directions: np.ndarray
    arguments: np.ndarray
    expected: np.ndarray


_EYE = _frozen(np.eye(5))
_Z = _EYE[4]
_Z_ROW = _Z.tolist()
_EYE_ENTRIES = _EYE.ravel().tolist()

# The reported cells, block by block in document order.  Per cell: its row
# and column labels, the names of its direction and argument, and its
# closed form, a named coefficient times a named vector.  e1..e5 is the
# basis (Z = e5) and :func:`_terms` names the rest: at pole Z the frame is
# e1..e4, Z/(1+xi); W12 and W34 are the poles in span(e1, e2) and
# span(e3, e4), and Wperp12 and Wperp34 their w_perp.
_CELLS = {
    # (block, pole): per cell (row, col, direction, argument, coefficient, vector)
    ("pole_z", "Z"): (
        ("e1",    "e1",    "e1",       "e1",       "0",             "e1"),
        ("e1",    "e2",    "e1",       "e2",       "lam/2",         "e5"),
        ("e1",    "e3",    "e1",       "e3",       "0",             "e1"),
        ("e1",    "e4",    "e1",       "e4",       "0",             "e1"),
        ("e1",    "e5",    "e1",       "Z/(1+xi)", "-lam/2",        "e2"),
        ("e2",    "e1",    "e2",       "e1",       "-lam/2",        "e5"),
        ("e2",    "e2",    "e2",       "e2",       "0",             "e1"),
        ("e2",    "e3",    "e2",       "e3",       "0",             "e1"),
        ("e2",    "e4",    "e2",       "e4",       "0",             "e1"),
        ("e2",    "e5",    "e2",       "Z/(1+xi)", "lam/2",         "e1"),
        ("e3",    "e1",    "e3",       "e1",       "0",             "e1"),
        ("e3",    "e2",    "e3",       "e2",       "0",             "e1"),
        ("e3",    "e3",    "e3",       "e3",       "0",             "e1"),
        ("e3",    "e4",    "e3",       "e4",       "mu/2",          "e5"),
        ("e3",    "e5",    "e3",       "Z/(1+xi)", "-mu/2",         "e4"),
        ("e4",    "e1",    "e4",       "e1",       "0",             "e1"),
        ("e4",    "e2",    "e4",       "e2",       "0",             "e1"),
        ("e4",    "e3",    "e4",       "e3",       "-mu/2",         "e5"),
        ("e4",    "e4",    "e4",       "e4",       "0",             "e1"),
        ("e4",    "e5",    "e4",       "Z/(1+xi)", "mu/2",          "e3"),
        ("e5",    "e1",    "Z/(1+xi)", "e1",       "-lam/2",        "e2"),
        ("e5",    "e2",    "Z/(1+xi)", "e2",       "lam/2",         "e1"),
        ("e5",    "e3",    "Z/(1+xi)", "e3",       "-mu/2",         "e4"),
        ("e5",    "e4",    "Z/(1+xi)", "e4",       "mu/2",          "e3"),
        ("e5",    "e5",    "Z/(1+xi)", "Z/(1+xi)", "0",             "e1"),
    ),
    ("pole_e12_frame", "w12"): (
        ("W",     "W",     "W12",      "W12",      "xi",            "Wperp12"),
        ("W",     "Wperp", "W12",      "Wperp12",  "-lam^2/2",      "xiW12+Z"),
        ("W",     "Z",     "W12",      "e5",       "1/2",           "Wperp12"),
        ("Wperp", "W",     "Wperp12",  "W12",      "lam^2/2",       "Z-xiW12"),
        ("Wperp", "Wperp", "Wperp12",  "Wperp12",  "-xi lam^2/4",   "Wperp12"),
        ("Wperp", "Z",     "Wperp12",  "e5",       "lam^2/4",       "(xi^2-2)W12-xiZ"),
        ("Z",     "W",     "e5",       "W12",      "1/2",           "Wperp12"),
        ("Z",     "Wperp", "e5",       "Wperp12",  "lam^2/4",       "(xi^2-2)W12-xiZ"),
        ("Z",     "Z",     "e5",       "e5",       "xi/4",          "Wperp12"),
    ),
    ("pole_e12_rows_e34", "w12"): (
        ("e3",    "W",     "e3",       "W12",      "-mu xi/2",      "e4"),
        ("e3",    "Wperp", "e3",       "Wperp12",  "-xi lam lam/4", "e3"),
        ("e4",    "W",     "e4",       "W12",      "mu xi/2",       "e3"),
        ("e4",    "Wperp", "e4",       "Wperp12",  "-xi lam lam/4", "e4"),
    ),
    ("pole_e34_rows_e12", "w34"): (
        ("e1",    "W",     "e1",       "W34",      "-lam xi/2",     "e2"),
        ("e1",    "Wperp", "e1",       "Wperp34",  "-xi mu mu/4",   "e1"),
        ("e2",    "W",     "e2",       "W34",      "lam xi/2",      "e1"),
        ("e2",    "Wperp", "e2",       "Wperp34",  "-xi mu mu/4",   "e2"),
    ),
}

# The poles of :func:`reference_blocks`, in the order it stacks them.
_POLES = ("Z", "w12", "w34")


def _terms(lam: float, mu: float, xi: float, w12: list, w34: list) -> tuple[dict, dict]:
    """The vectors after e1..e5 and the coefficients that ``_CELLS``
    names, by name, in bank order.  Each is formed in Python floats as its
    closed form is written, so -xi lam^2/4 and -xi lam lam/4 are kept
    apart: they may differ in their last bit."""
    half_lam, half_mu, a, scale = 0.5 * lam, 0.5 * mu, lam * lam, xi**2 - 2.0
    vectors = {
        "Z/(1+xi)": (0.0, 0.0, 0.0, 0.0, 1.0 / (1.0 + xi)),
        "W12": w12,
        "Wperp12": _w_perp(lam, mu, w12),
        "xiW12+Z": [xi * x + z for x, z in zip(w12, _Z_ROW)],
        "Z-xiW12": [z - xi * x for x, z in zip(w12, _Z_ROW)],
        "(xi^2-2)W12-xiZ": [scale * x - xi * z for x, z in zip(w12, _Z_ROW)],
        "W34": w34,
        "Wperp34": _w_perp(lam, mu, w34),
    }
    coefficients = {
        "0": 0.0, "lam/2": half_lam, "-lam/2": -half_lam, "mu/2": half_mu, "-mu/2": -half_mu,
        "xi": xi, "1/2": 0.5, "lam^2/2": 0.5 * a, "-lam^2/2": -0.5 * a, "lam^2/4": 0.25 * a,
        "-xi lam^2/4": -0.25 * xi * a, "xi/4": 0.25 * xi,
        "mu xi/2": 0.5 * mu * xi, "-mu xi/2": -0.5 * mu * xi,
        "-xi lam lam/4": -0.25 * xi * lam * lam,
        "lam xi/2": 0.5 * lam * xi, "-lam xi/2": -0.5 * lam * xi,
        "-xi mu mu/4": -0.25 * xi * mu * mu,
    }
    return vectors, coefficients


def _gather_index() -> np.ndarray:
    """Where each cell comes from in the bank of :func:`reference_blocks`
    (e1..e5, the vectors of :func:`_terms`, then its coefficients): the
    entries of its direction, its argument, its coefficient (five times)
    and its vector, as one read-only (4, cells, 5) index."""
    vectors, coefficients = _terms(1.0, 1.0, 0.5, _Z_ROW, _Z_ROW)
    names = [f"e{i}" for i in range(1, 6)] + list(vectors)
    entries = {name: list(range(5 * row, 5 * row + 5)) for row, name in enumerate(names)}
    entries.update((name, [5 * len(names) + i] * 5) for i, name in enumerate(coefficients))
    columns = list(zip(*chain(*_CELLS.values())))[2:]
    index = np.array([[entries[name] for name in column] for column in columns])
    index.flags.writeable = False
    return index


_GATHER = _gather_index()

#: The reported blocks in document order, ``(name, pole, rows, cols)``
#: each: the index of its pole in the poles of :func:`reference_blocks`
#: and its cells' row and column labels.
REFERENCE_BLOCKS = tuple(
    (name, _POLES.index(pole), *zip(*(cell[:2] for cell in cells)))
    for (name, pole), cells in _CELLS.items()
)

#: The index of each cell's pole in the poles of :func:`reference_blocks`,
#: read-only, in stacking order.
POLE_OF_CELL = np.array([pole for _, pole, rows, _ in REFERENCE_BLOCKS for _ in rows])
POLE_OF_CELL.flags.writeable = False


def reference_poles(rng: np.random.Generator) -> np.ndarray:
    """The center-free poles of :func:`reference_blocks`, drawn from
    ``rng``: a unit vector in span(e1, e2), then one in span(e3, e4), as a
    (2, 5) array."""
    return np.array([_span_unit("e12", rng), _span_unit("e34", rng)])


def reference_blocks(
    lam: float, mu: float, xi: float, w12: np.ndarray, w34: np.ndarray
) -> tuple[np.ndarray, Cells]:
    """The cells of :data:`REFERENCE_BLOCKS` at the unit poles ``w12`` in
    span(e1, e2) and ``w34`` in span(e3, e4) (the closed forms hold for
    every unit pole in its plane; :func:`reference_poles` draws them): the
    poles Z, ``w12`` and ``w34`` as a (3, 5) array, and every cell stacked
    in block order as one :class:`Cells`, whose poles are
    :data:`POLE_OF_CELL`.  Parameters off lam >= mu > 0 and 0 < xi < 1,
    and those whose cells overflow, those with no finite squared norm (the
    rule every coordinate vector of the library obeys; it sets in near
    lam = 1e51), raise :class:`ParameterError`."""
    lam, mu, xi = *_check_brackets(lam, mu), _check_xi(xi)
    w12, w34 = w12.tolist(), w34.tolist()
    vectors, coefficients = _terms(lam, mu, xi, w12, w34)
    bank = np.fromiter(chain(_EYE_ENTRIES, *vectors.values(), coefficients.values()), float)
    directions, arguments, scales, units = bank.take(_GATHER)
    # an overflowing cell (inf, or inf * 0 = NaN) is a rejected input below,
    # not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        expected = scales * units
        largest_square = np.vecdot(expected, expected).max()
    if not largest_square < math.inf:
        raise ParameterError(
            f"closed-form connection cells overflow at lam={lam}, mu={mu}, xi={xi}: "
            "a cell has no finite squared norm"
        )
    return np.array((_Z_ROW, w12, w34)), Cells(directions, arguments, expected)
