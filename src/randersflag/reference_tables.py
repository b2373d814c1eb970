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
vectors stacked as (cells, 5) arrays.  A layout computes its own vectors
(the pole, Wperp, ...) and scalar coefficients in Python floats, and its
cells are gathered from one bank of e1..e5, those vectors and those
coefficients: three gathers and one product.  Expected vectors are in the
fixed orthonormal basis; a direction and an argument feed
ConnectionTable.derivative directly, so rescaled frame vectors are passed
verbatim.  Each expected entry is the product of one scalar coefficient and
one entry of a vector, formed in the order the closed forms are written, so
its bits (signed zeros too) do not depend on how the cells are stacked.
:func:`reference_blocks` builds the four reported layouts at the poles
:func:`reference_poles` draws in one pass, on one bank, and returns each
block's cells as row slices of the stacked arrays.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain
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
    """Closed-form cells of one layout, stacked: for each cell c,
    nabla_{directions[c]} arguments[c] = expected[c], labelled ``rows[c]``,
    ``cols[c]``; the arrays are (cells, 5)."""

    rows: tuple[str, ...]
    cols: tuple[str, ...]
    directions: np.ndarray
    arguments: np.ndarray
    expected: np.ndarray


class _Layout(NamedTuple):
    """Where the cells of a layout come from, as indices into the layout's
    bank: one float array of e1..e5, then the layout's own vectors, computed
    per call, and then its coefficients.  Per cell: its labels, the (cells,
    5) indices of its direction, its argument and its unit, and the (cells,
    1) index of the coefficient that multiplies the unit."""

    rows: tuple[str, ...]
    cols: tuple[str, ...]
    directions: np.ndarray
    arguments: np.ndarray
    units: np.ndarray
    coefficients: np.ndarray


def _layout(rows, cols, directions, arguments, units, coefficients) -> _Layout:
    """The :class:`_Layout` of cells given by their labels, the bank rows of
    their directions, arguments and units (0-4 are e1..e5, the layout's own
    vectors follow) and the indices of their coefficients."""
    entries = [np.array(bank_rows)[:, None] * 5 + np.arange(5)
               for bank_rows in (directions, arguments, units)]
    # the coefficients follow the layout's last vector
    first_coefficient = 5 * (1 + max(max(directions), max(arguments), max(units)))
    coefficients = np.array(coefficients)[:, None] + first_coefficient
    return _Layout(tuple(rows), tuple(cols), *entries, coefficients)


def _joined(layouts) -> tuple:
    """The arguments of :func:`_layout` for the cells of ``layouts``, given
    as such arguments, in turn: the layouts' own vectors follow e1..e5 in
    turn, and so do their coefficients."""
    rows, cols, directions, arguments, units, coefficients = (), (), [], [], [], []
    vectors = count = 0
    for layout in layouts:
        rows, cols = rows + tuple(layout[0]), cols + tuple(layout[1])
        for joined, bank_rows in zip((directions, arguments, units), layout[2:5]):
            joined += [row if row < 5 else row + vectors for row in bank_rows]
        coefficients += [index + count for index in layout[5]]
        vectors += max(map(max, layout[2:5])) - 4
        count += max(layout[5]) + 1
    return rows, cols, directions, arguments, units, coefficients


_EYE = _frozen(np.eye(5))
_Z = _EYE[4]
_Z_ROW = _Z.tolist()
_EYE_ENTRIES = _EYE.ravel().tolist()

# Pole Z: every derivative nabla_{e_i} e_j, i, j = 1..5, in row-major
# order, is a coefficient of (0, lam/2, -lam/2, mu/2, -mu/2) times a basis
# vector; _Z_TERMS gives (coefficient index, 0-based basis index) of the
# cells that do not vanish, and a vanishing cell is 0.0 times e1.  The frame
# is e1..e4 and e5 / (1 + xi), the layout's one vector (bank row 5).
_Z_TERMS = {
    (0, 1): (1, 4), (0, 4): (2, 1), (1, 0): (2, 4), (1, 4): (1, 0),
    (2, 3): (3, 4), (2, 4): (4, 3), (3, 2): (4, 4), (3, 4): (3, 2),
    (4, 0): (2, 1), (4, 1): (1, 0), (4, 2): (4, 3), (4, 3): (3, 2),
}
_Z_PAIRS = [(i, j) for i in range(5) for j in range(5)]
_Z_FRAME = (0, 1, 2, 3, 5)
_Z_CELLS = (
    [f"e{i + 1}" for i, _ in _Z_PAIRS],
    [f"e{j + 1}" for _, j in _Z_PAIRS],
    [_Z_FRAME[i] for i, _ in _Z_PAIRS],
    [_Z_FRAME[j] for _, j in _Z_PAIRS],
    [_Z_TERMS.get(pair, (0, 0))[1] for pair in _Z_PAIRS],
    [_Z_TERMS.get(pair, (0, 0))[0] for pair in _Z_PAIRS],
)

# The (W, Wperp, Z) block in row-major order, on the bank rows W = 5,
# Wperp = 6 and Z = 4: each cell is a coefficient times one of Wperp and
# the vectors xi W + Z, Z - xi W and (xi^2 - 2) W - xi Z (rows 7-9).
_FRAME_LABELS = ("W", "Wperp", "Z")
_FRAME_BANK_ROWS = (5, 6, 4)
_FRAME_CELLS = (
    [_FRAME_LABELS[i] for i in range(3) for _ in range(3)],
    _FRAME_LABELS * 3,
    [_FRAME_BANK_ROWS[i] for i in range(3) for _ in range(3)],
    _FRAME_BANK_ROWS * 3,
    [6, 7, 6, 8, 6, 9, 6, 9, 6],
    range(9),
)

# The rows blocks, per pole plane: cells (ea, W), (ea, Wperp), (eb, W),
# (eb, Wperp) with ea, eb the other plane's basis vectors, on the bank rows
# W = 5 and Wperp = 6; each cell is a multiple of a basis vector.
_ROWS_CELLS = {
    plane: (
        (f"e{first + 1}",) * 2 + (f"e{first + 2}",) * 2,
        ("W", "Wperp") * 2,
        [first, first, first + 1, first + 1],
        [5, 6, 5, 6],
        [first + 1, first, first, first + 1],
        [0, 1, 2, 1],
    )
    for plane, first in (("e12", 2), ("e34", 0))
}
_Z_LAYOUT = _layout(*_Z_CELLS)
_FRAME_LAYOUT = _layout(*_FRAME_CELLS)
_ROWS_LAYOUT = {plane: _layout(*cells) for plane, cells in _ROWS_CELLS.items()}


def _cells(layout: _Layout, vectors: list, coefficients: list) -> Cells:
    """The cells of ``layout`` from its own ``vectors`` and
    ``coefficients``: one bank, three gathers and one product."""
    size = len(_EYE_ENTRIES) + 5 * len(vectors) + len(coefficients)
    bank = np.fromiter(chain(_EYE_ENTRIES, *vectors, coefficients), float, size)
    return Cells(
        layout.rows,
        layout.cols,
        bank.take(layout.directions),
        bank.take(layout.arguments),
        bank.take(layout.coefficients) * bank.take(layout.units),
    )


def _z_terms(lam: float, mu: float, xi: float) -> tuple[list, list]:
    half_lam, half_mu = 0.5 * lam, 0.5 * mu
    return [[0.0, 0.0, 0.0, 0.0, 1.0 / (1.0 + xi)]], [0.0, half_lam, -half_lam, half_mu, -half_mu]


def _plane_coefficients(plane: str, lam: float, mu: float) -> tuple[float, float]:
    """For a pole in ``plane`` ("e12" or "e34"): its own bracket coefficient
    and the other plane's."""
    return {"e12": (lam, mu), "e34": (mu, lam)}[plane]


def _frame_terms(plane: str, lam: float, mu: float, xi: float, w: list) -> tuple[list, list]:
    own, _ = _plane_coefficients(plane, lam, mu)
    a = own * own
    scale = xi**2 - 2.0
    vectors = [
        w,
        _w_perp(lam, mu, w),
        [xi * x + z for x, z in zip(w, _Z_ROW)],
        [z - xi * x for x, z in zip(w, _Z_ROW)],
        [scale * x - xi * z for x, z in zip(w, _Z_ROW)],
    ]
    coefficients = [xi, -0.5 * a, 0.5, 0.5 * a, -0.25 * xi * a, 0.25 * a, 0.5, 0.25 * a, 0.25 * xi]
    return vectors, coefficients


def _rows_terms(plane: str, lam: float, mu: float, xi: float, w: list) -> tuple[list, list]:
    own, other = _plane_coefficients(plane, lam, mu)
    diagonal = -0.25 * xi * own * own
    return [w, _w_perp(lam, mu, w)], [-0.5 * other * xi, diagonal, 0.5 * other * xi]


def pole_z_cells(lam: float, mu: float, xi: float) -> Cells:
    """All 25 derivatives at pole Z in the frame (e1..e4, e5 = Z/(1+xi)),
    which is orthonormal for the osculating product at Z."""
    return _cells(_Z_LAYOUT, *_z_terms(lam, mu, xi))


def pole_frame_cells(plane: str, lam: float, mu: float, xi: float, w: np.ndarray) -> Cells:
    """3x3 (W, Wperp, Z) block for a unit pole in ``plane`` ("e12" or
    "e34"); the two planes differ only in the squared bracket coefficient."""
    return _cells(_FRAME_LAYOUT, *_frame_terms(plane, lam, mu, xi, w.tolist()))


def pole_rows_cells(plane: str, lam: float, mu: float, xi: float, w: np.ndarray) -> Cells:
    """Derivatives along the other bracket plane's basis vectors of W and
    Wperp, for a unit pole in ``plane`` ("e12" or "e34")."""
    return _cells(_ROWS_LAYOUT[plane], *_rows_terms(plane, lam, mu, xi, w.tolist()))


def reference_poles(rng: np.random.Generator) -> np.ndarray:
    """The center-free poles of :func:`reference_blocks`, drawn from
    ``rng``: a unit vector in span(e1, e2), then one in span(e3, e4), as a
    (2, 5) array."""
    return np.array([_span_unit("e12", rng), _span_unit("e34", rng)])


# The reported blocks in document order, each with its pole (0 = Z,
# 1 = the pole in span(e1, e2), 2 = the one in span(e3, e4)) and cells; the
# one layout of all their cells, each block's rows in it, and each cell's
# pole.
_BLOCKS = (
    ("pole_z", 0, _Z_CELLS),
    ("pole_e12_frame", 1, _FRAME_CELLS),
    ("pole_e12_rows_e34", 1, _ROWS_CELLS["e12"]),
    ("pole_e34_rows_e12", 2, _ROWS_CELLS["e34"]),
)
_REFERENCE_LAYOUT = _layout(*_joined(cells for _, _, cells in _BLOCKS))
_CELL_COUNTS = [len(cells[0]) for _, _, cells in _BLOCKS]
_BLOCK_CUTS = [
    slice(stop - count, stop) for count, stop in zip(_CELL_COUNTS, accumulate(_CELL_COUNTS))
]
_POLE_OF_CELL = np.repeat([pole for _, pole, _ in _BLOCKS], _CELL_COUNTS)
_POLE_OF_CELL.flags.writeable = False


class _Blocks(dict):
    """The blocks of :func:`reference_blocks` by name, and the stacked
    arrays their cells are views of: ``poles``, the three poles (Z, then the
    poles in span(e1, e2) and span(e3, e4)) as a (3, 5) array,
    ``pole_of_cell``, the index in ``poles`` of each cell's pole, and
    ``cells``, all the cells in block order as one :class:`Cells`."""

    def __init__(self, blocks: dict, poles: np.ndarray, pole_of_cell: np.ndarray, cells: Cells):
        super().__init__(blocks)
        self.poles, self.pole_of_cell, self.cells = poles, pole_of_cell, cells


def reference_blocks(
    lam: float, mu: float, xi: float, w12: np.ndarray, w34: np.ndarray
) -> _Blocks:
    """The four reporting blocks, keyed by layout name, each as
    (pole, cells), at the unit poles ``w12`` in span(e1, e2) and ``w34`` in
    span(e3, e4) (the closed forms hold for every unit pole in the
    respective plane; :func:`reference_poles` draws them).  All the cells
    are built in one pass, on one bank, with one product and one overflow
    check, and each block's cells are row slices of the stacked arrays,
    which the returned dict carries too (:class:`_Blocks`).  Parameters off
    lam >= mu > 0 and 0 < xi < 1, and those whose cells overflow, those
    with no finite squared norm (the rule every coordinate vector of the
    library obeys; it sets in near lam = 1e51), raise
    :class:`ParameterError`."""
    lam, mu, xi = *_check_brackets(lam, mu), _check_xi(xi)
    w12, w34 = w12.tolist(), w34.tolist()
    vectors, coefficients = [], []
    for own_vectors, own_coefficients in (
        _z_terms(lam, mu, xi),
        _frame_terms("e12", lam, mu, xi, w12),
        _rows_terms("e12", lam, mu, xi, w12),
        _rows_terms("e34", lam, mu, xi, w34),
    ):
        vectors += own_vectors
        coefficients += own_coefficients
    # an overflowing cell (inf, or inf * 0 = NaN) is a rejected input below,
    # not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        cells = _cells(_REFERENCE_LAYOUT, vectors, coefficients)
        largest_square = np.vecdot(cells.expected, cells.expected).max()
    if not largest_square < math.inf:
        raise ParameterError(
            f"closed-form connection cells overflow at lam={lam}, mu={mu}, xi={xi}: "
            "a cell has no finite squared norm"
        )
    poles = np.array((_Z_ROW, w12, w34))
    rows, cols, directions, arguments, expected = cells
    blocks = {
        name: (poles[pole], Cells(rows[cut], cols[cut],
                                  directions[cut], arguments[cut], expected[cut]))
        for (name, pole, _), cut in zip(_BLOCKS, _BLOCK_CUTS)
    }
    return _Blocks(blocks, poles, _POLE_OF_CELL, cells)
