"""Curvature operator, flag curvature, and sign certification.

The curvature operator composes the constant-coefficient connection maps of a
fixed-reference Chern-Rund table with one bracket.  Flag curvature divides the
osculating pairing of R(x, w)w against x by the Gram determinant of the flag
plane; it is invariant under rescaling of x and under mixing x with the pole.

:func:`flag_curvature` and :func:`sign_search` never build the table.  With
N v = nabla_v w, the numerator <R(x, w)w, x>_w is
<nabla_x (N w), x>_w - <nabla_w (N x), x>_w - <N [x, w], x>_w.  The first two
terms are Koszul right-hand sides paired with x, which need no solve, and N
is needed on x, N w and [x, w] only: stage 1 plus one three-vector stage-2
solve, O(n^3) per flag.  This flag path is written once for stacks: poles
and transverse vectors may carry leading batch axes, and every frame
quantity, stage and quotient broadcasts over them, so :func:`flag_curvature`
is the case with no batch axis and :func:`sign_search` evaluates its
candidates in chunks, one stacked call per chunk, scanning the results in
candidate order.  :func:`curvature_operator` and :func:`flag_report` read a
prebuilt table of one pole and are the reference the flag path is tested
against.

On the five-dimensional Heisenberg model eight special flag families have
closed-form curvatures, catalogued here by case id; they also seed the sign
search that certifies the coexistence of strictly positive and strictly
negative flags.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .connection import ConnectionTable, nabla_v_w, nabla_w_of_w
from .errors import DomainError, ParameterError, SearchFailure
from .lie_algebra import MetricLieAlgebra, _as_vector, _contract
from .randers import (
    ZERO_VECTOR_TOL,
    OsculatingFrame,
    RandersStructure,
    _frozen,
    _unit_reference,
)

#: A flag is degenerate when its Gram determinant falls below this fraction of
#: the product of squared osculating norms (scale-invariant cutoff).
DEGENERACY_REL_TOL = 1e-10

#: Sign witnesses must clear this margin away from zero curvature.
WITNESS_MIN_CURVATURE = 1e-8

#: Sizes of the successive chunks of random candidates that
#: :func:`sign_search` evaluates in one stacked call each; the last repeats.
SEARCH_CHUNKS = (8, 16, 32, 64)

#: Case ids of the special flag families, in search order.
SPECIAL_FLAG_CASES = ("1.1", "1.2", "2.1", "2.2", "2.3", "3.1", "3.2", "3.3")

#: Pole span and transverse span of each case; "Z" is the center,
#: "e12"/"e34" the two bracket planes.
SPECIAL_FLAG_SPANS = {
    "1.1": ("Z", "e12"),
    "1.2": ("Z", "e34"),
    "2.1": ("e12", "Z"),
    "2.2": ("e12", "e12"),
    "2.3": ("e12", "e34"),
    "3.1": ("e34", "Z"),
    "3.2": ("e34", "e12"),
    "3.3": ("e34", "e34"),
}

#: Human-readable span labels used in emitted reports.
SPAN_LABELS = {"Z": "Z-span", "e12": "e1-span", "e34": "e3-span"}

# Canonical (pole index, transverse index) representatives per case, used by
# the deterministic sign search.
_CANONICAL_FLAGS = {
    "1.1": (4, 0),
    "1.2": (4, 2),
    "2.1": (0, 4),
    "2.2": (0, 1),
    "2.3": (0, 2),
    "3.1": (2, 4),
    "3.2": (2, 0),
    "3.3": (2, 3),
}

_CLOSED_FORMS = {
    "1.1": lambda lam, mu, xi: lam**2 / 4.0,
    "1.2": lambda lam, mu, xi: mu**2 / 4.0,
    "2.1": lambda lam, mu, xi: (1.0 - xi**2) * lam**2 / 4.0,
    "2.2": lambda lam, mu, xi: (xi**2 - 3.0) * lam**2 / 4.0,
    "2.3": lambda lam, mu, xi: (mu**2 - lam**2) * xi**2 / 4.0,
    "3.1": lambda lam, mu, xi: (1.0 - xi**2) * mu**2 / 4.0,
    "3.2": lambda lam, mu, xi: (lam**2 - mu**2) * xi**2 / 4.0,
    "3.3": lambda lam, mu, xi: (xi**2 - 3.0) * mu**2 / 4.0,
}


@dataclass(frozen=True, eq=False)
class FlagReport:
    """Flag curvature of one flag.

    ``w`` is the Euclidean-normalized pole actually used, ``x`` the transverse
    vector as given.  ``k`` is NaN when the flag is degenerate (denominator
    below the scale-invariant threshold), in which case only ``denominator``
    and ``degenerate`` are meaningful.
    """

    w: np.ndarray
    x: np.ndarray
    k: float
    denominator: float
    degenerate: bool


@dataclass(frozen=True, eq=False)
class SignCertificate:
    """Witnesses of both strict curvature signs from a seeded search."""

    positive_witness: FlagReport
    negative_witness: FlagReport
    samples_tried: int


def curvature_operator(table: ConnectionTable, x, y, z) -> np.ndarray:
    """R(x, y)z = nabla_x nabla_y z - nabla_y nabla_x z - nabla_{[x,y]} z.

    Trilinear and antisymmetric in (x, y); all derivatives taken at the
    table's fixed reference vector.
    """
    algebra = table.frame.structure.algebra
    dim = algebra.dim
    x = _as_vector(x, dim)
    y = _as_vector(y, dim)
    z = _as_vector(z, dim)
    mx = np.einsum("ijk,i->kj", table.gamma, x)
    my = np.einsum("ijk,i->kj", table.gamma, y)
    mb = np.einsum("ijk,i->kj", table.gamma, algebra.bracket(x, y))
    return mx @ (my @ z) - my @ (mx @ z) - mb @ z


def _quotient(frame: OsculatingFrame, x: np.ndarray, numerator):
    """``(k, denominator, degenerate)`` of the flags (w, x): the curvature
    quotient and its degeneracy test, with the leading axes of the frame and
    x; a degenerate flag gets k = NaN and leaves its neighbours alone."""
    q, gram = frame.w, frame.gram
    gx = np.matvec(gram, x)
    norms = np.vecdot(q, np.matvec(gram, q)) * np.vecdot(x, gx)
    cross = np.vecdot(q, gx)
    denominator = norms - cross * cross
    floor = DEGENERACY_REL_TOL * norms
    degenerate = denominator < floor
    k = np.where(degenerate, np.nan, numerator / np.maximum(denominator, floor))
    return k, denominator, degenerate


def _report(w: np.ndarray, x: np.ndarray, k, denominator, degenerate) -> FlagReport:
    return FlagReport(
        w=w, x=_frozen(x), k=float(k), denominator=float(denominator), degenerate=bool(degenerate)
    )


def flag_report(table: ConnectionTable, x) -> FlagReport:
    """Flag curvature from a prebuilt connection table; the pole is the
    table's reference vector."""
    frame = table.frame
    x = _as_vector(x, frame.dim)
    r = curvature_operator(table, x, frame.w, frame.w)
    return _report(frame.w, x, *_quotient(frame, x, r @ frame.gram @ x))


def _flag_numerator(frame: OsculatingFrame, x: np.ndarray):
    """<R(x, w)w, x>_w from stages 1-2 and two Koszul pairings, with the
    leading axes of the frame and x."""
    c = frame.structure.algebra.structure
    q, gram = frame.w, frame.gram
    right, _ = frame.pole_brackets
    a = nabla_w_of_w(frame)
    xw = np.vecmat(x, right)  # [x, w]
    nx, na, nxw = nabla_v_w(frame, a, np.array((x, a, xw)))
    gx = np.matvec(gram, x)
    pairs_x = _contract(c, gx, 2)  # <[e_i, e_j], x>_w, indexed [..., i, j]
    cartan_xx, cartan_xb = frame.cartan_covector(x, np.array((x, nx)))
    # <nabla_x a, x>_w: by antisymmetry the bracket terms add up to
    # <[x, a], x>_w, and of the Cartan terms only -C_w(N a, x, x) survives
    along_x = np.vecdot(x, np.matvec(pairs_x, a)) - np.vecdot(cartan_xx, na)
    # <nabla_w (N x), x>_w: of the Cartan terms only -C_w(a, N x, x) has no
    # w slot
    brackets = (
        np.vecdot(q, np.matvec(pairs_x, nx))
        - np.vecdot(nx, np.matvec(frame.pole_pairing, x))
        + np.vecdot(xw, np.matvec(gram, nx))
    )
    along_w = 0.5 * brackets - np.vecdot(cartan_xb, a)
    return along_x - along_w - np.vecdot(nxw, gx)


def _flag_curvatures(structure: RandersStructure, w: np.ndarray, x: np.ndarray):
    """``(frame, k, denominator, degenerate)`` for flags whose poles and
    transverse vectors are stacked along the same leading axes (or are plain
    vectors); the flag path of :func:`flag_curvature` and
    :func:`sign_search`, which never builds the connection table."""
    frame = structure.osculating_gram(w)
    return frame, *_quotient(frame, x, _flag_numerator(frame, x))


def flag_curvature(structure: RandersStructure, w, x) -> FlagReport:
    """Flag curvature K(w, x) at the Euclidean-normalized pole w.

    Builds the osculating frame at w and evaluates the curvature quotient
    without the connection table.  The report is marked degenerate when x is
    parallel to w in the osculating product (zero-area flag).
    """
    w = _as_vector(w, structure.dim)
    x = _as_vector(x, structure.dim)
    if math.sqrt(w @ w) < ZERO_VECTOR_TOL:
        raise DomainError("flag pole is numerically zero")
    if math.sqrt(x @ x) < ZERO_VECTOR_TOL:
        raise DomainError("transverse vector is numerically zero")
    frame, *quotient = _flag_curvatures(structure, w, x)
    return _report(frame.w, x, *quotient)


def special_flag_closed_form(case_id: str, lam: float, mu: float, xi: float) -> float:
    """Closed-form flag curvature of one special flag family on heisenberg5.

    Case ids: "1.1", "1.2" pole in the center; "2.1".."2.3" pole in
    span(e1, e2); "3.1".."3.3" pole in span(e3, e4), with the transverse span
    cycling through the center and the two bracket planes.
    """
    try:
        form = _CLOSED_FORMS[str(case_id)]
    except KeyError:
        raise ParameterError(
            f"unknown case id {case_id!r}; expected one of {', '.join(SPECIAL_FLAG_CASES)}"
        ) from None
    if not (lam >= mu > 0.0):
        raise ParameterError(f"require lam >= mu > 0, got lam={lam}, mu={mu}")
    if not (0.0 < xi < 1.0):
        raise ParameterError(f"require 0 < xi < 1, got xi={xi}")
    try:
        return float(form(lam, mu, xi))
    except OverflowError:
        raise ParameterError(
            f"closed form of case {case_id} overflows at lam={lam}, mu={mu}"
        ) from None


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
    transverse vector when it is nearly parallel to the pole.
    """
    case_id = str(case_id)
    if case_id not in SPECIAL_FLAG_SPANS:
        raise ParameterError(
            f"unknown case id {case_id!r}; expected one of {', '.join(SPECIAL_FLAG_CASES)}"
        )
    if rng is None:
        wi, xi_ = _CANONICAL_FLAGS[case_id]
        w = np.zeros(5)
        x = np.zeros(5)
        w[wi] = 1.0
        x[xi_] = 1.0
        return w, x
    pole_span, transverse_span = SPECIAL_FLAG_SPANS[case_id]
    w = _span_unit(pole_span, rng)
    x = _span_unit(transverse_span, rng)
    while pole_span == transverse_span and abs(float(w @ x)) > 0.999:
        x = _span_unit(transverse_span, rng)
    return w, x


def sign_search(
    structure: RandersStructure, seed: int = 0, max_samples: int = 512
) -> SignCertificate:
    """Seeded deterministic hunt for strictly positive and strictly negative
    flag curvatures.

    On five-dimensional algebras the eight special flag families are tried
    first (in case order), then uniform random unit pole/transverse pairs.
    Returns the first witness of each sign exceeding the minimum margin;
    raises :class:`SearchFailure` when the sample budget runs out, which
    signals a flat metric or insufficient sampling.

    Candidates are evaluated in chunks, one stacked call each: the special
    flags together, then random pairs in chunks of ``SEARCH_CHUNKS`` sizes,
    each cut to the remaining budget.  A chunk of m pairs is drawn as
    ``standard_normal((m, 2, dim))``, the same stream as drawing the pole and
    then the transverse vector of each pair in turn, and its results are
    scanned in candidate order, so the witnesses and ``samples_tried`` do not
    depend on the chunking.
    """
    if max_samples < 1:
        raise ParameterError("max_samples must be positive")
    rng = np.random.default_rng(seed)
    dim = structure.dim
    sizes = itertools.chain(SEARCH_CHUNKS, itertools.repeat(SEARCH_CHUNKS[-1]))
    witnesses = {}  # sign -> (candidate index, report)
    tried = 0
    while tried < max_samples:
        if tried == 0 and dim == 5:
            pairs = np.array([special_flag_vectors(case_id) for case_id in SPECIAL_FLAG_CASES])
        else:
            pairs = _unit_reference(rng.standard_normal((next(sizes), 2, dim)), dim)
        pairs = pairs[: max_samples - tried]
        x = pairs[:, 1]
        # the unit pole is normalized once more before the frame normalizes
        # it; every normalization can move the last bit, and the witnesses
        # printed by `search` are pinned to this sequence
        frame, k, denominator, degenerate = _flag_curvatures(
            structure, _unit_reference(pairs[:, 0], dim), x
        )
        signs = (("positive", k > WITNESS_MIN_CURVATURE), ("negative", k < -WITNESS_MIN_CURVATURE))
        for sign, hits in signs:
            if sign not in witnesses and hits.any():
                i = int(hits.argmax())
                report = _report(frame.w[i], x[i], k[i], denominator[i], degenerate[i])
                witnesses[sign] = (tried + i, report)
        tried += len(pairs)
        if len(witnesses) == 2:
            (i_pos, positive), (i_neg, negative) = witnesses["positive"], witnesses["negative"]
            return SignCertificate(positive, negative, max(i_pos, i_neg) + 1)
    if not witnesses:
        missing = "no nonzero curvature found"
    elif "positive" not in witnesses:
        missing = "no strictly positive curvature found"
    else:
        missing = "no strictly negative curvature found"
    raise SearchFailure(f"{missing} within {tried} samples")


def riemannian_sectional(algebra: MetricLieAlgebra, x, y) -> float:
    """Sectional curvature of the plane span(x, y) for the left-invariant
    Euclidean metric (zero deformation vector)."""
    structure = RandersStructure(algebra, np.zeros(algebra.dim))
    report = flag_curvature(structure, x, y)
    if report.degenerate:
        raise DomainError("sectional curvature needs linearly independent inputs")
    return report.k
