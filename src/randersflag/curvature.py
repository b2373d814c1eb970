"""Curvature operator, flag curvature, and sign certification.

The curvature operator composes the constant-coefficient connection maps of a
fixed-reference Chern-Rund table with one bracket.  Flag curvature divides the
osculating pairing of R(x, w)w against x by the Gram determinant of the flag
plane; it is invariant under rescaling of x and under mixing x with the pole.

:func:`flag_curvature` and :func:`sign_search` never build the table.  With
N v = nabla_v w, the numerator <R(x, w)w, x>_w is
<nabla_x (N w), x>_w - <nabla_w (N x), x>_w - <N [x, w], x>_w.  The first two
terms are Koszul right-hand sides paired with x, which need no solve, and N
is needed on x, N w and [x, w] only: stage 1 plus one three-column stage-2
solve, O(n^3) per flag.  :func:`curvature_operator` and :func:`flag_report`
read a prebuilt table and are the reference the flag path is tested against.

On the five-dimensional Heisenberg model eight special flag families have
closed-form curvatures, catalogued here by case id; they also seed the sign
search that certifies the coexistence of strictly positive and strictly
negative flags.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connection import ConnectionTable, _pole_pairing, nabla_v_w, nabla_w_of_w
from .errors import DomainError, ParameterError, SearchFailure
from .lie_algebra import MetricLieAlgebra, _as_vector
from .randers import ZERO_VECTOR_TOL, OsculatingFrame, RandersStructure, _frozen

#: A flag is degenerate when its Gram determinant falls below this fraction of
#: the product of squared osculating norms (scale-invariant cutoff).
DEGENERACY_REL_TOL = 1e-10

#: Sign witnesses must clear this margin away from zero curvature.
WITNESS_MIN_CURVATURE = 1e-8

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


def _quotient(frame: OsculatingFrame, x: np.ndarray, numerator: float) -> FlagReport:
    q, gram = frame.w, frame.gram
    norms = float((q @ gram @ q) * (x @ gram @ x))
    cross = float(x @ gram @ q)
    denominator = norms - cross**2
    degenerate = denominator < DEGENERACY_REL_TOL * norms
    k = float("nan") if degenerate else numerator / denominator
    return FlagReport(
        w=frame.w,
        x=_frozen(x),
        k=k,
        denominator=denominator,
        degenerate=degenerate,
    )


def flag_report(table: ConnectionTable, x) -> FlagReport:
    """Flag curvature from a prebuilt connection table; the pole is the
    table's reference vector."""
    frame = table.frame
    x = _as_vector(x, frame.dim)
    r = curvature_operator(table, x, frame.w, frame.w)
    return _quotient(frame, x, float(r @ frame.gram @ x))


def _flag_numerator(frame: OsculatingFrame, x: np.ndarray) -> float:
    """<R(x, w)w, x>_w from stages 1-2 and two Koszul pairings."""
    c = frame.structure.algebra.structure
    q, gram = frame.w, frame.gram
    a = nabla_w_of_w(frame)
    xw = frame.structure.algebra.bracket(x, q)
    nx, na, nxw = nabla_v_w(frame, a, np.array((x, a, xw)).T).T
    gx = gram @ x
    pairs_x = c @ gx  # <[e_i, e_j], x>_w, indexed [i, j]
    cartan_xx, cartan_xb = frame.cartan_covector(x, np.array((x, nx)).T).T
    # <nabla_x a, x>_w: by antisymmetry the bracket terms add up to
    # <[x, a], x>_w, and of the Cartan terms only -C_w(N a, x, x) survives
    along_x = x @ pairs_x @ a - cartan_xx @ na
    # <nabla_w (N x), x>_w: of the Cartan terms only -C_w(a, N x, x) has no
    # w slot
    brackets = q @ pairs_x @ nx - nx @ _pole_pairing(frame) @ x + xw @ gram @ nx
    along_w = 0.5 * brackets - cartan_xb @ a
    return float(along_x - along_w - nxw @ gx)


def _frame_report(frame: OsculatingFrame, x: np.ndarray) -> FlagReport:
    return _quotient(frame, x, _flag_numerator(frame, x))


def flag_curvature(structure: RandersStructure, w, x) -> FlagReport:
    """Flag curvature K(w, x) at the Euclidean-normalized pole w.

    Builds the osculating frame at w and evaluates the curvature quotient
    without the connection table.  The report is marked degenerate when x is
    parallel to w in the osculating product (zero-area flag).
    """
    w = _as_vector(w, structure.dim)
    x = _as_vector(x, structure.dim)
    if float(np.linalg.norm(w)) < ZERO_VECTOR_TOL:
        raise DomainError("flag pole is numerically zero")
    if float(np.linalg.norm(x)) < ZERO_VECTOR_TOL:
        raise DomainError("transverse vector is numerically zero")
    return _frame_report(structure.osculating_gram(w), x)


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
    return float(form(lam, mu, xi))


def _span_unit(span: str, rng: np.random.Generator | None) -> np.ndarray:
    v = np.zeros(5)
    if span == "Z":
        v[4] = 1.0 if rng is None else (1.0 if rng.random() < 0.5 else -1.0)
        return v
    i = 0 if span == "e12" else 2
    theta = 0.0 if rng is None else rng.uniform(0.0, 2.0 * np.pi)
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
    """
    if max_samples < 1:
        raise ParameterError("max_samples must be positive")
    rng = np.random.default_rng(seed)
    dim = structure.dim
    frames: dict[bytes, OsculatingFrame] = {}

    def evaluate(w: np.ndarray, x: np.ndarray) -> FlagReport:
        q = w / np.linalg.norm(w)
        key = q.tobytes()
        frame = frames.get(key)
        if frame is None:
            frame = structure.osculating_gram(q)
            frames[key] = frame
        return _frame_report(frame, x)

    def candidates():
        if dim == 5:
            for case_id in SPECIAL_FLAG_CASES:
                yield special_flag_vectors(case_id)
        while True:
            w = rng.standard_normal(dim)
            x = rng.standard_normal(dim)
            yield w / np.linalg.norm(w), x / np.linalg.norm(x)

    positive = negative = None
    tried = 0
    for w, x in candidates():
        if tried >= max_samples:
            break
        tried += 1
        report = evaluate(w, x)
        if report.degenerate:
            continue
        if positive is None and report.k > WITNESS_MIN_CURVATURE:
            positive = report
        if negative is None and report.k < -WITNESS_MIN_CURVATURE:
            negative = report
        if positive is not None and negative is not None:
            return SignCertificate(positive, negative, tried)
    if positive is None and negative is None:
        missing = "no nonzero curvature found"
    elif positive is None:
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
