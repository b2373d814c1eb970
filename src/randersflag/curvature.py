"""Curvature operator, flag curvature, and sign certification.

The curvature operator composes the constant-coefficient connection maps of a
fixed-reference Chern-Rund table with one bracket.  Flag curvature divides the
osculating pairing of R(x, w)w against x by the Gram determinant of the flag
plane; it is invariant under rescaling of x and under mixing x with the pole.

:func:`flag_curvature` and :func:`sign_search` never build the table.  With
N v = nabla_v w, the numerator <R(x, w)w, x>_w is
<nabla_x (N w), x>_w - <nabla_w (N x), x>_w - <N [x, w], x>_w.  The first two
terms are Koszul right-hand sides paired with x, which need no solve, and N
is needed on x, N w and [x, w] only: stages 1 and 2 of
:mod:`randersflag.connection`, private arithmetic that the tables run too,
give the rows N e_i, contracted with those three vectors in one product,
O(n^3) per flag.  Stage 2 takes its Cartan matrix 2 C_w(N w, ., .) as an
argument, so one call of the frame's ``_cartan_matrix`` on (N w, x),
stacked on a new leading axis, builds it and the one matrix 2 C_w(x, ., .)
from which the Cartan terms of the two pairings, C_w(N N w, x, x) and
C_w(N w, N x, x), come.  This flag path is written once for stacks: poles
and transverse vectors may carry leading batch axes, and every frame
quantity, stage and quotient broadcasts over them, so one flag is a stack
of one, bit for bit:
``table1`` passes its eight flags to :func:`flag_curvature` in one call, and
:func:`sign_search` its candidates in chunks, scanning the results in
candidate order.  At dim 5 the cost of a flag is mostly numpy call overhead,
so each stage, and the Cartan call, runs once per stacked evaluation and the
path forms each Gram product once: the frame brings gram @ w and the bracket
pairings with the pole from its construction, and :func:`_flag_curvatures`
forms gram @ (x, [x, w]) in one product, for the Koszul pairings and the
quotient.  :func:`curvature_operator` and :func:`flag_report` read a
prebuilt table of one or stacked poles and are the reference the flag path
is tested against.

Nothing here depends on a particular algebra except :func:`sign_search`,
whose first chunk on five-dimensional algebras is the canonical special flags
of :mod:`randersflag.reference_tables`.  The search's witness margin scales
with the squared brackets, as flag curvatures and their round-off do, down
to the smallest normal double.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .connection import ConnectionTable, _nabla_basis_w, _nabla_w_of_w
from .errors import DimensionMismatch, DomainError, ParameterError, SearchFailure
from .lie_algebra import (
    MetricLieAlgebra,
    _as_vectors,
    _bilinear,
    _checked_vector,
    _frozen,
    _integer,
)
from .randers import OsculatingFrame, RandersStructure, _normalized, _require_nonzero
from .reference_tables import CANONICAL_FLAGS

#: A flag is degenerate when its Gram determinant falls below this fraction of
#: the product of squared osculating norms (scale-invariant cutoff).
DEGENERACY_REL_TOL = 1e-10

#: Sign witnesses must clear this margin times the largest squared |structure
#: constant|: brackets scaled by t scale K, and its round-off, by t**2.  They
#: must also clear the smallest normal double, below which round-off no
#: longer scales with K.
WITNESS_MIN_CURVATURE = 1e-8

#: Sizes of the successive chunks of random candidates that
#: :func:`sign_search` evaluates in one stacked call each; the last repeats.
#: At dim 5 most of a stacked call's cost is fixed numpy call overhead, so a
#: 512-sample budget takes 8 calls where chunks ending at 64 took 11.  The
#: schedule stops at 128: the cost per flag at dim 5 no longer falls past it
#: (``_flag_curvatures`` on heisenberg5, min of timeit, one BLAS thread,
#: 2-vCPU Xeon: 4.1 us at 64, 3.3 us at 128, 3.6 us at 256), while a
#: chunk's memory grows with it (the tracemalloc peak of a failing
#: 512-sample search at dim 40 is 21.7 MB with 128, 10.9 MB with 64).
SEARCH_CHUNKS = (8, 16, 32, 64, 128)

#: The smallest normal double, the floor of the witness margin.
_TINY = np.finfo(float).tiny


@dataclass(frozen=True, eq=False)
class FlagReport:
    """Flag curvature of one flag, or of flags stacked along leading axes.

    ``w`` is the Euclidean-normalized pole actually used, ``x`` the transverse
    vector as given.  ``k`` is NaN when the flag is degenerate (denominator
    below the scale-invariant threshold), in which case only ``denominator``
    and ``degenerate`` are meaningful: plain numbers for one flag, read-only
    arrays of the leading shape for a stack.
    """

    w: np.ndarray
    x: np.ndarray
    k: float | np.ndarray
    denominator: float | np.ndarray
    degenerate: bool | np.ndarray


@dataclass(frozen=True, eq=False)
class SignCertificate:
    """Witnesses of both strict curvature signs from a seeded search."""

    positive_witness: FlagReport
    negative_witness: FlagReport
    samples_tried: int


def curvature_operator(table: ConnectionTable, x, y, z) -> np.ndarray:
    """R(x, y)z = nabla_x nabla_y z - nabla_y nabla_x z - nabla_{[x,y]} z.

    Trilinear and antisymmetric in (x, y); all derivatives taken at the
    table's poles, against which x, y and z, vectors or stacks of them,
    broadcast.  They are checked once, then contracted as
    :meth:`ConnectionTable.derivative` and :meth:`MetricLieAlgebra.bracket` do.
    """
    frame = table.frame
    return _curvature_operator(table, *_as_vectors(frame.dim, (frame.w,), x, y, z))


def _curvature_operator(table: ConnectionTable, x, y, z) -> np.ndarray:
    """:func:`curvature_operator` of checked vectors, unchecked."""
    g = table.gamma
    xy = _bilinear(table.frame.structure.algebra.structure, x, y)
    yz, xz = _bilinear(g, y, z), _bilinear(g, x, z)
    return _bilinear(g, x, yz) - _bilinear(g, y, xz) - _bilinear(g, xy, z)


def _quotient(frame: OsculatingFrame, x: np.ndarray, gx: np.ndarray, numerator):
    """``(k, denominator, degenerate)`` of the flags (w, x), given the
    products ``gx`` = gram @ x: the curvature quotient and its degeneracy
    test, with the leading axes of the frame and x; a degenerate flag gets
    k = NaN and leaves its neighbours alone."""
    q = frame.w
    norms = np.vecdot(q, frame.pole_covector) * np.vecdot(x, gx)
    cross = np.vecdot(q, gx)
    denominator = norms - cross * cross
    floor = DEGENERACY_REL_TOL * norms
    degenerate = denominator < floor
    k = np.where(degenerate, np.nan, numerator / np.maximum(denominator, floor))
    return k, denominator, degenerate


def _report(w: np.ndarray, x: np.ndarray, k, denominator, degenerate) -> FlagReport:
    if w.ndim == 1:
        k, denominator, degenerate = float(k), float(denominator), bool(degenerate)
    else:  # fresh arrays of a stack, frozen in place
        for value in (k, denominator, degenerate):
            value.setflags(write=False)
    return FlagReport(w, _frozen(x), k, denominator, degenerate)


def _transverse(x, poles: np.ndarray) -> np.ndarray:
    """x as the transverse vectors of flags at checked ``poles``: finite, of
    the poles' shape and none numerically zero, tested in that order; a
    stack's zero test reads the squares its finiteness check formed."""
    x, squares = _checked_vector(x, poles.shape[-1], stacked=True)
    if x.shape != poles.shape:
        raise DimensionMismatch(f"transverse vectors need shape {poles.shape}, got {x.shape}")
    if squares is None:
        squares = np.vecdot(x, x)
    _require_nonzero(squares, DomainError, "transverse vector")
    return x


def flag_report(table: ConnectionTable, x) -> FlagReport:
    """Flag curvature from a prebuilt connection table, at the table's
    poles, for x of the poles' shape as in :func:`flag_curvature`."""
    frame = table.frame
    x = _transverse(x, frame.w)
    # x is checked, and the frame checked its poles: no vector is checked again
    r = _curvature_operator(table, x, frame.w, frame.w)
    gx = np.matvec(frame.gram, x)
    return _report(frame.w, x, *_quotient(frame, x, gx, np.vecdot(r, gx)))


def _flag_curvatures(frame: OsculatingFrame, x: np.ndarray):
    """``(k, denominator, degenerate)`` of the flags (w, x) at the frame's
    poles, unchecked, with the numerator <R(x, w)w, x>_w from stages 1-2 and
    two Koszul pairings: the flag path of :func:`flag_curvature` and
    :func:`sign_search`, which never builds the connection table."""
    c = frame.structure.algebra.structure
    q, gram = frame.w, frame.gram
    a = _nabla_w_of_w(frame)
    xw = np.vecmat(x, frame.pole_brackets)  # [x, w]
    vectors = np.array((x, a, xw))
    # 2 C_w(a, ., .) for stage 2 and 2 C_w(x, ., .), from one stacked call
    cartan_a, cartan_x = frame._cartan_matrix(vectors[1::-1])
    nx, na, nxw = np.vecmat(vectors, _nabla_basis_w(frame, cartan_a))
    gx, gxw = np.matvec(gram, vectors[::2])
    n = c.shape[0]
    # <[e_i, e_j], x>_w, indexed [..., i, j]
    pairs_x = np.matvec(c.reshape(n * n, n), gx).reshape(gx.shape + (n,))
    # 2 C_w(x, ., x) and 2 C_w(x, ., a), from the one Cartan matrix of x
    cartan_xx, cartan_xa = np.matvec(cartan_x, vectors[:2])
    # <nabla_x a, x>_w: by antisymmetry the bracket terms add up to
    # <[x, a], x>_w, and of the Cartan terms only -C_w(N a, x, x) survives
    along_x = np.vecdot(x, np.matvec(pairs_x, a)) - np.vecdot(na, cartan_xx) / 2
    # <nabla_w (N x), x>_w = (<[w, N x], x>_w - <[N x, x], w>_w
    # + <[x, w], N x>_w) / 2 - C_w(a, N x, x), the only Cartan term without
    # a w slot: N x paired with one covector
    covector = gxw - np.matvec(frame.pole_pairing, x) - np.matvec(pairs_x, q) - cartan_xa
    along_w = np.vecdot(nx, covector) / 2
    return _quotient(frame, x, gx, along_x - along_w - np.vecdot(nxw, gx))


def flag_curvature(structure: RandersStructure, w, x) -> FlagReport:
    """Flag curvature K(w, x) at the Euclidean-normalized pole w.

    Builds the osculating frame at w, which checks the pole as every frame
    does (a numerically zero one raises :class:`DegenerateReferenceVector`,
    a :class:`DomainError`, as does a numerically zero x), and evaluates the
    curvature quotient without the connection table.  The report is marked
    degenerate when x is parallel to w in the osculating product.  w may be
    stacked poles, with x of their shape, each flag with its own call's bits.

    K is the curvature of the Chern connection with the fixed reference
    field, the left-invariant extension of w (the paper's Table 1).  It is
    the spray flag curvature exactly where stage 1 vanishes or x0 = 0: on
    the Z-Randers model at +-Z and the unit poles with q5 = -xi.
    """
    frame = structure.osculating_gram(w)
    x = _transverse(x, frame.w)
    return _report(frame.w, x, *_flag_curvatures(frame, x))


def _random_chunks(seed: int, dim: int):
    """Chunks of uniform random unit pole/transverse pairs, (m, 2, dim), of
    the ``SEARCH_CHUNKS`` sizes, the last repeating.  Draws of a generator
    are finite and nonzero, so they are only normalized, unchecked: each
    chunk's frame makes the one check of its poles.  The generator is made
    when the first chunk is drawn, so a search that ends on the special
    flags never makes it."""
    rng = np.random.default_rng(seed)
    for size in itertools.chain(SEARCH_CHUNKS, itertools.repeat(SEARCH_CHUNKS[-1])):
        yield _normalized(rng.standard_normal((size, 2, dim)))


def sign_search(
    structure: RandersStructure, seed: int = 0, max_samples: int = 512
) -> SignCertificate:
    """Seeded deterministic hunt for strictly positive and strictly negative
    flag curvatures.

    On five-dimensional algebras the eight special flag families are tried
    first (in case order), then uniform random unit pole/transverse pairs.
    Returns the first witness of each sign whose |k| exceeds
    ``WITNESS_MIN_CURVATURE`` times the largest squared |structure constant|
    and the smallest normal double, ``np.finfo(float).tiny``; raises
    :class:`SearchFailure` when the sample budget runs out, which signals a
    flat metric, insufficient sampling or, when the first bound falls below
    the second, brackets too small for their curvatures to be normal doubles.
    ``max_samples`` must be a positive integer and ``seed`` a nonnegative one
    (anything else raises :class:`ParameterError`), and each such seed keeps
    its :func:`numpy.random.default_rng` stream, which is only made once the
    special flags are done.  The signs are those of :func:`flag_curvature`'s
    fixed-reference K.

    Candidates are evaluated in chunks, one stacked call each: the special
    flags together, then random pairs in chunks of ``SEARCH_CHUNKS`` sizes,
    each cut to the remaining budget.  A chunk of m pairs is drawn as
    ``standard_normal((m, 2, dim))``, the same stream as drawing the pole and
    then the transverse vector of each pair in turn, and its results are
    scanned in candidate order.  A stacked evaluation gives every flag the
    bits of a :func:`flag_curvature` call, so the witnesses, ``k`` and
    ``denominator`` included, and ``samples_tried`` do not depend on the
    chunking.  A random pair is normalized, unchecked, when it is drawn,
    and its pole checked and normalized again by its frame, as every pole
    is; the special flags are constants, so the frame's check is the only
    one any candidate gets.
    """
    max_samples = _integer(max_samples, "max_samples")
    if max_samples < 1:
        raise ParameterError("max_samples must be positive")
    seed = _integer(seed, "seed")
    if seed < 0:
        raise ParameterError(f"seed must be nonnegative, got {seed}")
    dim = structure.dim
    # a numpy scalar: an overflowing square raises under np.errstate
    scale = np.abs(structure.algebra.structure).max()
    margin = WITNESS_MIN_CURVATURE * scale**2
    subnormal = scale > 0 and margin < _TINY
    margin = max(margin, _TINY)
    chunks = _random_chunks(seed, dim)
    witnesses = {}  # sign -> (candidate index, report)
    tried = 0
    while tried < max_samples:
        pairs = CANONICAL_FLAGS if tried == 0 and dim == 5 else next(chunks)
        pairs = pairs[: max_samples - tried]
        w, x = pairs[:, 0], pairs[:, 1]
        frame = structure.osculating_gram(w)
        k, denominator, degenerate = _flag_curvatures(frame, x)
        signs = (("positive", k > margin), ("negative", k < -margin))
        for sign, hits in signs:
            if sign in witnesses:
                continue
            # the first hit, if any: argmax gives index 0 when there is none
            i = int(hits.argmax())
            if hits[i]:
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
    message = f"{missing} within {tried} samples"
    if subnormal:
        message += (
            f"; the brackets (max|c| = {scale:.3g}) put {WITNESS_MIN_CURVATURE:g} max|c|^2"
            f" below the smallest normal double, {_TINY:.3g}, and curvatures this small"
            " are not normal doubles"
        )
    raise SearchFailure(message)


def riemannian_sectional(algebra: MetricLieAlgebra, x, y) -> float | np.ndarray:
    """Sectional curvature of the plane span(x, y) for the left-invariant
    Euclidean metric (zero deformation vector); x and y are one pair or
    pairs stacked as in :func:`flag_curvature`."""
    structure = RandersStructure(algebra, np.zeros(algebra.dim))
    report = flag_curvature(structure, x, y)
    if np.any(report.degenerate):
        raise DomainError("sectional curvature needs linearly independent inputs")
    return report.k
