"""Randers deformation of the Euclidean metric on a metric Lie algebra.

A Randers structure is the Minkowski norm F(x) = sqrt(<x, x>) + <x0, x> with
deformation vector ||x0|| < 1.  The osculating inner product at a reference
vector w is half the (s, t)-Hessian of F^2(w + s*u + t*v) at the origin, and
the Cartan tensor is a quarter of the third derivative.  Both have closed
forms at Euclidean-unit w, and both are 0-homogeneous in w, so the closed-form
operations normalize w on entry.  The finite-difference variants evaluate the
derivative definitions verbatim (no normalization) and serve as independent
oracles for the closed forms.  All four take one sample or samples stacked
along leading axes, so a whole oracle comparison is one call each, and a
difference oracle evaluates F^2 at all its stencil points in one call.

A difference oracle is split in two.  Its stencil (:func:`_stencil`) depends
on the samples and the step only: the points ((w +- h u) +- h v) [+- h x]
for every sign pattern and their Euclidean norms.  Its evaluation depends on
the model: F^2 = (norm + <p, x0>)^2 at each point, then the signed sum in
index order and the scale.  The public oracles build the stencil on every
call; ``verify``, whose samples are fixed, builds its two stencils once per
dimension and hands them to the evaluation directly.

The public entries check each sample they are given, once: every frame and
oracle checks its poles by :func:`_checked_pole`, an oracle then its other
vectors by ``_as_vectors`` and hands them to a private method holding its
arithmetic.  A stack's squared norms are formed once, by the check of
``lie_algebra._checked_vector``, and serve its finiteness test, its zero
test and, for poles, their normalization; one vector's finiteness is tested
by ``math.hypot``, and its squares are formed where they are used.
Samples a caller draws itself, such as ``verify``'s and ``sign_search``'s,
are only normalized (:func:`_normalized`) and go to the oracles' arithmetic
directly; the frames built on them make the one check.
A frame's inverse and Cartan methods are private arithmetic of the Koszul
stages, run behind the checked entries ``flag_curvature`` and
``chern_rund_table(s)`` on the arrays the frame built, and check nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import DegenerateReferenceVector, InternalConsistencyError, ParameterError
from .lie_algebra import (
    MetricLieAlgebra,
    _as_vector,
    _as_vectors,
    _checked_vector,
    _frozen,
    _real_scalar,
)

#: Below this Euclidean norm a reference vector counts as zero.
ZERO_VECTOR_TOL = 1e-14

#: Tolerance on <[e_i, e_j], x0> for the Berwald criterion.
BERWALD_TOL = 1e-12

#: Admissible central-difference steps: second derivatives tolerate small
#: steps, third derivatives need larger ones against round-off amplification.
OSCULATING_FD_STEPS = (1e-6, 1e-2)
CARTAN_FD_STEPS = (1e-3, 1e-1)


@cache
def _identity(dim: int) -> np.ndarray:
    """The read-only identity matrix of a dimension, built once."""
    return _frozen(np.eye(dim))


def _require_nonzero(squares, error: type[Exception], what: str) -> None:
    """Raise ``error`` unless every norm whose squares are ``squares`` (a
    scalar, or an array of them) is at least ZERO_VECTOR_TOL: the one test of
    a numerically zero vector.  A scalar, as one vector gives, is compared
    as it is; an array by its least entry (NaN if any is, so it fails)."""
    if isinstance(squares, np.ndarray):
        squares = squares.min(initial=np.inf)
    if not squares >= ZERO_VECTOR_TOL * ZERO_VECTOR_TOL:
        raise error(f"{what} is numerically zero")


def _checked_pole(w, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``(w, <w, w>)`` for a pole, or for poles stacked along leading axes,
    after checking that each is a finite vector of length dim and not
    numerically zero.  A stack's squares are those its finiteness check
    formed (:func:`_checked_vector`); one pole's are formed here."""
    w, squares = _checked_vector(w, dim, stacked=True)
    if squares is None:
        squares = np.vecdot(w, w)
    _require_nonzero(squares, DegenerateReferenceVector, "reference vector")
    return w, squares


def _normalized(w: np.ndarray, squares: np.ndarray | None = None) -> np.ndarray:
    """w / |w| along the last axis, unchecked: for float vectors known to be
    finite and nonzero, such as draws of a generator; ``squares`` is <w, w>
    when the caller has it."""
    if squares is None:
        squares = np.vecdot(w, w)
    # the square root of the exact dot keeps normalization exact under
    # scaling by powers of two, which the homogeneity contract relies on
    return w / np.sqrt(squares)[..., None]


def _randers_form(p: np.ndarray, q: np.ndarray):
    """``(a, p_perp, l)`` of the osculating Randers form at unit q.

    The osculating Gram matrix at q is a (I - q q^T) + l l^T with
    a = 1 + <p, q>, p_perp = p - <p, q> q and l = a q + p_perp; q may carry
    leading axes, and the results carry the same ones.
    """
    margin = 1.0 - p @ p
    if not margin > 0.0:
        raise InternalConsistencyError(
            "osculating Gram matrix is not positive definite; "
            "a construction invariant was violated"
        )
    # a = 1 + <p, q> as a sum of a nonnegative term and the positive margin:
    # no cancellation as q -> -p / |p|, and a >= margin / 2 > 0
    qp = q + p
    a = (np.vecdot(qp, qp) + margin) / 2
    p_perp = p - np.vecdot(q, p)[..., None] * q
    # l = q + p, written with the a above so that every quantity built from
    # the form (Gram matrix, inverse, pairing) comes from the same numbers
    return a, p_perp, a[..., None] * q + p_perp


def _sorted(a, b, c) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # the three terms broadcast and sorted by value with a three-element
    # sorting network, so that sums and products taken in that order are
    # bit-stable under permutations of the terms (the terms are never NaN)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    lo, mid = np.minimum(lo, c), np.maximum(lo, c)
    return lo, np.minimum(mid, hi), np.maximum(mid, hi)


def _sorted_sum(a, b, c) -> np.ndarray:
    lo, mid, hi = _sorted(a, b, c)
    return (lo + mid) + hi


def _sorted_product(a, b, c) -> np.ndarray:
    lo, mid, hi = _sorted(a, b, c)
    return (lo * mid) * hi


def _stencil(h: float, w: np.ndarray, *directions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(points, norms)`` of a central difference: the points
    ((w + s_1 h d_1) + s_2 h d_2) + ... for every sign pattern, with one
    axis of length 2 per direction (s = +1 at index 0, -1 at index 1) in
    front of the broadcast leading axes of the vectors, and the Euclidean
    norm of each point, so one call of :func:`_stencil_f2` evaluates F^2 on
    the whole stencil; h d is formed once per direction, as
    (-h) d = -(h d) exactly."""
    points, *directions = np.broadcast_arrays(w, *directions)
    for axis, d in enumerate(directions):
        points = np.expand_dims(points, axis) + np.multiply.outer((1.0, -1.0), h * d)
    return points, np.sqrt(np.vecdot(points, points))


def _stencil_f2(stencil: tuple[np.ndarray, np.ndarray], x0: np.ndarray) -> np.ndarray:
    """F^2 at every point of a :func:`_stencil` for the deformation x0: the
    square of F = norm + <point, x0>, the arithmetic of
    :meth:`RandersStructure.finsler_norm`."""
    points, norms = stencil
    return (norms + np.vecdot(points, x0)) ** 2


def _alternating_sum(f2: np.ndarray, k: int) -> np.ndarray:
    """The central-difference sum over a stencil of k directions: each
    point's value added or, for an odd number of minus signs, subtracted,
    one at a time in index order (a reduction would sum pairwise)."""
    total = 0.0
    for index in itertools.product((0, 1), repeat=k):
        total = total - f2[index] if sum(index) % 2 else total + f2[index]
    return total


def _sample(value: np.ndarray):
    """A float for one sample, the array for stacked samples."""
    return float(value) if value.ndim == 0 else value


@dataclass(frozen=True, eq=False)
class BerwaldReport:
    """Outcome of the Berwald criterion, with a violating basis pair if any.

    ``witness`` is a 0-based basis index pair (i, j) with
    <[e_i, e_j], x0> != 0, or None when the metric is Berwald.
    """

    berwald: bool
    witness: tuple[int, int] | None

    def __bool__(self) -> bool:
        return self.berwald


@dataclass(frozen=True, eq=False)
class RandersStructure:
    """A metric Lie algebra with a Randers deformation vector x0, ||x0|| < 1."""

    algebra: MetricLieAlgebra
    x0: np.ndarray

    def __post_init__(self) -> None:
        x0 = _as_vector(self.x0, self.algebra.dim)
        norm = float(np.linalg.norm(x0))
        if norm >= 1.0:
            message = f"deformation vector must have Euclidean norm < 1 (got {norm:.6g})"
            raise ParameterError(message)
        object.__setattr__(self, "x0", _frozen(x0))

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def finsler_norm(self, x) -> float | np.ndarray:
        """F(x) = sqrt(<x, x>) + <x0, x>, positive for x != 0; a float, or
        an array for vectors stacked along leading axes."""
        return _sample(self._finsler_norm(_as_vector(x, self.dim, stacked=True)))

    def _finsler_norm(self, x: np.ndarray) -> np.ndarray:
        """:meth:`finsler_norm`, unchecked; :func:`_stencil_f2` squares the
        same arithmetic on a stencil whose norms are built."""
        return np.sqrt(np.vecdot(x, x)) + np.vecdot(x, self.x0)

    def _fd_inputs(self, h: float, steps: tuple[float, float], w, *directions):
        """The step as a float, then the pole (:func:`_checked_pole`, taken
        verbatim) and the directions of a difference oracle, checked in turn."""
        lo, hi = steps
        h = _real_scalar(h, "step")
        if not (lo <= h <= hi):
            raise ParameterError(f"step must lie in [{lo:g}, {hi:g}], got {h:g}")
        w, _ = _checked_pole(w, self.dim)
        return h, w, *_as_vectors(self.dim, (w,), *directions)

    def osculating_product(self, w, u, v) -> float | np.ndarray:
        """Closed-form osculating inner product <u, v>_w at unit-normalized w.

        Symmetric and bilinear in (u, v), positive definite for ||x0|| < 1,
        and 0-homogeneous in w.  Evaluated as the Randers form
        a (<u, v> - <q, u><q, v>) + <l, u><l, v> of :class:`OsculatingFrame`,
        which keeps its accuracy as ||x0|| -> 1 and is bit-stable under
        swapping u and v.  Like every oracle of this class it takes vectors
        or vectors stacked along leading axes that broadcast against each
        other, one sample per stacked position, and returns a float for one
        sample or the array of the broadcast leading shape.  Each oracle is
        its checks, made once per argument, and a private method that holds
        its arithmetic (here :meth:`_osculating_product`), which callers
        whose vectors are valid by construction call directly.
        """
        w, _ = _checked_pole(w, self.dim)
        return _sample(self._osculating_product(w, *_as_vectors(self.dim, (w,), u, v)))

    def _osculating_product(self, w, u, v) -> np.ndarray:
        """The arithmetic of :meth:`osculating_product` on float vectors,
        unchecked: w must be finite and nonzero, and is normalized here."""
        q = _normalized(w)
        a, _, ell = _randers_form(self.x0, q)
        return (
            a * (np.vecdot(u, v) - np.vecdot(q, u) * np.vecdot(q, v))
            + np.vecdot(ell, u) * np.vecdot(ell, v)
        )

    def osculating_gram(self, w) -> "OsculatingFrame":
        """Assemble the osculating frame at w, which builds its closed-form
        inverse on construction and caches nothing afterwards; w is a pole or
        poles stacked along leading axes."""
        return OsculatingFrame(self, w)

    def osculating_product_fd(self, w, u, v, h: float = 1e-4) -> float | np.ndarray:
        """Central second difference of F^2/2 in directions u, v at w.

        Evaluates the derivative definition as stated: w is *not* normalized.
        Oracle counterpart of :meth:`osculating_product` (compare at unit w),
        with the same stacking.
        """
        h, w, u, v = self._fd_inputs(h, OSCULATING_FD_STEPS, w, u, v)
        return _sample(self._osculating_product_fd(_stencil(h, w, u, v), h))

    def _osculating_product_fd(self, stencil, h: float) -> np.ndarray:
        """The evaluation of :meth:`osculating_product_fd` on the
        :func:`_stencil` of float vectors (w, u, v) at the float step h,
        unchecked."""
        return 0.5 * _alternating_sum(_stencil_f2(stencil, self.x0), 2) / (4.0 * h * h)

    def cartan(self, w, u, v, x) -> float | np.ndarray:
        """Closed-form Cartan tensor <u, v, x>_w at unit-normalized w.

        Totally symmetric and trilinear; vanishes whenever a slot equals the
        reference vector, and vanishes identically when x0 is parallel to w.
        Stacked like :meth:`osculating_product`.
        """
        w, _ = _checked_pole(w, self.dim)
        return _sample(self._cartan(w, *_as_vectors(self.dim, (w,), u, v, x)))

    def _cartan(self, w, u, v, x) -> np.ndarray:
        """The arithmetic of :meth:`cartan` on float vectors, unchecked: w
        must be finite and nonzero, and is normalized here."""
        q = _normalized(w)
        p = self.x0
        pw = np.vecdot(q, p)
        qu, qv, qx = np.vecdot(q, u), np.vecdot(q, v), np.vecdot(q, x)
        pu, pv, px = np.vecdot(p, u), np.vecdot(p, v), np.vecdot(p, x)
        uv, vx, xu = np.vecdot(u, v), np.vecdot(v, x), np.vecdot(x, u)
        # the cyclic sum regrouped into four totally symmetric pieces, each
        # combined in sorted order so the value is bit-stable under all six
        # permutations of (u, v, x)
        triple = 3.0 * pw * _sorted_product(qu, qv, qx)
        mixed = pw * _sorted_sum(uv * qx, vx * qu, xu * qv)
        drift_pair = _sorted_sum(pu * (qv * qx), pv * (qx * qu), px * (qu * qv))
        drift_dot = _sorted_sum(pu * vx, pv * xu, px * uv)
        return 0.5 * (triple - mixed - drift_pair + drift_dot)

    def cartan_fd(self, w, u, v, x, h: float = 1e-2) -> float | np.ndarray:
        """Central third difference of F^2/4 at w in directions u, v, x.

        As with the second-difference oracle, w is taken verbatim; stacked
        like :meth:`osculating_product`.
        """
        h, w, u, v, x = self._fd_inputs(h, CARTAN_FD_STEPS, w, u, v, x)
        return _sample(self._cartan_fd(_stencil(h, w, u, v, x), h))

    def _cartan_fd(self, stencil, h: float) -> np.ndarray:
        """The evaluation of :meth:`cartan_fd` on the :func:`_stencil` of
        float vectors (w, u, v, x) at the float step h, unchecked."""
        return 0.25 * _alternating_sum(_stencil_f2(stencil, self.x0), 3) / (8.0 * h**3)

    def is_berwald(self) -> BerwaldReport:
        """Berwald criterion: x0 is parallel iff <[e_i, e_j], x0> = 0 for all
        basis pairs (bilinearity extends the finite check to all vectors)."""
        pairings = self.algebra.structure @ self.x0
        bad = np.argwhere(np.abs(pairings) > BERWALD_TOL)
        if bad.size:
            i, j = bad[0]
            return BerwaldReport(False, (int(i), int(j)))
        return BerwaldReport(True, None)


class OsculatingFrame:
    """Osculating inner product at a unit reference vector, with its inverse.

    With p = x0, q = w, l = q + p and P = I - q q^T, the Gram matrix of the
    basis is the Randers form a P + l l^T with a = F(q) = 1 + <p, q>
    (Bao-Chern-Shen, ch. 11).  Writing l = a q + p_perp, where
    p_perp = p - <p, q> q, gives its inverse in closed form,

        P / a - (p_perp q^T + q p_perp^T) / a^2 + ((a + |p_perp|^2) / a^3) q q^T,

    which is built once at construction, so each Koszul stage of
    :mod:`randersflag.connection` solves by one product with it.

    ``w`` is one pole, shape (n,), or poles stacked along leading axes,
    shape (..., n); every array of the frame then carries the same leading
    axes (``gram`` is (..., n, n)).  One pole is simply the case with no
    leading axis, and each pole of a stack gets the bits of its one-pole
    frame.  Construction checks the poles and builds everything the flag
    path and the Koszul stages read: ``w``, ``gram``, ``pole_covector``
    (gram @ w), ``pole_pairing``, ``pole_brackets`` (the rows [e_i, w],
    formed as the negated rows [w, e_i]) and the inverse; it keeps p_perp and
    P, from which the private :meth:`_cartan_matrix` and :meth:`_cartan_rows`
    form every Cartan term of the stages in closed form, the only code that
    reads them.  A frame is complete and read-only once constructed: it
    caches no array later (the Cartan methods return fresh arrays to their
    caller), and every array it holds, as listed in ``__init__``, is frozen
    in place by ``setflags(write=False)``, so frames are safe for concurrent
    use.
    """

    def __init__(self, structure: RandersStructure, w) -> None:
        c = structure.algebra.structure
        dim = c.shape[0]
        q = _normalized(*_checked_pole(w, dim))
        a, p_perp, ell = _randers_form(structure.x0, q)
        qq = q[..., :, None] * q[..., None, :]
        projector = _identity(dim) - qq
        cross = p_perp[..., :, None] * q[..., None, :]
        scale = a[..., None, None]
        self.structure = structure
        self.w = q
        self.gram = scale * projector + ell[..., :, None] * ell[..., None, :]
        #: <w, .>_w as coordinates, gram @ w
        self.pole_covector = np.matvec(self.gram, q)
        # each bracket contraction is one gufunc call on a view of c, which
        # runs the same kernel pole by pole: a stack of poles gets the bits
        # of one-pole frames, whatever its size
        #: <[e_i, e_j], w>_w, indexed [..., i, j]
        self.pole_pairing = np.matvec(
            c.reshape(dim * dim, dim), self.pole_covector
        ).reshape(qq.shape)
        #: rows [..., i] = [e_i, w], formed as -[w, e_i] by antisymmetry, so
        #: that [v, w] = v @ pole_brackets
        self.pole_brackets = -np.vecmat(q, c.reshape(dim, dim * dim)).reshape(qq.shape)
        self._p_perp = p_perp
        self._projector = projector
        self._inverse = (
            projector / scale
            - (cross + cross.mT) / (scale * scale)
            + ((a + np.vecdot(p_perp, p_perp)) / (a * a * a))[..., None, None] * qq
        )
        # every array above is fresh, so it is frozen without a copy
        for value in (
            self.w, self.gram, self.pole_covector, self.pole_pairing, self.pole_brackets,
            self._p_perp, self._projector, self._inverse,
        ):
            value.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.structure.dim

    def _poles(self, index) -> "OsculatingFrame":
        """The frame at the poles ``w[index]`` of this stacked frame, for a
        basic index (a slice, say) of its leading axes; it holds read-only
        views of each array this frame holds and builds none."""
        frame = object.__new__(OsculatingFrame)
        for name, value in vars(self).items():
            setattr(frame, name, value[index] if isinstance(value, np.ndarray) else value)
        return frame

    def _cartan_matrix(self, u: np.ndarray) -> np.ndarray:
        """Twice the Cartan tensor with one slot filled, 2 C_w(u, ., .), as
        a symmetric (..., n, n) matrix, in O(n^2) per vector; unchecked.

        ``u`` is a vector, or vectors stacked along leading axes that
        broadcast against the frame's, so ``x @ _cartan_matrix(u) @ y`` is
        2 C_w(u, x, y).  The closed form of :meth:`RandersStructure.cartan`
        with two slots left open, written with u_perp = u - <q, u> q and
        P = I - q q^T: <p_perp, u> P + p_perp u_perp^T + u_perp p_perp^T.
        """
        q, p_perp = self.w, self._p_perp
        u_perp = u - np.vecdot(q, u)[..., None] * q
        cross = p_perp[..., :, None] * u_perp[..., None, :]
        # summed in place, in the closed form's order: two (..., n, n)
        # temporaries rather than four
        out = np.vecdot(p_perp, u)[..., None, None] * self._projector
        out += cross
        out += cross.mT
        return out

    def _cartan_rows(self, rows: np.ndarray) -> np.ndarray:
        """2 C_w(rows[..., i, :], e_j, e_k), indexed [..., i, j, k]; unchecked:
        for each row r the closed form <p_perp, r> P + p_perp u^T + u p_perp^T
        of :meth:`_cartan_matrix`, with u = P r, its pair as one n x 2 by
        2 x n product.  p_perp and P get a row axis after the frame's pole
        axes, so rows never broadcast against poles.

        It stays apart from :meth:`_cartan_matrix`, the same form summed
        elementwise: on (4, 12, 12) rows it took 35 us against 41-50 us
        (``verify``'s largest self time, 16 calls at dim 12), and
        ``_cartan_matrix`` as this product moved the ``table1`` rows of the
        flag path at (2, 1, 0.5), (3, 0.7, 0.9) and (1e3, 1e3, 1 - 1e-6)."""
        p_perp = self._p_perp[..., None, :]
        u = rows @ self._projector  # P is symmetric
        left = np.empty(rows.shape + (2,), rows.dtype)
        left[..., 0], left[..., 1] = p_perp, u
        right = np.empty(rows.shape[:-1] + (2, rows.shape[-1]), rows.dtype)
        right[..., 0, :], right[..., 1, :] = u, p_perp
        out = left @ right
        out += np.vecdot(p_perp, rows)[..., None, None] * self._projector[..., None, :, :]
        return out
