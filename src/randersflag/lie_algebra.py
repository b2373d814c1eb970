"""Finite-dimensional real metric Lie algebras given by structure constants.

The basis (e_1, ..., e_n) is implicitly orthonormal for the ambient Euclidean
inner product, so the Euclidean Gram matrix is the identity and is never
stored.  Vectors are plain float ndarrays of coordinates in that basis.
Indices are 0-based in code; documentation and config files use the 1-based
labels e_1..e_n, so ``e_i`` is ``coords[i-1]``.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ParameterError

#: Absolute tolerance for the antisymmetry and Jacobi defects on unit-scale
#: structure constants.  Inputs are exact user-provided reals, so any defect
#: reflects entry error rather than round-off.
VALIDATION_TOL = 1e-12


_FLOAT = np.dtype(float)


def _real_array(x, what: str) -> np.ndarray:
    """x as a float ndarray, or :class:`ParameterError` unless x is real
    numbers of one shape: a string, a complex number or a ragged sequence is
    refused, not cast, warned about or raised untyped.  A float array, or a
    list of floats, takes one numpy call; other inputs are checked by dtype,
    and objects one by one, before their cast."""
    try:
        v = np.asarray(x)
        if v.dtype is _FLOAT:
            return v
        kind = v.dtype.kind
        if kind in "biuf" or (kind == "O" and all(isinstance(e, numbers.Real) for e in v.flat)):
            # a cast that overflows gives inf, which the callers refuse
            with np.errstate(over="ignore"):
                return v.astype(float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"{what} must be real numbers: {exc}") from exc
    raise ParameterError(f"{what} must be real numbers, got {v.dtype} entries")


def _real_scalar(x, what: str) -> float:
    """x as a float, or :class:`ParameterError` unless x is a real number
    (any :class:`numbers.Real`, bools included) within the range of a
    float."""
    if isinstance(x, numbers.Real):
        try:
            return float(x)
        except OverflowError:
            pass
    raise ParameterError(f"{what} must be a real number within the range of a float, got {x!r}")


def _integer(value, what: str) -> int:
    """``value`` as an int by ``__index__``, which a bool has but is refused."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ParameterError(f"{what} must be an integer, got {value!r}")


def _checked_vector(x, dim: int, stacked: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """``(v, squares)``: x as a float coordinate vector of length dim or,
    with ``stacked``, as such vectors stacked along any leading axes, and
    the squared norms <v, v> the check of a stack formed (None for one
    vector).  The one home of the rule every vector input obeys; callers
    that test or normalize a stack reuse its squares rather than forming
    them again."""
    v = _real_array(x, "coordinates")
    if (v.shape[-1:] if stacked else v.shape) != (dim,):
        raise DimensionMismatch(
            f"expected a coordinate vector of length {dim}, got shape {v.shape}"
        )
    # v.v is finite exactly when every entry is finite and the squared norm,
    # which every osculating quantity is built from, does not overflow.  An
    # overflow must reject the input, not raise a numpy warning: one vector,
    # the case on every flag, goes through math.hypot, which never warns and
    # costs less than entering np.errstate; a stack through np.vecdot under
    # it, tested by one reduction (a NaN square makes the maximum NaN)
    if v.ndim == 1:
        norm = math.hypot(*v.tolist())
        squares = None
        finite = norm * norm < math.inf
    else:
        with np.errstate(over="ignore"):
            squares = np.vecdot(v, v)
        finite = squares.max(initial=0.0) < math.inf
    if not finite:
        raise ParameterError(
            f"coordinate vector must be finite with a finite squared norm, got {v.tolist()}"
        )
    return v, squares


def _as_vector(x, dim: int, stacked: bool = False) -> np.ndarray:
    """x checked by :func:`_checked_vector`, without its squares."""
    return _checked_vector(x, dim, stacked)[0]


def _as_vectors(dim: int, checked: tuple, *xs) -> list[np.ndarray]:
    """``xs`` as stacked vectors (:func:`_as_vector`); their leading axes and
    those of the vectors ``checked`` must broadcast (else DimensionMismatch)."""
    vectors = [_as_vector(x, dim, stacked=True) for x in xs]
    shapes = [v.shape[:-1] for v in (*checked, *vectors)]
    try:
        np.broadcast_shapes(*shapes)
    except ValueError:
        raise DimensionMismatch(f"stacked vectors must broadcast, got {shapes}") from None
    return vectors


def _bilinear(t: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_ij x_i y_j t[..., i, j, :], unchecked, for the bracket and the
    connection tables: two gufunc calls, whose kernel runs per stacked
    position, so a stack gets the bits of separate calls."""
    return np.vecmat(x, np.vecmat(y[..., None, :], t))


def _cycled(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Views t[..., j, k, i] and t[..., k, i, j], indexed [..., i, j, k]: the
    other two cyclic orders of the last three axes."""
    return t.swapaxes(-2, -1).swapaxes(-3, -2), t.swapaxes(-3, -2).swapaxes(-2, -1)


def _levi_civita(c: np.ndarray) -> np.ndarray:
    """The Levi-Civita coefficients gamma[i, j, k] of the Euclidean product
    for structure constants ``c``, unchecked: the bracket terms of the
    Koszul formula against the identity Gram matrix,
    (c[i, j, k] - c[j, k, i] + c[k, i, j]) / 2."""
    c_jki, c_kij = _cycled(c)
    return 0.5 * (c - c_jki + c_kij)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Largest antisymmetry and Jacobi defects over all basis tuples;
    ``passed`` when both are at most ``VALIDATION_TOL``."""

    antisymmetry_defect: float
    jacobi_defect: float

    @property
    def passed(self) -> bool:
        return self.antisymmetry_defect <= VALIDATION_TOL and self.jacobi_defect <= VALIDATION_TOL


@dataclass(frozen=True, eq=False)
class MetricLieAlgebra:
    """Lie algebra with bracket [e_i, e_j] = sum_k structure[i, j, k] e_k.

    ``structure`` is a dense (dim, dim, dim) array of bracket coefficients on
    the fixed orthonormal basis.  Instances are immutable after construction
    and safe to share across threads; all operations are pure.  The
    connection and curvature code assumes antisymmetric constants, reading
    [w, e_i] as -[e_i, w]: :meth:`validate` checks it, CLI configs are
    antisymmetric by construction, and nothing checks it at run time.
    """

    structure: np.ndarray

    def __post_init__(self) -> None:
        c = _real_array(self.structure, "structure constants")
        if c.ndim != 3 or c.shape[0] != c.shape[1] or c.shape[0] != c.shape[2]:
            raise DimensionMismatch(
                f"structure constants must have shape (n, n, n), got {c.shape}"
            )
        if c.shape[0] == 0:
            raise ParameterError("dimension must be positive")
        if not np.isfinite(c).all():
            raise ParameterError("structure constants must be finite")
        object.__setattr__(self, "structure", _frozen(c))

    @property
    def dim(self) -> int:
        return self.structure.shape[0]

    def basis_vector(self, i: int) -> np.ndarray:
        """Coordinate vector of e_{i+1}, for a 0-based integer ``i`` < dim."""
        i = _integer(i, "basis index")
        if not 0 <= i < self.dim:
            raise ParameterError(f"basis index must lie in [0, {self.dim}), got {i}")
        v = np.zeros(self.dim)
        v[i] = 1.0
        return v

    def bracket(self, x, y) -> np.ndarray:
        """Lie bracket [x, y]; bilinear and antisymmetric, of vectors or
        stacks of them that broadcast."""
        return _bilinear(self.structure, *_as_vectors(self.dim, (), x, y))

    def validate(self) -> ValidationReport:
        """Check antisymmetry and the Jacobi identity on all basis tuples.

        Returns a report rather than raising: callers decide whether a defect
        is fatal.  Both defects must be <= ``VALIDATION_TOL`` to pass.  The
        Jacobi sum J(i, j, k) is a cyclic sum, so it is invariant under
        cyclic shifts of (i, j, k) for any structure constants, antisymmetric
        or not; every triple has a shift whose first index is its least, so
        only the triples with j, k >= i are formed, one i at a time as
        matrix products: about n^5 / 3 multiply-adds in BLAS, a third of the
        full sum, and O(n^3) memory.  Repeated indices are kept (j, k >= i,
        not > i), since their components need not vanish when the
        constants are not antisymmetric.  A shifted triple sums its three
        terms in another order, so the defect of constants that fail the
        Jacobi identity may differ from the full sum's in its last bits.
        Brackets so large that the sum overflows give a non-finite defect,
        which fails.
        """
        c = self.structure
        n = self.dim
        antisymmetry = float(np.abs(c + np.swapaxes(c, 0, 1)).max())
        # [e_i, [e_j, e_k]] + [e_j, [e_k, e_i]] + [e_k, [e_i, e_j]], all
        # components, as slices indexed [j, k, m] over j, k >= i for each i;
        # np.maximum keeps a NaN slice NaN
        jacobi = np.zeros(())
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(n):
                tail = c[i:]
                terms = tail[:, i:] @ c[i]
                terms += tail[:, i, :] @ tail
                terms += (c[i, i:, :] @ tail).swapaxes(0, 1)
                jacobi = np.maximum(jacobi, np.abs(terms).max())
        return ValidationReport(antisymmetry, float(jacobi))

