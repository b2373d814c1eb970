"""Randers deformation of the Euclidean metric on a metric Lie algebra.

A Randers structure is the Minkowski norm F(x) = sqrt(<x, x>) + <x0, x> with
deformation vector ||x0|| < 1.  The osculating inner product at a reference
vector w is half the (s, t)-Hessian of F^2(w + s*u + t*v) at the origin, and
the Cartan tensor is a quarter of the third derivative.  Both have closed
forms at Euclidean-unit w, and both are 0-homogeneous in w, so the closed-form
operations normalize w on entry.  The finite-difference variants evaluate the
derivative definitions verbatim (no normalization) and serve as independent
oracles for the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateReferenceVector,
    InternalConsistencyError,
    ParameterError,
)
from .lie_algebra import MetricLieAlgebra, _as_vector, _frozen

#: Below this Euclidean norm a reference vector counts as zero.
ZERO_VECTOR_TOL = 1e-14

#: Tolerance on <[e_i, e_j], x0> for the Berwald criterion.
BERWALD_TOL = 1e-12

#: Admissible central-difference steps: second derivatives tolerate small
#: steps, third derivatives need larger ones against round-off amplification.
OSCULATING_FD_STEPS = (1e-6, 1e-2)
CARTAN_FD_STEPS = (1e-3, 1e-1)


def _unit_reference(w, dim: int) -> np.ndarray:
    w = _as_vector(w, dim)
    # math.sqrt of the exact dot keeps normalization exact under scaling by
    # powers of two, which the homogeneity contract relies on.
    n = math.sqrt(float(w @ w))
    if n < ZERO_VECTOR_TOL:
        raise DegenerateReferenceVector("reference vector is numerically zero")
    return w / n


def _sorted_sum(a: float, b: float, c: float) -> float:
    # value-sorted accumulation: bit-stable under permutations of the inputs
    lo, mid, hi = sorted((a, b, c))
    return (lo + mid) + hi


def _sorted_product(a: float, b: float, c: float) -> float:
    lo, mid, hi = sorted((a, b, c))
    return (lo * mid) * hi


def _cartan_basis_tensor(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Totally symmetric (0,3) Cartan tensor on the basis, at unit q."""
    pw = float(p @ q)
    eye = np.eye(len(q))
    qqq = np.einsum("a,b,c->abc", q, q, q)
    dq = (
        np.einsum("bc,a->abc", eye, q)
        + np.einsum("ca,b->abc", eye, q)
        + np.einsum("ab,c->abc", eye, q)
    )
    pqq = (
        np.einsum("c,a,b->abc", p, q, q)
        + np.einsum("a,b,c->abc", p, q, q)
        + np.einsum("b,c,a->abc", p, q, q)
    )
    pd = (
        np.einsum("a,bc->abc", p, eye)
        + np.einsum("b,ca->abc", p, eye)
        + np.einsum("c,ab->abc", p, eye)
    )
    return 0.5 * (3.0 * pw * qqq - pw * dq - pqq + pd)


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
        if float(np.linalg.norm(x0)) >= 1.0:
            raise ParameterError(
                "deformation vector must have Euclidean norm < 1 "
                f"(got {np.linalg.norm(x0):.6g})"
            )
        object.__setattr__(self, "x0", _frozen(x0))

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def finsler_norm(self, x) -> float:
        """F(x) = sqrt(<x, x>) + <x0, x>; positive for x != 0."""
        x = _as_vector(x, self.dim)
        return float(math.sqrt(float(x @ x)) + self.x0 @ x)

    def _norm_squared(self, x: np.ndarray) -> float:
        return float((math.sqrt(float(x @ x)) + self.x0 @ x) ** 2)

    def osculating_product(self, w, u, v) -> float:
        """Closed-form osculating inner product <u, v>_w at unit-normalized w.

        Symmetric and bilinear in (u, v), positive definite for ||x0|| < 1,
        and 0-homogeneous in w.
        """
        q = _unit_reference(w, self.dim)
        u = _as_vector(u, self.dim)
        v = _as_vector(v, self.dim)
        p = self.x0
        pw = float(p @ q)
        # grouped so the value is bit-stable under swapping u and v
        base = (1.0 + pw) * (u @ v) + (p @ u) * (p @ v) - pw * (q @ u) * (q @ v)
        cross = (p @ u) * (q @ v) + (p @ v) * (q @ u)
        return float(base + cross)

    def osculating_gram(self, w) -> "OsculatingFrame":
        """Assemble the osculating Gram matrix at w with its cached solver."""
        return OsculatingFrame(self, w)

    def osculating_product_fd(self, w, u, v, h: float = 1e-4) -> float:
        """Central second difference of F^2/2 in directions u, v at w.

        Evaluates the derivative definition as stated: w is *not* normalized.
        Oracle counterpart of :meth:`osculating_product` (compare at unit w).
        """
        lo, hi = OSCULATING_FD_STEPS
        if not (lo <= h <= hi):
            raise ParameterError(f"step must lie in [{lo:g}, {hi:g}], got {h:g}")
        w = _as_vector(w, self.dim)
        if math.sqrt(float(w @ w)) < ZERO_VECTOR_TOL:
            raise DegenerateReferenceVector("reference vector is numerically zero")
        u = _as_vector(u, self.dim)
        v = _as_vector(v, self.dim)
        f2 = self._norm_squared
        stencil = (
            f2(w + h * u + h * v)
            - f2(w + h * u - h * v)
            - f2(w - h * u + h * v)
            + f2(w - h * u - h * v)
        )
        return 0.5 * stencil / (4.0 * h * h)

    def cartan(self, w, u, v, x) -> float:
        """Closed-form Cartan tensor <u, v, x>_w at unit-normalized w.

        Totally symmetric and trilinear; vanishes whenever a slot equals the
        reference vector, and vanishes identically when x0 is parallel to w.
        """
        q = _unit_reference(w, self.dim)
        u = _as_vector(u, self.dim)
        v = _as_vector(v, self.dim)
        x = _as_vector(x, self.dim)
        p = self.x0
        pw = float(p @ q)
        qu, qv, qx = float(q @ u), float(q @ v), float(q @ x)
        pu, pv, px = float(p @ u), float(p @ v), float(p @ x)
        uv, vx, xu = float(u @ v), float(v @ x), float(x @ u)
        # the cyclic sum regrouped into four totally symmetric pieces, each
        # combined in sorted order so the value is bit-stable under all six
        # permutations of (u, v, x)
        triple = 3.0 * pw * _sorted_product(qu, qv, qx)
        mixed = pw * _sorted_sum(uv * qx, vx * qu, xu * qv)
        drift_pair = _sorted_sum(pu * (qv * qx), pv * (qx * qu), px * (qu * qv))
        drift_dot = _sorted_sum(pu * vx, pv * xu, px * uv)
        return 0.5 * (triple - mixed - drift_pair + drift_dot)

    def cartan_fd(self, w, u, v, x, h: float = 1e-2) -> float:
        """Central third difference of F^2/4 at w in directions u, v, x.

        As with the second-difference oracle, w is taken verbatim.
        """
        lo, hi = CARTAN_FD_STEPS
        if not (lo <= h <= hi):
            raise ParameterError(f"step must lie in [{lo:g}, {hi:g}], got {h:g}")
        w = _as_vector(w, self.dim)
        if math.sqrt(float(w @ w)) < ZERO_VECTOR_TOL:
            raise DegenerateReferenceVector("reference vector is numerically zero")
        u = _as_vector(u, self.dim)
        v = _as_vector(v, self.dim)
        x = _as_vector(x, self.dim)
        f2 = self._norm_squared
        total = 0.0
        for su in (1.0, -1.0):
            for sv in (1.0, -1.0):
                for sx in (1.0, -1.0):
                    total += su * sv * sx * f2(w + su * h * u + sv * h * v + sx * h * x)
        return 0.25 * total / (8.0 * h**3)

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
    """Osculating inner product at a unit reference vector, ready to solve.

    With p = x0, q = w, l = q + p and P = I - q q^T, the Gram matrix of the
    basis is the Randers form a P + l l^T with a = F(q) = 1 + <p, q>
    (Bao-Chern-Shen, ch. 11).  Writing l = a q + p_perp, where
    p_perp = p - <p, q> q, gives its inverse in closed form,

        P / a - (p_perp q^T + q p_perp^T) / a^2 + ((a + |p_perp|^2) / a^3) q q^T,

    which is built once at construction, so a solve is one matrix product.
    The (n, n, n) Cartan tensor on basis triples is built on first read, since
    only the full connection table needs it.  Frames are read-only, so they
    are safe for concurrent use (a racing first read builds the same tensor).
    """

    def __init__(self, structure: RandersStructure, w) -> None:
        q = _unit_reference(w, structure.dim)
        p = structure.x0
        pw = float(p @ q)
        p_perp = p - pw * q
        # a = 1 + <p, q> as a sum of two nonnegative terms: no cancellation as
        # q -> -p / |p|, and 1 - |p|^2 > 0 for every admissible x0
        a = 0.5 * (float((q + p) @ (q + p)) + (1.0 - float(p @ p)))
        if not a > 0.0:
            raise InternalConsistencyError(
                "osculating Gram matrix is not positive definite; "
                "a construction invariant was violated"
            )
        # l = q + p, written with the a above so that the Gram matrix and the
        # inverse below are built from the same three numbers
        ell = a * q + p_perp
        qq = np.outer(q, q)
        projector = np.eye(structure.dim) - qq
        cross = np.outer(p_perp, q)
        inverse = (
            projector / a
            - (cross + cross.T) / (a * a)
            + ((a + float(p_perp @ p_perp)) / (a * a * a)) * qq
        )
        self.structure = structure
        self.w = _frozen(q)
        self.gram = _frozen(a * projector + np.outer(ell, ell))
        self._pw = pw
        self._inverse = inverse

    @property
    def dim(self) -> int:
        return self.structure.dim

    @cached_property
    def cartan_tensor(self) -> np.ndarray:
        """Cartan tensor on basis triples, (n, n, n); built on first read."""
        return _frozen(_cartan_basis_tensor(self.structure.x0, self.w))

    def cartan_covector(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Coordinates of the covector C_w(u, v, .), in O(n) per column.

        ``v`` is a vector or stacked columns; the result has its shape, so
        ``cartan_covector(u, v) @ x`` is the Cartan tensor C_w(u, v, x).
        The closed form of :meth:`RandersStructure.cartan` with one slot left
        open.
        """
        p, q, pw = self.structure.x0, self.w, self._pw
        qu, pu = q @ u, p @ u
        qv, pv, uv = q @ v, p @ v, u @ v
        outer = np.multiply.outer
        return 0.5 * (
            outer(q, 3.0 * pw * qu * qv - pw * uv - pu * qv - pv * qu)
            + (pu - pw * qu) * v
            + outer(u, pv - pw * qv)
            + outer(p, uv - qu * qv)
        )

    def inner(self, u, v) -> float:
        """<u, v>_w against the cached Gram matrix."""
        u = _as_vector(u, self.dim)
        v = _as_vector(v, self.dim)
        return float(u @ self.gram @ v)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve gram @ x = rhs (vector or stacked columns) with the stored
        closed-form inverse."""
        return self._inverse @ rhs
