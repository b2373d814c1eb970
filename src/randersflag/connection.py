"""Chern-Rund and Levi-Civita connections of left-invariant Randers metrics.

For left-invariant fields the directional-derivative terms of the generalized
Koszul formula drop out, leaving an algebraic system for the connection
coefficients at a fixed reference vector.  The system is triangular in three
stages -- nabla_w w, then nabla_v w, then nabla_x y -- because every Cartan
correction appearing in an earlier stage carries a w slot and therefore
vanishes.  Each stage is one product with the frame's closed-form inverse of
the osculating Gram matrix; no factorization or iteration is needed.

Every stage takes a frame of one pole or of poles stacked along leading
axes; one pole is simply the case with no leading axis.  Stages 1 and 2
(:func:`_nabla_w_of_w`, :func:`_nabla_basis_w`) are private arithmetic on
the arrays of a frame, which checked its poles when it was built; the
public entries behind which they run are :func:`chern_rund_table`,
:func:`chern_rund_tables` and :func:`randersflag.curvature.flag_curvature`.
The pairings of brackets with the pole that they read are contracted once,
when the frame is built (``OsculatingFrame.pole_pairing`` and
``pole_brackets``).  Stage 2 gives the rows nabla_{e_i} w of the whole
basis, from one n x n product with the Gram matrix and its transpose, less
the Cartan matrix 2 C_w(nabla_w w, ., .) that it takes as its argument, and
one product with the inverse, so nabla_v w = v @ rows for any v.  Its caller
builds that matrix with the frame's ``_cartan_matrix``: the tables from
stage 1's vector alone, the flag path in one stacked call with the Cartan
matrix its numerator needs.  It serves both regimes, once per stacked
evaluation: :mod:`randersflag.curvature` contracts the rows with the three
vectors a flag needs, O(n^3) per flag, and stage 3, the full table of
:func:`chern_rund_table`, costs O(n^4) per pole and serves the reference
tables, the residual checks and the public table API.  Stage 3 builds the
Koszul right-hand side from two contiguous (..., n, n, n) arrays and
solves it as one product with the inverse (:func:`_table`), and
:func:`torsion_defect` and :func:`almost_metric_defect` reduce over the
poles of a stacked table.  A stacked table holds (poles, n, n, n) arrays,
so :func:`chern_rund_tables` bounds their size: it builds the stage-2 rows
once over all the poles of a frame, then stage 3 per block of at most
max(1, ``TABLE_BLOCK_ENTRIES`` // n**3) poles from views of that frame, as
``verify`` does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .lie_algebra import MetricLieAlgebra, _as_vectors, _bilinear, _cycled, _levi_civita
from .randers import OsculatingFrame, RandersStructure


@dataclass(frozen=True, eq=False)
class ConnectionTable:
    """Connection coefficients at a fixed reference vector.

    ``gamma[i, j, k]`` holds the e_k coordinate of nabla_{e_i} e_j in the
    fixed orthonormal basis; a table over stacked poles has the frame's
    leading axes in front, ``gamma[..., i, j, k]``.  Torsion-freeness ties
    gamma back to the algebra: gamma[i, j] - gamma[j, i] equals the
    coordinates of [e_i, e_j].
    """

    frame: OsculatingFrame
    gamma: np.ndarray

    def derivative(self, x, y) -> np.ndarray:
        """Coordinates of nabla_x y for constant-coefficient (left-invariant)
        fields; bilinear in (x, y), of vectors or stacks of them that
        broadcast against the table's poles."""
        return _bilinear(self.gamma, *_as_vectors(self.frame.dim, (self.frame.w,), x, y))


def _nabla_w_of_w(frame: OsculatingFrame) -> np.ndarray:
    """Stage 1: the covariant derivative of the reference vector along
    itself, unchecked.

    Solves <v, e_i>_w = <[e_i, w], w>_w; every Cartan correction carries a w
    slot and vanishes, so this stage needs no prior data.
    """
    return np.matvec(frame._inverse, np.matvec(frame.pole_pairing, frame.w))


def _nabla_basis_w(frame: OsculatingFrame, cartan: np.ndarray) -> np.ndarray:
    """Stage 2: nabla_{e_i} w for every basis vector e_i, as rows [..., i, :],
    so that nabla_v w = v @ rows for any v; unchecked.

    ``cartan`` is the Cartan matrix 2 C_w(nabla_w w, ., .) at the same
    poles, ``frame._cartan_matrix`` of the stage-1 vector of
    :func:`_nabla_w_of_w`; the caller builds it, so that the flag path forms
    it in the same call as its own Cartan matrix.  Solves
    <nabla_{e_i} w, e_k>_w = (<[e_i, w], e_k>_w - <[w, e_k], e_i>_w
    + <[e_k, e_i], w>_w) / 2 - C_w(nabla_w w, e_k, e_i) for every row at
    once, as products of the frame's arrays: B = pole_brackets @ gram holds
    B[..., i, k] = <[e_i, w], e_k>_w, and [w, e_k] = -[e_k, w], so the
    bracket terms are B + B^T + pole_pairing^T; the single surviving Cartan
    correction (the other two carry a w slot) is half ``cartan``, and
    solving all the rows is one product with the (exactly symmetric)
    inverse.
    """
    brackets = frame.pole_brackets @ frame.gram
    rhs = (brackets + brackets.mT + frame.pole_pairing.mT - cartan) / 2
    return rhs @ frame._inverse


def chern_rund_table(frame: OsculatingFrame) -> ConnectionTable:
    """All connection coefficients nabla_{e_i} e_j at the frame's reference
    vector, via the staged Koszul solve (one solved vector per (i, j) pair).

    The frame holds one pole or poles stacked along leading axes; the table's
    ``gamma`` then carries the same leading axes."""
    return _table(frame, _nabla_basis_w(frame, frame._cartan_matrix(_nabla_w_of_w(frame))))


#: Entries (float64) each (poles, n, n, n) array of a block of
#: :func:`chern_rund_tables` may hold: a block holds
#: max(1, TABLE_BLOCK_ENTRIES // n**3) poles, so its arrays stay within 64 KB
#: from dim 1 to dim 20 and a block is one pole from dim 21 on.
TABLE_BLOCK_ENTRIES = 2**13


def chern_rund_tables(frame: OsculatingFrame):
    """The tables of :func:`chern_rund_table` at the poles of ``frame``,
    stacked on one axis (else :class:`DimensionMismatch`), yielded per block
    of at most max(1, TABLE_BLOCK_ENTRIES // dim**3) poles.  The stage-2
    rows (nabla_{e_i} w) are built once over all the poles; each block builds
    only its (poles, n, n, n) arrays (Cartan corrections, Koszul right-hand
    side and gamma) from views of the frame, complete and read-only.  A
    block holds the one-pole tables of its poles, bit for bit."""
    if frame.w.ndim != 2:
        raise DimensionMismatch(f"poles must be stacked on one axis, got shape {frame.w.shape}")
    rows = _nabla_basis_w(frame, frame._cartan_matrix(_nabla_w_of_w(frame)))
    step = max(1, TABLE_BLOCK_ENTRIES // frame.dim**3)
    for start in range(0, len(rows), step):
        block = slice(start, start + step)
        yield _table(frame._poles(block), rows[block])


def _table(frame: OsculatingFrame, rows: np.ndarray) -> ConnectionTable:
    """Stage 3 of :func:`chern_rund_table`, given ``rows``, the stage-2 rows
    nabla_{e_i} w of :func:`_nabla_basis_w` at the frame's poles.

    With pairings K[..., i, j, k] = <[e_i, e_j], e_k>_w and twice the
    corrections, M[..., i, j, k] = 2 C_w(nabla_{e_i} w, e_j, e_k) of
    :meth:`OsculatingFrame._cartan_rows`, the Koszul right-hand side is
    (X - Y[j, k, i] + Y[k, i, j]) / 2 with X = K - M and Y = K + M, two
    contiguous arrays; every product is one matrix product per pole, and the
    solve is one product with half the (exactly symmetric) inverse."""
    c = frame.structure.algebra.structure
    pairs = c @ frame.gram[..., None, :, :]
    corrections = frame._cartan_rows(rows)
    rhs = pairs - corrections
    y_jki, y_kij = _cycled(np.add(pairs, corrections, out=pairs))
    rhs -= y_jki
    rhs += y_kij
    return ConnectionTable(frame=frame, gamma=rhs @ (frame._inverse / 2)[..., None, :, :])


def levi_civita_table(algebra: MetricLieAlgebra) -> ConnectionTable:
    """Levi-Civita connection of the Euclidean product, directly from the
    bracket terms of the Koszul formula against the identity Gram matrix.

    Independent of the staged solver; with a zero deformation vector,
    :func:`chern_rund_table` must coincide with it for any reference vector.
    ``gamma`` is ``lie_algebra._levi_civita`` of the structure constants;
    the table's frame is the zero-deformation frame at e1.
    """
    gamma = _levi_civita(algebra.structure)
    zero = RandersStructure(algebra, np.zeros(algebra.dim))
    frame = zero.osculating_gram(algebra.basis_vector(0))
    return ConnectionTable(frame=frame, gamma=gamma)


def torsion_defect(table: ConnectionTable) -> float:
    """Largest Euclidean norm over (i, j), and over the poles of a stacked
    table, of nabla_{e_i} e_j - nabla_{e_j} e_i - [e_i, e_j]; contract:
    <= 1e-10.  A table over no poles has no defect: 0.0."""
    c = table.frame.structure.algebra.structure
    defect = table.gamma - np.swapaxes(table.gamma, -3, -2) - c
    return float(np.sqrt(np.vecdot(defect, defect).max(initial=0.0)))


def almost_metric_defect(table: ConnectionTable) -> float:
    """Largest violation of the almost-metric identity over basis triples,
    and over the poles of a stacked table.

    For left-invariant fields the derivative of the inner product vanishes, so
    <nabla_{e_i} e_j, e_k>_w + <e_j, nabla_{e_i} e_k>_w
    + 2 * C_w(nabla_{e_i} w, e_j, e_k) must be zero; contract: <= 1e-10.
    A table over no poles has no defect: 0.0.
    """
    frame, gamma = table.frame, table.gamma
    rows = np.vecmat(frame.w[..., None, :], gamma)  # nabla_{e_i} w
    # metric[..., i, j, k] = <nabla_{e_i} e_j, e_k>_w; the second term of the
    # identity is the same array with j and k swapped
    metric = gamma @ frame.gram[..., None, :, :]
    defect = frame._cartan_rows(rows)
    defect += metric
    defect += np.swapaxes(metric, -1, -2)
    return float(np.abs(defect, out=defect).max(initial=0.0))
