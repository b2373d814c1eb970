"""Shared sampling helpers, the in-process CLI runner and the frame-free
Koszul reference of the test suite."""

import contextlib
import io
import itertools
import os
import warnings

import numpy as np

import randersflag
# z_randers is imported here for the tests that take their samplers from helpers
from randersflag import RandersStructure, z_randers
from randersflag.cli import main
from randersflag.reference_tables import REFERENCE_BLOCKS, Cells


def run_main(argv) -> tuple[int, str, str]:
    """``(code, stdout, stderr)`` of :func:`randersflag.cli.main` on
    ``argv``, with stdout and stderr captured and every warning raised as an
    error; a usage error the argument parser reports by :class:`SystemExit`
    gives its exit code."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def tables_document(lam, mu, xi, layout, poles, computed, expected, defects, max_defect, ok):
    """The document that :func:`randersflag.cli.connection_tables_json`
    writes for its arguments, as :func:`json.dumps` takes it."""
    blocks, start = {}, 0
    for name, pole, rows, cols in layout:
        blocks[name] = {"pole": poles[pole].tolist(), "cells": [
            {"row": row, "col": col, "computed": computed[i].tolist(),
             "closed_form": expected[i].tolist(), "defect": float(defects[i])}
            for i, row, col in zip(itertools.count(start), rows, cols)
        ]}
        start += len(rows)
    return {"lambda": lam, "mu": mu, "xi": xi, "blocks": blocks,
            "max_defect": max_defect, "pass": ok}


def split_blocks(poles, cells) -> dict:
    """:func:`randersflag.reference_tables.reference_blocks`' poles and
    stacked cells, per block of ``REFERENCE_BLOCKS`` by name, as ``(pole,
    rows, cols, cells)``: its pole, its labels and its row slice of the
    stacked cells."""
    blocks, start = {}, 0
    for name, pole, rows, cols in REFERENCE_BLOCKS:
        cut = slice(start, start + len(rows))
        blocks[name] = (poles[pole], rows, cols, Cells(*(part[cut] for part in cells)))
        start = cut.stop
    return blocks


def package_env() -> dict:
    """The environment for a child interpreter that imports the randersflag
    under test: its source root goes first on PYTHONPATH, so a run from a
    checkout needs no install."""
    src = os.path.dirname(os.path.dirname(randersflag.__file__))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)


def unit(rng, dim=5):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def unit_in_plane(rng, first, dim=5):
    """Uniform unit vector in span(e_{first+1}, e_{first+2}) (0-based first)."""
    theta = rng.uniform(0.0, 2.0 * np.pi)
    v = np.zeros(dim)
    v[first] = np.cos(theta)
    v[first + 1] = np.sin(theta)
    return v


def random_heisenberg_params(rng):
    """Admissible (lam, mu, xi) with lam >= mu > 0 and 0 < xi < 1."""
    mu = rng.uniform(0.3, 2.5)
    lam = mu + rng.uniform(0.0, 2.5)
    xi = rng.uniform(0.05, 0.95)
    return lam, mu, xi


def abelian_structure(dim=5, x0=None):
    from randersflag import MetricLieAlgebra

    algebra = MetricLieAlgebra(np.zeros((dim, dim, dim)))
    return RandersStructure(algebra, np.zeros(dim) if x0 is None else x0)


def nilpotent_algebra(rng, dim):
    """Random 2-step nilpotent algebra: antisymmetric maps from the first
    dim - dim // 3 basis vectors into a central block of dim // 3."""
    from randersflag import MetricLieAlgebra

    center = max(1, dim // 3)
    free = dim - center
    maps = rng.standard_normal((free, free, center)) / np.sqrt(free)
    c = np.zeros((dim, dim, dim))
    c[:free, :free, free:] = maps - maps.transpose(1, 0, 2)
    return MetricLieAlgebra(c)


def hyperbolic_plus_heisenberg():
    """Real hyperbolic 5-space times a scaled Heisenberg 3-algebra, without
    deformation: most flags are negatively curved, so positive witnesses
    come late or not at all and a search runs across several chunks."""
    from randersflag import MetricLieAlgebra

    c = np.zeros((8, 8, 8))
    c[0, 1:5, 1:5] = np.eye(4)
    c[1:5, 0, 1:5] = -np.eye(4)
    c[5, 6, 7], c[6, 5, 7] = 0.5, -0.5
    return RandersStructure(MetricLieAlgebra(c), np.zeros(8))


def solvable_algebra(rng, dim):
    """Random rank-one solvable algebra: [e1, e_j] = D e_j for a random
    derivation D of the abelian ideal spanned by e2..e_dim."""
    from randersflag import MetricLieAlgebra

    derivation = rng.standard_normal((dim - 1, dim - 1)) / np.sqrt(dim)
    c = np.zeros((dim, dim, dim))
    c[0, 1:, 1:] = derivation.T
    c[1:, 0, 1:] = -derivation.T
    return MetricLieAlgebra(c)


def koszul_reference(structure, pole):
    """``(rows, gamma)`` at one pole from the staged Koszul system, built
    without the frame: the stage-2 rows rows[i] = nabla_{e_i} w and the
    table gamma[i, j, k], from the Gram matrix and the Cartan tensor of the
    basis given by the ``osculating_product`` and ``cartan`` oracles, each
    stage solved with ``np.linalg.solve``."""
    c = structure.algebra.structure
    e = np.eye(structure.dim)
    gram = structure.osculating_product(pole, e[:, None], e[None, :])
    cartan = structure.cartan(pole, e[:, None, None], e[None, :, None], e[None, None, :])
    w = pole / np.linalg.norm(pole)
    pair = np.einsum("ijm,mk->ijk", c, gram)  # <[e_i, e_j], e_k>_w
    # stage 1: <nabla_w w, e_k>_w = <[e_k, w], w>_w
    nww = np.linalg.solve(gram, np.einsum("kij,i,j->k", pair, w, w))
    # stage 2: <nabla_{e_i} w, e_k>_w = (<[e_i, w], e_k>_w - <[w, e_k], e_i>_w
    # + <[e_k, e_i], w>_w) / 2 - C(nabla_w w, e_k, e_i)
    brackets = (
        np.einsum("ijk,j->ik", pair, w)
        - np.einsum("jki,j->ik", pair, w)
        + np.einsum("kij,j->ik", pair, w)
    )
    rhs = 0.5 * brackets - np.einsum("a,aki->ik", nww, cartan)
    rows = np.linalg.solve(gram, rhs.T).T
    # stage 3: <nabla_{e_i} e_j, e_k>_w = (<[e_i, e_j], e_k>_w
    # - <[e_j, e_k], e_i>_w + <[e_k, e_i], e_j>_w) / 2 - C(nabla_{e_i} w, e_j, e_k)
    # - C(nabla_{e_j} w, e_k, e_i) + C(nabla_{e_k} w, e_i, e_j)
    corrections = np.einsum("ia,ajk->ijk", rows, cartan)
    rhs = (
        0.5 * (pair - np.einsum("jki->ijk", pair) + np.einsum("kij->ijk", pair))
        - corrections
        - np.einsum("jki->ijk", corrections)
        + np.einsum("kij->ijk", corrections)
    )
    n = structure.dim
    return rows, np.linalg.solve(gram, rhs.reshape(n * n, n).T).T.reshape(n, n, n)
