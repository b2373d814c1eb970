"""Seeded input generation for the benchmark workloads.

Everything the library receives is built here from a numpy Generator, so one
seed always gives the same models, flags and search seeds.  Every generated
algebra is checked with ``MetricLieAlgebra.validate()`` before use.
"""

from __future__ import annotations

import numpy as np

import randersflag as rf

#: Pole span and transverse span of each heisenberg5 special flag family
#: (basis order e1, e2, e3, e4, Z).  Stated here, not read from the library,
#: so that the inputs do not come from the table their checks cover.
SPECIAL_SPANS = {
    "1.1": ("Z", "e12"),
    "1.2": ("Z", "e34"),
    "2.1": ("e12", "Z"),
    "2.2": ("e12", "e12"),
    "2.3": ("e12", "e34"),
    "3.1": ("e34", "Z"),
    "3.2": ("e34", "e12"),
    "3.3": ("e34", "e34"),
}

#: Generic flags and same-span special flags closer to parallel than this
#: are redrawn, so that no flag of a workload is degenerate.
MAX_ABS_COS = 0.99


def validated(constants: np.ndarray) -> rf.MetricLieAlgebra:
    algebra = rf.MetricLieAlgebra(constants)
    report = algebra.validate()
    if not report.passed:
        raise RuntimeError(
            "generated algebra fails validation "
            f"(antisymmetry {report.antisymmetry_defect:.3e}, Jacobi {report.jacobi_defect:.3e})"
        )
    return algebra


def heisenberg_params(rng: np.random.Generator) -> tuple[float, float, float]:
    """Random admissible (lam, mu, xi): lam >= mu > 0, 0 < xi < 1.

    xi stays at most 0.95, inside the range where the closed forms hold to
    1e-9 at every pole.
    """
    lam = float(rng.uniform(0.5, 3.0))
    mu = lam * float(rng.uniform(0.2, 1.0))
    xi = float(rng.uniform(0.05, 0.95))
    return lam, mu, xi


def heisenberg_model(lam: float, mu: float, xi: float) -> rf.RandersStructure:
    x0 = np.zeros(5)
    x0[4] = xi
    return rf.RandersStructure(validated(rf.heisenberg5(lam, mu).structure), x0)


def nilpotent_constants(dim: int, rng: np.random.Generator) -> np.ndarray:
    """2-step nilpotent: random antisymmetric maps from the first
    ``dim - dim // 3`` basis vectors into a central block of ``dim // 3``."""
    center = max(1, dim // 3)
    free = dim - center
    maps = rng.standard_normal((free, free, center)) / np.sqrt(free)
    c = np.zeros((dim, dim, dim))
    c[:free, :free, free:] = maps - maps.transpose(1, 0, 2)
    return c


def solvable_constants(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Rank-one solvable R x| R^(dim-1): [e1, e_j] = D e_j for a random
    derivation D of the abelian ideal spanned by e2..e_dim."""
    derivation = rng.standard_normal((dim - 1, dim - 1)) / np.sqrt(dim)
    c = np.zeros((dim, dim, dim))
    c[0, 1:, 1:] = derivation.T
    c[1:, 0, 1:] = -derivation.T
    return c


def random_x0(dim: int, rng: np.random.Generator, lo: float = 0.1, hi: float = 0.9) -> np.ndarray:
    """Deformation vector with lo < ||x0|| < hi in a uniform random direction."""
    v = rng.standard_normal(dim)
    return v * (float(rng.uniform(lo, hi)) / float(np.linalg.norm(v)))


def flat_model(rng: np.random.Generator) -> rf.RandersStructure:
    """Abelian dim-5 algebra: every flag curvature is zero."""
    return rf.RandersStructure(validated(np.zeros((5, 5, 5))), random_x0(5, rng))


def _span_vector(span: str, rng: np.random.Generator) -> np.ndarray:
    v = np.zeros(5)
    scale = float(rng.uniform(0.5, 2.0))
    if span == "Z":
        v[4] = scale if rng.random() < 0.5 else -scale
        return v
    i = 0 if span == "e12" else 2
    theta = float(rng.uniform(0.0, 2.0 * np.pi))
    v[i] = scale * np.cos(theta)
    v[i + 1] = scale * np.sin(theta)
    return v


def _cos(w: np.ndarray, x: np.ndarray) -> float:
    return abs(float(w @ x)) / float(np.linalg.norm(w) * np.linalg.norm(x))


def special_flag(case_id: str, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Random pole and transverse vector inside the spans of one family."""
    pole_span, transverse_span = SPECIAL_SPANS[case_id]
    w = _span_vector(pole_span, rng)
    x = _span_vector(transverse_span, rng)
    while _cos(w, x) > MAX_ABS_COS:
        x = _span_vector(transverse_span, rng)
    return w, x


def generic_flag(dim: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    w = rng.standard_normal(dim)
    x = rng.standard_normal(dim)
    while _cos(w, x) > MAX_ABS_COS:
        x = rng.standard_normal(dim)
    return w, x


def mixing(rng: np.random.Generator) -> tuple[float, float, float]:
    """Coefficients (a, b, c) of the invariance check K(w, x) = K(c w, a x + b w):
    a != 0 mixes the plane, c > 0 rescales the pole (Randers metrics are not
    reversible, so c keeps its sign)."""
    a = float(rng.uniform(0.5, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0)
    return a, float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 2.0))


def search_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def explicit_config(structure: rf.RandersStructure) -> dict:
    """CLI ``explicit`` model document (1-based indices) for a structure."""
    c = structure.algebra.structure
    brackets = [
        {"i": int(i) + 1, "j": int(j) + 1, "k": int(k) + 1, "value": float(c[i, j, k])}
        for i, j, k in zip(*np.nonzero(c))
        if i < j
    ]
    return {
        "explicit": {
            "dim": structure.dim,
            "brackets": brackets,
            "x0": [float(v) for v in structure.x0],
        }
    }


def preset_config(lam: float, mu: float, xi: float) -> dict:
    return {"preset": {"name": "heisenberg5", "lambda": lam, "mu": mu, "xi": xi}}
