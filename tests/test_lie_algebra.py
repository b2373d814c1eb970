"""Bracket arithmetic, structure-constant validation, and the heisenberg5
constructor."""

import json
import tracemalloc

import numpy as np
import pytest

from randersflag import (
    DimensionMismatch,
    MetricLieAlgebra,
    ParameterError,
    RandersStructure,
    flag_curvature,
    heisenberg5,
    z_randers,
)
from randersflag.lie_algebra import VALIDATION_TOL, _as_vector
from helpers import nilpotent_algebra, run_main, solvable_algebra

E = np.eye(5)
Z = E[4]


def einsum_jacobi_defect(c):
    """Reference Jacobi defect: the three terms over the whole index set as
    (n, n, n, n) einsums, indexed [i, j, k, m]."""
    return float(
        np.abs(
            np.einsum("jkl,ilm->ijkm", c, c)
            + np.einsum("kil,jlm->ijkm", c, c)
            + np.einsum("ijl,klm->ijkm", c, c)
        ).max()
    )


class TestBracket:
    def test_heisenberg_e1_e2(self):
        a = heisenberg5(2.0, 1.0)
        assert np.array_equal(a.bracket(E[0], E[1]), 2.0 * Z)

    def test_heisenberg_e3_e4(self):
        a = heisenberg5(2.0, 1.0)
        assert np.array_equal(a.bracket(E[2], E[3]), 1.0 * Z)

    def test_cross_plane_brackets_vanish(self):
        a = heisenberg5(2.0, 1.0)
        for i, j in [(0, 2), (0, 3), (1, 2), (1, 3), (0, 4), (3, 4)]:
            assert np.array_equal(a.bracket(E[i], E[j]), np.zeros(5))

    def test_bracket_of_vector_with_itself_vanishes(self, rng):
        a = heisenberg5(2.0, 1.0)
        for _ in range(20):
            x = rng.standard_normal(5)
            assert np.abs(a.bracket(x, x)).max() < 1e-15

    def test_antisymmetry(self, rng):
        a = heisenberg5(1.7, 0.4)
        for _ in range(20):
            x, y = rng.standard_normal((2, 5))
            assert np.allclose(a.bracket(x, y), -a.bracket(y, x), atol=1e-15)

    def test_bilinearity(self, rng):
        a = heisenberg5(2.0, 1.0)
        for _ in range(20):
            x, y, z = rng.standard_normal((3, 5))
            alpha, beta = rng.uniform(-2, 2, 2)
            left = a.bracket(alpha * x + beta * y, z)
            right = alpha * a.bracket(x, z) + beta * a.bracket(y, z)
            scale = max(1.0, np.abs(right).max())
            assert np.abs(left - right).max() <= 1e-14 * scale

    def test_values_land_in_center(self, rng):
        a = heisenberg5(3.0, 0.5)
        for _ in range(30):
            x, y = rng.standard_normal((2, 5))
            assert np.abs(a.bracket(x, y)[:4]).max() < 1e-14

    def test_dimension_mismatch(self):
        a = heisenberg5(2.0, 1.0)
        with pytest.raises(DimensionMismatch):
            a.bracket(np.ones(4), np.ones(5))

    def test_overflowing_squared_norm_is_parameter_error(self):
        # finite coordinates whose squared norm overflows: a typed error,
        # not a numpy overflow warning (which the suite turns into an error)
        a = heisenberg5(2.0, 1.0)
        with pytest.raises(ParameterError, match="finite squared norm"):
            a.bracket([1e200, 0, 0, 0, 0], E[1])
        with pytest.raises(ParameterError, match="finite squared norm"):
            _as_vector([1e200, 0, 0, 0, 0], 5)
        with pytest.raises(ParameterError, match="finite squared norm"):
            _as_vector([[1, 0, 0, 0, 0], [0, 1e200, 0, 0, 0]], 5, stacked=True)
        with pytest.raises(ParameterError, match="finite squared norm"):
            _as_vector([1, 0, 0, float("nan"), 0], 5)

    def test_stacked_vectors_need_the_flag(self):
        stack = np.ones((3, 5))
        assert _as_vector(stack, 5, stacked=True).shape == (3, 5)
        with pytest.raises(DimensionMismatch):
            _as_vector(stack, 5)
        with pytest.raises(DimensionMismatch):
            _as_vector(np.ones((3, 4)), 5, stacked=True)


class TestValidate:
    def test_heisenberg_grid_passes_with_zero_defects(self):
        for lam in (0.5, 1.0, 2.0, 3.0, 5.0):
            for mu in (0.25, 0.5, 1.0, 2.0, 5.0):
                if lam < mu:
                    continue
                report = heisenberg5(lam, mu).validate()
                assert report.passed
                assert report.antisymmetry_defect == 0.0
                assert report.jacobi_defect == 0.0

    def test_abelian_passes(self):
        report = MetricLieAlgebra(np.zeros((4, 4, 4))).validate()
        assert report.passed

    def test_antisymmetry_violation_detected(self):
        c = np.zeros((3, 3, 3))
        c[0, 1, 2] = 1.0
        c[1, 0, 2] = 1.0  # should be -1
        report = MetricLieAlgebra(c).validate()
        assert not report.passed
        assert report.antisymmetry_defect == pytest.approx(2.0)

    def test_jacobi_violation_detected(self):
        # [e1, e2] = e3, [e1, e3] = e1: antisymmetric but not a Lie algebra
        c = np.zeros((3, 3, 3))
        c[0, 1, 2] = 1.0
        c[1, 0, 2] = -1.0
        c[0, 2, 0] = 1.0
        c[2, 0, 0] = -1.0
        report = MetricLieAlgebra(c).validate()
        assert report.antisymmetry_defect == 0.0
        assert report.jacobi_defect > 0.5
        assert not report.passed

    @pytest.mark.parametrize("factor", [0.5, 0.9, 1.1, 2.0])
    def test_jacobi_defect_at_its_tolerance(self, tmp_path, factor):
        # heisenberg5(1, 1) plus [e1, Z] = t e3: the only nonzero Jacobi sum
        # is [e2, [Z, e1]] = -t Z, so the defect is exactly t
        t = factor * VALIDATION_TOL
        c = heisenberg5(1.0, 1.0).structure.copy()
        c[0, 4, 2], c[4, 0, 2] = t, -t
        report = MetricLieAlgebra(c).validate()
        assert report.jacobi_defect == t
        assert report.passed == (factor < 1)
        brackets = [
            {"i": 1, "j": 2, "k": 5, "value": 1.0},
            {"i": 3, "j": 4, "k": 5, "value": 1.0},
            {"i": 1, "j": 5, "k": 3, "value": t},
        ]
        config = tmp_path / "model.json"
        document = {"explicit": {"dim": 5, "brackets": brackets, "x0": [0, 0, 0, 0, 0.5]}}
        config.write_text(json.dumps(document), encoding="utf-8")
        code, out, err = run_main(["verify", "--config", str(config)])
        if factor < 1:
            assert (code, err) == (0, "") and json.loads(out)["pass"] is True
        else:
            assert (code, out) == (2, "") and len(err.splitlines()) == 1
            assert f"Jacobi defect {t:.3e}" in err

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 9, 16])
    @pytest.mark.parametrize("family", [nilpotent_algebra, solvable_algebra])
    def test_matches_einsum_reference(self, dim, family, rng):
        # exact and perturbed constants: [e_n, e_{n-1}] gains eps e_1, which
        # breaks the Jacobi identity of most draws by about eps
        exact = family(rng, dim).structure
        variants = [exact]
        for eps in (1e-6, 1e-11, 1e-13) if dim > 1 else ():
            c = exact.copy()
            c[dim - 1, dim - 2, 0] += eps
            c[dim - 2, dim - 1, 0] -= eps
            variants.append(c)
        for c in variants:
            report = MetricLieAlgebra(c).validate()
            reference = einsum_jacobi_defect(c)
            # each component sums 3n products of size <= max|c|^2; either
            # summation order errs by at most 3n eps times that 3n max|c|^2
            bound = 2 * (3 * dim) ** 2 * np.finfo(float).eps * np.abs(c).max() ** 2
            assert abs(report.jacobi_defect - reference) <= bound
            assert report.passed == (
                report.antisymmetry_defect <= VALIDATION_TOL and reference <= VALIDATION_TOL
            )

    @pytest.mark.parametrize("dim", range(2, 10))
    def test_matches_einsum_reference_off_antisymmetry(self, dim, rng):
        # the cyclic shift that validate() relies on holds for any constants
        c = rng.standard_normal((dim, dim, dim))
        report = MetricLieAlgebra(c).validate()
        bound = 2 * (3 * dim) ** 2 * np.finfo(float).eps * np.abs(c).max() ** 2
        assert abs(report.jacobi_defect - einsum_jacobi_defect(c)) <= bound

    def test_repeated_index_component_counts(self):
        # [e1, e1] = e2 and [e2, e1] = e1: the only nonzero Jacobi components
        # have a repeated index, which a loop over j, k > i would skip
        c = np.zeros((2, 2, 2))
        c[0, 0, 1] = c[1, 0, 0] = 1.0
        jacobi = (
            np.einsum("jkl,ilm->ijkm", c, c)
            + np.einsum("kil,jlm->ijkm", c, c)
            + np.einsum("ijl,klm->ijkm", c, c)
        )
        assert all(len({i, j, k}) < 3 for i, j, k, _ in np.argwhere(jacobi))
        assert MetricLieAlgebra(c).validate().jacobi_defect == 1.0

    def test_overflow_in_an_early_slice_fails_with_nan(self):
        # [e1, e2] = 1e160 e5 and [e1, e5] = 1e160 e2 on six dimensions: the
        # slices of e1, e2 and e5 are inf - inf, the last slice (e6) is zero
        c = np.zeros((6, 6, 6))
        c[0, 1, 4], c[1, 0, 4] = 1e160, -1e160
        c[0, 4, 1], c[4, 0, 1] = 1e160, -1e160
        report = MetricLieAlgebra(c).validate()
        assert report.antisymmetry_defect == 0.0
        assert np.isnan(report.jacobi_defect)
        assert not report.passed

    def test_memory_stays_cubic(self, rng):
        # one (n, n, n) slice at a time: 0.5 MB at dim 40, where one
        # (n, n, n, n) array of the whole index set would be 20 MB
        algebra = nilpotent_algebra(rng, 40)
        tracemalloc.start()
        try:
            assert algebra.validate().passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestHeisenberg5:
    def test_structure_constants(self):
        a = heisenberg5(2.0, 1.0)
        c = a.structure
        assert a.dim == 5
        assert c[0, 1, 4] == 2.0 and c[1, 0, 4] == -2.0
        assert c[2, 3, 4] == 1.0 and c[3, 2, 4] == -1.0
        mask = np.zeros_like(c, dtype=bool)
        mask[0, 1, 4] = mask[1, 0, 4] = mask[2, 3, 4] = mask[3, 2, 4] = True
        assert np.all(c[~mask] == 0.0)

    def test_equal_parameters_allowed(self):
        a = heisenberg5(1.0, 1.0)
        assert a.validate().passed

    def test_lambda_below_mu_rejected(self):
        with pytest.raises(ParameterError):
            heisenberg5(1.0, 2.0)

    def test_nonpositive_mu_rejected(self):
        with pytest.raises(ParameterError):
            heisenberg5(1.0, 0.0)
        with pytest.raises(ParameterError):
            heisenberg5(1.0, -0.5)

    def test_structure_is_read_only(self):
        a = heisenberg5(2.0, 1.0)
        with pytest.raises(ValueError):
            a.structure[0, 0, 0] = 1.0

    def test_bad_structure_shape_rejected(self):
        with pytest.raises(DimensionMismatch):
            MetricLieAlgebra(np.zeros((3, 3)))
        with pytest.raises(DimensionMismatch):
            MetricLieAlgebra(np.zeros((3, 3, 4)))
        with pytest.raises(ParameterError, match="dimension must be positive"):
            MetricLieAlgebra(np.zeros((0, 0, 0)))


class TestBasisVector:
    @pytest.mark.parametrize("i", [0, 2, 4, np.int64(4), np.uint8(1)])
    def test_rows_of_the_identity(self, i):
        v = heisenberg5(2.0, 1.0).basis_vector(i)
        assert v.dtype == float
        assert np.array_equal(v, E[int(i)])

    @pytest.mark.parametrize(
        "i",
        [True, False, None, -1, -6, 5, 10**20, [1, 2], 1.5, 4.0, "1", np.float64(1.0), 1j,
         np.array([0])],
        ids=repr,
    )
    def test_non_index_rejected(self, i):
        # not an all-ones vector, a wrapped index, two entries or an IndexError
        with pytest.raises(ParameterError, match="basis index"):
            heisenberg5(2.0, 1.0).basis_vector(i)


def _flag(w, x=E[0]):
    return flag_curvature(z_randers(2.0, 1.0, 0.5), w, x)


class TestRealCoordinates:
    """Coordinates and structure constants must be real numbers: anything
    else is a ParameterError, never a plain numpy or Python error, a
    ComplexWarning or a cast that drops the imaginary part."""

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: _flag("abcde"), id="string-pole"),
            pytest.param(lambda: _flag(E[1], ["1", "0", "0", "0", "0"]), id="strings-transverse"),
            pytest.param(lambda: MetricLieAlgebra("abc"), id="string-structure"),
            pytest.param(lambda: _flag([[1, 0], [0, 0, 1]]), id="ragged-pole"),
            pytest.param(lambda: MetricLieAlgebra([[[0]], [[0, 1]]]), id="ragged-structure"),
            pytest.param(
                lambda: RandersStructure(heisenberg5(2.0, 1.0), [0, 0, 0, 0, 10**400]),
                id="int-overflowing-x0",
            ),
            pytest.param(lambda: _flag(np.array([0, 1, 0, 0, 1j])), id="complex-array-pole"),
            pytest.param(lambda: _flag(E[1], [np.complex128(1), 0, 0, 0, 0]), id="complex-scalar"),
            pytest.param(lambda: _flag(E[1], [1 + 0j, 0, 0, 0, 0]), id="python-complex"),
            pytest.param(lambda: _as_vector({}, 5), id="dict"),
            pytest.param(
                lambda: MetricLieAlgebra(np.zeros((3, 3, 3), complex)), id="complex-structure"
            ),
        ],
    )
    def test_non_real_input_is_parameter_error(self, call):
        with pytest.raises(ParameterError, match="must be real numbers"):
            call()

    def test_real_inputs_of_any_real_dtype_are_cast(self):
        # ints, large Python ints, bools and float32 are real numbers
        expected = _flag(E[1] + E[4], E[0])
        poles = ([0, 1, 0, 0, 1], [0, 10**20, 0, 0, 10**20], np.array([0, 1, 0, 0, 1], np.float32))
        for w in poles:
            report = _flag(w, [True, False, False, False, False])
            assert report.k == expected.k
            assert report.x.dtype == np.float64
