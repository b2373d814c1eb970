"""Bracket arithmetic, structure-constant validation, and the heisenberg5
constructor."""

import numpy as np
import pytest

from randersflag import (
    DimensionMismatch,
    MetricLieAlgebra,
    ParameterError,
    heisenberg5,
)
from randersflag.lie_algebra import _as_vector

E = np.eye(5)
Z = E[4]


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
