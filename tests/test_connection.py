"""Staged Koszul solver: connection coefficients, compatibility defects, and
the closed-form component tables of the Heisenberg model."""

import numpy as np
import pytest

from randersflag import (
    DomainError,
    MetricLieAlgebra,
    RandersStructure,
    almost_metric_defect,
    chern_rund_table,
    heisenberg5,
    levi_civita_table,
    nabla_w_of_w,
    nabla_x_w_map,
    torsion_defect,
    w_perp,
)
from randersflag.connection import nabla_v_w
from randersflag.reference_tables import (
    pole_frame_cells,
    pole_rows_cells,
    pole_z_cells,
    reference_blocks,
)
from helpers import random_heisenberg_params, unit, unit_in_plane, z_randers

E = np.eye(5)
Z = E[4]


@pytest.fixture
def table_e1():
    s = z_randers(2.0, 1.0, 0.5)
    return chern_rund_table(s.osculating_gram(E[0]))


def check_cells(structure, pole, cells, tol):
    table = chern_rund_table(structure.osculating_gram(pole))
    worst = 0.0
    for cell in cells:
        computed = table.derivative(cell.direction, cell.argument)
        worst = max(worst, float(np.abs(computed - cell.expected).max()))
    assert worst <= tol, f"worst cell defect {worst:.3e} exceeds {tol:g}"


class TestStageSolves:
    def test_nabla_w_of_w_at_plane_pole(self):
        s = z_randers(2.0, 1.0, 0.5)
        frame = s.osculating_gram(E[0])
        assert np.allclose(nabla_w_of_w(frame), -E[1], atol=1e-14)

    def test_nabla_w_of_w_at_center_pole(self):
        s = z_randers(2.0, 1.0, 0.5)
        frame = s.osculating_gram(Z)
        assert np.allclose(nabla_w_of_w(frame), np.zeros(5), atol=1e-14)

    def test_nabla_w_of_w_vanishes_without_deformation_at_plane_pole(self):
        s = RandersStructure(heisenberg5(2.0, 1.0), np.zeros(5))
        frame = s.osculating_gram(E[0])
        assert np.allclose(nabla_w_of_w(frame), np.zeros(5), atol=1e-14)

    def test_nabla_w_of_w_is_scaled_orthogonal_direction(self, rng):
        for _ in range(20):
            lam, mu, xi = random_heisenberg_params(rng)
            s = z_randers(lam, mu, xi)
            w = unit(rng)
            w[4] = 0.0
            w /= np.linalg.norm(w)
            frame = s.osculating_gram(w)
            expected = xi * w_perp(s.algebra, w)
            assert np.abs(nabla_w_of_w(frame) - expected).max() <= 1e-12

    def test_nabla_x_w_map_columns(self):
        s = z_randers(2.0, 1.0, 0.5)
        frame = s.osculating_gram(E[0])
        m = nabla_x_w_map(frame)
        assert np.allclose(m[:, 4], -E[1], atol=1e-14)  # along Z: half of Wperp
        assert np.allclose(m[:, 2], -0.25 * E[3], atol=1e-14)  # along e3
        assert np.allclose(m[:, 3], 0.25 * E[2], atol=1e-14)  # along e4

    def test_map_applied_to_pole_matches_stage_one(self, rng):
        for _ in range(10):
            lam, mu, xi = random_heisenberg_params(rng)
            s = z_randers(lam, mu, xi)
            frame = s.osculating_gram(unit(rng))
            assert np.abs(nabla_x_w_map(frame) @ frame.w - nabla_w_of_w(frame)).max() <= 1e-13

    def test_stacked_stage_two_matches_map(self, rng):
        for _ in range(10):
            lam, mu, xi = random_heisenberg_params(rng)
            frame = z_randers(lam, mu, xi).osculating_gram(unit(rng))
            vectors = rng.standard_normal((3, 5))
            stacked = nabla_v_w(frame, nabla_w_of_w(frame), vectors)
            assert np.abs(stacked - vectors @ nabla_x_w_map(frame).T).max() <= 1e-13

    def test_cartan_corrections_with_pole_slot_vanish(self, rng):
        # the dropped stage-2 terms all carry a pole slot; the cached tensor
        # contracted with the pole must be numerically zero
        for _ in range(10):
            lam, mu, xi = random_heisenberg_params(rng)
            frame = z_randers(lam, mu, xi).osculating_gram(unit(rng))
            sliced = np.einsum("abc,a->bc", frame.cartan_tensor, frame.w)
            assert np.abs(sliced).max() <= 1e-14


class TestSpotComponents:
    def test_center_derivative_of_center(self, table_e1):
        assert np.allclose(table_e1.derivative(Z, Z), -0.25 * E[1], atol=1e-14)

    def test_orthogonal_derivative_of_pole(self, table_e1):
        wp = w_perp(heisenberg5(2.0, 1.0), E[0])
        expected = 2.0 * Z - E[0]  # 0.5*lam^2*(Z - xi*W)
        assert np.allclose(table_e1.derivative(wp, E[0]), expected, atol=1e-13)

    def test_plane_rows_at_e34_pole(self):
        s = z_randers(2.0, 1.0, 0.5)
        table = chern_rund_table(s.osculating_gram(E[2]))
        wp = w_perp(s.algebra, E[2])
        assert np.allclose(table.derivative(E[0], wp), -0.125 * E[0], atol=1e-14)


class TestClosedFormTables:
    def test_center_pole_table_random_params(self, rng):
        for _ in range(10):
            lam, mu, xi = random_heisenberg_params(rng)
            check_cells(z_randers(lam, mu, xi), Z, pole_z_cells(lam, mu, xi), 1e-12)

    def test_e12_pole_frame_table(self, rng):
        for _ in range(10):
            lam, mu, xi = random_heisenberg_params(rng)
            w = unit_in_plane(rng, 0)
            check_cells(z_randers(lam, mu, xi), w, pole_frame_cells("e12", lam, mu, xi, w), 1e-10)

    def test_e12_pole_transverse_rows(self, rng):
        for _ in range(10):
            lam, mu, xi = random_heisenberg_params(rng)
            w = unit_in_plane(rng, 0)
            check_cells(z_randers(lam, mu, xi), w, pole_rows_cells("e12", lam, mu, xi, w), 1e-10)

    def test_e34_pole_frame_table(self, rng):
        for _ in range(10):
            lam, mu, xi = random_heisenberg_params(rng)
            w = unit_in_plane(rng, 2)
            check_cells(z_randers(lam, mu, xi), w, pole_frame_cells("e34", lam, mu, xi, w), 1e-10)

    def test_e34_pole_transverse_rows(self, rng):
        for _ in range(10):
            lam, mu, xi = random_heisenberg_params(rng)
            w = unit_in_plane(rng, 2)
            check_cells(z_randers(lam, mu, xi), w, pole_rows_cells("e34", lam, mu, xi, w), 1e-10)

    def test_reference_blocks_cover_the_four_layouts(self, rng):
        blocks = reference_blocks(2.0, 1.0, 0.5, rng)
        assert set(blocks) == {
            "pole_z",
            "pole_e12_frame",
            "pole_e12_rows_e34",
            "pole_e34_rows_e12",
        }
        assert len(blocks["pole_z"][1]) == 25
        assert len(blocks["pole_e12_frame"][1]) == 9
        assert len(blocks["pole_e12_rows_e34"][1]) == 4
        assert len(blocks["pole_e34_rows_e12"][1]) == 4


class TestConnectionContracts:
    def test_torsion_defect_random_frames(self, rng):
        for xi in (0.1, 0.5, 0.9):
            s = z_randers(2.0, 1.0, xi)
            for _ in range(10):
                table = chern_rund_table(s.osculating_gram(unit(rng)))
                assert torsion_defect(table) <= 1e-10

    def test_torsion_defect_abelian_is_exactly_zero(self):
        algebra = MetricLieAlgebra(np.zeros((5, 5, 5)))
        s = RandersStructure(algebra, np.zeros(5))
        table = chern_rund_table(s.osculating_gram(E[0]))
        assert torsion_defect(table) == 0.0
        assert np.all(table.gamma == 0.0)

    def test_torsion_defect_center_pole(self):
        table = chern_rund_table(z_randers(2.0, 1.0, 0.5).osculating_gram(Z))
        assert torsion_defect(table) <= 1e-12

    def test_almost_metric_defect_random_frames(self, rng):
        for xi in (0.1, 0.5, 0.9):
            s = z_randers(2.0, 1.0, xi)
            for _ in range(10):
                table = chern_rund_table(s.osculating_gram(unit(rng)))
                assert almost_metric_defect(table) <= 1e-10

    def test_almost_metric_reduces_to_metric_compatibility(self, rng):
        s = RandersStructure(heisenberg5(2.0, 1.0), np.zeros(5))
        table = chern_rund_table(s.osculating_gram(unit(rng)))
        assert almost_metric_defect(table) <= 1e-12

    def test_almost_metric_center_pole(self):
        table = chern_rund_table(z_randers(2.0, 1.0, 0.5).osculating_gram(Z))
        assert almost_metric_defect(table) <= 1e-12


class TestLeviCivita:
    def test_heisenberg_components(self):
        table = levi_civita_table(heisenberg5(2.0, 1.0))
        assert np.allclose(table.derivative(E[0], E[1]), 1.0 * Z, atol=1e-15)
        assert np.allclose(table.derivative(E[0], Z), -1.0 * E[1], atol=1e-15)
        assert np.allclose(table.derivative(E[2], E[3]), 0.5 * Z, atol=1e-15)

    def test_abelian_vanishes(self):
        table = levi_civita_table(MetricLieAlgebra(np.zeros((4, 4, 4))))
        assert np.all(table.gamma == 0.0)

    def test_zero_deformation_chern_rund_coincides(self, rng):
        algebra = heisenberg5(2.0, 1.0)
        s = RandersStructure(algebra, np.zeros(5))
        reference = levi_civita_table(algebra)
        for _ in range(10):
            table = chern_rund_table(s.osculating_gram(unit(rng)))
            assert np.abs(table.gamma - reference.gamma).max() <= 1e-12

    def test_contracts_hold(self):
        table = levi_civita_table(heisenberg5(3.0, 0.5))
        assert torsion_defect(table) <= 1e-15
        assert almost_metric_defect(table) <= 1e-15


class TestWPerp:
    def test_basis_pole(self):
        assert np.array_equal(w_perp(heisenberg5(2.0, 1.0), E[0]), -2.0 * E[1])

    def test_mixed_plane_pole(self):
        w = (E[0] + E[2]) / np.sqrt(2.0)
        expected = np.array([0.0, -np.sqrt(2.0), 0.0, -1.0 / np.sqrt(2.0), 0.0])
        assert np.allclose(w_perp(heisenberg5(2.0, 1.0), w), expected, atol=1e-15)

    def test_orthogonality_euclidean_and_osculating(self, rng):
        algebra = heisenberg5(2.0, 1.0)
        s = z_randers(2.0, 1.0, 0.5)
        for _ in range(100):
            w = unit(rng)
            w[4] = 0.0
            w /= np.linalg.norm(w)
            wp = w_perp(algebra, w)
            assert abs(float(w @ wp)) <= 1e-14
            assert abs(s.osculating_product(w, w, wp)) <= 1e-14

    def test_center_component_rejected(self):
        with pytest.raises(DomainError):
            w_perp(heisenberg5(2.0, 1.0), Z)
        with pytest.raises(DomainError):
            w_perp(heisenberg5(2.0, 1.0), np.array([1.0, 0, 0, 0, 1e-6]))

    def test_wrong_dimension_rejected(self):
        with pytest.raises(DomainError):
            w_perp(MetricLieAlgebra(np.zeros((4, 4, 4))), np.ones(4))
