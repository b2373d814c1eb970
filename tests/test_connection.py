"""Staged Koszul solver: connection coefficients, compatibility defects, and
the closed-form component tables of the Heisenberg model."""

import numpy as np
import pytest

from randersflag import (
    ConnectionTable,
    DimensionMismatch,
    DomainError,
    MetricLieAlgebra,
    ParameterError,
    RandersStructure,
    almost_metric_defect,
    chern_rund_table,
    chern_rund_tables,
    heisenberg5,
    levi_civita_table,
    torsion_defect,
    w_perp,
)
from randersflag.connection import TABLE_BLOCK_ENTRIES, _nabla_basis_w, _nabla_w_of_w
from randersflag.lie_algebra import _levi_civita
from randersflag.reference_tables import (
    POLE_OF_CELL,
    REFERENCE_BLOCKS,
    Cells,
    reference_blocks,
    reference_poles,
)
from test_golden import EXTREME_PRESETS
from helpers import (
    koszul_reference,
    nilpotent_algebra,
    random_heisenberg_params,
    solvable_algebra,
    split_blocks,
    unit,
    unit_in_plane,
    z_randers,
)

E = np.eye(5)
Z = E[4]


@pytest.fixture
def table_e1():
    s = z_randers(2.0, 1.0, 0.5)
    return chern_rund_table(s.osculating_gram(E[0]))


def check_cells(structure, pole, cells, tol):
    table = chern_rund_table(structure.osculating_gram(pole))
    computed = table.derivative(cells.directions, cells.arguments)
    worst = float(np.abs(computed - cells.expected).max(initial=0.0))
    assert worst <= tol, f"worst cell defect {worst:.3e} exceeds {tol:g}"


def closed_form_cells(lam, mu, xi, w12, w34, frame_plane="e12"):
    """The four reported blocks, cell by cell, from the closed forms: per
    block its pole and a list of (row, col, direction, argument, expected).
    Each expected entry is one coefficient times one entry of one vector,
    formed as the closed form is written.  The (W, Wperp, Z) block is at
    the pole in ``frame_plane``: "e12", as reported, or "e34", where its
    closed forms are the same with mu in place of lam."""
    eye = np.eye(5)
    half_lam, half_mu = 0.5 * lam, 0.5 * mu
    # pole Z, in the frame e1..e4, e5 = Z / (1 + xi): the derivatives that
    # do not vanish, (coefficient, basis vector)
    z_terms = {
        (1, 2): (half_lam, 5), (2, 1): (-half_lam, 5), (1, 5): (-half_lam, 2),
        (2, 5): (half_lam, 1), (5, 1): (-half_lam, 2), (5, 2): (half_lam, 1),
        (3, 4): (half_mu, 5), (4, 3): (-half_mu, 5), (3, 5): (-half_mu, 4),
        (4, 5): (half_mu, 3), (5, 3): (-half_mu, 4), (5, 4): (half_mu, 3),
    }
    frame = [eye[0], eye[1], eye[2], eye[3], eye[4] / (1.0 + xi)]
    z_cells = []
    for i in range(1, 6):
        for j in range(1, 6):
            coefficient, k = z_terms.get((i, j), (0.0, 1))
            z_cells.append((f"e{i}", f"e{j}", frame[i - 1], frame[j - 1], coefficient * eye[k - 1]))

    def w_perp(w):
        return np.array([lam * w[1], -lam * w[0], mu * w[3], -mu * w[2], 0.0])

    # the (W, Wperp, Z) block, a = lam^2 at w12 and mu^2 at w34
    w, own = {"e12": (w12, lam), "e34": (w34, mu)}[frame_plane]
    wp, z = w_perp(w), eye[4]
    a = own * own
    tilted = (xi**2 - 2.0) * w - xi * z
    labelled = {"W": w, "Wperp": wp, "Z": z}
    frame_expected = {
        ("W", "W"): xi * wp,
        ("W", "Wperp"): -0.5 * a * (xi * w + z),
        ("W", "Z"): 0.5 * wp,
        ("Wperp", "W"): 0.5 * a * (z - xi * w),
        ("Wperp", "Wperp"): -0.25 * xi * a * wp,
        ("Wperp", "Z"): 0.25 * a * tilted,
        ("Z", "W"): 0.5 * wp,
        ("Z", "Wperp"): 0.25 * a * tilted,
        ("Z", "Z"): 0.25 * xi * wp,
    }
    frame_cells = [(row, col, labelled[row], labelled[col], expected)
                   for (row, col), expected in frame_expected.items()]

    def rows_cells(w, own, other, first):
        # derivatives along e_first, e_first+1 (1-based) of W and Wperp
        wp = w_perp(w)
        ea, eb = eye[first - 1], eye[first]
        return [
            (f"e{first}", "W", ea, w, -0.5 * other * xi * eb),
            (f"e{first}", "Wperp", ea, wp, -0.25 * xi * own * own * ea),
            (f"e{first + 1}", "W", eb, w, 0.5 * other * xi * ea),
            (f"e{first + 1}", "Wperp", eb, wp, -0.25 * xi * own * own * eb),
        ]

    return {
        "pole_z": (z, z_cells),
        f"pole_{frame_plane}_frame": (w, frame_cells),
        "pole_e12_rows_e34": (w12, rows_cells(w12, lam, mu, 3)),
        "pole_e34_rows_e12": (w34, rows_cells(w34, mu, lam, 1)),
    }


def _cell_cases():
    """About 100 admissible (lam, mu, xi) with poles in span(e1, e2) and
    span(e3, e4): the extreme golden presets and the corners of their box,
    then draws over lam, mu in 1e-3..1e6 and xi in (0, 1), at random poles
    and at poles on the axes, whose zeros carry either sign."""
    rng = np.random.default_rng(4242)
    lams, xis = (1e3, 1.5e5), (1e-8, 1 - 1e-6)
    params = list(EXTREME_PRESETS) + [
        (lam, mu, xi) for lam in lams for mu in lams if mu <= lam for xi in xis
    ]
    for i in range(90):
        mu, lam = sorted(float(v) for v in 10.0 ** rng.uniform(-3, 6, 2))
        xi = (float(rng.uniform(0.01, 0.99)), 1e-12, 1 - 1e-12)[i % 3]
        params.append((lam, lam if i % 7 == 0 else mu, xi))
    axes = [np.array(p) for p in ([1.0, 0.0], [-0.0, -1.0], [-1.0, -0.0], [0.0, 1.0])]
    cases = []
    for i, params in enumerate(params):
        planar = [axes[i % 4] if i % 5 == 0 else unit_in_plane(rng, 0, 2) for _ in range(2)]
        w12, w34 = np.zeros(5), np.zeros(5)
        w12[:2], w34[2:4] = planar
        cases.append((*params, w12, w34))
    return cases


def stage_two(frame):
    """The stage-2 rows nabla_{e_i} w of ``frame``, after its stage 1."""
    return _nabla_basis_w(frame, frame._cartan_matrix(_nabla_w_of_w(frame)))


class TestStageSolves:
    def test_nabla_w_of_w_at_plane_pole(self):
        s = z_randers(2.0, 1.0, 0.5)
        frame = s.osculating_gram(E[0])
        assert np.allclose(_nabla_w_of_w(frame), -E[1], atol=1e-14)

    def test_nabla_w_of_w_at_center_pole(self):
        s = z_randers(2.0, 1.0, 0.5)
        frame = s.osculating_gram(Z)
        assert np.allclose(_nabla_w_of_w(frame), np.zeros(5), atol=1e-14)

    def test_geodesic_poles_of_heisenberg5(self, rng):
        # stage 1 vanishes where the pole is a geodesic vector: exactly at
        # +-Z (central) for every deformation x0, and to round-off at the
        # unit poles q with q5 = -x0_5; the fixed-reference K is the spray
        # flag curvature there
        for radius in [*rng.uniform(0.0, 0.999999, 49), 0.999999]:
            lam, mu, _ = random_heisenberg_params(rng)
            x0 = radius * unit(rng)
            s = RandersStructure(heisenberg5(lam, mu), x0)
            assert not _nabla_w_of_w(s.osculating_gram(np.array([Z, -Z]))).any()
            q = np.append(np.sqrt(1.0 - x0[4] ** 2) * unit(rng, 4), -x0[4])
            assert np.abs(_nabla_w_of_w(s.osculating_gram(q))).max() <= 1e-15 * lam
        poles = rng.standard_normal((200, 5))
        poles /= np.linalg.norm(poles, axis=-1, keepdims=True)
        stage_one = _nabla_w_of_w(z_randers(2.0, 1.0, 0.5).osculating_gram(poles))
        assert np.abs(stage_one).max(axis=-1).min() > 1e-4

    def test_nabla_w_of_w_vanishes_without_deformation_at_plane_pole(self):
        s = RandersStructure(heisenberg5(2.0, 1.0), np.zeros(5))
        frame = s.osculating_gram(E[0])
        assert np.allclose(_nabla_w_of_w(frame), np.zeros(5), atol=1e-14)

    def test_nabla_w_of_w_is_scaled_orthogonal_direction(self, rng):
        for _ in range(20):
            lam, mu, xi = random_heisenberg_params(rng)
            s = z_randers(lam, mu, xi)
            w = unit(rng)
            w[4] = 0.0
            w /= np.linalg.norm(w)
            frame = s.osculating_gram(w)
            expected = xi * w_perp(s.algebra, w)
            assert np.abs(_nabla_w_of_w(frame) - expected).max() <= 1e-12

    def test_nabla_x_w_map_columns(self):
        # the matrix of x -> nabla_x w: column j holds nabla_{e_j} w
        s = z_randers(2.0, 1.0, 0.5)
        frame = s.osculating_gram(E[0])
        m = stage_two(frame).mT
        assert np.allclose(m[:, 4], -E[1], atol=1e-14)  # along Z: half of Wperp
        assert np.allclose(m[:, 2], -0.25 * E[3], atol=1e-14)  # along e3
        assert np.allclose(m[:, 3], 0.25 * E[2], atol=1e-14)  # along e4

    def test_map_applied_to_pole_matches_stage_one(self, rng):
        for _ in range(10):
            lam, mu, xi = random_heisenberg_params(rng)
            s = z_randers(lam, mu, xi)
            frame = s.osculating_gram(unit(rng))
            assert np.abs(frame.w @ stage_two(frame) - _nabla_w_of_w(frame)).max() <= 1e-13

    def test_cartan_corrections_with_pole_slot_vanish(self, rng):
        # the dropped stage-2 terms all carry a pole slot; the closed form
        # with the pole in the row slot, or in a basis slot, must be
        # numerically zero
        for _ in range(10):
            lam, mu, xi = random_heisenberg_params(rng)
            frame = z_randers(lam, mu, xi).osculating_gram(unit(rng))
            assert np.abs(frame._cartan_rows(frame.w[None, :])).max() <= 1e-14
            rows = rng.standard_normal((5, 5))
            assert np.abs(frame.w @ frame._cartan_rows(rows)).max() <= 1e-14


class TestCartanCorrections:
    """Stage 3's corrections, 2 C_w(r_i, e_j, e_k) for rows r_i stacked on
    the frame's poles, against the closed form of
    :meth:`RandersStructure.cartan`."""

    @staticmethod
    def check(frame_shape, dim=5):
        rng = np.random.default_rng([dim, *frame_shape])
        s = RandersStructure(nilpotent_algebra(rng, dim), 0.7 * unit(rng, dim))
        poles = rng.standard_normal(frame_shape + (dim,))
        rows = rng.standard_normal(frame_shape + (dim, dim))
        corrections = s.osculating_gram(poles)._cartan_rows(rows)
        assert corrections.shape == frame_shape + (dim, dim, dim)
        assert corrections.flags.c_contiguous
        # [..., i, j, k]: each pole against its own rows i, and the basis
        # vectors e_j and e_k
        e = np.eye(dim)
        w = poles[..., None, None, None, :]
        expected = 2.0 * s.cartan(w, rows[..., :, None, None, :], e[:, None, :], e[None, :, :])
        assert np.abs(corrections - expected).max() <= 1e-13

    def test_one_pole_matches_closed_form(self):
        self.check(())
        self.check((), 9)

    def test_poles_on_two_axes_match_closed_form(self):
        self.check((2, 3))

    def test_as_many_poles_as_dimensions_match_closed_form(self):
        # n poles at dim n: rows that broadcast against the pole axis
        # instead of beside it would give wrong numbers without an error
        self.check((5,))
        self.check((9,), 9)


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


def reported_block(name, lam, mu, xi, w12=E[0], w34=E[2]):
    """One block of :func:`reference_blocks`, as its pole and its cells."""
    pole, _, _, cells = split_blocks(*reference_blocks(lam, mu, xi, w12, w34))[name]
    return pole, cells


class TestClosedFormTables:
    def test_center_pole_table_random_params(self, rng):
        for _ in range(10):
            lam, mu, xi = random_heisenberg_params(rng)
            check_cells(z_randers(lam, mu, xi), *reported_block("pole_z", lam, mu, xi), 1e-12)

    def test_e12_pole_frame_table(self, rng):
        for _ in range(10):
            lam, mu, xi = random_heisenberg_params(rng)
            w = unit_in_plane(rng, 0)
            block = reported_block("pole_e12_frame", lam, mu, xi, w12=w)
            check_cells(z_randers(lam, mu, xi), *block, 1e-10)

    def test_e12_pole_transverse_rows(self, rng):
        for _ in range(10):
            lam, mu, xi = random_heisenberg_params(rng)
            w = unit_in_plane(rng, 0)
            block = reported_block("pole_e12_rows_e34", lam, mu, xi, w12=w)
            check_cells(z_randers(lam, mu, xi), *block, 1e-10)

    def test_e34_pole_frame_table(self, rng):
        # not reported: the test-local closed forms, against the table
        for _ in range(10):
            lam, mu, xi = random_heisenberg_params(rng)
            w = unit_in_plane(rng, 2)
            pole, cells = closed_form_cells(lam, mu, xi, E[0], w, "e34")["pole_e34_frame"]
            stacked = Cells(*(np.array(part) for part in list(zip(*cells))[2:]))
            check_cells(z_randers(lam, mu, xi), pole, stacked, 1e-10)

    def test_e34_pole_transverse_rows(self, rng):
        for _ in range(10):
            lam, mu, xi = random_heisenberg_params(rng)
            w = unit_in_plane(rng, 2)
            block = reported_block("pole_e34_rows_e12", lam, mu, xi, w34=w)
            check_cells(z_randers(lam, mu, xi), *block, 1e-10)

    def test_reference_blocks_cover_the_four_layouts(self, rng):
        poles, cells = reference_blocks(2.0, 1.0, 0.5, *reference_poles(rng))
        sizes = {"pole_z": 25, "pole_e12_frame": 9, "pole_e12_rows_e34": 4, "pole_e34_rows_e12": 4}
        assert [name for name, *_ in REFERENCE_BLOCKS] == list(sizes)
        for _, _, rows, cols in REFERENCE_BLOCKS:
            assert type(rows) is type(cols) is tuple and len(rows) == len(cols)
        assert poles.shape == (3, 5) and np.array_equal(poles[0], Z)
        for part in cells:
            assert part.shape == (42, 5)
        assert POLE_OF_CELL.tolist() == [0] * 25 + [1] * 13 + [2] * 4

    @pytest.mark.parametrize(
        "params", [(2.0, 1.0, 1.5), (2.0, 1.0, 0.0), (2.0, 1.0, -0.5), (2.0, 1.0, np.nan), (1.0, 2.0, 0.5)]
    )
    def test_reference_blocks_reject_parameters_off_the_domain(self, rng, params):
        with pytest.raises(ParameterError):
            reference_blocks(*params, *reference_poles(rng))

    @pytest.mark.parametrize("lam, mu, xi, w12, w34", _cell_cases())
    def test_reference_cells_are_the_closed_forms(self, lam, mu, xi, w12, w34):
        # every cell, bit for bit (signed zeros too), against a loop over
        # the cells written from the closed forms
        poles, cells = reference_blocks(lam, mu, xi, w12, w34)
        loop = closed_form_cells(lam, mu, xi, w12, w34)
        assert [name for name, *_ in REFERENCE_BLOCKS] == list(loop)
        for name, pole, rows, cols in REFERENCE_BLOCKS:
            assert np.array_equal(poles[pole].view(np.int64), loop[name][0].view(np.int64))
            assert list(zip(rows, cols)) == [cell[:2] for cell in loop[name][1]]
        looped = [cell for _, block in loop.values() for cell in block]
        for i, part in enumerate(Cells._fields):
            found = getattr(cells, part)
            wanted = np.array([cell[2 + i] for cell in looped])
            assert found.dtype == wanted.dtype and found.shape == wanted.shape, part
            assert np.array_equal(found.view(np.int64), wanted.view(np.int64)), part


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


class TestStackedTables:
    """chern_rund_table over a frame of stacked poles: each pole's rows are
    its one-pole table, bit for bit, and the defects reduce over the poles;
    the blocks of chern_rund_tables are that stacked table."""

    def structure(self, dim, deformed):
        rng = np.random.default_rng(dim)
        x0 = 0.7 * unit(rng, dim) if deformed else np.zeros(dim)
        return RandersStructure(nilpotent_algebra(rng, dim), x0), rng

    @pytest.mark.parametrize("deformed", [False, True])
    @pytest.mark.parametrize("dim", [5, 9, 16])
    def test_rows_match_one_pole_tables(self, dim, deformed):
        s, rng = self.structure(dim, deformed)
        poles = rng.standard_normal((2, 3, dim))
        table = chern_rund_table(s.osculating_gram(poles))
        assert table.gamma.shape == (2, 3, dim, dim, dim)
        for index in np.ndindex(2, 3):
            one = chern_rund_table(s.osculating_gram(poles[index])).gamma
            assert np.array_equal(table.gamma[index], one)

    @pytest.mark.parametrize("dim", [5, 9])
    def test_as_many_poles_as_dimensions(self, dim):
        # the stage-3 corrections put a row axis beside the pole axis; with
        # n poles at dim n a mix-up of the two would not raise
        s, rng = self.structure(dim, True)
        poles = rng.standard_normal((dim, dim))
        table = chern_rund_table(s.osculating_gram(poles))
        assert almost_metric_defect(table) <= 1e-10
        for pole, rows in zip(poles, table.gamma):
            assert np.array_equal(rows, chern_rund_table(s.osculating_gram(pole)).gamma)

    @pytest.mark.parametrize("deformed", [False, True])
    @pytest.mark.parametrize(
        "dim, blocks",
        [(5, [25]), (9, [11, 11, 3]), (12, [4] * 6 + [1]), (16, [2] * 12 + [1]), (24, [1] * 25)],
    )
    def test_blocks_match_one_pole_and_one_stacked_tables(self, dim, blocks, deformed):
        s, rng = self.structure(dim, deformed)
        poles = rng.standard_normal((25, dim))
        frame = s.osculating_gram(poles)
        tables = list(chern_rund_tables(frame))
        assert [len(table.gamma) for table in tables] == blocks
        # a block of one pole may exceed the bound only from dim 21 on
        bound = max(TABLE_BLOCK_ENTRIES, dim**3)
        assert all(table.gamma.size <= bound for table in tables)
        gamma = np.concatenate([table.gamma for table in tables])
        assert np.array_equal(gamma, chern_rund_table(frame).gamma)
        for pole, rows in zip(poles, gamma):
            assert np.array_equal(rows, chern_rund_table(s.osculating_gram(pole)).gamma)

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 5)])
    def test_blocks_need_poles_on_one_axis(self, shape):
        frame = z_randers(2.0, 1.0, 0.5).osculating_gram(np.ones(shape))
        with pytest.raises(DimensionMismatch):
            next(chern_rund_tables(frame))

    @pytest.mark.parametrize("shape", [(0, 5), (2, 0, 5)])
    def test_table_over_no_poles_has_no_defect(self, shape):
        table = chern_rund_table(z_randers(2.0, 1.0, 0.5).osculating_gram(np.empty(shape)))
        assert table.gamma.shape == (*shape, 5, 5)
        assert torsion_defect(table) == 0.0
        assert almost_metric_defect(table) == 0.0

    def test_defects_reduce_over_poles(self):
        s, rng = self.structure(9, True)
        table = chern_rund_table(s.osculating_gram(rng.standard_normal((6, 9))))
        assert torsion_defect(table) <= 1e-10
        assert almost_metric_defect(table) <= 1e-10
        gamma = table.gamma.copy()
        gamma[4, 0, 1, 2] += 1e-6  # one coefficient of one pole
        broken = ConnectionTable(table.frame, gamma)
        assert torsion_defect(broken) == pytest.approx(1e-6, rel=1e-6)
        assert almost_metric_defect(broken) >= 1e-7


class TestIndependentReference:
    """chern_rund_table and the stage-2 rows against
    :func:`helpers.koszul_reference`, which shares neither the frame's
    closed-form inverse nor its Cartan terms."""

    @staticmethod
    def structure(dim, norm):
        rng = np.random.default_rng([dim, int(norm * 10)])
        x0 = norm * unit(rng, dim)
        return RandersStructure(nilpotent_algebra(rng, dim), x0), rng

    @pytest.mark.parametrize("norm", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("dim", [5, 9, 16, 24])
    def test_single_and_stacked_tables(self, dim, norm):
        s, rng = self.structure(dim, norm)
        poles = rng.standard_normal((3, dim))
        if norm:
            # a pole near -x0, where a = 1 + <x0, w> is smallest
            poles[0] = -s.x0 / norm + 0.3 * unit(rng, dim)
        stacked = chern_rund_table(s.osculating_gram(poles)).gamma
        for pole, rows in zip(poles, stacked):
            _, expected = koszul_reference(s, pole)
            scale = np.abs(expected).max()
            single = chern_rund_table(s.osculating_gram(pole)).gamma
            assert np.abs(single - expected).max() <= 1e-13 * scale
            assert np.abs(rows - expected).max() <= 1e-13 * scale

    def test_heisenberg_presets(self, rng):
        for _ in range(5):
            lam, mu, xi = random_heisenberg_params(rng)
            s = z_randers(lam, mu, xi)
            pole = unit(rng)
            _, expected = koszul_reference(s, pole)
            gamma = chern_rund_table(s.osculating_gram(pole)).gamma
            assert np.abs(gamma - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("build", [nilpotent_algebra, solvable_algebra])
    @pytest.mark.parametrize("norm", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("dim", [5, 9, 16])
    def test_stage_two_rows_match_reference(self, dim, norm, build):
        # the one stage 2, which the flag path and the tables share, at one
        # pole and at stacked poles
        rng = np.random.default_rng([dim, int(norm * 10), len(build.__name__)])
        s = RandersStructure(build(rng, dim), norm * unit(rng, dim))
        poles = rng.standard_normal((3, dim))
        if norm:
            poles[0] = -s.x0 / norm + 0.3 * unit(rng, dim)
        stacked = stage_two(s.osculating_gram(poles))
        for pole, rows in zip(poles, stacked):
            expected, _ = koszul_reference(s, pole)
            bound = 1e-13 * max(1.0, np.abs(expected).max())
            assert np.abs(stage_two(s.osculating_gram(pole)) - expected).max() <= bound
            assert np.abs(rows - expected).max() <= bound


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

    def test_one_formula(self, rng):
        # the table's gamma is lie_algebra._levi_civita of the structure
        # constants, bit for bit, and that is the Koszul bracket terms
        # (c[i, j, k] - c[j, k, i] + c[k, i, j]) / 2
        algebras = [heisenberg5(2.0, 1.0)]
        for dim in range(2, 25):
            algebras += [nilpotent_algebra(rng, dim), solvable_algebra(rng, dim)]
        for algebra in algebras:
            c = algebra.structure
            gamma = _levi_civita(c)
            assert gamma.tobytes() == levi_civita_table(algebra).gamma.tobytes()
            koszul = 0.5 * (c - c.transpose(2, 0, 1) + c.transpose(1, 2, 0))
            assert gamma.tobytes() == koszul.tobytes()


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
