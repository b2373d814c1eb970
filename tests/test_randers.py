"""Randers norm, osculating products, Cartan tensor, and their
finite-difference oracles."""

import itertools
import math
import warnings

import numpy as np
import pytest

from randersflag import (
    DegenerateReferenceVector,
    DimensionMismatch,
    InternalConsistencyError,
    ParameterError,
    RandersStructure,
    almost_metric_defect,
    chern_rund_table,
    chern_rund_tables,
    heisenberg5,
)
from randersflag.randers import _sorted
from helpers import abelian_structure, nilpotent_algebra, unit, z_randers

E = np.eye(5)
Z = E[4]


@pytest.fixture
def structure():
    return z_randers(2.0, 1.0, 0.5)


class TestFinslerNorm:
    def test_center_deformation_values(self, structure):
        assert structure.finsler_norm(Z) == pytest.approx(1.5)
        assert structure.finsler_norm(-Z) == pytest.approx(0.5)

    def test_zero_vector(self, structure):
        assert structure.finsler_norm(np.zeros(5)) == 0.0

    def test_stack_matches_one_vector_calls(self, structure, rng):
        x = rng.standard_normal((3, 4, 5))
        norms = structure.finsler_norm(x)
        assert norms.shape == (3, 4)
        for index in np.ndindex(3, 4):
            one = structure.finsler_norm(x[index])
            assert type(one) is float and norms[index] == one

    def test_positive_homogeneity(self, structure, rng):
        for _ in range(50):
            x = rng.standard_normal(5)
            t = rng.uniform(0.01, 10.0)
            assert structure.finsler_norm(t * x) == pytest.approx(
                t * structure.finsler_norm(x), rel=1e-13
            )

    def test_positivity(self, rng):
        for _ in range(200):
            x0 = rng.standard_normal(5)
            x0 *= rng.uniform(0.0, 0.95) / np.linalg.norm(x0)
            s = RandersStructure(heisenberg5(2.0, 1.0), x0)
            x = rng.standard_normal(5)
            assert s.finsler_norm(x) > 0.0

    def test_triangle_inequality(self, structure, rng):
        for _ in range(1000):
            x, y = rng.standard_normal((2, 5))
            lhs = structure.finsler_norm(x + y)
            rhs = structure.finsler_norm(x) + structure.finsler_norm(y)
            assert lhs <= rhs + 1e-12

    def test_deformation_norm_bound_enforced(self):
        with pytest.raises(ParameterError):
            RandersStructure(heisenberg5(2.0, 1.0), [0, 0, 0, 0, 1.0])
        with pytest.raises(ParameterError):
            RandersStructure(heisenberg5(2.0, 1.0), [0.8, 0.8, 0, 0, 0])


class TestOsculatingProduct:
    def test_center_pairings_at_plane_pole(self, structure):
        # pole e1, deformation 0.5*Z
        assert structure.osculating_product(E[0], Z, Z) == pytest.approx(1.25)
        assert structure.osculating_product(E[0], Z, E[0]) == pytest.approx(0.5)

    def test_plane_pairing_at_center_pole(self, structure):
        assert structure.osculating_product(Z, E[0], E[0]) == pytest.approx(1.5)

    def test_zero_deformation_is_euclidean(self, rng):
        s = RandersStructure(heisenberg5(2.0, 1.0), np.zeros(5))
        for _ in range(20):
            w, u, v = rng.standard_normal((3, 5))
            assert s.osculating_product(w, u, v) == pytest.approx(float(u @ v), abs=1e-15)

    def test_symmetry_exact(self, structure, rng):
        for _ in range(50):
            w, u, v = rng.standard_normal((3, 5))
            assert structure.osculating_product(w, u, v) == structure.osculating_product(w, v, u)

    def test_bilinearity(self, structure, rng):
        w = unit(rng)
        for _ in range(20):
            u1, u2, v = rng.standard_normal((3, 5))
            a, b = rng.uniform(-2, 2, 2)
            left = structure.osculating_product(w, a * u1 + b * u2, v)
            right = a * structure.osculating_product(w, u1, v) + b * structure.osculating_product(w, u2, v)
            assert left == pytest.approx(right, abs=1e-13)

    def test_reference_scaling_exact(self, structure, rng):
        for _ in range(50):
            w, u, v = rng.standard_normal((3, 5))
            assert structure.osculating_product(w, u, v) == structure.osculating_product(2.0 * w, u, v)

    def test_positive_definite(self, rng):
        for _ in range(1000):
            x0 = rng.standard_normal(5)
            x0 *= rng.uniform(0.0, 0.95) / np.linalg.norm(x0)
            s = RandersStructure(heisenberg5(2.0, 1.0), x0)
            w = unit(rng)
            u = rng.standard_normal(5)
            if np.linalg.norm(u) < 1e-8:
                continue
            assert s.osculating_product(w, u, u) > 0.0

    def test_zero_reference_rejected(self, structure):
        with pytest.raises(DegenerateReferenceVector):
            structure.osculating_product(np.zeros(5), E[0], E[1])

    def test_overflowing_reference_rejected(self, structure):
        # the squared norm overflows: a typed error, not a numpy warning
        with pytest.raises(ParameterError):
            structure.osculating_product([1e200, 0, 0, 0, 0], E[0], E[1])
        with pytest.raises(ParameterError):
            structure.osculating_gram([[1, 0, 0, 0, 0], [1e200, 0, 0, 0, 0]])

    @pytest.mark.parametrize(
        "row, error",
        [
            ([math.inf, 0, 0, 0, 0], ParameterError),
            ([1e200, 0, 0, 0, 0], ParameterError),
            (E[1], DegenerateReferenceVector),
        ],
    )
    def test_stacked_poles_are_finite_before_nonzero(self, structure, row, error):
        # a stack's squares serve both tests: a non-finite or overflowing row
        # is refused as such, with no numpy warning, even after a zero row
        poles = np.array([np.zeros(5), row, E[0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                structure.osculating_gram(poles)

    @pytest.mark.parametrize("xi", [1 - 1e-9, 1 - 2.0**-30])
    def test_near_unit_deformation_at_opposite_pole(self, xi):
        # <Z, Z> at pole -Z is (1 - xi)^2, far below the rounding of 1
        s = z_randers(2.0, 1.0, xi)
        value = s.osculating_product(-Z, Z, Z)
        assert value == pytest.approx((1 - xi) ** 2, rel=1e-6, abs=0.0)
        assert value == pytest.approx(Z @ s.osculating_gram(-Z).gram @ Z, rel=1e-6, abs=0.0)

    def test_near_unit_deformation_matches_fd_oracle(self):
        # a dyadic xi and step make every norm the oracle evaluates exact, so
        # its second difference resolves (1 - xi)^2 = 2^-60
        s = z_randers(2.0, 1.0, 1 - 2.0**-30)
        oracle = s.osculating_product_fd(-Z, Z, Z, 2.0**-7)
        assert oracle == 2.0**-60
        assert s.osculating_product(-Z, Z, Z) == pytest.approx(oracle, rel=1e-6, abs=0.0)


class TestOsculatingFrame:
    def test_gram_entries_at_plane_pole(self, structure):
        frame = structure.osculating_gram(E[0])
        expected = np.eye(5)
        expected[4, 4] = 1.25
        expected[0, 4] = expected[4, 0] = 0.5
        assert np.allclose(frame.gram, expected, atol=1e-15)

    @pytest.mark.parametrize("shape", [(5,), (3, 5), (0, 5)])
    def test_every_array_is_read_only(self, structure, rng, shape):
        frame = structure.osculating_gram(rng.standard_normal(shape))
        arrays = [v for v in vars(frame).values() if isinstance(v, np.ndarray)]
        # w, gram, pole_covector, pole_pairing, pole_brackets, the inverse,
        # p_perp and the projector
        assert len(arrays) == 8
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0

    def test_frame_at_some_poles_is_read_only_views(self, structure, rng):
        frame = structure.osculating_gram(rng.standard_normal((6, 5)))
        part = frame._poles(slice(2, 5))
        assert np.array_equal(part.w, frame.w[2:5])
        arrays = [v for v in vars(part).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 8
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0
        # every array is a view of the whole frame's
        for name in (
            "w", "gram", "pole_covector", "pole_pairing", "pole_brackets", "_p_perp",
            "_projector", "_inverse",
        ):
            assert np.shares_memory(getattr(part, name), getattr(frame, name))

    def test_tables_leave_frame_unchanged(self, structure, rng):
        # a frame is complete once constructed: the tables and their checks
        # read it and add nothing to it
        frame = structure.osculating_gram(rng.standard_normal((6, 5)))
        before = dict(vars(frame))
        table = chern_rund_table(frame)
        almost_metric_defect(table)
        for block in chern_rund_tables(frame):
            almost_metric_defect(block)
        assert vars(frame).keys() == before.keys()
        assert all(vars(frame)[name] is value for name, value in before.items())

    def test_zero_deformation_gram_is_identity(self, rng):
        s = RandersStructure(heisenberg5(2.0, 1.0), np.zeros(5))
        for _ in range(10):
            frame = s.osculating_gram(rng.standard_normal(5))
            assert np.allclose(frame.gram, np.eye(5), atol=1e-15)

    def test_strong_deformation_stays_positive_definite(self):
        s = z_randers(2.0, 1.0, 0.9)
        w = (E[0] + E[1]) / np.sqrt(2.0)
        frame = s.osculating_gram(w)
        assert np.allclose(frame.gram, frame.gram.T)
        assert np.linalg.eigvalsh(frame.gram).min() > 0.0

    def test_gram_matches_pairwise_products(self, structure, rng):
        w = unit(rng)
        frame = structure.osculating_gram(w)
        for i in range(5):
            for j in range(5):
                assert frame.gram[i, j] == pytest.approx(
                    structure.osculating_product(w, E[i], E[j]), abs=1e-15
                )

    def test_solve_inverts_gram(self, rng):
        # poles at and near -x0 are where the Gram matrix is worst conditioned
        for dim in (5, 16, 40):
            for size in (0.0, 0.5, 0.99):
                direction = unit(rng, dim)
                s = abelian_structure(dim, size * direction)
                for w in (unit(rng, dim), -direction, -direction + 1e-6 * unit(rng, dim)):
                    frame = s.osculating_gram(w)
                    rhs = rng.standard_normal((3, dim))
                    solved = np.matvec(frame._inverse, rhs)
                    assert np.allclose(np.matvec(frame.gram, solved), rhs, atol=1e-13)
                    solved = np.matvec(frame._inverse, rhs[0])
                    assert np.allclose(frame.gram @ solved, rhs[0], atol=1e-13)

    def test_non_positive_definite_gram_is_internal_error(self, structure):
        # force an inadmissible deformation past the norm check
        x0 = np.zeros(5)
        x0[4] = 1.5
        object.__setattr__(structure, "x0", x0)
        with pytest.raises(InternalConsistencyError):
            structure.osculating_gram(-x0)

    def test_pole_opposite_boundary_deformation(self):
        # ||x0|| one ulp below 1 with the pole at -x0: a = 1 + <x0, q> is of
        # the order of the rounding error, yet admissible
        rng = np.random.default_rng(2024)
        for _ in range(50):
            x0 = unit(rng) * np.nextafter(1.0, 0.0)
            frame = RandersStructure(heisenberg5(2.0, 1.0), x0).osculating_gram(-x0)
            assert np.isfinite(np.matvec(frame._inverse, x0)).all()


class TestOsculatingProductFd:
    def test_matches_closed_form(self, structure, rng):
        worst = 0.0
        for _ in range(50):
            w, u, v = unit(rng), unit(rng), unit(rng)
            closed = structure.osculating_product(w, u, v)
            fd = structure.osculating_product_fd(w, u, v, 1e-4)
            worst = max(worst, abs(closed - fd))
        assert worst <= 1e-6

    def test_euclidean_case(self):
        s = RandersStructure(heisenberg5(2.0, 1.0), np.zeros(5))
        assert s.osculating_product_fd(E[0], E[1], E[1], 1e-4) == pytest.approx(1.0, abs=1e-8)

    def test_zero_homogeneity_in_reference(self, structure, rng):
        for _ in range(10):
            w, u, v = unit(rng), unit(rng), unit(rng)
            a = structure.osculating_product_fd(w, u, v, 1e-4)
            b = structure.osculating_product_fd(2.0 * w, u, v, 1e-4)
            assert a == pytest.approx(b, abs=1e-6)

    def test_step_bounds(self, structure):
        with pytest.raises(ParameterError):
            structure.osculating_product_fd(E[0], E[1], E[1], 1e-7)
        with pytest.raises(ParameterError):
            structure.osculating_product_fd(E[0], E[1], E[1], 0.5)

    def test_zero_reference_rejected(self, structure):
        with pytest.raises(DegenerateReferenceVector):
            structure.osculating_product_fd(np.zeros(5), E[0], E[0], 1e-4)


class TestCartan:
    def test_vanishes_at_center_pole(self, structure, rng):
        for _ in range(20):
            u, v, x = rng.standard_normal((3, 5))
            assert abs(structure.cartan(Z, u, v, x)) < 1e-14

    def test_plane_pole_value(self, structure):
        # hand-evaluated cyclic sum; cross-checked by the oracle below
        assert structure.cartan(E[0], Z, E[1], E[1]) == pytest.approx(0.25)

    def test_reference_slot_vanishes(self, structure, rng):
        for _ in range(20):
            w = unit(rng)
            u, v = rng.standard_normal((2, 5))
            assert abs(structure.cartan(w, w, u, v)) < 1e-14

    def test_total_symmetry_exact(self, structure, rng):
        from itertools import permutations

        for _ in range(10):
            w = unit(rng)
            u, v, x = rng.standard_normal((3, 5))
            base = structure.cartan(w, u, v, x)
            for a, b, c in permutations((u, v, x)):
                assert structure.cartan(w, a, b, c) == base

    def test_trilinearity(self, structure, rng):
        w = unit(rng)
        for _ in range(10):
            u1, u2, v, x = rng.standard_normal((4, 5))
            a, b = rng.uniform(-2, 2, 2)
            left = structure.cartan(w, a * u1 + b * u2, v, x)
            right = a * structure.cartan(w, u1, v, x) + b * structure.cartan(w, u2, v, x)
            assert left == pytest.approx(right, abs=1e-13)

    def test_cartan_matrix_matches_closed_form(self, structure, rng):
        w = unit(rng)
        frame = structure.osculating_gram(w)
        u = rng.standard_normal(5)
        e = np.eye(5)
        expected = 2.0 * structure.cartan(w, u, e[:, None], e[None, :])
        assert np.abs(frame._cartan_matrix(u) - expected).max() <= 1e-13
        rows = rng.standard_normal((3, 5))
        stacked = 2.0 * structure.cartan(w, rows[:, None, None], e[:, None], e[None, :])
        assert np.abs(frame._cartan_matrix(rows) - stacked).max() <= 1e-13

    @pytest.mark.parametrize("poles", [(), (8,), (128,)])
    @pytest.mark.parametrize("dim", [5, 24])
    def test_stacked_cartan_matrices_match_separate_calls(self, dim, poles, rng):
        # the flag path takes the Cartan matrices of (nabla_w w, x) from one
        # call, stacked on a new leading axis: each keeps its bits
        x0 = rng.standard_normal(dim)
        s = RandersStructure(nilpotent_algebra(rng, dim), 0.6 * x0 / np.linalg.norm(x0))
        frame = s.osculating_gram(rng.standard_normal(poles + (dim,)))
        a, x = rng.standard_normal((2,) + poles + (dim,))
        stacked = frame._cartan_matrix(np.array((a, x)))
        assert stacked.shape == (2,) + poles + (dim, dim)
        assert np.array_equal(stacked[0], frame._cartan_matrix(a))
        assert np.array_equal(stacked[1], frame._cartan_matrix(x))


class TestCartanFd:
    def test_matches_closed_form(self, structure, rng):
        worst = 0.0
        for _ in range(50):
            w, u, v, x = unit(rng), unit(rng), unit(rng), unit(rng)
            closed = structure.cartan(w, u, v, x)
            fd = structure.cartan_fd(w, u, v, x, 1e-2)
            worst = max(worst, abs(closed - fd))
        assert worst <= 1e-4

    def test_zero_deformation_has_no_cartan_tensor(self, rng):
        s = RandersStructure(heisenberg5(2.0, 1.0), np.zeros(5))
        for _ in range(10):
            w, u, v, x = unit(rng), unit(rng), unit(rng), unit(rng)
            assert abs(s.cartan_fd(w, u, v, x, 1e-2)) <= 1e-6

    def test_center_pole_vanishes(self, structure):
        assert abs(structure.cartan_fd(Z, E[0], E[0], Z, 1e-2)) <= 1e-4

    def test_permutation_invariance(self, structure, rng):
        from itertools import permutations

        for _ in range(5):
            w = unit(rng)
            u, v, x = (unit(rng) for _ in range(3))
            base = structure.cartan_fd(w, u, v, x, 1e-2)
            for a, b, c in permutations((u, v, x)):
                assert structure.cartan_fd(w, a, b, c, 1e-2) == pytest.approx(base, abs=1e-4)

    def test_step_bounds(self, structure):
        with pytest.raises(ParameterError):
            structure.cartan_fd(E[0], E[1], E[1], Z, 1e-4)
        with pytest.raises(ParameterError):
            structure.cartan_fd(E[0], E[1], E[1], Z, 0.5)


class TestStackedOracles:
    """The four oracles take samples stacked along leading axes that
    broadcast against each other; one sample gives a float."""

    def oracles(self, s, w, u, v, x):
        return (
            s.osculating_product(w, u, v),
            s.osculating_product_fd(w, u, v, 1e-4),
            s.cartan(w, u, v, x),
            s.cartan_fd(w, u, v, x, 5e-3),
        )

    def test_one_sample_gives_floats(self, structure, rng):
        w, u, v, x = rng.standard_normal((4, 5))
        assert all(type(value) is float for value in self.oracles(structure, w, u, v, x))

    @pytest.mark.parametrize("x0", [[0, 0, 0, 0, 0.5], [0.3, -0.2, 0.1, 0.4, 0.5]])
    def test_stacked_samples_match_one_sample_calls(self, x0, rng):
        s = RandersStructure(heisenberg5(2.0, 1.0), x0)
        # poles along the first axis, the other slots along the second
        w = rng.standard_normal((3, 1, 5))
        u, v, x = rng.standard_normal((3, 4, 5))
        stacked = self.oracles(s, w, u, v, x)
        for values in stacked:
            assert values.shape == (3, 4)
        for i in range(3):
            for j in range(4):
                single = self.oracles(s, w[i, 0], u[j], v[j], x[j])
                for values, one in zip(stacked, single):
                    assert values[i, j] == pytest.approx(one, rel=1e-13, abs=1e-15)

    def test_stacked_cartan_keeps_exact_symmetry(self, structure, rng):
        from itertools import permutations

        w, u, v, x = rng.standard_normal((4, 6, 5))
        base = structure.cartan(w, u, v, x)
        for a, b, c in permutations((u, v, x)):
            assert np.array_equal(structure.cartan(w, a, b, c), base)

    def test_difference_oracles_match_their_stencil_loops(self, structure, rng):
        # one F^2 call over all stencil points keeps the arithmetic of one
        # call per point: the same points, the terms added in the same order
        def f2(x):
            return structure._finsler_norm(x) ** 2

        w = rng.standard_normal((3, 1, 5))
        u, v, x = rng.standard_normal((3, 4, 5))
        h = 1e-4
        stencil = (
            f2(w + h * u + h * v)
            - f2(w + h * u - h * v)
            - f2(w - h * u + h * v)
            + f2(w - h * u - h * v)
        )
        expected = 0.5 * stencil / (4.0 * h * h)
        assert np.array_equal(structure.osculating_product_fd(w, u, v, h), expected)
        h = 5e-3
        total = 0.0
        for su in (1.0, -1.0):
            for sv in (1.0, -1.0):
                for sx in (1.0, -1.0):
                    total += su * sv * sx * f2(w + su * h * u + sv * h * v + sx * h * x)
        assert np.array_equal(structure.cartan_fd(w, u, v, x, h), 0.25 * total / (8.0 * h**3))

    def test_one_sample_difference_sums_run_left_to_right(self, structure, rng):
        # on one sample the stencil terms lie on the contiguous axis, where a
        # numpy reduction would sum them pairwise: the oracles must still add
        # them in index order, one at a time.  Near-equal stencil values make
        # the two orders differ on only a few percent of samples, so many are
        # drawn
        def loop(h, w, *directions):
            total = 0.0
            for signs in itertools.product((1.0, -1.0), repeat=len(directions)):
                point = w
                for sign, d in zip(signs, directions):
                    point = point + sign * h * d
                total += math.prod(signs) * np.square(structure._finsler_norm(point))
            return total

        for _ in range(500):
            w, u, v, x = rng.standard_normal((4, 5))
            h = 1e-4
            expected = 0.5 * loop(h, w, u, v) / (4.0 * h * h)
            assert structure.osculating_product_fd(w, u, v, h) == expected
            h = 5e-3
            expected = 0.25 * loop(h, w, u, v, x) / (8.0 * h**3)
            assert structure.cartan_fd(w, u, v, x, h) == expected

    def test_sorting_network_matches_sort(self, rng):
        # the Cartan tensor's sums and products take their terms in this order
        terms = [rng.standard_normal(40), rng.standard_normal((3, 40)), 0.5]
        terms[0][:4] = (np.inf, -np.inf, 0.5, -0.0)
        terms[1][:, 4:8] = (0.5, np.inf, -np.inf, 0.0)
        expected = np.sort(np.stack(np.broadcast_arrays(*terms), axis=-1), axis=-1)
        assert np.array_equal(np.stack(_sorted(*terms), axis=-1), expected)

    def test_stacked_inputs_are_validated(self, structure):
        good = np.ones((2, 5))
        with pytest.raises(DimensionMismatch):
            structure.cartan(good, np.ones((2, 4)), good, good)
        with pytest.raises(ParameterError):
            structure.osculating_product_fd(good, good, [[1, 0, 0, 0, 0], [np.inf, 0, 0, 0, 0]])
        # a pole of norm exactly ZERO_VECTOR_TOL passes, one just below it
        # fails, alone or as one row of a stack
        edge, below = 1e-14 * E[0], 0.99e-14 * E[0]
        oracles = ((structure.cartan, (good,) * 3), (structure.cartan_fd, (good,) * 3 + (1e-2,)))
        for call, args in oracles:
            for poles in (edge, [E[0], edge]):
                assert np.all(np.isfinite(call(poles, *args)))
            for poles in (below, [E[0], np.zeros(5)], [E[0], below], [[E[0]], [below]]):
                with pytest.raises(DegenerateReferenceVector, match="numerically zero"):
                    call(poles, *args)

    @pytest.mark.parametrize(
        "oracle", ["osculating_product", "osculating_product_fd", "cartan", "cartan_fd"]
    )
    @pytest.mark.parametrize("stacked", [0, 1])
    def test_stacks_that_do_not_broadcast_rejected(self, structure, oracle, stacked):
        # leading shapes (2,) and (3,): in the pole and the last direction,
        # or in the first and the last direction
        arity = 4 if oracle.startswith("cartan") else 3
        vectors = [np.ones(5)] * arity
        vectors[stacked], vectors[-1] = np.ones((2, 5)), np.ones((3, 5))
        with pytest.raises(DimensionMismatch, match="must broadcast"):
            getattr(structure, oracle)(*vectors)


class TestOracleAgreementAcrossDeformations:
    @pytest.mark.parametrize("xi", [0.1, 0.5, 0.9])
    def test_both_oracles(self, xi, rng):
        s = z_randers(2.0, 1.0, xi)
        worst_osc = worst_cartan = 0.0
        for _ in range(50):
            w, u, v, x = unit(rng), unit(rng), unit(rng), unit(rng)
            worst_osc = max(
                worst_osc,
                abs(s.osculating_product(w, u, v) - s.osculating_product_fd(w, u, v, 1e-4)),
            )
            worst_cartan = max(
                worst_cartan, abs(s.cartan(w, u, v, x) - s.cartan_fd(w, u, v, x, 5e-3))
            )
        assert worst_osc <= 1e-6
        assert worst_cartan <= 1e-4


class TestBerwald:
    def test_center_deformation_is_not_berwald(self, structure):
        report = structure.is_berwald()
        assert not report
        assert report.witness == (0, 1)

    def test_zero_deformation_is_berwald(self):
        s = RandersStructure(heisenberg5(2.0, 1.0), np.zeros(5))
        report = s.is_berwald()
        assert report
        assert report.witness is None

    def test_plane_deformation_is_berwald(self):
        # brackets land in span(Z), orthogonal to e1
        s = RandersStructure(heisenberg5(2.0, 1.0), 0.5 * E[0])
        assert s.is_berwald()
        # independent check over all 25 basis pairs
        for i in range(5):
            for j in range(5):
                pairing = float(s.algebra.bracket(E[i], E[j]) @ s.x0)
                assert abs(pairing) < 1e-15
