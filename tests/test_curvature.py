"""Curvature operator, flag curvature against the special-flag closed forms,
sign certification, and the Riemannian specialization."""

import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from randersflag import (
    SPECIAL_FLAG_CASES,
    DimensionMismatch,
    DomainError,
    MetricLieAlgebra,
    OsculatingFrame,
    ParameterError,
    RandersStructure,
    SearchFailure,
    almost_metric_defect,
    chern_rund_table,
    curvature_operator,
    flag_curvature,
    flag_report,
    heisenberg5,
    riemannian_sectional,
    sign_search,
    special_flag_closed_form,
    special_flag_vectors,
    torsion_defect,
)
from randersflag import connection, curvature
from randersflag.cli import TABLE1_TOL
from randersflag.curvature import WITNESS_MIN_CURVATURE, SignCertificate
from randersflag.reference_tables import reference_blocks
from helpers import (
    abelian_structure,
    hyperbolic_plus_heisenberg,
    koszul_reference,
    nilpotent_algebra,
    random_heisenberg_params,
    solvable_algebra,
    unit,
    z_randers,
)

E = np.eye(5)
Z = E[4]

SPOT_CHECKS = [
    # (pole, transverse, expected) at (lam, mu, xi) = (2, 1, 0.5)
    (Z, E[0], 1.0),
    (E[0], Z, 0.75),
    (E[0], E[1], -2.75),
    (E[0], E[2], -0.1875),
    (E[2], Z, 0.1875),
    (E[2], E[0], 0.1875),
    (E[2], E[3], -0.6875),
]


#: The preset grid of the geodesic-pole tests: unit brackets and those of
#: the extreme presets, with xi up to 1 - 1e-6.
GEODESIC_BRACKETS = [(2.0, 1.0), (1e3, 1e3), (1.5e5, 1e5)]
GEODESIC_XI = [0.2, 0.5, 0.866, 0.9, 0.99, 0.999999]


@pytest.fixture
def structure():
    return z_randers(2.0, 1.0, 0.5)


class TestCurvatureOperator:
    def test_center_pole_pair_at_plane_pole(self, structure):
        table = chern_rund_table(structure.osculating_gram(E[0]))
        expected = -0.75 * (0.5 * E[0] - Z)  # (lam^2/4)(xi^2-1)(xi*W - Z)
        assert np.allclose(curvature_operator(table, Z, E[0], E[0]), expected, atol=1e-13)

    def test_cross_plane_at_plane_pole(self, structure):
        table = chern_rund_table(structure.osculating_gram(E[0]))
        expected = -0.1875 * E[2]  # (xi^2/4)(mu^2 - lam^2) e3
        assert np.allclose(curvature_operator(table, E[2], E[0], E[0]), expected, atol=1e-13)

    def test_vanishes_on_repeated_arguments(self, structure, rng):
        table = chern_rund_table(structure.osculating_gram(unit(rng)))
        for _ in range(10):
            x, z = rng.standard_normal((2, 5))
            assert np.abs(curvature_operator(table, x, x, z)).max() <= 1e-14

    def test_antisymmetry(self, structure, rng):
        table = chern_rund_table(structure.osculating_gram(unit(rng)))
        for _ in range(10):
            x, y, z = rng.standard_normal((3, 5))
            forward = curvature_operator(table, x, y, z)
            backward = curvature_operator(table, y, x, z)
            assert np.abs(forward + backward).max() <= 1e-13

    def test_trilinearity(self, structure, rng):
        table = chern_rund_table(structure.osculating_gram(unit(rng)))
        for _ in range(10):
            x1, x2, y, z = rng.standard_normal((4, 5))
            a, b = rng.uniform(-2, 2, 2)
            left = curvature_operator(table, a * x1 + b * x2, y, z)
            right = a * curvature_operator(table, x1, y, z) + b * curvature_operator(table, x2, y, z)
            assert np.allclose(left, right, atol=1e-12)

    @pytest.mark.parametrize("poles", [1, 4, 25])
    @pytest.mark.parametrize("dim", [5, 12])
    def test_stacked_tables_match_one_pole_calls(self, dim, poles):
        # the table API is one contraction for stacks: each pole of a stacked
        # table, and each stacked or broadcast vector, gets the bits of its
        # one-pole call
        rng = np.random.default_rng([dim, poles])
        algebra = nilpotent_algebra(rng, dim)
        structure = RandersStructure(algebra, unit(rng, dim) * 0.5)
        w = rng.standard_normal((poles, dim))
        table = chern_rund_table(structure.osculating_gram(w))
        singles = [chern_rund_table(structure.osculating_gram(pole)) for pole in w]
        x, y, z = rng.standard_normal((3, poles, dim))
        r = curvature_operator(table, x, y, z)
        derivative, bracket = table.derivative(x, y), algebra.bracket(x, y)
        for i, one in enumerate(singles):
            assert np.array_equal(r[i], curvature_operator(one, x[i], y[i], z[i]))
            assert np.array_equal(derivative[i], one.derivative(x[i], y[i]))
            assert np.array_equal(bracket[i], algebra.bracket(x[i], y[i]))
        # vectors on an axis of their own, broadcast against the poles
        x, y, z = rng.standard_normal((3, 2, 1, dim))
        r = curvature_operator(table, x, y, z[0, 0])
        derivative = table.derivative(x, y[0, 0])
        bracket = algebra.bracket(x[:, 0], y[0, 0])
        assert r.shape == derivative.shape == (2, poles, dim)
        for a in range(2):
            assert np.array_equal(bracket[a], algebra.bracket(x[a, 0], y[0, 0]))
            for i, one in enumerate(singles):
                assert np.array_equal(r[a, i], curvature_operator(one, x[a, 0], y[a, 0], z[0, 0]))
                assert np.array_equal(derivative[a, i], one.derivative(x[a, 0], y[0, 0]))

    def test_stacks_that_do_not_broadcast_rejected(self, structure, rng):
        table = chern_rund_table(structure.osculating_gram(rng.standard_normal((4, 5))))
        three = rng.standard_normal((3, 5))
        with pytest.raises(DimensionMismatch, match="must broadcast"):
            curvature_operator(table, E[0], three, E[2])
        with pytest.raises(DimensionMismatch, match="must broadcast"):
            table.derivative(three, E[1])
        with pytest.raises(DimensionMismatch, match="must broadcast"):
            structure.algebra.bracket(three, rng.standard_normal((2, 5)))

    @pytest.mark.parametrize("poles", [1, 4, 25])
    @pytest.mark.parametrize("dim", [5, 12])
    def test_stacked_flags_match_one_flag_calls(self, dim, poles):
        # flag_curvature and flag_report take stacked flags, and each flag
        # of a stack gets the bits of its one-flag call
        rng = np.random.default_rng([dim, poles, 35])
        structure = RandersStructure(nilpotent_algebra(rng, dim), unit(rng, dim) * 0.5)
        w, x = rng.standard_normal((2, poles, dim))
        table = chern_rund_table(structure.osculating_gram(w))
        stacked = flag_curvature(structure, w, x), flag_report(table, x)
        for report in stacked:
            for value in (report.k, report.denominator, report.degenerate):
                assert value.shape == (poles,) and not value.flags.writeable
            assert not report.degenerate.any()
        for i, pole in enumerate(w):
            one_table = chern_rund_table(structure.osculating_gram(pole))
            singles = flag_curvature(structure, pole, x[i]), flag_report(one_table, x[i])
            for report, single in zip(stacked, singles):
                assert type(single.k) is type(single.denominator) is float
                assert type(single.degenerate) is bool
                assert np.array_equal(report.w[i], single.w)
                assert np.array_equal(report.k[i], single.k)
                assert np.array_equal(report.denominator[i], single.denominator)
        # x must have the poles' shape: neither one vector for a stack nor a
        # stack for one pole, even where numpy would broadcast them
        for pole, bad in ((w, x[0]), (w[0], x), (w, x[:, None])):
            with pytest.raises(DimensionMismatch, match="transverse vectors need shape"):
                flag_curvature(structure, pole, bad)
        with pytest.raises(DimensionMismatch, match="transverse vectors need shape"):
            flag_report(table, x[0])

    @pytest.mark.parametrize("x", [np.zeros(5), 0.99e-14 * E[1]])
    def test_flag_report_refuses_a_zero_transverse_vector(self, structure, x):
        # the rule of flag_curvature, not k = NaN from a 0 / 0 quotient
        table = chern_rund_table(structure.osculating_gram(E[0]))
        with pytest.raises(DomainError, match="transverse vector is numerically zero"):
            flag_report(table, x)
        with pytest.raises(DomainError, match="transverse vector is numerically zero"):
            flag_curvature(structure, E[0], x)


class TestFlagCurvature:
    def test_spot_values(self, structure):
        for pole, transverse, expected in SPOT_CHECKS:
            report = flag_curvature(structure, pole, transverse)
            assert not report.degenerate
            assert abs(report.k - expected) <= 1e-10

    def test_degenerate_flag(self, structure):
        report = flag_curvature(structure, E[0], E[0])
        assert report.degenerate
        assert np.isnan(report.k)
        assert report.denominator == pytest.approx(0.0, abs=1e-12)

    def test_zero_inputs_rejected(self, structure):
        with pytest.raises(DomainError):
            flag_curvature(structure, np.zeros(5), E[0])
        with pytest.raises(DomainError):
            flag_curvature(structure, E[0], np.zeros(5))

    @pytest.mark.parametrize(
        "row, error",
        [
            ([np.inf, 0, 0, 0, 0], ParameterError),
            ([1e200, 0, 0, 0, 0], ParameterError),
            (E[1], DomainError),
        ],
    )
    def test_stacked_transverse_vectors_are_finite_before_nonzero(self, structure, row, error):
        x = np.array([np.zeros(5), row, E[2]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                flag_curvature(structure, E[:3] + E[3], x)

    @pytest.mark.parametrize("w", [1.0, np.ones(4)])
    def test_pole_of_wrong_shape_rejected(self, structure, w):
        with pytest.raises(DimensionMismatch):
            flag_curvature(structure, w, E[1])

    def test_transverse_invariance(self, rng):
        for _ in range(100):
            lam, mu, xi = random_heisenberg_params(rng)
            s = z_randers(lam, mu, xi)
            w, x = unit(rng), unit(rng)
            base = flag_curvature(s, w, x)
            if base.degenerate:
                continue
            a = rng.uniform(0.2, 2.0) * (1.0 if rng.random() < 0.5 else -1.0)
            b = rng.uniform(-2.0, 2.0)
            mixed = flag_curvature(s, w, a * x + b * base.w)
            assert mixed.k == pytest.approx(base.k, rel=1e-9)

    def test_transverse_scaling_invariance(self, structure, rng):
        w, x = unit(rng), unit(rng)
        base = flag_curvature(structure, w, x)
        scaled = flag_curvature(structure, w, 3.7 * x)
        assert scaled.k == pytest.approx(base.k, rel=1e-12)

    def test_flat_structure_everywhere_zero(self, rng):
        s = abelian_structure()
        for _ in range(10):
            report = flag_curvature(s, unit(rng), unit(rng))
            if not report.degenerate:
                assert report.k == pytest.approx(0.0, abs=1e-14)


class TestSpecialFlagClosedForm:
    def test_instantiations(self):
        assert special_flag_closed_form("2.3", 2.0, 1.0, 0.5) == pytest.approx(-0.1875)
        assert special_flag_closed_form("3.2", 1.5, 1.5, 0.3) == 0.0
        assert special_flag_closed_form("1.1", 2.0, 1.0, 0.2) == 1.0
        assert special_flag_closed_form("1.1", 2.0, 1.0, 0.9) == 1.0

    def test_parameter_domain(self):
        with pytest.raises(ParameterError):
            special_flag_closed_form("1.1", 1.0, 2.0, 0.5)
        with pytest.raises(ParameterError):
            special_flag_closed_form("1.1", 2.0, 1.0, 0.0)
        with pytest.raises(ParameterError):
            special_flag_closed_form("1.1", 2.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            special_flag_closed_form("9.9", 2.0, 1.0, 0.5)

    def test_sign_pattern(self, rng):
        for _ in range(20):
            lam, mu, xi = random_heisenberg_params(rng)
            assert special_flag_closed_form("1.1", lam, mu, xi) > 0
            assert special_flag_closed_form("1.2", lam, mu, xi) > 0
            assert special_flag_closed_form("2.1", lam, mu, xi) > 0
            assert special_flag_closed_form("3.1", lam, mu, xi) > 0
            assert special_flag_closed_form("2.2", lam, mu, xi) < 0
            assert special_flag_closed_form("3.3", lam, mu, xi) < 0
            assert special_flag_closed_form("2.3", lam, mu, xi) <= 0
            assert special_flag_closed_form("3.2", lam, mu, xi) >= 0
        # equality cases iff lam == mu
        assert special_flag_closed_form("2.3", 2.0, 2.0, 0.5) == 0.0
        assert special_flag_closed_form("3.2", 2.0, 2.0, 0.5) == 0.0
        assert special_flag_closed_form("2.3", 2.0, 1.0, 0.5) < 0.0
        assert special_flag_closed_form("3.2", 2.0, 1.0, 0.5) > 0.0

    def test_grid_reproduction_with_random_span_vectors(self, rng):
        lams = (0.5, 1.0, 2.0, 3.0, 5.0)
        mus = (0.25, 0.5, 1.0, 2.0, 5.0)
        xis = (0.1, 0.3, 0.5, 0.7, 0.9)
        for lam in lams:
            for mu in mus:
                if lam < mu:
                    continue
                for xi in xis:
                    s = z_randers(lam, mu, xi)
                    for case_id in SPECIAL_FLAG_CASES:
                        w, x = special_flag_vectors(case_id, rng)
                        expected = special_flag_closed_form(case_id, lam, mu, xi)
                        report = flag_curvature(s, w, x)
                        assert not report.degenerate
                        err = abs(report.k - expected) / max(1.0, abs(expected))
                        assert err <= 1e-9, f"case {case_id} at ({lam},{mu},{xi}): {err:.2e}"


class TestRealParameters:
    """Scalar parameters that are not real numbers raise ParameterError, not
    a raw TypeError or AttributeError; every numbers.Real, bools included,
    is a parameter."""

    CALLS = {
        "heisenberg5-str": lambda: heisenberg5("2", 1.0),
        "heisenberg5-none": lambda: heisenberg5(2.0, None),
        "heisenberg5-huge-int": lambda: heisenberg5(10**400, 1.0),
        "z_randers-complex": lambda: z_randers(2 + 0j, 1.0, 0.5),
        "z_randers-str-xi": lambda: z_randers(2.0, 1.0, "0.5"),
        "closed-form-str": lambda: special_flag_closed_form("1.1", "2", 1.0, 0.5),
        "reference-blocks-complex": lambda: reference_blocks(2.0, 1.0, 0.5j, E[0], E[2]),
        "product-fd-str-step": lambda: z_randers(2.0, 1.0, 0.5).osculating_product_fd(
            Z, E[0], E[1], h="1e-4"),
        "cartan-fd-none-step": lambda: z_randers(2.0, 1.0, 0.5).cartan_fd(
            Z, E[0], E[1], E[2], h=None),
        "flag-vectors-int-rng": lambda: special_flag_vectors("1.1", 5),
    }

    @pytest.mark.parametrize("name", list(CALLS))
    def test_non_real_parameter_rejected(self, name):
        with pytest.raises(ParameterError):
            self.CALLS[name]()

    @pytest.mark.parametrize("call", [
        pytest.param(lambda xi: z_randers(2.0, 1.0, xi), id="z_randers"),
        pytest.param(lambda xi: special_flag_closed_form("1.1", 2.0, 1.0, xi), id="closed-form"),
        pytest.param(lambda xi: reference_blocks(2.0, 1.0, xi, E[0], E[2]), id="reference-blocks"),
    ])
    def test_none_xi_rejected(self, call):
        # xi has no default: None is a scalar that is not a real number
        with pytest.raises(ParameterError, match="xi must be a real number"):
            call(None)

    @pytest.mark.parametrize("params", [
        (2, 1, 0.5), (np.float32(2.1), np.int64(1), Fraction(1, 3)), (True, True, 0.5)])
    def test_real_parameters_are_taken_as_floats(self, params):
        # the same bits as float parameters: no float32 arithmetic, no
        # object arrays of Fractions
        floats = tuple(map(float, params))
        assert np.array_equal(z_randers(*params).x0, z_randers(*floats).x0)
        (_, cells), (_, expected) = (reference_blocks(*p, E[0], E[2]) for p in (params, floats))
        assert cells.expected.dtype == float
        assert np.array_equal(cells.expected, expected.expected)
        for case_id in SPECIAL_FLAG_CASES:
            value = special_flag_closed_form(case_id, *params)
            assert value == special_flag_closed_form(case_id, *floats)

    @pytest.mark.parametrize("step", [np.float32(5e-3), Fraction(1, 200), np.float64(5e-3)])
    def test_steps_of_any_real_type_are_floats(self, structure, step):
        # a float32 step must not make the denominators float32
        args = (Z, E[0] + Z, E[1] - Z, E[2] + Z)
        assert structure.osculating_product_fd(*args[:3], h=step) == (
            structure.osculating_product_fd(*args[:3], h=float(step)))
        assert structure.cartan_fd(*args, h=step) == structure.cartan_fd(*args, h=float(step))


class TestSignSearch:
    def test_certificate_from_special_flags(self):
        s = z_randers(3.0, 1.0, 0.7)
        certificate = sign_search(s, seed=0)
        assert certificate.samples_tried <= 8
        assert certificate.positive_witness.k == pytest.approx(9.0 / 4.0, rel=1e-12)
        assert certificate.negative_witness.k == pytest.approx((0.49 - 3.0) * 9.0 / 4.0, rel=1e-12)

    def test_equal_parameters_certificate(self):
        certificate = sign_search(z_randers(1.0, 1.0, 0.5), seed=0)
        assert certificate.positive_witness.k == pytest.approx(0.25, rel=1e-12)
        assert certificate.negative_witness.k == pytest.approx(-0.6875, rel=1e-12)

    def test_flat_structure_fails(self):
        with pytest.raises(SearchFailure, match="no"):
            sign_search(abelian_structure(), seed=0, max_samples=64)

    def test_deterministic_given_seed(self):
        s = z_randers(1.0, 1.0, 0.1)
        a = sign_search(s, seed=42)
        b = sign_search(s, seed=42)
        assert a.samples_tried == b.samples_tried
        assert np.array_equal(a.positive_witness.w, b.positive_witness.w)
        assert np.array_equal(a.positive_witness.x, b.positive_witness.x)
        assert a.positive_witness.k == b.positive_witness.k
        assert a.negative_witness.k == b.negative_witness.k

    @pytest.mark.parametrize("seed", [-1, -(2**63)])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ParameterError, match="seed must be nonnegative"):
            sign_search(z_randers(2.0, 1.0, 0.5), seed=seed)

    # a bool has __index__ but is refused, as in the CLI's configs
    @pytest.mark.parametrize("seed", [1.5, np.float64(2.0), "7", None, True, False, np.True_])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ParameterError, match="seed must be an integer"):
            sign_search(z_randers(2.0, 1.0, 0.5), seed=seed)

    @pytest.mark.parametrize("max_samples", [2.5, None, "8", True, False])
    def test_non_integer_max_samples_rejected(self, max_samples):
        with pytest.raises(ParameterError, match="max_samples must be an integer"):
            sign_search(z_randers(2.0, 1.0, 0.5), seed=0, max_samples=max_samples)

    @pytest.mark.parametrize("max_samples", [0, -1])
    def test_nonpositive_max_samples_rejected(self, max_samples):
        with pytest.raises(ParameterError, match="max_samples must be positive"):
            sign_search(z_randers(2.0, 1.0, 0.5), seed=0, max_samples=max_samples)

    def test_special_flags_certificate_makes_no_generator(self, monkeypatch):
        # a dim-5 search that ends on the special flags draws no random chunk
        def no_generator(seed):
            raise AssertionError(f"random generator made for seed {seed}")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        assert sign_search(z_randers(2.0, 1.0, 0.5), seed=3).samples_tried == 4

    def test_large_seed_keeps_its_stream(self):
        structure = SEARCH_MODELS["nilpotent7"]
        seed = 2**64 + 3
        expected = _SequentialSearch(structure, seed).run(64)
        got = sign_search(structure, seed=seed, max_samples=64)
        assert got.samples_tried == expected.samples_tried
        assert np.array_equal(got.positive_witness.w, expected.positive_witness.w)
        assert np.array_equal(got.negative_witness.x, expected.negative_witness.x)

    def test_random_stage_reachable(self, rng):
        # a structure whose special flags are all flat: abelian with drift
        s = abelian_structure(x0=np.array([0.3, 0, 0, 0, 0]))
        with pytest.raises(SearchFailure):
            sign_search(s, seed=1, max_samples=32)

    @pytest.mark.parametrize("xi", GEODESIC_XI)
    @pytest.mark.parametrize("lam, mu", GEODESIC_BRACKETS)
    def test_both_signs_at_geodesic_poles(self, lam, mu, xi):
        # the unit poles with q5 = -xi are geodesic vectors (stage 1
        # vanishes), where K is the spray flag curvature: both of its signs
        # clear the witness margin there, unlike the special flags 2.x/3.x
        rng = np.random.default_rng([int(lam), int(mu), int(xi * 1e6)])
        u = rng.standard_normal((64, 4))
        u *= np.sqrt(1.0 - xi**2) / np.linalg.norm(u, axis=-1, keepdims=True)
        poles = np.concatenate([u, np.full((64, 1), -xi)], axis=-1)
        x = rng.standard_normal((64, 5))
        structure = z_randers(lam, mu, xi)
        report = flag_curvature(structure, poles, x)
        stage1 = connection._nabla_w_of_w(structure.osculating_gram(poles))
        assert np.abs(stage1).max() <= 1e-15 * lam
        assert not report.degenerate.any()
        margin = WITNESS_MIN_CURVATURE * lam**2
        assert (report.k > margin).any() and (report.k < -margin).any()


class TestSprayFlagCurvaturesAtGeodesicPoles:
    """At the unit poles with q5 = -xi stage 1 vanishes, so K is the spray
    flag curvature there.  With s = sqrt(1 - xi^2), P1 = s e1 - xi Z and
    P3 = s e3 - xi Z, the spray values are those of the Riemannian
    heisenberg5(lam, mu), whatever xi: K(P1, e2) = -3/4 lam^2,
    K(P1, Z) = lam^2/4 and K(P1, e3) = K(P1, e4) = 0, the mirror at P3 with
    mu for lam, and K(w_t, Z) = (lam^2 cos^2 t + mu^2 sin^2 t)/4 for
    w_t = s (cos t e1 + sin t e3) - xi Z.  Each sign thus has a spray-exact
    witness on every Z-Randers metric."""

    @pytest.mark.parametrize(
        "lam, mu, xi",
        [(lam, mu, xi) for lam, mu in GEODESIC_BRACKETS for xi in GEODESIC_XI]
        + [(2.0, 1.0, 1e-3)],
    )
    def test_closed_forms(self, lam, mu, xi):
        s = np.sqrt(1.0 - xi**2)
        p1, p3 = s * E[0] - xi * Z, s * E[2] - xi * Z
        t = np.linspace(0.0, np.pi, 9)
        w_t = s * (np.cos(t)[:, None] * E[0] + np.sin(t)[:, None] * E[2]) - xi * Z
        poles = np.vstack([np.tile(p1, (4, 1)), np.tile(p3, (4, 1)), w_t])
        x = np.vstack([E[[1, 4, 2, 3]], E[[3, 4, 0, 1]], np.tile(Z, (len(t), 1))])
        expected = np.concatenate([
            [-0.75 * lam**2, lam**2 / 4, 0.0, 0.0, -0.75 * mu**2, mu**2 / 4, 0.0, 0.0],
            (lam**2 * np.cos(t) ** 2 + mu**2 * np.sin(t) ** 2) / 4,
        ])
        structure = z_randers(lam, mu, xi)
        report = flag_curvature(structure, poles, x)
        stage1 = connection._nabla_w_of_w(structure.osculating_gram(poles))
        assert np.abs(stage1).max() <= 1e-15 * lam
        # table1's tolerance model: the curvatures grow like lam**2
        error = np.abs(report.k - expected).max()
        assert error <= TABLE1_TOL * max(1.0, np.abs(expected).max())


class TestRiemannianSectional:
    def test_center_plane_curvature(self):
        for lam, mu in ((2.0, 1.0), (1.0, 1.0), (3.0, 0.5)):
            algebra = heisenberg5(lam, mu)
            assert riemannian_sectional(algebra, Z, E[0]) == pytest.approx(lam**2 / 4, rel=1e-12)

    def test_bracket_plane_curvature(self):
        algebra = heisenberg5(2.0, 1.0)
        assert riemannian_sectional(algebra, E[0], E[1]) == pytest.approx(-3.0, rel=1e-12)

    def test_abelian_flat(self, rng):
        algebra = MetricLieAlgebra(np.zeros((5, 5, 5)))
        for _ in range(5):
            assert riemannian_sectional(algebra, unit(rng), unit(rng)) == pytest.approx(0.0, abs=1e-14)

    def test_dependent_inputs_rejected(self):
        with pytest.raises(DomainError):
            riemannian_sectional(heisenberg5(2.0, 1.0), E[0], 2.0 * E[0])
        # in a stack too: one dependent pair rejects the stack
        with pytest.raises(DomainError):
            riemannian_sectional(heisenberg5(2.0, 1.0), E[[0, 2]], E[[1, 2]])

    def test_stacked_pairs(self):
        algebra = heisenberg5(2.0, 1.0)
        x, y = E[[4, 0, 2]], E[[0, 1, 3]]
        k = riemannian_sectional(algebra, x, y)
        assert k.tolist() == [riemannian_sectional(algebra, *pair) for pair in zip(x, y)]

    def test_milnor_nonnegative_center_curvature(self, rng):
        algebra = heisenberg5(2.0, 1.0)
        for _ in range(100):
            x = rng.standard_normal(5)
            if np.linalg.norm(x - (x @ Z) * Z) < 1e-6:
                continue
            assert riemannian_sectional(algebra, Z, x) >= -1e-12

    def test_wolf_both_signs_without_deformation(self):
        s = RandersStructure(heisenberg5(2.0, 1.0), np.zeros(5))
        certificate = sign_search(s, seed=0)
        assert certificate.positive_witness.k > 0
        assert certificate.negative_witness.k < 0

    def test_small_deformation_continuity(self):
        lam, mu = 2.0, 1.0
        algebra = heisenberg5(lam, mu)
        s = z_randers(lam, mu, 1e-6)
        for case_id in SPECIAL_FLAG_CASES:
            w, x = special_flag_vectors(case_id)
            finsler = flag_curvature(s, w, x).k
            riemann = riemannian_sectional(algebra, w, x)
            assert abs(finsler - riemann) <= 1e-4


class TestFlagPathAgainstTable:
    """flag_curvature never builds the connection table; the table path is
    its reference."""

    @pytest.mark.parametrize("deformed", [False, True], ids=["x0_zero", "x0_random"])
    @pytest.mark.parametrize("family", [nilpotent_algebra, solvable_algebra])
    @pytest.mark.parametrize("dim", [5, 9, 16, 40])
    def test_matches_table_reference(self, dim, family, deformed):
        rng = np.random.default_rng([dim, deformed])
        algebra = family(rng, dim)
        x0 = np.zeros(dim)
        if deformed:
            x0 = unit(rng, dim) * rng.uniform(0.1, 0.9)
        structure = RandersStructure(algebra, x0)
        for _ in range(4):
            w, x = rng.standard_normal((2, dim))
            report = flag_curvature(structure, w, x)
            reference = flag_report(chern_rund_table(structure.osculating_gram(w)), x)
            assert not report.degenerate
            assert report.k == pytest.approx(reference.k, rel=1e-12, abs=0.0)
            assert report.denominator == reference.denominator

    def test_flag_path_builds_no_table(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the flag path built the O(n^4) connection table")

        for module in (connection, curvature):
            monkeypatch.setattr(module, "chern_rund_table", forbidden, raising=False)
        monkeypatch.setattr(curvature, "curvature_operator", forbidden)
        structure = z_randers(2.0, 1.0, 0.5)
        assert flag_curvature(structure, E[0], E[1]).k == pytest.approx(-2.75, abs=1e-12)
        certificate = sign_search(structure, seed=0)
        assert certificate.positive_witness.k > 0 > certificate.negative_witness.k


class _SequentialSearch:
    """The one-flag-per-iteration search that the chunked :func:`sign_search`
    must reproduce: the same candidate stream (special flags on dim 5, then a
    pole and a transverse vector drawn and normalized in turn), evaluated by
    :func:`flag_curvature` in order.  Reports are computed on demand and
    shared between budgets, since a smaller budget sees a prefix of them."""

    def __init__(self, structure, seed):
        self.structure = structure
        self.margin = WITNESS_MIN_CURVATURE * np.abs(structure.algebra.structure).max() ** 2
        self.candidates = self._candidates(np.random.default_rng(seed), structure.dim)
        self.reports = []

    @staticmethod
    def _candidates(rng, dim):
        if dim == 5:
            for case_id in SPECIAL_FLAG_CASES:
                yield special_flag_vectors(case_id)
        while True:
            w = rng.standard_normal(dim)
            x = rng.standard_normal(dim)
            yield w / np.linalg.norm(w), x / np.linalg.norm(x)

    def _report(self, i):
        while len(self.reports) <= i:
            w, x = next(self.candidates)
            self.reports.append(flag_curvature(self.structure, w, x))
        return self.reports[i]

    def run(self, max_samples):
        positive = negative = None
        for tried in range(1, max_samples + 1):
            report = self._report(tried - 1)
            if report.degenerate:
                continue
            if positive is None and report.k > self.margin:
                positive = report
            if negative is None and report.k < -self.margin:
                negative = report
            if positive is not None and negative is not None:
                return SignCertificate(positive, negative, tried)
        if positive is None and negative is None:
            missing = "no nonzero curvature found"
        elif positive is None:
            missing = "no strictly positive curvature found"
        else:
            missing = "no strictly negative curvature found"
        raise SearchFailure(f"{missing} within {max_samples} samples")


def _search_models():
    rng = np.random.default_rng(404)
    solvable_x0 = unit(rng, 9) * 0.6
    return {
        "heisenberg5-2-1-0.5": z_randers(2.0, 1.0, 0.5),
        "heisenberg5-3-1-0.7": z_randers(3.0, 1.0, 0.7),
        "heisenberg5-1-1-0.1": z_randers(1.0, 1.0, 0.1),
        "nilpotent7": RandersStructure(nilpotent_algebra(rng, 7), np.zeros(7)),
        "nilpotent8": RandersStructure(nilpotent_algebra(rng, 8), np.zeros(8)),
        "nilpotent9": RandersStructure(nilpotent_algebra(rng, 9), np.zeros(9)),
        "solvable9-deformed": RandersStructure(solvable_algebra(rng, 9), solvable_x0),
        "hyperbolic5+heisenberg3": hyperbolic_plus_heisenberg(),
        "flat5": abelian_structure(),
    }


SEARCH_MODELS = _search_models()


class TestChunkedSearch:
    """sign_search evaluates its candidates in stacked chunks; the outcome
    must be that of the sequential loop, budget by budget."""

    @pytest.mark.parametrize("name", list(SEARCH_MODELS))
    def test_matches_sequential_search(self, name):
        structure = SEARCH_MODELS[name]
        # budgets on both sides of the chunk edges: the random chunks of 8,
        # 16, 32, 64 and then 128 end at samples 8, 24, 56, 120, 248, 376 and
        # 504, shifted by the eight special flags on dim 5
        edges = (128, 129, 256, 257) if structure.dim == 5 else (120, 121, 248, 249, 376, 377)
        for seed in range(20):
            sequential = _SequentialSearch(structure, seed)
            for max_samples in (1, 7, 8, 9, 63, 64, 65, *edges, 512):
                try:
                    expected = sequential.run(max_samples)
                except SearchFailure as failure:
                    with pytest.raises(SearchFailure) as raised:
                        sign_search(structure, seed=seed, max_samples=max_samples)
                    assert str(raised.value) == str(failure)
                    continue
                got = sign_search(structure, seed=seed, max_samples=max_samples)
                assert got.samples_tried == expected.samples_tried
                for witness in ("positive_witness", "negative_witness"):
                    a, b = getattr(got, witness), getattr(expected, witness)
                    assert np.array_equal(a.w, b.w)
                    assert np.array_equal(a.x, b.x)
                    assert a.k == b.k
                    assert a.denominator == b.denominator

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 7, 8, 64, 128])
    @pytest.mark.parametrize(
        "name", ["heisenberg5-2-1-0.5", "nilpotent9", "solvable9-deformed", "hyperbolic5+heisenberg3"]
    )
    def test_stacked_rows_match_single_flags(self, name, size):
        # every stack size the budget can cut a chunk to gives the bits of
        # one-flag calls, so the witnesses do not depend on the chunking
        structure = SEARCH_MODELS[name]
        rng = np.random.default_rng(size)
        w, x = rng.standard_normal((2, size, structure.dim))
        middle = size // 2
        if size > 1:
            x[middle] = -2.5 * w[middle]  # a zero-area flag in the middle of the stack
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = flag_curvature(structure, w, x)
        assert report.degenerate.tolist() == [size > 1 and i == middle for i in range(size)]
        assert np.isnan(report.k[report.degenerate]).all()
        for i in range(size):
            single = flag_curvature(structure, w[i], x[i])
            assert np.array_equal(report.w[i], single.w)
            assert report.denominator[i] == single.denominator
            assert np.array_equal(report.k[i], single.k, equal_nan=True)
            assert report.degenerate[i] == single.degenerate


def _scaled(structure, t):
    """``structure`` with its brackets scaled by t."""
    return RandersStructure(MetricLieAlgebra(t * structure.algebra.structure), structure.x0)


def _euclidean_motions(s):
    """e(2) + R^2, [e1, e2] = s e3 and [e1, e3] = -s e2, without deformation:
    a flat metric at every s, whose flag curvatures are round-off."""
    c = np.zeros((5, 5, 5))
    c[0, 1, 2], c[1, 0, 2] = s, -s
    c[0, 2, 1], c[2, 0, 1] = -s, s
    return RandersStructure(MetricLieAlgebra(c), np.zeros(5))


def _margin_models():
    rng = np.random.default_rng(18)
    x0 = 0.4 * rng.standard_normal(7) / np.sqrt(7)
    return {
        "heisenberg5": z_randers(2.0, 1.0, 0.5),
        "nilpotent7-deformed": RandersStructure(nilpotent_algebra(rng, 7), x0),
    }


MARGIN_MODELS = _margin_models()


class TestWitnessMargin:
    """Scaling the brackets by t scales every flag curvature by t**2, and the
    witness margin with it: for a power of two t the certificate is the same
    but for k, which is exactly t**2 times as large."""

    @pytest.mark.parametrize("exponent", range(-30, 31, 5))
    @pytest.mark.parametrize("name", list(MARGIN_MODELS))
    def test_scaled_brackets_scale_only_k(self, name, exponent):
        structure = MARGIN_MODELS[name]
        t = 2.0**exponent
        expected = sign_search(structure, seed=0)
        got = sign_search(_scaled(structure, t), seed=0)
        assert got.samples_tried == expected.samples_tried
        for witness in ("positive_witness", "negative_witness"):
            a, b = getattr(got, witness), getattr(expected, witness)
            assert np.array_equal(a.w, b.w)
            assert np.array_equal(a.x, b.x)
            assert a.k == t * t * b.k

    @pytest.mark.parametrize("exponent", [0, 10, 14, 20])
    def test_flat_model_fails_at_any_scale(self, exponent):
        # at s = 2**14 the round-off curvatures reach 4e-8, past an absolute
        # margin of 1e-8
        with pytest.raises(SearchFailure, match="no nonzero curvature found"):
            sign_search(_euclidean_motions(2.0**exponent), seed=0)

    @pytest.mark.parametrize("exponent", [-498, -530, -535, -600])
    def test_margin_floored_at_smallest_normal(self, exponent):
        # 1e-8 s**2 falls below the smallest normal double near s = 2**-498;
        # without a floor the flat model's round-off, +-5e-324, certifies
        with pytest.raises(SearchFailure) as raised:
            sign_search(_euclidean_motions(2.0**exponent), seed=0)
        message = str(raised.value)
        assert message.startswith("no nonzero curvature found within 512 samples; ")
        assert message.endswith("curvatures this small are not normal doubles")

    def test_normal_margins_keep_their_message(self):
        # at s = 2**-497 the margin is still a normal double; c = 0 has no margin
        for structure in (_euclidean_motions(2.0**-497), abelian_structure()):
            with pytest.raises(SearchFailure) as raised:
                sign_search(structure, seed=0)
            assert str(raised.value) == "no nonzero curvature found within 512 samples"


class TestStageTrace:
    """The flag path and the tables run stage 1 (``connection._nabla_w_of_w``)
    and stage 2 (``connection._nabla_basis_w``) once per stacked evaluation,
    counted by patching the stage in every module that binds it."""

    @pytest.fixture(params=["_nabla_w_of_w", "_nabla_basis_w"])
    def calls(self, request, monkeypatch):
        original = getattr(connection, request.param)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        holders = [
            (module, key)
            for name, module in list(sys.modules.items())
            if name == "randersflag" or name.startswith("randersflag.")
            for key, value in vars(module).items()
            if value is original
        ]
        assert (connection, request.param) in holders
        for module, key in holders:
            monkeypatch.setattr(module, key, counting)
        return calls

    def test_flag_curvature_runs_each_stage_once(self, calls, structure):
        assert flag_curvature(structure, E[0], E[1]).k == pytest.approx(-2.75, abs=1e-12)
        assert len(calls) == 1

    def test_special_flag_search_runs_each_stage_once(self, calls, structure):
        assert sign_search(structure, seed=0).samples_tried == 4
        assert len(calls) == 1

    def test_table_runs_each_stage_once(self, calls, structure):
        table = chern_rund_table(structure.osculating_gram(E[:3]))
        assert table.gamma.shape == (3, 5, 5, 5)
        assert len(calls) == 1


class TestCartanTrace:
    """The flag path builds the Cartan matrices of stage 2 and of the
    numerator in one stacked call, and a table builds stage 2's: the frame's
    ``_cartan_matrix`` runs once per stacked evaluation."""

    @pytest.fixture
    def calls(self, monkeypatch):
        original = OsculatingFrame._cartan_matrix
        calls = []

        def counting(frame, u):
            calls.append(np.shape(u))
            return original(frame, u)

        monkeypatch.setattr(OsculatingFrame, "_cartan_matrix", counting)
        return calls

    def test_flag_curvature_builds_one_stack(self, calls, structure):
        assert flag_curvature(structure, E[0], E[1]).k == pytest.approx(-2.75, abs=1e-12)
        assert calls == [(2, 5)]

    def test_special_flag_search_builds_one_stack(self, calls, structure):
        assert sign_search(structure, seed=0).samples_tried == 4
        assert len(calls) == 1

    def test_table_builds_one_matrix_per_pole(self, calls, structure):
        table = chern_rund_table(structure.osculating_gram(E[:3]))
        assert table.gamma.shape == (3, 5, 5, 5)
        assert calls == [(3, 5)]


def _frame_free_curvature(structure, w, x):
    """K(w, x) from the gamma of :func:`helpers.koszul_reference` and the
    ``osculating_product`` oracle, with no frame: R(x, w)w =
    nabla_x nabla_w w - nabla_w nabla_x w - nabla_{[x, w]} w for
    constant-coefficient fields, paired with x and divided by the Gram
    determinant of the flag plane."""
    _, gamma = koszul_reference(structure, w)

    def nabla(u, v):
        return u @ (v @ gamma)

    w = w / np.linalg.norm(w)
    r = nabla(x, nabla(w, w)) - nabla(w, nabla(x, w)) - nabla(structure.algebra.bracket(x, w), w)
    product = structure.osculating_product
    denominator = product(w, w, w) * product(w, x, x) - product(w, w, x) ** 2
    return product(w, r, x) / denominator


class TestFlagPathAgainstReference:
    """The flag path against a K built without the frame, its closed-form
    inverse or its Cartan terms; unlike :func:`flag_report`, this reference
    does not share the flag path's stage 2."""

    @pytest.mark.parametrize("build", [nilpotent_algebra, solvable_algebra])
    @pytest.mark.parametrize("norm", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("dim", [5, 9, 16])
    def test_stacked_flags(self, dim, norm, build):
        rng = np.random.default_rng([dim, int(norm * 10), len(build.__name__), 20])
        structure = RandersStructure(build(rng, dim), norm * unit(rng, dim))
        w, x = rng.standard_normal((2, 4, dim))
        if norm:
            # a pole near -x0, where a = 1 + <x0, w> is smallest
            w[0] = -structure.x0 / norm + 0.3 * unit(rng, dim)
        report = flag_curvature(structure, w, x)
        assert not report.degenerate.any()
        scale = np.abs(structure.algebra.structure).max() ** 2
        for i in range(len(w)):
            expected = _frame_free_curvature(structure, w[i], x[i])
            assert abs(report.k[i] - expected) <= 1e-12 * (abs(expected) + scale)


class TestNearUnitDeformation:
    """Pole -Z as xi -> 1, where a = 1 + <x0, w> = 1 - xi is tiny and the
    osculating Gram matrix has smallest eigenvalue (1 - xi)^2."""

    @pytest.mark.parametrize("xi", [1 - 1e-6, 1 - 1e-9])
    @pytest.mark.parametrize("case_id", ["1.1", "1.2"])
    def test_center_pole_closed_forms(self, case_id, xi):
        structure = z_randers(2.0, 1.0, xi)
        closed = special_flag_closed_form(case_id, 2.0, 1.0, xi)
        rng = np.random.default_rng(0)
        for x in (special_flag_vectors(case_id)[1], special_flag_vectors(case_id, rng)[1]):
            assert abs(flag_curvature(structure, -Z, x).k - closed) <= TABLE1_TOL

    @pytest.mark.parametrize("xi", [1 - 1e-6, 1 - 1e-9])
    def test_connection_contracts(self, xi):
        table = chern_rund_table(z_randers(2.0, 1.0, xi).osculating_gram(-Z))
        assert torsion_defect(table) <= 1e-10
        assert almost_metric_defect(table) <= 1e-10


class TestNonFiniteInput:
    def test_nan_deformation_rejected(self):
        with pytest.raises(ParameterError):
            RandersStructure(heisenberg5(2.0, 1.0), [0, 0, 0, 0, np.nan])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_flag_vectors_rejected(self, structure, bad):
        with pytest.raises(ParameterError):
            flag_curvature(structure, [bad, 0, 0, 0, 0], E[1])
        with pytest.raises(ParameterError):
            flag_curvature(structure, E[0], [0, bad, 0, 0, 0])

    def test_non_finite_structure_constants_rejected(self):
        c = np.zeros((3, 3, 3))
        c[0, 1, 2], c[1, 0, 2] = np.inf, -np.inf
        with pytest.raises(ParameterError):
            MetricLieAlgebra(c)
