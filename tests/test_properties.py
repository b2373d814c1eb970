"""Property tests of the stacked flag path, the connection contracts and the
Cartan tensor on random 2-step nilpotent and rank-one solvable algebras of
dimension 5 to 12 (to 24 for stacked against one-flag calls), and of the
``connection-tables`` file over admissible heisenberg5 parameters.

Hypothesis runs derandomized, so every run draws the same examples."""

import itertools
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from randersflag import (
    RandersStructure,
    almost_metric_defect,
    chern_rund_table,
    flag_curvature,
    torsion_defect,
)
from randersflag import cli
from helpers import nilpotent_algebra, solvable_algebra, tables_document, unit

FAMILIES = {"nilpotent": nilpotent_algebra, "solvable": solvable_algebra}

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def stacked_flags(draw, max_dim=12):
    """A random Randers structure of dimension 5 to ``max_dim`` with a stack
    of 1-6 random flags."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    dim = draw(st.integers(5, max_dim))
    deformation = draw(st.floats(0.0, 0.9))
    rows = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    structure = RandersStructure(FAMILIES[family](rng, dim), deformation * unit(rng, dim))
    w, x = rng.standard_normal((2, rows, dim))
    return structure, w, x


@st.composite
def models(draw):
    """A random Randers structure with ||x0|| <= 0.9, and the generator that
    drew it, for drawing vectors."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    dim = draw(st.integers(5, 12))
    deformation = draw(st.floats(0.0, 0.9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return RandersStructure(FAMILIES[family](rng, dim), deformation * unit(rng, dim)), rng


@PROPERTY_SETTINGS
@given(stacked_flags(), st.integers(-30, 30))
def test_zero_homogeneity_in_pole(flags, exponent):
    # scaling by a power of two leaves the normalized poles bit for bit
    structure, w, x = flags
    k = flag_curvature(structure, w, x).k
    scaled = flag_curvature(structure, 2.0**exponent * w, x).k
    assert np.array_equal(scaled, k, equal_nan=True)


@PROPERTY_SETTINGS
@given(stacked_flags(), st.floats(0.2, 2.0), st.booleans(), st.floats(-2.0, 2.0))
def test_invariance_under_transverse_mixing(flags, size, flip, shift):
    # K(w, a x + b w) = K(w, x): the flag plane is the same
    structure, w, x = flags
    a = -size if flip else size
    report = flag_curvature(structure, w, x)
    mixed = flag_curvature(structure, w, a * x + shift * w).k
    assert not report.degenerate.any()
    np.testing.assert_allclose(mixed, report.k, rtol=1e-9, atol=0.0)


@PROPERTY_SETTINGS
@given(stacked_flags(max_dim=24))
def test_stacked_rows_match_unbatched_calls(flags):
    # each row of a stack is the one-flag call, bit for bit
    structure, w, x = flags
    report = flag_curvature(structure, w, x)
    for i in range(len(w)):
        single = flag_curvature(structure, w[i], x[i])
        assert np.array_equal(report.w[i], single.w)
        assert bool(report.degenerate[i]) == single.degenerate
        assert report.denominator[i] == single.denominator
        assert np.array_equal(report.k[i], single.k, equal_nan=True)


@PROPERTY_SETTINGS
@given(models())
def test_connection_contracts(model):
    # torsion-free and almost metric-compatible at a random pole
    structure, rng = model
    table = chern_rund_table(structure.osculating_gram(rng.standard_normal(structure.dim)))
    assert torsion_defect(table) <= 1e-10
    assert almost_metric_defect(table) <= 1e-10


@PROPERTY_SETTINGS
@given(models(), st.integers(1, 6))
def test_cartan_matrix_totally_symmetric(model, rows):
    # u @ _cartan_matrix(v) @ x = 2 C_w(u, v, x) takes its slots in any order
    # and matches the closed form of RandersStructure.cartan
    structure, rng = model
    w, u, v, x = rng.standard_normal((4, rows, structure.dim))
    frame = structure.osculating_gram(w)

    def twice_cartan(a, b, c):
        return np.vecdot(a, np.matvec(frame._cartan_matrix(b), c))

    cartan = twice_cartan(u, v, x)
    scale = np.linalg.norm(u, axis=-1) * np.linalg.norm(v, axis=-1) * np.linalg.norm(x, axis=-1)
    assert (np.abs(cartan - 2.0 * structure.cartan(w, u, v, x)) <= 1e-12 * scale).all()
    for a, b, c in itertools.permutations((u, v, x)):
        assert (np.abs(twice_cartan(a, b, c) - cartan) <= 1e-12 * scale).all()


def _float_hexes(value):
    """The floats of a JSON document in document order, by ``float.hex``,
    which tells -0.0 from 0.0."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [text for item in value for text in _float_hexes(item)]
    return [value.hex()] if isinstance(value, float) else []


#: ``lambda`` and ``mu`` up to 1e45: near 1e51 the closed-form cells'
#: squared norms leave double range, which is a usage error.
BRACKETS = st.floats(1e-300, 1e45)


@PROPERTY_SETTINGS
@given(BRACKETS, BRACKETS, st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_connection_tables_file_reads_back(a, b, xi):
    # the file is indent-2 JSON whose numbers read back bit for bit, the
    # sign of every zero included
    mu, lam = sorted((a, b))
    emitter = mock.patch.object(cli, "connection_tables_json", wraps=cli.connection_tables_json)
    with tempfile.TemporaryDirectory() as directory, emitter as spy:
        out = Path(directory) / "tables.json"
        argv = ["--lambda", repr(lam), "--mu", repr(mu), "--xi", repr(xi), "--out", str(out)]
        assert cli.main(["connection-tables", *argv]) in (cli.EXIT_OK, cli.EXIT_VERDICT)
        text = out.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    hexes = _float_hexes(tables_document(*spy.call_args.args))
    assert _float_hexes(json.loads(text)) == hexes
    assert (-0.0).hex() in hexes  # the closed forms hold negative zeros
