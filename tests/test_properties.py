"""Property tests of the stacked flag path on random 2-step nilpotent and
rank-one solvable algebras of dimension 5 to 12.

Hypothesis runs derandomized, so every run draws the same examples."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randersflag import RandersStructure, flag_curvature
from randersflag.curvature import _flag_curvatures
from helpers import nilpotent_algebra, solvable_algebra, unit

FAMILIES = {"nilpotent": nilpotent_algebra, "solvable": solvable_algebra}

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def stacked_flags(draw):
    """A random Randers structure with a stack of 1-6 random flags."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    dim = draw(st.integers(5, 12))
    deformation = draw(st.floats(0.0, 0.9))
    rows = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    structure = RandersStructure(FAMILIES[family](rng, dim), deformation * unit(rng, dim))
    w, x = rng.standard_normal((2, rows, dim))
    return structure, w, x


@PROPERTY_SETTINGS
@given(stacked_flags(), st.integers(-30, 30))
def test_zero_homogeneity_in_pole(flags, exponent):
    # scaling by a power of two leaves the normalized poles bit for bit
    structure, w, x = flags
    _, k, _, _ = _flag_curvatures(structure, w, x)
    _, scaled, _, _ = _flag_curvatures(structure, 2.0**exponent * w, x)
    assert np.array_equal(scaled, k, equal_nan=True)


@PROPERTY_SETTINGS
@given(stacked_flags(), st.floats(0.2, 2.0), st.booleans(), st.floats(-2.0, 2.0))
def test_invariance_under_transverse_mixing(flags, size, flip, shift):
    # K(w, a x + b w) = K(w, x): the flag plane is the same
    structure, w, x = flags
    a = -size if flip else size
    _, k, _, degenerate = _flag_curvatures(structure, w, x)
    _, mixed, _, _ = _flag_curvatures(structure, w, a * x + shift * w)
    assert not degenerate.any()
    np.testing.assert_allclose(mixed, k, rtol=1e-9, atol=0.0)


@PROPERTY_SETTINGS
@given(stacked_flags())
def test_stacked_rows_match_unbatched_calls(flags):
    structure, w, x = flags
    frame, k, denominator, degenerate = _flag_curvatures(structure, w, x)
    for i in range(len(w)):
        single = flag_curvature(structure, w[i], x[i])
        assert np.array_equal(frame.w[i], single.w)
        assert bool(degenerate[i]) == single.degenerate
        assert denominator[i] == pytest.approx(single.denominator, rel=1e-13, abs=0.0)
        assert k[i] == pytest.approx(single.k, rel=1e-13, abs=0.0)
