"""Explicit model configs fuzzed through :func:`randersflag.cli.main`.

Every document, well formed or not, must end in a documented outcome: exit 0
or 1 with JSON on stdout (a failed search prints none, but one stderr line)
or exit 2 with one stderr line, never an exception or a numpy warning; a
bracket value or an ``x0`` entry that is not a JSON number always ends in
exit 2.  The
documents mix wrong types, non-integral and boolean indices, out-of-range and
duplicate bracket entries, huge finite values, an ``x0`` of the wrong length
or shape and ``dim`` of 0, -1, 10**400 and just above ``MAX_EXPLICIT_DIM``.  Documents
within the cap keep ``dim`` at 12 or below, and one above it is rejected
before anything of its size is allocated, so no example needs more than a
few MB.

Hypothesis runs derandomized, so every run draws the same examples."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randersflag.cli import MAX_EXPLICIT_DIM
from helpers import run_main

FUZZ_SETTINGS = settings(derandomize=True, max_examples=20, deadline=None)

#: Finite values far outside any curvature scale: brackets this large
#: overflow the kernel or the Jacobi check, deformations its norm bound.
HUGE = (1e150, -1e160, 1e300, -1.7e308, 10**400)

#: Anything but a number.
JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.lists(st.integers(0, 3), max_size=2)
)


def _numbers(scale: float):
    return st.one_of(st.floats(-scale, scale, allow_nan=False), st.integers(-2, 2))


def _bad_index(dim: int):
    """Bracket indices that are out of range or not integers."""
    return st.one_of(
        st.sampled_from([-1, 0, dim + 1, 10**400]),
        st.floats(0.5, dim + 0.5).filter(lambda v: not v.is_integer()),
        st.booleans(),
        JUNK,
    )


@st.composite
def _valid_section(draw):
    """A well-formed 2-step nilpotent model: every bracket lands in the
    central e_dim, so the Jacobi identity holds and the model reaches the
    kernel; indices may be integral floats, and entries may repeat."""
    dim = draw(st.integers(1, 12))
    entries = []
    if dim >= 3:
        for _ in range(draw(st.integers(0, 6))):
            i = draw(st.integers(1, dim - 2))
            j = draw(st.integers(i + 1, dim - 1))
            if draw(st.booleans()):
                i, j = j, i
            entry = {"i": i, "j": j, "k": dim, "value": draw(_numbers(3.0))}
            if draw(st.booleans()):
                entry["i"] = float(i)  # integral floats pass
            entries.append(entry)
    bound = 0.9 / dim**0.5
    x0 = draw(st.lists(st.floats(-bound, bound), min_size=dim, max_size=dim))
    return {"dim": dim, "brackets": entries, "x0": x0}


#: The ways a document is spoiled, one per run of the fuzz test so that each
#: gets its share of examples; None leaves it well formed.
SPOILS = (
    None, "dim range", "dim type", "brackets", "entry", "index", "value", "duplicate",
    "x0", "x0 length", "x0 shape", "missing",
)


@st.composite
def explicit_documents(draw, spoil):
    """``(document, dim, refused)``: a config document with an explicit
    model, well formed or spoiled in one way, the dim its flag vectors take
    and whether it holds a number that is not a JSON number, which the
    parser must refuse."""
    section = draw(_valid_section())
    refused = False
    dim = section["dim"]
    entries = section["brackets"]
    if spoil == "dim range":
        section["dim"] = draw(st.sampled_from([0, -1, 10**400, MAX_EXPLICIT_DIM + 1]))
    elif spoil == "dim type":
        section["dim"] = draw(st.one_of(st.sampled_from([2.5, True]), JUNK))
    elif spoil == "brackets":
        section["brackets"] = draw(JUNK)
    elif spoil == "entry":
        entries.append(draw(st.one_of(JUNK, st.dictionaries(st.sampled_from("ijkv"), JUNK))))
    elif spoil == "index":
        entry = {"i": 1, "j": 2, "k": dim, "value": 1.0}
        entry[draw(st.sampled_from("ijk"))] = draw(_bad_index(dim))
        entries.append(entry)
    elif spoil == "value":
        # huge brackets overflow the Jacobi check or the kernel
        refused = draw(st.booleans())
        value = draw(JUNK if refused else st.sampled_from(HUGE))
        entries.append({"i": 1, "j": min(2, dim), "k": dim, "value": value})
    elif spoil == "duplicate":
        # a repeated entry, or one that sets the counterpart [e_j, e_i]
        entry = draw(st.sampled_from(entries)) if entries else {"i": 1, "j": 2, "k": dim}
        if draw(st.booleans()):
            entry = dict(entry, i=entry["j"], j=entry["i"])
        entries.append(dict(entry, value=draw(_numbers(3.0))))
    elif spoil == "x0":
        refused = draw(st.booleans())
        entry = draw(JUNK if refused else st.sampled_from(HUGE))
        section["x0"][draw(st.integers(0, dim - 1))] = entry
    elif spoil == "x0 length":
        section["x0"] = section["x0"][:-1] if draw(st.booleans()) else section["x0"] + [0.0]
    elif spoil == "x0 shape":
        section["x0"] = draw(st.one_of(st.just([section["x0"]]), JUNK))
    elif spoil == "missing":
        del section[draw(st.sampled_from(sorted(section)))]
    return {"explicit": section}, dim, refused


def _vector(size: int, first: float) -> str:
    return ",".join([str(first)] + ["0.25"] * (size - 1))


@pytest.mark.parametrize("spoil", SPOILS)
@FUZZ_SETTINGS
@given(data=st.data())
def test_every_document_has_a_documented_outcome(tmp_path_factory, spoil, data):
    document, size, refused = data.draw(explicit_documents(spoil))
    command = data.draw(st.sampled_from(["flag", "search", "verify"]))
    config = tmp_path_factory.getbasetemp() / "fuzzed-config.json"
    config.write_text(json.dumps(document), encoding="utf-8")
    argv = {
        "flag": ["flag", "--config", str(config), f"--w={_vector(size, 1.0)}",
                 f"--x={_vector(size, -0.5)}"],
        "search": ["search", "--config", str(config), "--seed", "3", "--max-samples", "16"],
        "verify": ["verify", "--config", str(config)],
    }[command]
    code, out, err = run_main(argv)
    assert code == 2 or not refused
    if code == 2:
        assert out == ""
        assert len(err.splitlines()) == 1
    elif out:
        # success, a degenerate flag (exit 1) or a failed verify (exit 1
        # and one stderr line)
        assert code in (0, 1)
        json.loads(out)
        assert len(err.splitlines()) <= code
    else:
        # a failed search: exit 1, one stderr line and no JSON
        assert (code, len(err.splitlines())) == (1, 1)
