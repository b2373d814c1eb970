"""Subcommand options fuzzed through :func:`randersflag.cli.main`.

Every ``table1``/``connection-tables`` ``--lambda``/``--mu``/``--xi`` triple,
admissible or not, must end in a documented outcome: exit 0 or 1 with one
status line on stdout and the CSV or the indent-2 JSON document written, or
exit 2 with one stderr line and nothing on stdout; never an exception or a
numpy warning.  The values mix huge, tiny, subnormal, zero, negative,
infinite and NaN numbers with ordinary ones, and half the triples are
admissible (lam >= mu > 0, 0 < xi < 1) at extreme scales, so the closed
forms, the kernel and the overflow checks all run.

``flag --w/--x`` vectors (of those values, of the wrong length, or not
numbers at all) and ``search --seed/--max-samples`` values (zero, negative,
huge, fractional or not numbers) must likewise end in exit 0 or 1 with one
JSON line, exit 1 with one stderr line for a search that runs out of
samples (a flat model, or a budget below the heisenberg5 witnesses'
samples), or exit 2 with one stderr line; argparse's own refusals included.
Huge budgets go only to the heisenberg5 preset, which certifies on its
eight special flags, and a flat model gets budgets of at most 64 samples.

Each value is passed as ``--opt v`` or as ``--opt=v``, so negative values
such as ``-1e-300`` and ``-inf`` must read as values in both forms.

Every report example writes to one path, over the file of the example
before it: CSV and JSON alternate there, so a stale tail left by a shorter
rewrite fails the content checks.

Hypothesis runs derandomized, so every run draws the same examples."""

import csv
import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from randersflag.cli import EXIT_USAGE, EXIT_VERDICT, TABLE1_TOL
from helpers import run_main

#: Values at the edges of double range and of the model's domain.
EDGES = (
    0.0, -0.0, 5e-324, 2.2e-308, 1e-300, 1e-160, 1e-12, 1e-8, 0.5, 1.0 - 2.0**-53, 1.0,
    2.0, 1e3, 1e51, 1e102, 1e154, 1e160, 1.7e308, math.inf, -math.inf, math.nan, -1.0,
    -1e-300,
)

VALUES = st.one_of(st.sampled_from(EDGES), st.floats())

#: Positive scales for mu, ratios lam / mu >= 1 and xi inside (0, 1).
SCALES = st.one_of(
    st.sampled_from([5e-324, 1e-300, 1e-160, 1e-8, 1.0, 1e51, 1e102, 1e154, 1.7e308]),
    st.floats(1e-8, 1e8),
)
RATIOS = st.one_of(st.sampled_from([1.0, 1.0 + 2.0**-52, 2.0, 1e10, 1e200]), st.floats(1.0, 1e4))
XIS = st.one_of(
    st.sampled_from([5e-324, 1e-300, 1e-12, 0.5, 1.0 - 1e-12, 1.0 - 2.0**-53]),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)


@st.composite
def triples(draw):
    if draw(st.booleans()):
        return draw(VALUES), draw(VALUES), draw(VALUES)
    mu = draw(SCALES)
    return mu * draw(RATIOS), mu, draw(XIS)


def options(pairs, spaced) -> list[str]:
    """``--opt v`` or ``--opt=v`` per (option, value) pair, as ``spaced``
    says."""
    argv = []
    for (option, value), apart in zip(pairs, spaced):
        argv += [option, value] if apart else [f"{option}={value}"]
    return argv


def assert_usage_error(code, text, err):
    assert code == EXIT_USAGE and text == ""
    assert len(err.splitlines()) == 1


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    command=st.sampled_from(["table1", "connection-tables"]),
    params=triples(),
    spaced=st.lists(st.booleans(), min_size=4, max_size=4),
)
# case 2.2's closed form overflows to -inf by a product, which does not raise
@example(command="table1", params=(1e154, 1e154, 5e-324), spaced=[True] * 4)
def test_every_triple_has_a_documented_outcome(tmp_path_factory, command, params, spaced):
    out = tmp_path_factory.getbasetemp() / "fuzzed-report"
    lam, mu, xi = params
    pairs = zip(("--lambda", "--mu", "--xi", "--out"), (repr(lam), repr(mu), repr(xi), str(out)))
    code, text, err = run_main([command, *options(pairs, spaced)])
    if code == EXIT_USAGE:
        assert_usage_error(code, text, err)
        return
    assert code in (0, 1) and err == ""
    assert text.startswith(f"{command}: wrote {out}; ") and text.count("\n") == 1
    written = out.read_text(encoding="utf-8")
    if command == "table1":
        rows = list(csv.reader(written.splitlines()))
        assert rows[0] == [
            "case", "flag_pole", "transverse", "k_computed", "k_closed_form", "abs_err"
        ]
        assert len(rows) == 9 and all(len(row) == 6 for row in rows)
        numbers = [[float(value) for value in row[3:]] for row in rows[1:]]
        assert all(math.isfinite(value) for row in numbers for value in row)
        _, closed, errors = zip(*numbers)
        bound = TABLE1_TOL * max(1.0, max(map(abs, closed)))
        assert (max(errors) <= bound) == (code == 0)
    else:
        assert written == json.dumps(json.loads(written), indent=2) + "\n"


HEISENBERG = {"preset": {"name": "heisenberg5", "lambda": 2.0, "mu": 1.0, "xi": 0.5}}
FLAT = {"explicit": {"dim": 5, "brackets": [], "x0": [0, 0, 0, 0, 0.3]}}

#: Option values that are not numbers, or not of the option's type.
NOT_NUMBERS = ("", "abc", ",", "1,,2", "0x10", "1_000", "--", "-", "-h", "1e999e1", "nan,")


@st.composite
def vectors(draw):
    """A ``--w``/``--x`` value: comma-separated floats, five of them (the
    preset's dim) or a wrong number, or a token that is no float list."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.one_of(st.sampled_from(NOT_NUMBERS), st.text(max_size=12)))
    size = draw(st.sampled_from([5, 5, 5, 5, 1, 4, 6]))
    entries = st.lists(st.one_of(VALUES, st.floats(-1e3, 1e3)), min_size=size, max_size=size)
    return ",".join(map(repr, draw(entries)))


#: ``--seed``/``--max-samples`` values: zero, negative, huge, fractional,
#: spelled as floats, and integers of any size.
COUNTS = st.one_of(
    st.sampled_from(
        ["8", str(2**64), str(10**30), "0", "-0", "-1", "-1e3", "1.5", "2.5", "1e3",
         "-" + str(2**70), *NOT_NUMBERS]
    ),
    st.integers(0, 2**70).map(str),
    st.integers(-(2**70), -1).map(str),
)

#: Budgets for heisenberg5, half of them valid and up to 2**70 samples.
BUDGETS = st.one_of(COUNTS, st.integers(1, 2**70).map(str))

#: Budgets for the flat model, which no budget certifies: at most 64.
SMALL_COUNTS = st.one_of(st.integers(1, 64).map(str), st.sampled_from(["0", "-1", "1.5", "abc"]))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data(), spaced=st.lists(st.booleans(), min_size=3, max_size=3))
def test_flag_and_search_options_have_a_documented_outcome(tmp_path_factory, data, spaced):
    command = data.draw(st.sampled_from(["flag", "search"]))
    flat = command == "search" and data.draw(st.booleans())
    config = tmp_path_factory.getbasetemp() / ("flat.json" if flat else "heisenberg5.json")
    config.write_text(json.dumps(FLAT if flat else HEISENBERG), encoding="utf-8")
    if command == "flag":
        values = [("--w", data.draw(vectors())), ("--x", data.draw(vectors()))]
    else:
        budget = data.draw(SMALL_COUNTS if flat else BUDGETS)
        values = [("--seed", data.draw(COUNTS)), ("--max-samples", budget)]
    pairs = [("--config", str(config)), *values]
    code, text, err = run_main([command, *options(pairs, spaced)])
    if code == EXIT_USAGE:
        assert_usage_error(code, text, err)
    elif command == "search" and code == EXIT_VERDICT:
        # a budget too small for the special flags, or a flat model
        assert text == "" and err.startswith("search failure: ") and err.count("\n") == 1
    else:
        assert code in (0, 1) and err == "" and text.count("\n") == 1
        document = json.loads(text)
        if command == "search":
            assert not flat and document["samples_tried"] <= 8
        else:
            assert (code == EXIT_VERDICT) == document["degenerate"]
