"""``table1`` and ``connection-tables`` options fuzzed through
:func:`randersflag.cli.main`.

Every ``--lambda``/``--mu``/``--xi`` triple, admissible or not, must end in a
documented outcome: exit 0 or 1 with one status line on stdout and the CSV
or the indent-2 JSON document written, or exit 2 with one stderr line and
nothing on stdout; never an exception or a numpy warning.  The values mix
huge, tiny, subnormal, zero, negative, infinite and NaN numbers with
ordinary ones, and half the triples are admissible (lam >= mu > 0,
0 < xi < 1) at extreme scales, so the closed forms, the kernel and the
overflow checks all run.  Each value is passed as ``--opt v`` or as
``--opt=v``, so negative values such as ``-1e-300`` and ``-inf`` must read
as values in both forms.

Every example writes to one path, over the file of the example before it:
CSV and JSON alternate there, so a stale tail left by a shorter rewrite
fails the content checks.

Hypothesis runs derandomized, so every run draws the same examples."""

import csv
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from randersflag.cli import EXIT_USAGE
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


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    command=st.sampled_from(["table1", "connection-tables"]),
    params=triples(),
    spaced=st.lists(st.booleans(), min_size=4, max_size=4),
)
def test_every_triple_has_a_documented_outcome(tmp_path_factory, command, params, spaced):
    out = tmp_path_factory.getbasetemp() / "fuzzed-report"
    lam, mu, xi = params
    argv = [command]
    for option, value, apart in zip(
        ("--lambda", "--mu", "--xi", "--out"), (repr(lam), repr(mu), repr(xi), str(out)), spaced
    ):
        argv += [option, value] if apart else [f"{option}={value}"]
    code, text, err = run_main(argv)
    if code == EXIT_USAGE:
        assert text == ""
        assert len(err.splitlines()) == 1
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
        for row in rows[1:]:
            [float(value) for value in row[3:]]
    else:
        assert written == json.dumps(json.loads(written), indent=2) + "\n"
