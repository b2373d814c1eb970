"""CLI output pinned across commits.

The determinism tests compare two runs of one build; these compare every run
with files under ``tests/golden/``: the ``table1`` CSVs, the stdout of every
subcommand, and sha256 digests of the ``connection-tables`` JSON files, at
three heisenberg5 presets (and the ``table1`` and ``connection-tables``
output at three extreme ones), plus one ``search`` on an explicit model whose
witnesses come from the random phase after the eight special flags, and
``verify`` on explicit models of dims 12 and 24, whose tables are built in
several blocks of poles.  The output path in a ``wrote <path>`` line is
replaced by ``<out>``.

``flag_kernel.json`` pins the flag kernel itself, bit for bit: ``float.hex``
of ``k`` and ``denominator`` for single flags, for stacked chunks of 8, 64
and 128 flags and for ``sign_search`` certificates, on heisenberg5 and on
random nilpotent and solvable algebras of dims 7-9, with and without
deformation, plus certificates on a model whose positive witnesses come only
after sample 120, from the random chunks of 128.

A change that moves output on purpose regenerates the files with
``python tests/test_golden.py``, run from any directory of a checkout
(its ``src`` goes first on ``sys.path``), which prints each entry
that moved (file, case, key and the count of changed items, where an item
is a list entry, a line of text or a digest), and says which bytes moved.
"""

import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    # run as a script from a checkout: the checkout's sources come first
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np
import pytest

from randersflag import RandersStructure, SearchFailure, flag_curvature, heisenberg5, sign_search
from randersflag.cli import main
from helpers import hyperbolic_plus_heisenberg, nilpotent_algebra, solvable_algebra, z_randers

GOLDEN = Path(__file__).parent / "golden"

PRESETS = ((2.0, 1.0, 0.5), (3.0, 0.7, 0.9), (1.3, 1.1, 0.2))

#: Presets at the edges of the domain, pinned for ``table1`` and
#: ``connection-tables`` only: large lam with tiny xi, xi near 1, and a
#: large-lam model with small xi.
EXTREME_PRESETS = ((1.5e5, 1e5, 1e-8), (1e3, 1e3, 1 - 1e-6), (2.03e4, 1.79e4, 6.8e-6))

#: A generic pole and transverse vector for ``flag``.
FLAG_W, FLAG_X = "0.3,-0.5,0.2,0.6,0.4", "-0.7,0.1,0.5,0.2,-0.3"

#: [e2, e3] = 1.5 e4 with a tilted deformation: the special flags give no
#: negative witness, and seed 31 finds one at sample 13.
RANDOM_PHASE_MODEL = {
    "explicit": {
        "dim": 5,
        "brackets": [{"i": 2, "j": 3, "k": 4, "value": 1.5}],
        "x0": [0, 0, 0.3, 0, 0.4],
    }
}


def explicit_config(structure) -> dict:
    """The ``explicit`` config document of a structure: one bracket entry
    per nonzero [e_i, e_j] with i < j, 1-based."""
    c = structure.algebra.structure
    brackets = [
        {"i": i + 1, "j": j + 1, "k": k + 1, "value": value}
        for (i, j, k), value in zip(np.argwhere(c).tolist(), c[c != 0].tolist())
        if i < j
    ]
    return {
        "explicit": {"dim": structure.dim, "brackets": brackets, "x0": structure.x0.tolist()}
    }


def verify_models() -> dict:
    """Explicit models with a general deformation whose ``verify`` builds
    its tables in several blocks: a nilpotent one of dim 12 (7 blocks of at
    most 4 poles) and a solvable one of dim 24 (one pole per block)."""
    models = {}
    for build, dim in ((nilpotent_algebra, 12), (solvable_algebra, 24)):
        rng = np.random.default_rng([1604, dim])
        algebra = build(rng, dim)
        x0 = rng.standard_normal(dim)
        models[f"verify-{build.__name__.split('_')[0]}{dim}"] = explicit_config(
            RandersStructure(algebra, 0.6 * x0 / np.linalg.norm(x0))
        )
    return models


#: Seeds of the ``sign_search`` certificates pinned per flag-kernel model.
KERNEL_SEARCH_SEEDS = (0, 1, 7, 31, 2**40)

#: Seeds at which :func:`hyperbolic_plus_heisenberg` finds its positive
#: witness after sample 120: at samples 416 and 121.
LATE_WITNESS_SEEDS = (5, 53)


def kernel_models() -> dict:
    """Model name -> structure of the flag-kernel case, from fixed seeds."""
    rng = np.random.default_rng(1604)

    def deformed(algebra, norm):
        x0 = rng.standard_normal(algebra.dim)
        return RandersStructure(algebra, norm * x0 / np.linalg.norm(x0))

    models = {
        "heisenberg5-z": z_randers(2.0, 1.0, 0.5),
        "heisenberg5-tilted": deformed(heisenberg5(3.0, 0.7), 0.6),
        "heisenberg5-euclidean": deformed(heisenberg5(1.3, 1.1), 0.0),
    }
    for dim, build, norm in (
        (7, nilpotent_algebra, 0.4), (7, solvable_algebra, 0.0),
        (8, nilpotent_algebra, 0.0), (8, solvable_algebra, 0.7),
        (9, nilpotent_algebra, 0.9), (9, solvable_algebra, 0.0),
    ):
        models[f"{build.__name__.split('_')[0]}{dim}-x0-{norm}"] = deformed(build(rng, dim), norm)
    return models


def _hex(*values) -> str:
    return " ".join(float(v).hex() for v in values)


def _searches(structure, seeds) -> list[str]:
    """``sign_search`` certificates at ``seeds``: samples tried, then k and
    denominator of the positive and negative witness, or the failure."""
    searches = []
    for seed in seeds:
        try:
            c = sign_search(structure, seed)
        except SearchFailure as exc:
            searches.append(f"{seed} {exc}")
            continue
        positive, negative = c.positive_witness, c.negative_witness
        values = _hex(positive.k, positive.denominator, negative.k, negative.denominator)
        searches.append(f"{seed} {c.samples_tried} {values}")
    return searches


def flag_kernel_outputs() -> dict:
    """Per model, ``k`` and ``denominator`` in ``float.hex`` of 12 generic
    single flags, one degenerate single flag (x parallel to w), stacked
    chunks of 8, 64 and 128 flags, and the certificates of
    ``KERNEL_SEARCH_SEEDS``; then the certificates of ``LATE_WITNESS_SEEDS``
    on :func:`hyperbolic_plus_heisenberg`.  The 128-flag chunk has a
    generator of its own, so the other entries keep their draws."""
    outputs = {}
    for name, structure in kernel_models().items():
        rng = np.random.default_rng([1604, structure.dim])
        flags = rng.standard_normal((12 + 8 + 64, 2, structure.dim))
        chunk128 = np.random.default_rng([1604, structure.dim, 128]).standard_normal(
            (128, 2, structure.dim)
        )
        singles = [flag_curvature(structure, w, x) for w, x in flags[:12]]
        singles.append(flag_curvature(structure, flags[0, 0], 3.0 * flags[0, 0]))
        entry = {"single": [_hex(r.k, r.denominator) for r in singles]}
        chunks = (("chunk8", flags[12:20]), ("chunk64", flags[20:]), ("chunk128", chunk128))
        for label, chunk in chunks:
            report = flag_curvature(structure, chunk[:, 0], chunk[:, 1])
            entry[label] = [_hex(*pair) for pair in zip(report.k, report.denominator)]
        entry["search"] = _searches(structure, KERNEL_SEARCH_SEEDS)
        outputs[name] = entry
    outputs["hyperbolic5+heisenberg3"] = {
        "search": _searches(hyperbolic_plus_heisenberg(), LATE_WITNESS_SEEDS)
    }
    return outputs


def golden_cases() -> dict:
    """Case name -> (argv, config document or None).  ``{out}`` and
    ``{config}`` in argv stand for a file in the run's directory."""
    cases = {}
    for lam, mu, xi in PRESETS + EXTREME_PRESETS:
        tag = f"{lam}-{mu}-{xi}"
        options = ["--lambda", str(lam), "--mu", str(mu), "--xi", str(xi), "--out", "{out}"]
        cases[f"table1-{tag}"] = (["table1", *options], None)
        cases[f"connection-tables-{tag}"] = (["connection-tables", *options], None)
    for lam, mu, xi in PRESETS:
        tag = f"{lam}-{mu}-{xi}"
        preset = {"preset": {"name": "heisenberg5", "lambda": lam, "mu": mu, "xi": xi}}
        flag = ["flag", "--config", "{config}", f"--w={FLAG_W}", f"--x={FLAG_X}"]
        cases[f"flag-{tag}"] = (flag, preset)
        cases[f"search-{tag}"] = (["search", "--config", "{config}", "--seed", "7"], preset)
        cases[f"verify-{tag}"] = (["verify", "--config", "{config}"], preset)
    cases["search-random-phase"] = (
        ["search", "--config", "{config}", "--seed", "31"],
        RANDOM_PHASE_MODEL,
    )
    for name, config in verify_models().items():
        cases[name] = (["verify", "--config", "{config}"], config)
    return cases


def run_case(workdir: Path, name: str) -> tuple[int, str, bytes | None]:
    """Exit code, normalized stdout and output file bytes (None when the
    command writes no file) of one case, run in-process in ``workdir``."""
    argv, config = golden_cases()[name]
    out = workdir / f"{name}.out"
    config_path = workdir / f"{name}.json"
    if config is not None:
        config_path.write_text(json.dumps(config), encoding="utf-8")
    argv = [arg.format(out=out, config=config_path) for arg in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    written = out.read_bytes() if out.exists() else None
    return code, stdout.getvalue().replace(str(out), "<out>"), written


def _expected_stdout() -> dict:
    return json.loads((GOLDEN / "stdout.json").read_text(encoding="utf-8"))


def _expected_digests() -> dict:
    lines = (GOLDEN / "connection-tables.sha256").read_text(encoding="utf-8").splitlines()
    return {name: digest for digest, name in (line.split() for line in lines)}


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_cli_output_matches_golden(tmp_path, name):
    code, stdout, written = run_case(tmp_path, name)
    expected = _expected_stdout()[name]
    assert (code, stdout) == (expected["exit"], expected["stdout"])
    if name.startswith("table1-"):
        assert written == (GOLDEN / f"{name}.csv").read_bytes()
    elif name.startswith("connection-tables-"):
        assert hashlib.sha256(written).hexdigest() == _expected_digests()[name]
    else:
        assert written is None


def test_random_phase_case_leaves_the_special_flags():
    document = json.loads(_expected_stdout()["search-random-phase"]["stdout"])
    assert document["samples_tried"] > 8


def test_late_witnesses_come_from_the_random_chunks_of_128():
    expected = json.loads((GOLDEN / "flag_kernel.json").read_text(encoding="utf-8"))
    for certificate in expected["hyperbolic5+heisenberg3"]["search"]:
        assert int(certificate.split()[1]) > 120


def test_moved_names_each_changed_entry():
    before = {
        "flag_kernel.json": {"m": {"single": ["a", "b", "c"], "search": ["s"]}},
        "stdout.json": {"flag": {"exit": 0, "stdout": "one\ntwo\n"}},
        "connection-tables.sha256": {"t": {"sha256": "0f"}},
    }
    after = {
        "flag_kernel.json": {"m": {"single": ["a", "B", "C"], "search": ["s"]}},
        "stdout.json": {"flag": {"exit": 0, "stdout": "one\nTWO\n"}, "new": {"exit": 1}},
        "connection-tables.sha256": {"t": {"sha256": "0f"}},
    }
    assert _moved(before, after) == [
        "flag_kernel.json m single: 2 of 3 items moved",
        "stdout.json flag stdout: 1 of 2 items moved",
        "stdout.json new exit: 1 of 1 items moved",
    ]
    assert _moved(after, after) == []


def test_flag_kernel_bits_match_golden():
    expected = json.loads((GOLDEN / "flag_kernel.json").read_text(encoding="utf-8"))
    assert flag_kernel_outputs() == expected


def _documents(stdout: dict, digests: dict, tables: dict, kernel: dict) -> dict:
    """File name -> {case: {key: value}}: the golden files as documents of
    one shape, for :func:`_moved`."""
    documents = {
        "stdout.json": stdout,
        "connection-tables.sha256": {name: {"sha256": d} for name, d in digests.items()},
        "flag_kernel.json": kernel,
    }
    for name, text in tables.items():
        documents[f"{name}.csv"] = {name: {"rows": text}}
    return documents


def _committed() -> dict:
    """The documents of :func:`_documents` read from ``tests/golden/``; a
    missing file reads as empty."""

    def read(load, default=None):
        try:
            return load()
        except FileNotFoundError:
            return {} if default is None else default

    tables = {
        path.stem: path.read_text(encoding="utf-8") for path in GOLDEN.glob("table1-*.csv")
    }
    kernel = read(lambda: json.loads((GOLDEN / "flag_kernel.json").read_text(encoding="utf-8")))
    return _documents(read(_expected_stdout), read(_expected_digests), tables, kernel)


def _items(value) -> list:
    """A golden value as a list of items: a list as it is, text as its
    lines, anything else as one item."""
    if isinstance(value, list):
        return value
    if isinstance(value, str):
        return value.splitlines()
    return [value]


def _moved(before: dict, after: dict) -> list[str]:
    """``file case key: m of n items moved`` for every entry of the golden
    documents ``after`` that differs from ``before``, where an entry absent
    from one side counts as empty and n is the count in ``after``."""
    lines = []
    for file in sorted(before.keys() | after.keys()):
        old, new = before.get(file, {}), after.get(file, {})
        for case in sorted(old.keys() | new.keys()):
            old_case, new_case = old.get(case, {}), new.get(case, {})
            for key in sorted(old_case.keys() | new_case.keys()):
                a, b = _items(old_case.get(key, [])), _items(new_case.get(key, []))
                changed = sum(x != y for x, y in itertools.zip_longest(a, b))
                if changed:
                    lines.append(f"{file} {case} {key}: {changed} of {len(b)} items moved")
    return lines


def regenerate(workdir: Path) -> list[str]:
    """Rewrite every file under ``tests/golden/`` from the current build and
    return the lines of :func:`_moved` against the files it replaced."""
    GOLDEN.mkdir(exist_ok=True)
    before = _committed()
    stdout, digests, tables = {}, {}, {}
    for name in sorted(golden_cases()):
        code, text, written = run_case(workdir, name)
        stdout[name] = {"exit": code, "stdout": text}
        if name.startswith("table1-"):
            tables[name] = written.decode("utf-8")
            (GOLDEN / f"{name}.csv").write_bytes(written)
        elif name.startswith("connection-tables-"):
            digests[name] = hashlib.sha256(written).hexdigest()
    kernel = flag_kernel_outputs()
    (GOLDEN / "stdout.json").write_text(json.dumps(stdout, indent=2) + "\n", encoding="utf-8")
    (GOLDEN / "connection-tables.sha256").write_text(
        "".join(f"{digest}  {name}\n" for name, digest in digests.items()), encoding="utf-8"
    )
    (GOLDEN / "flag_kernel.json").write_text(
        json.dumps(kernel, indent=1) + "\n", encoding="utf-8"
    )
    return _moved(before, _documents(stdout, digests, tables, kernel))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        print("\n".join(regenerate(Path(scratch))) or "nothing moved")
