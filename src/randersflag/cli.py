"""Command-line front end with deterministic CSV/JSON emission.

Subcommands: ``table1`` (special-flag curvature families as CSV),
``connection-tables`` (closed-form connection blocks as JSON), ``flag``
(single flag query), ``search`` (sign certification), ``verify`` (residual
self-checks).  Exit codes: 0 success, 1 tolerance or verdict failure,
2 usage/config error, 3 I/O error; each error prints one stderr line.

``--out`` receives exactly the UTF-8 bytes of the text, with no newline
translation (the bytes POSIX text files get), by :func:`write_output`: an
existing file is overwritten in place and then cut to length, a target that
is not a regular file (``/dev/null``, a FIFO) is written as a stream, and a
file whose write fails is emptied before the command exits 3.  An option
value that reads as comma-separated floats is a value even when it starts
with ``-``: ``--xi -1e-3`` and ``--w -0.3,0.5,...`` need no ``=``.

``table1`` passes when its largest error is at most ``TABLE1_TOL`` times
max(1, largest |closed form|), ``connection-tables`` when each cell's defect
is at most ``CONNECTION_TOL`` times max(1, |direction| |argument| times the
largest |coefficient| of the table at the cell's pole); the printed errors
and defects are absolute.  ``verify``'s table checks are bounded likewise,
by their tolerance times max(1, largest |coefficient| of their tables), and
print that bound as ``tolerance``.  ``connection-tables`` writes the bytes
of ``json.dumps(document, indent=2)`` plus a newline (two spaces per level,
one number per line, numbers spelled by ``repr``, non-finite ones as
``NaN``, ``Infinity``, ``-Infinity``): :func:`connection_tables_json` fills
json's own layout of the document's skeleton, built once per layout, with
one ``%``, spelling each distinct bit pattern once.  ``search --seed`` must
be nonnegative; a negative seed is a usage error.

``table1`` and ``connection-tables`` take the heisenberg5 parameters as
options; ``flag``, ``search`` and ``verify`` read a model config, a single
JSON document with exactly one of::

    {"preset": {"name": "heisenberg5", "lambda": 2.0, "mu": 1.0, "xi": 0.5}}
    {"explicit": {"dim": 5,
                  "brackets": [{"i": 1, "j": 2, "k": 5, "value": 2.0}],
                  "x0": [0, 0, 0, 0, 0.5]}}

Indices in config files are 1-based (e_1..e_n); each bracket entry sets
[e_i, e_j] and implies the antisymmetric counterpart.  The preset encodes the
deformation x0 = xi * Z with 0 < xi < 1; for the plain Euclidean case use an
explicit model with x0 = 0.  Config numbers follow one rule: the preset
parameters, the bracket values and the entries of x0 are JSON numbers, an
int or a float (``true``, ``"1.5"`` and ``null`` are refused), and ``dim``
and the bracket indices are JSON integers (``5.0`` passes, ``5.7`` does
not).  A config parses straight to a
:class:`RandersStructure`; the library's own checks (finite structure
constants, x0 of length dim, finite, of norm < 1) surface as
:class:`ConfigError`, as do bytes that are not UTF-8, malformed JSON,
documents nested too deeply to read or to quote, numbers that break the rule,
out-of-range indices and structure constants that fail the Jacobi identity.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import stat
import sys

import numpy as np

from .connection import (
    almost_metric_defect,
    chern_rund_table,
    chern_rund_tables,
    torsion_defect,
)
from .curvature import FlagReport, flag_curvature, sign_search
from .errors import ConfigError, GeometryError, ParameterError, SearchFailure
from .lie_algebra import MetricLieAlgebra, _bilinear, _frozen, _levi_civita
from .randers import RandersStructure, _normalized, _stencil
from .reference_tables import (
    SPAN_LABELS,
    SPECIAL_FLAG_CASES,
    SPECIAL_FLAG_SPANS,
    reference_blocks,
    reference_poles,
    special_flag_closed_form,
    special_flag_vectors,
    z_randers,
)

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_IO = 3

#: Verdict tolerances of ``table1`` and ``connection-tables``, relative to
#: max(1, scale): for ``table1`` the largest |closed form| curvature, for
#: each ``connection-tables`` cell |direction| |argument| times the largest
#: |coefficient| of the table at its pole.
TABLE1_TOL = 1e-9
CONNECTION_TOL = 1e-10

#: Largest ``dim`` of an explicit model, a limit of the parser: the
#: structure constants of dim n take n**3 floats (2 MB at 64), and the flag
#: kernel O(n^3) and a connection table O(n^4) per pole.
MAX_EXPLICIT_DIM = 64

# table1/connection-tables expose no seed flag; a fixed seed keeps their
# randomized pole sampling deterministic across runs.
_REPORT_SEED = 0

#: The steps of ``verify``'s two difference oracles, osculating and Cartan.
_VERIFY_STEPS = (1e-4, 5e-3)


@functools.cache
def _report_flags() -> np.ndarray:
    """``table1``'s eight special flags, (8, 2, 5) read-only, drawn once
    per process from ``default_rng(_REPORT_SEED)``: the parameters do not
    change them."""
    rng = np.random.default_rng(_REPORT_SEED)
    return _frozen([special_flag_vectors(case_id, rng) for case_id in SPECIAL_FLAG_CASES])


@functools.cache
def _report_poles() -> np.ndarray:
    """``connection-tables``'s poles in span(e1, e2) and span(e3, e4), (2, 5)
    read-only, drawn once per process from ``default_rng(_REPORT_SEED)``."""
    return _frozen(reference_poles(np.random.default_rng(_REPORT_SEED)))


@functools.cache
def _verify_samples(dim: int) -> tuple:
    """``verify``'s unit samples at ``dim``, ``((w, u, v, x), poles,
    zero_poles)``, drawn once per process and dimension from
    ``default_rng(_REPORT_SEED)`` as ``standard_normal((60, 4, dim))``,
    ``(25, dim)`` and ``(5, dim)``, normalized and read-only; w, u, v and x
    are (60, dim) views of the first draw.  They hold 270 dim floats,
    2160 dim bytes per dimension; with the stencils that
    :func:`_verify_stencils` builds from them, ``verify`` keeps about
    7920 dim + 5760 bytes per dimension (about 101 KB at dim 12): at most
    about 17 MB over dims 1-64, as explicit configs stop at
    ``MAX_EXPLICIT_DIM``."""
    rng = np.random.default_rng(_REPORT_SEED)
    quadruples, poles, zero_poles = (
        _frozen(_normalized(rng.standard_normal(shape + (dim,))))
        for shape in ((60, 4), (25,), (5,))
    )
    return tuple(np.moveaxis(quadruples, 1, 0)), poles, zero_poles


@functools.cache
def _verify_stencils(dim: int) -> tuple:
    """``verify``'s two difference stencils at ``dim``, ``(osculating,
    cartan)``, each the ``(points, norms)`` of :func:`randers._stencil` on
    the quadruples of :func:`_verify_samples`: over (u, v) at the first step
    of ``_VERIFY_STEPS`` and over (u, v, x) at the second.  They depend on
    the samples and the steps only, so they are built once per process and
    dimension, read-only: 720 points and their norms, 5760 dim + 5760
    bytes per dimension."""
    (w, u, v, x), _, _ = _verify_samples(dim)
    osculating_step, cartan_step = _VERIFY_STEPS
    stencils = _stencil(osculating_step, w, u, v), _stencil(cartan_step, w, u, v, x)
    return tuple(tuple(_frozen(a) for a in stencil) for stencil in stencils)


def _preset_structure(lam: float, mu: float, xi: float) -> RandersStructure:
    """The heisenberg5 preset :func:`z_randers`; inadmissible parameters
    raise :class:`ConfigError`."""
    try:
        return z_randers(lam, mu, xi)
    except ParameterError as exc:
        raise ConfigError(f"invalid preset: {exc}") from exc


def _number(value, what: str) -> float:
    """A JSON number as a float: an int or a float, never a boolean, a string
    or null; an int too large for a float raises too."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ConfigError(f"{what} must fit a float: {exc}") from exc


def _parse_preset(data: dict) -> RandersStructure:
    name = data.get("name")
    if name != "heisenberg5":
        raise ConfigError(f"unknown preset name {name!r} (expected 'heisenberg5')")
    try:
        lam, mu, xi = (_number(data[key], f"preset {key!r}") for key in ("lambda", "mu", "xi"))
    except KeyError as exc:
        raise ConfigError(f"preset needs numeric 'lambda', 'mu', 'xi': {exc}") from exc
    return _preset_structure(lam, mu, xi)


def _integer(value, what: str) -> int:
    """A JSON integer; an integral float such as 5.0 passes, booleans and
    fractions do not (int() would truncate them)."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return value


def _bracket_entry(entry, dim: int) -> tuple[int, int, int, float]:
    """0-based ``(i, j, k)`` and the value of one bracket entry; a malformed
    entry raises its :class:`ConfigError`."""
    try:
        i = _integer(entry["i"], "bracket index 'i'")
        j = _integer(entry["j"], "bracket index 'j'")
        k = _integer(entry["k"], "bracket index 'k'")
        value = _number(entry["value"], "bracket value")
    except (KeyError, TypeError, ConfigError) as exc:
        raise ConfigError(f"malformed bracket entry {entry!r}: {exc}") from exc
    if not (0 < i <= dim and 0 < j <= dim and 0 < k <= dim):
        raise ConfigError(f"bracket indices must lie in 1..{dim}, got {entry!r}")
    return i - 1, j - 1, k - 1, value


def _structure_constants(brackets: list, dim: int) -> np.ndarray:
    """The (dim, dim, dim) structure constants the bracket entries set.
    Entry by entry, [e_i, e_j] is set and then [e_j, e_i], so a later entry
    wins over an earlier one and over its counterpart."""
    constants = np.zeros((dim, dim, dim))
    for entry in brackets:
        i, j, k, value = _bracket_entry(entry, dim)
        constants[i, j, k] = value
        constants[j, i, k] = -value
    return constants


def _parse_explicit(data: dict) -> RandersStructure:
    """The model of an ``explicit`` section; ``dim`` and ``x0`` are checked
    before the (dim, dim, dim) structure constants are allocated."""
    dim = _integer(data.get("dim"), "dim")
    if not 0 < dim <= MAX_EXPLICIT_DIM:
        raise ConfigError(f"dim must lie in 1..{MAX_EXPLICIT_DIM}, got {dim}")
    if "x0" not in data:
        raise ConfigError("explicit model needs an 'x0' coordinate list")
    x0 = data["x0"]
    if not isinstance(x0, list) or len(x0) != dim:
        raise ConfigError(f"x0 must be a list of dim = {dim} numbers, got {x0!r}")
    x0 = np.array([_number(value, "x0 entry") for value in x0])
    brackets = data.get("brackets", [])
    if not isinstance(brackets, list):
        raise ConfigError(f"'brackets' must be a list of bracket entries, got {brackets!r}")
    constants = _structure_constants(brackets, dim)
    try:
        algebra = MetricLieAlgebra(constants)
        structure = RandersStructure(algebra, x0)
    except ParameterError as exc:
        raise ConfigError(f"invalid explicit model: {exc}") from exc
    report = algebra.validate()
    if not report.passed:
        raise ConfigError(
            "structure constants fail validation "
            f"(antisymmetry defect {report.antisymmetry_defect:.3e}, "
            f"Jacobi defect {report.jacobi_defect:.3e})"
        )
    return structure


def model_config_from_dict(data) -> RandersStructure:
    """The model of a config document; a document that breaks the config
    rules raises :class:`ConfigError`, as does one nested too deeply to
    quote in its message."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    present = [key for key in ("preset", "explicit") if key in data]
    if len(present) != 1:
        raise ConfigError("config needs exactly one of 'preset' or 'explicit'")
    section = data[present[0]]
    if not isinstance(section, dict):
        raise ConfigError(f"'{present[0]}' must be a JSON object")
    try:
        if present[0] == "preset":
            return _parse_preset(section)
        return _parse_explicit(section)
    except RecursionError:
        raise ConfigError(f"'{present[0]}' nests too deeply") from None


def load_model_config(path: str) -> RandersStructure:
    """The model of the config file at ``path``: UTF-8 JSON text, read by
    :func:`model_config_from_dict`.  Bytes that are not UTF-8, text that is
    not JSON and JSON nested too deeply for :mod:`json` raise
    :class:`ConfigError`."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        except RecursionError:
            raise ConfigError(f"config file {path} nests too deeply to read") from None
    return model_config_from_dict(data)


def write_output(out: str, text: str) -> None:
    """Write ``text`` to the file ``out`` as exactly its UTF-8 bytes, with
    no newline translation.

    An existing file is overwritten in place and then cut to the written
    length, so it keeps its permission bits, and a filesystem that frees the
    blocks of a truncated file does not free and allocate them again for
    every rewrite.  A target that is not a regular file (``/dev/null``,
    ``/dev/stdout``, a FIFO) is written as a stream and never cut.  When a
    write to a regular file fails, the file is cut to 0 bytes before the
    :class:`OSError` propagates, so a failed run never leaves the new text
    in front of the old file's tail; a failed write names ``out`` as its
    filename."""
    data = memoryview(text.encode("utf-8"))
    fd = os.open(out, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            written = 0
            while written < len(data):
                written += os.write(fd, data[written:])
            if regular:
                os.ftruncate(fd, written)
        except OSError as exc:
            if regular:
                os.ftruncate(fd, 0)
            exc.filename = out
            raise
    finally:
        os.close(fd)


def cmd_table1(lam: float, mu: float, xi: float, out: str) -> int:
    """CSV of the eight special-flag families: computed vs closed form."""
    structure = _preset_structure(lam, mu, xi)
    closed_forms = [special_flag_closed_form(case_id, lam, mu, xi) for case_id in SPECIAL_FLAG_CASES]
    flags = _report_flags()
    k = flag_curvature(structure, flags[:, 0], flags[:, 1]).k
    max_err = 0.0
    # span labels, case ids and float reprs hold no comma, quote or newline,
    # so every field is written as it is
    lines = ["case,flag_pole,transverse,k_computed,k_closed_form,abs_err\n"]
    for case_id, computed, closed in zip(SPECIAL_FLAG_CASES, k.tolist(), closed_forms):
        err = abs(computed - closed)
        max_err = max(max_err, err)
        pole, transverse = (SPAN_LABELS[span] for span in SPECIAL_FLAG_SPANS[case_id])
        lines.append(f"{case_id},{pole},{transverse},{computed!r},{closed!r},{err!r}\n")
    write_output(out, "".join(lines))
    # the curvatures grow like lam**2, so the tolerance scales with the
    # largest closed form; unit-scale models keep the absolute bound
    ok = max_err <= TABLE1_TOL * max(1.0, max(map(abs, closed_forms)))
    print(f"table1: wrote {out}; max_abs_err={max_err:.6e}; pass={ok}")
    return EXIT_OK if ok else EXIT_VERDICT


#: A JSON string or a bare ``null`` in :func:`json.dumps` text.
_STRING_OR_NULL = re.compile(r'"(?:[^"\\]|\\.)*"|null')


@functools.cache
def _document_template(layout: tuple, width: int) -> str:
    """The ``connection-tables`` document of a layout, ``(name, rows, cols)``
    per block and ``width`` numbers per vector, as a ``%`` template with a
    slot per number, in document order, and one for ``pass``: json's own
    layout of the document with ``None`` at every slot, each bare ``null``
    turned into ``%s`` and each ``%`` in a string into ``%%``."""
    numbers = [None] * width
    blocks = {name: {"pole": numbers, "cells": [
        {"row": row, "col": col, "computed": numbers, "closed_form": numbers, "defect": None}
        for row, col in zip(rows, cols)]} for name, rows, cols in layout}
    document = {"lambda": None, "mu": None, "xi": None, "blocks": blocks,
                "max_defect": None, "pass": None}
    text = json.dumps(document, indent=2)
    return _STRING_OR_NULL.sub(
        lambda m: "%s" if m[0] == "null" else m[0].replace("%", "%%"), text) + "\n"


def connection_tables_json(
    lam: float,
    mu: float,
    xi: float,
    reference: dict,
    computed: np.ndarray,
    expected: np.ndarray,
    defects: np.ndarray,
    max_defect: float,
    ok: bool,
) -> str:
    """The ``connection-tables`` document, byte for byte the text that
    :func:`json.dumps` writes for ``document`` with ``indent=2``, plus a
    newline.  ``document`` holds ``lambda``, ``mu``, ``xi``, one block per
    entry of ``reference`` (its pole, and per cell its labels, the row of
    ``computed``, the row of ``expected`` as ``closed_form`` and the entry
    of ``defects``), ``max_defect`` and ``pass``.

    ``reference`` maps block names to (pole, cells) as
    :func:`reference_blocks` returns them; the rows of the arrays follow the
    blocks' cells in order.  The fixed text depends only on the layout (the
    block names, the cell labels and the vector width): it is json's own
    layout of the document's skeleton, built once per layout as a ``%``
    template, so later calls never run json's indenting encoder, which is
    pure Python.  The numbers are filled in document order with one ``%``,
    each distinct bit pattern spelled once, by one :func:`json.dumps` of
    their list (``repr``, ``NaN``, ``Infinity``): 0.0 and -0.0 differ in
    their bits, and a NaN of any payload spells ``NaN``."""
    layout = tuple((name, cells.rows, cells.cols) for name, (_, cells) in reference.items())
    template = _document_template(layout, computed.shape[1])
    rows = np.column_stack((computed, expected, defects))
    parts, start = [[lam, mu, xi]], 0
    for pole, cells in reference.values():
        stop = start + len(cells.rows)
        parts += [pole, rows[start:stop].ravel()]
        start = stop
    values = np.concatenate((*parts, [max_defect]))
    patterns, inverse = np.unique(values.view(np.int64), return_inverse=True)
    spelled = json.dumps(patterns.view(float).tolist())[1:-1].split(", ")
    texts = np.array(spelled, dtype=object)[inverse]
    return template % (*texts.tolist(), "true" if ok else "false")


def cmd_connection_tables(lam: float, mu: float, xi: float, out: str) -> int:
    """JSON with the four closed-form connection blocks and their defects."""
    structure = _preset_structure(lam, mu, xi)
    reference = reference_blocks(lam, mu, xi, *_report_poles())
    blocks = reference.values()
    # one table stacked over the block poles, and every cell's
    # nabla_direction argument in one call of the contraction that
    # ConnectionTable.derivative makes, each cell against its pole's table
    poles = np.array([pole for pole, _ in blocks])
    gamma = chern_rund_table(structure.osculating_gram(poles)).gamma
    pole_of_cell = np.repeat(np.arange(len(reference)), [len(cells.rows) for _, cells in blocks])
    directions = np.concatenate([cells.directions for _, cells in blocks])
    arguments = np.concatenate([cells.arguments for _, cells in blocks])
    expected = np.concatenate([cells.expected for _, cells in blocks])
    computed = _bilinear(gamma[pole_of_cell], directions, arguments)
    defects = np.abs(computed - expected).max(axis=-1)
    max_defect = float(defects.max())
    # a cell's round-off follows the terms it sums, |direction| |argument|
    # times the largest coefficient of its pole's table, not its own size:
    # terms of size lam**3 can cancel to a cell of size xi lam**3
    terms = np.sqrt(np.vecdot(directions, directions) * np.vecdot(arguments, arguments))
    scales = np.maximum(1.0, terms * np.abs(gamma).max(axis=(-3, -2, -1))[pole_of_cell])
    ok = bool((defects <= CONNECTION_TOL * scales).all())
    text = connection_tables_json(
        lam, mu, xi, reference, computed, expected, defects, max_defect, ok
    )
    write_output(out, text)
    print(f"connection-tables: wrote {out}; max_defect={max_defect:.6e}; pass={ok}")
    return EXIT_OK if ok else EXIT_VERDICT


def _report_json(report: FlagReport) -> dict:
    return {
        "k": None if report.degenerate else report.k,
        "denominator": report.denominator,
        "degenerate": report.degenerate,
    }


def cmd_flag(structure: RandersStructure, w_coords, x_coords) -> int:
    """Print one flag-curvature report as JSON; degenerate flags exit 1."""
    report = flag_curvature(structure, w_coords, x_coords)
    print(json.dumps(_report_json(report)))
    return EXIT_OK if not report.degenerate else EXIT_VERDICT


def cmd_search(structure: RandersStructure, seed: int, max_samples: int) -> int:
    """Print a sign certificate as JSON; exit 0.  A failed search raises
    :class:`SearchFailure`, which :func:`main` reports with exit 1."""
    certificate = sign_search(structure, seed=seed, max_samples=max_samples)
    document = {
        name: {"w": r.w.tolist(), "x": r.x.tolist(), **_report_json(r)}
        for name, r in (("positive_witness", certificate.positive_witness),
                        ("negative_witness", certificate.negative_witness))
    }
    document["samples_tried"] = certificate.samples_tried
    print(json.dumps(document))
    return EXIT_OK


def run_verification(structure: RandersStructure) -> list[dict]:
    """Residual self-checks: closed forms vs difference oracles on 60 random
    unit quadruples (w, u, v, x), the torsion and almost-metric contracts of
    the tables at 25 random unit poles, and the zero-deformation tables at 5
    random unit poles against the one Levi-Civita formula,
    ``lie_algebra._levi_civita``, that :func:`levi_civita_table` returns.

    Each check is made over stacked samples: the oracles in one call each,
    the tables by :func:`connection.chern_rund_tables`, in blocks of at most
    max(1, ``connection.TABLE_BLOCK_ENTRIES`` // dim**3) poles.  The samples
    are those of :func:`_verify_samples`, drawn once per process and
    dimension as ``standard_normal((60, 4, dim))``, ``(25, dim)`` and
    ``(5, dim)``, the same stream as drawing the vectors one at a time; the
    difference oracles' stencils on them, which do not depend on the model,
    are those of :func:`_verify_stencils`, built once per process and
    dimension too (with the samples, about 7920 dim + 5760 bytes per
    dimension, 101 KB at dim 12).  Draws of a generator are finite and
    nonzero, so they are only normalized, and the oracle checks run each
    public oracle's private arithmetic on them, unchecked, with the public
    oracles' numbers; the frames check the poles they are given, as every
    public entry does.

    A check passes when its ``max_defect`` is at most its ``tolerance``.
    The oracle checks compare unit-scale quantities against an absolute
    tolerance; the table checks carry round-off in proportion to the
    coefficients, so their bound is their tolerance times max(1, largest
    |coefficient| of the check's tables), and that bound is the printed
    ``tolerance``."""
    (w, u, v, x), poles, zero_poles = _verify_samples(structure.dim)
    osculating_stencil, cartan_stencil = _verify_stencils(structure.dim)
    osculating_step, cartan_step = _VERIFY_STEPS
    checks = []

    def check(name: str, value: float, tol: float, scale: float = 1.0) -> None:
        bound = tol * max(1.0, scale)
        checks.append(
            {"name": name, "max_defect": value, "tolerance": bound, "pass": value <= bound}
        )

    osculating = np.abs(
        structure._osculating_product(w, u, v)
        - structure._osculating_product_fd(osculating_stencil, osculating_step)
    )
    check("osculating_fd", float(osculating.max()), 1e-6)
    cartan = np.abs(
        structure._cartan(w, u, v, x) - structure._cartan_fd(cartan_stencil, cartan_step)
    )
    check("cartan_fd", float(cartan.max()), 1e-4)

    worst_torsion = worst_metric = scale = 0.0
    for table in chern_rund_tables(structure.osculating_gram(poles)):
        worst_torsion = max(worst_torsion, torsion_defect(table))
        worst_metric = max(worst_metric, almost_metric_defect(table))
        scale = max(scale, float(np.abs(table.gamma).max()))
    check("torsion", worst_torsion, 1e-10, scale)
    check("almost_metric", worst_metric, 1e-10, scale)

    zero = RandersStructure(structure.algebra, np.zeros(structure.dim))
    reference = _levi_civita(structure.algebra.structure)
    worst_lc = scale = 0.0
    for table in chern_rund_tables(zero.osculating_gram(zero_poles)):
        worst_lc = max(worst_lc, float(np.abs(table.gamma - reference).max()))
        scale = max(scale, float(np.abs(table.gamma).max()))
    check("levi_civita_x0_zero", worst_lc, 1e-12, scale)
    return checks


def cmd_verify(structure: RandersStructure) -> int:
    """Run the residual suite and print a JSON defect table."""
    checks = run_verification(structure)
    ok = all(check["pass"] for check in checks)
    print(json.dumps({"checks": checks, "pass": ok}))
    if not ok:
        failing = ", ".join(check["name"] for check in checks if not check["pass"])
        print(f"verify: failed checks: {failing}", file=sys.stderr)
        return EXIT_VERDICT
    return EXIT_OK


def _csv_floats(text: str) -> list[float]:
    try:
        return [float(token) for token in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats: {exc}") from exc


#: The characters after a leading ``-`` that can begin a float: a digit, a
#: point, or the first letter of ``inf``, ``infinity`` or ``nan``.
_NUMBER_STARTS = frozenset("0123456789.iInN")


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a usage error on one stderr line and
    reads a token of comma-separated floats, such as ``-1e-3``, ``-inf``,
    ``-nan`` or ``-0.3,0.5``, as a value rather than an option;
    :mod:`argparse` itself takes only ``-1`` and ``-0.5`` for negative
    numbers.  No option of this CLI looks like a number, so such a token can
    only be the value of the option before it.  Only tokens whose second
    character is in ``_NUMBER_STARTS`` are parsed, so option names cost no
    failed float conversion.  ``--opt=--`` passes ``--`` to the option's
    type, where :mod:`argparse` would pass ``[]`` on unconverted."""

    def error(self, message):
        """Print only ``<prog>: error: <message>``, without the usage block
        :mod:`argparse` prints first, and exit 2."""
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def _get_values(self, action, arg_strings):
        if action.nargs is None and arg_strings == ["--"]:
            return self._get_value(action, "--")
        return super()._get_values(action, arg_strings)

    def _parse_optional(self, arg_string):
        if arg_string[:1] == "-" and arg_string[1:2] in _NUMBER_STARTS:
            try:
                _csv_floats(arg_string)
                return None
            except argparse.ArgumentTypeError:
                pass
        return super()._parse_optional(arg_string)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every call of :func:`main` can share it.  Each subcommand
    sets its handler as the ``run`` default, which :func:`main` calls with
    the parsed arguments."""
    parser = _Parser(
        prog="randersflag",
        description="Chern-Rund connections and flag curvatures of left-invariant "
        "Randers metrics on metric Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table1 = sub.add_parser(
        "table1", help="emit the eight special-flag curvature families as CSV"
    )
    table1.set_defaults(run=lambda args: cmd_table1(args.lam, args.mu, args.xi, args.out))
    tables = sub.add_parser(
        "connection-tables", help="emit the closed-form connection blocks as JSON"
    )
    tables.set_defaults(
        run=lambda args: cmd_connection_tables(args.lam, args.mu, args.xi, args.out)
    )
    for cmd in (table1, tables):
        cmd.add_argument("--lambda", dest="lam", type=float, required=True,
                         help="bracket coefficient of [e1, e2] (lambda >= mu > 0)")
        cmd.add_argument("--mu", type=float, required=True,
                         help="bracket coefficient of [e3, e4]")
        cmd.add_argument("--xi", type=float, required=True,
                         help="deformation size, x0 = xi * Z with 0 < xi < 1")
        cmd.add_argument("--out", required=True, help="output file path")

    flag = sub.add_parser("flag", help="flag curvature of one pole/transverse pair")
    flag.set_defaults(run=lambda args: cmd_flag(load_model_config(args.config), args.w, args.x))
    search = sub.add_parser("search", help="certify strictly positive and negative flags")
    search.set_defaults(
        run=lambda args: cmd_search(load_model_config(args.config), args.seed, args.max_samples)
    )
    verify = sub.add_parser("verify", help="run the residual self-check suite")
    verify.set_defaults(run=lambda args: cmd_verify(load_model_config(args.config)))
    for cmd in (flag, search, verify):
        cmd.add_argument("--config", required=True, help="model config JSON path")

    flag.add_argument("--w", required=True, type=_csv_floats,
                      help="pole coordinates, comma-separated")
    flag.add_argument("--x", required=True, type=_csv_floats,
                      help="transverse coordinates, comma-separated")
    search.add_argument("--seed", type=int, required=True, help="sampling seed")
    search.add_argument("--max-samples", type=int, default=512,
                        help="sampling budget (default 512)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a model or flag whose arithmetic leaves double range (finite
        # brackets near 1e150, say, whose curvatures overflow) raises here
        # instead of warning and printing inf or NaN; the checks that expect
        # such values (the Jacobi sum, the closed forms) set their own state
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.run(args)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SearchFailure as exc:
        print(f"search failure: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FloatingPointError as exc:
        print(f"error: the input leaves double range: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
