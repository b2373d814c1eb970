"""Config ingestion, the five subcommands, exit codes, and output formats."""

import ast
import csv
import dataclasses
import errno
import io
import itertools
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import randersflag
from randersflag import (
    SPECIAL_FLAG_CASES,
    ConfigError,
    MetricLieAlgebra,
    RandersStructure,
    SearchFailure,
    almost_metric_defect,
    chern_rund_table,
    levi_civita_table,
    torsion_defect,
)
from randersflag import cli, connection, curvature, lie_algebra
from randersflag.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERDICT,
    MAX_EXPLICIT_DIM,
    build_parser,
    connection_tables_json,
    load_model_config,
    main,
    model_config_from_dict,
    run_verification,
)
from randersflag.randers import _normalized, _stencil
from randersflag.reference_tables import (
    reference_blocks,
    reference_poles,
    special_flag_closed_form,
    special_flag_vectors,
)
from helpers import (
    nilpotent_algebra,
    package_env,
    run_main,
    split_blocks,
    tables_document,
    unit,
    z_randers,
)

PRESET = {"preset": {"name": "heisenberg5", "lambda": 2.0, "mu": 1.0, "xi": 0.5}}
EXPLICIT_HEISENBERG = {
    "explicit": {
        "dim": 5,
        "brackets": [
            {"i": 1, "j": 2, "k": 5, "value": 2.0},
            {"i": 3, "j": 4, "k": 5, "value": 1.0},
        ],
        "x0": [0, 0, 0, 0, 0.5],
    }
}
ABELIAN = {"explicit": {"dim": 5, "brackets": [], "x0": [0, 0, 0, 0, 0]}}

#: Well-computed models whose cells and curvatures are far from unit size.
LARGE_MODELS = [(1000.0, 1.0, 0.5), (1e5, 1e4, 0.3)]

#: Well-computed models at large lam and small xi: the (Wperp, Wperp) cell of
#: ``pole_e12_frame`` is ~xi lam**3, summed from terms of size lam**3.
SMALL_XI_MODELS = [(1e8, 9e7, 1e-6), (1e7, 9e6, 1e-13)]


def write_config(tmp_path, document, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


class TestModelConfig:
    def test_valid_preset(self):
        structure = model_config_from_dict(PRESET)
        assert isinstance(structure, RandersStructure)
        assert structure.dim == 5
        assert np.allclose(structure.x0, [0, 0, 0, 0, 0.5])

    def test_explicit_matches_preset(self):
        preset = model_config_from_dict(PRESET)
        explicit = model_config_from_dict(EXPLICIT_HEISENBERG)
        assert np.array_equal(preset.algebra.structure, explicit.algebra.structure)
        assert np.array_equal(preset.x0, explicit.x0)

    @pytest.mark.parametrize(
        "document",
        [
            {},
            {"preset": PRESET["preset"], "explicit": ABELIAN["explicit"]},
            {"preset": {"name": "nilpotent7", "lambda": 1, "mu": 1, "xi": 0.5}},
            {"preset": {"name": "heisenberg5", "lambda": 1.0, "mu": 2.0, "xi": 0.5}},
            {"preset": {"name": "heisenberg5", "lambda": 2.0, "mu": 1.0, "xi": 0.0}},
            {"preset": {"name": "heisenberg5", "lambda": 2.0, "mu": 1.0, "xi": 1.0}},
            {"preset": {"name": "heisenberg5", "lambda": 2.0, "mu": 1.0}},
            {"explicit": {"dim": 5, "brackets": [], "x0": [0, 0, 0, 0, 1.2]}},
            {"explicit": {"dim": 0, "brackets": [], "x0": []}},
            {"explicit": {"dim": 5, "brackets": [{"i": 1, "j": 2, "k": 9, "value": 1.0}], "x0": [0, 0, 0, 0, 0]}},
            {"explicit": {"dim": 5, "brackets": [{"i": 1, "j": 2, "value": 1.0}], "x0": [0, 0, 0, 0, 0]}},
            {"explicit": {"dim": 5, "brackets": [], "x0": [0, 0, 0]}},
            "not a mapping",
            {"explicit": {"dim": 5, "brackets": 5, "x0": [0, 0, 0, 0, 0]}},
            {"explicit": {"dim": 5, "brackets": None, "x0": [0, 0, 0, 0, 0]}},
            {"explicit": {"dim": 5.7, "brackets": [], "x0": [0, 0, 0, 0, 0]}},
            {"explicit": {"dim": True, "brackets": [], "x0": [0]}},
            {"explicit": {"dim": 5, "brackets": [{"i": 1.9, "j": 2, "k": 5, "value": 1.0}], "x0": [0, 0, 0, 0, 0]}},
            {"explicit": {"dim": 5, "brackets": [{"i": True, "j": 2, "k": 5, "value": 1.0}], "x0": [0, 0, 0, 0, 0]}},
            # config numbers are JSON numbers: no strings, booleans or null
            *(
                document
                for junk in ("1.5", True, None)
                for document in (
                    {"preset": {"name": "heisenberg5", "lambda": junk, "mu": 1.0, "xi": 0.5}},
                    {"explicit": {"dim": 5, "brackets": [{"i": 1, "j": 2, "k": 5, "value": junk}],
                                  "x0": [0, 0, 0, 0, 0]}},
                    {"explicit": {"dim": 5, "brackets": [], "x0": [0, 0, junk, 0, 0]}},
                )
            ),
        ],
    )
    def test_invalid_configs_rejected(self, document):
        with pytest.raises(ConfigError):
            model_config_from_dict(document)

    @pytest.mark.parametrize(
        "brackets, message",
        [
            ([{"i": 1, "j": 2, "value": 1.0}],
             "malformed bracket entry {'i': 1, 'j': 2, 'value': 1.0}: 'k'"),
            ([{"i": 1.9, "j": 2, "k": 5, "value": 1.0}],
             "malformed bracket entry {'i': 1.9, 'j': 2, 'k': 5, 'value': 1.0}: "
             "bracket index 'i' must be an integer, got 1.9"),
            ([{"i": True, "j": 2, "k": 5, "value": 1.0}],
             "malformed bracket entry {'i': True, 'j': 2, 'k': 5, 'value': 1.0}: "
             "bracket index 'i' must be an integer, got True"),
            ([{"i": 1, "j": 2, "k": 5, "value": "x"}],
             "malformed bracket entry {'i': 1, 'j': 2, 'k': 5, 'value': 'x'}: "
             "bracket value must be a number, got 'x'"),
            ([{"i": 1, "j": 2, "k": 5, "value": None}],
             "malformed bracket entry {'i': 1, 'j': 2, 'k': 5, 'value': None}: "
             "bracket value must be a number, got None"),
            ([5], "malformed bracket entry 5: 'int' object is not subscriptable"),
            ([{"i": 1, "j": 2, "k": 9, "value": 1.0}],
             "bracket indices must lie in 1..5, got {'i': 1, 'j': 2, 'k': 9, 'value': 1.0}"),
            # the first bad entry is the one reported
            ([{"i": 1, "j": 2, "k": 0, "value": 1.0}, {"i": 1, "value": 1.0}],
             "bracket indices must lie in 1..5, got {'i': 1, 'j': 2, 'k': 0, 'value': 1.0}"),
            ([{"i": 1, "j": 2, "k": 5, "value": 1.0}, {"i": 1, "j": 2, "k": 6, "value": 1.0}],
             "bracket indices must lie in 1..5, got {'i': 1, 'j': 2, 'k': 6, 'value': 1.0}"),
        ],
    )
    def test_malformed_bracket_messages(self, brackets, message):
        document = {"explicit": {"dim": 5, "brackets": brackets, "x0": [0, 0, 0, 0, 0]}}
        with pytest.raises(ConfigError) as caught:
            model_config_from_dict(document)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "document",
        [
            {"explicit": {"dim": 5, "brackets": [{"i": 1, "j": 2, "k": 5, "value": 10**400}],
                          "x0": [0, 0, 0, 0, 0]}},
            {"explicit": {"dim": 2, "brackets": [], "x0": [10**400, 0]}},
            {"preset": {"name": "heisenberg5", "lambda": 10**400, "mu": 1.0, "xi": 0.5}},
        ],
    )
    def test_integer_too_large_for_a_float_is_config_error(self, document):
        # JSON can spell an integer no float holds
        with pytest.raises(ConfigError, match="int too large to convert to float"):
            model_config_from_dict(document)

    @pytest.mark.parametrize("dim", [0, -1, MAX_EXPLICIT_DIM + 1, 300, 10**400])
    def test_dim_outside_its_range_is_usage_error(self, tmp_path, capsys, dim):
        # rejected before the dim**3 structure constants are allocated; 10**400
        # once overflowed building them, and 300 allocated 216 MB
        document = {"explicit": {"dim": dim, "brackets": [], "x0": [0, 0, 0]}}
        config = write_config(tmp_path, document)
        assert main(["flag", "--config", config, "--w=1,0,0", "--x=0,1,0"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: dim must lie in 1..{MAX_EXPLICIT_DIM}, got {dim}\n"
        )

    @pytest.mark.parametrize("section", ["preset", "explicit"])
    def test_section_that_is_no_object_is_usage_error(self, tmp_path, capsys, section):
        config = write_config(tmp_path, {section: 5})
        assert main(["verify", "--config", config]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: '{section}' must be a JSON object\n")

    @pytest.mark.parametrize("x0", [[0, 0, 0], [[0] * 40], [0] * 41, 0.5])
    def test_x0_shape_checked_before_the_structure_constants(self, monkeypatch, x0):
        def forbidden(*args):
            raise AssertionError("structure constants built before the x0 check")

        monkeypatch.setattr(cli, "_structure_constants", forbidden)
        document = {"explicit": {"dim": 40, "brackets": [], "x0": x0}}
        with pytest.raises(ConfigError, match="x0 must be a list of dim = 40 numbers"):
            model_config_from_dict(document)

    def test_later_bracket_entry_wins(self):
        # entry by entry, [e_i, e_j] is set and then [e_j, e_i]: a repeated
        # entry and the counterpart of an earlier one both override it
        def constants(*entries):
            brackets = [dict(zip("ijk", e[:3]), value=e[3]) for e in entries]
            document = {"explicit": {"dim": 5, "brackets": brackets, "x0": [0, 0, 0, 0, 0]}}
            return model_config_from_dict(document).algebra.structure

        c = constants((1, 2, 5, 1.0), (1, 2, 5, 2.0))
        assert (c[0, 1, 4], c[1, 0, 4]) == (2.0, -2.0)
        c = constants((1, 2, 5, 1.0), (2, 1, 5, 3.0))
        assert (c[0, 1, 4], c[1, 0, 4]) == (-3.0, 3.0)
        c = constants((2.0, 1, 5.0, 3.0), (3, 4, 5, 0.5), (2, 1, 5, -1.0))
        assert (c[0, 1, 4], c[1, 0, 4], c[2, 3, 4], c[3, 2, 4]) == (1.0, -1.0, 0.5, -0.5)
        assert np.count_nonzero(c) == 4

    def test_non_jacobi_brackets_rejected(self):
        # [e1, e2] = e3, [e1, e3] = e1 violates the Jacobi identity
        document = {
            "explicit": {
                "dim": 3,
                "brackets": [
                    {"i": 1, "j": 2, "k": 3, "value": 1.0},
                    {"i": 1, "j": 3, "k": 1, "value": 1.0},
                ],
                "x0": [0, 0, 0],
            }
        }
        with pytest.raises(ConfigError, match="validation"):
            model_config_from_dict(document)

    def test_overflowing_jacobi_sum_is_usage_error(self, tmp_path, capsys):
        # [e1, e2] = 1e160 e5 and [e1, e5] = 1e160 e2: finite brackets whose
        # Jacobi sum is inf - inf; one stderr line and no numpy warning (the
        # suite turns warnings into errors)
        document = {
            "explicit": {
                "dim": 5,
                "brackets": [
                    {"i": 1, "j": 2, "k": 5, "value": 1e160},
                    {"i": 1, "j": 5, "k": 2, "value": 1e160},
                ],
                "x0": [0, 0, 0, 0, 0],
            }
        }
        code = main(["verify", "--config", write_config(tmp_path, document)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "Jacobi defect nan" in captured.err

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_model_config(str(path))

    @pytest.mark.parametrize(
        "content, message",
        [
            # not UTF-8: a UTF-16 byte order mark, then UTF-16 text
            ('{"preset": {}}'.encode("utf-16"), "is not UTF-8 text"),
            # deeper than json's recursion limit, bare and inside a section
            (b"[" * 100000 + b"]" * 100000, "nests too deeply to read"),
            (b'{"explicit": {"dim": 3, "x0": ' + b"[" * 100000 + b"]" * 100000 + b"}}",
             "nests too deeply to read"),
        ],
    )
    def test_unreadable_config_is_usage_error(self, tmp_path, capsys, content, message):
        path = tmp_path / "model.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match=message):
            load_model_config(str(path))
        assert main(["verify", "--config", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and message in captured.err

    def test_section_too_deep_to_quote_is_config_error(self):
        # json reads less than the interpreter's recursion limit, but a
        # document built in Python can nest deeper than repr can quote
        deep = []
        for _ in range(100000):
            deep = [deep]
        for document in (
            {"explicit": {"dim": 3, "brackets": [], "x0": deep}},
            {"preset": {"name": "heisenberg5", "lambda": deep, "mu": 1.0, "xi": 0.5}},
        ):
            with pytest.raises(ConfigError, match="nests too deeply"):
                model_config_from_dict(document)


class TestTable1:
    def run(self, tmp_path, lam, mu, xi):
        out = tmp_path / "table1.csv"
        code = main(
            ["table1", "--lambda", str(lam), "--mu", str(mu), "--xi", str(xi), "--out", str(out)]
        )
        return code, out

    def test_reproduces_closed_forms(self, tmp_path):
        code, out = self.run(tmp_path, 2.0, 1.0, 0.5)
        assert code == EXIT_OK
        text = out.read_text(encoding="utf-8")
        assert text.endswith("\n")
        rows = list(csv.DictReader(text.splitlines()))
        assert [row["case"] for row in rows] == ["1.1", "1.2", "2.1", "2.2", "2.3", "3.1", "3.2", "3.3"]
        by_case = {row["case"]: row for row in rows}
        assert by_case["2.2"]["flag_pole"] == "e1-span"
        assert by_case["2.2"]["transverse"] == "e1-span"
        assert float(by_case["2.2"]["k_closed_form"]) == -2.75
        assert float(by_case["2.2"]["k_computed"]) == pytest.approx(-2.75, abs=1e-10)
        assert max(float(row["abs_err"]) for row in rows) <= 1e-9

    def test_equal_parameters_flat_rows(self, tmp_path):
        code, out = self.run(tmp_path, 1.0, 1.0, 0.5)
        assert code == EXIT_OK
        rows = {row["case"]: row for row in csv.DictReader(out.read_text().splitlines())}
        for case_id in ("2.3", "3.2"):
            assert float(rows[case_id]["k_closed_form"]) == 0.0
            assert abs(float(rows[case_id]["k_computed"])) <= 1e-12

    def test_invalid_parameters_are_usage_errors(self, tmp_path):
        code, _ = self.run(tmp_path, 1.0, 2.0, 0.5)
        assert code == EXIT_USAGE
        code, _ = self.run(tmp_path, 2.0, 1.0, 1.5)
        assert code == EXIT_USAGE
        # lam**2 overflows in the closed forms
        code, _ = self.run(tmp_path, 1e160, 1.0, 0.5)
        assert code == EXIT_USAGE
        # (xi**2 - 3) lam**2 overflows to -inf without raising
        code, _ = self.run(tmp_path, 1e154, 1.0, 0.5)
        assert code == EXIT_USAGE
        code, _ = self.run(tmp_path, 8e153, 1.0, 0.5)
        assert code == EXIT_OK

    def test_unwritable_output_is_io_error(self, tmp_path):
        code = main(
            ["table1", "--lambda", "2", "--mu", "1", "--xi", "0.5",
             "--out", str(tmp_path / "missing" / "t.csv")]
        )
        assert code == EXIT_IO

    def test_output_bytes_deterministic(self, tmp_path):
        _, first = self.run(tmp_path, 2.0, 1.0, 0.5)
        content = first.read_bytes()
        _, second = self.run(tmp_path, 2.0, 1.0, 0.5)
        assert second.read_bytes() == content

    @pytest.mark.parametrize("params", LARGE_MODELS)
    def test_large_models_pass(self, tmp_path, params):
        code, _ = self.run(tmp_path, *params)
        assert code == EXIT_OK

    @pytest.mark.parametrize("params", [(2.0, 1.0, 0.5), (1.5e5, 1e5, 1e-8)])
    def test_rows_are_csv_that_needs_no_quoting(self, tmp_path, params):
        # the rows are written as plain strings; csv reads them back, and
        # its writer gives the same bytes, so no field needed quoting
        _, out = self.run(tmp_path, *params)
        written = out.read_bytes()
        rows = list(csv.reader(io.StringIO(written.decode("utf-8"), newline="")))
        assert len(rows) == 1 + len(SPECIAL_FLAG_CASES)
        assert all(len(row) == 6 for row in rows)
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(rows)
        assert text.getvalue().encode("utf-8") == written

    def test_perturbed_closed_form_fails(self, tmp_path, monkeypatch):
        def perturbed(case_id, lam, mu, xi):
            return special_flag_closed_form(case_id, lam, mu, xi) * (1 + 1e-6)

        monkeypatch.setattr(cli, "special_flag_closed_form", perturbed)
        code, _ = self.run(tmp_path, *LARGE_MODELS[0])
        assert code == EXIT_VERDICT

    def test_round_trip_verdict_stable(self, tmp_path):
        _, out = self.run(tmp_path, 3.0, 0.5, 0.9)
        rows = list(csv.DictReader(out.read_text().splitlines()))
        recomputed = max(
            abs(float(r["k_computed"]) - float(r["k_closed_form"])) for r in rows
        )
        emitted = max(float(r["abs_err"]) for r in rows)
        assert recomputed == pytest.approx(emitted, abs=1e-15)
        assert (recomputed <= 1e-9) == (emitted <= 1e-9)


def _read_blocks(monkeypatch, perturbed):
    """Make ``connection-tables`` read :func:`reference_blocks`' cells with
    the closed forms that ``perturbed`` makes of its poles and cells."""

    def reference(*args):
        poles, cells = reference_blocks(*args)
        return poles, cells._replace(expected=perturbed(poles, cells))

    monkeypatch.setattr(cli, "reference_blocks", reference)


def _perturbed_block(poles, cells, name):
    """A copy of ``cells``' closed forms, and ``(pole, rows, cols, cells)``
    of block ``name`` with its closed forms a view of that copy."""
    expected = cells.expected.copy()
    return expected, split_blocks(poles, cells._replace(expected=expected))[name]


class TestConnectionTables:
    def run(self, tmp_path, lam=2.0, mu=1.0, xi=0.5):
        out = tmp_path / "tables.json"
        code = main(
            ["connection-tables", "--lambda", str(lam), "--mu", str(mu), "--xi", str(xi),
             "--out", str(out)]
        )
        return code, out

    def test_blocks_and_defects(self, tmp_path):
        code, out = self.run(tmp_path)
        assert code == EXIT_OK
        document = json.loads(out.read_text(encoding="utf-8"))
        assert document["pass"] is True
        assert document["max_defect"] <= 1e-10
        blocks = document["blocks"]
        assert {len(blocks[name]["cells"]) for name in blocks} == {25, 9, 4}
        assert len(blocks["pole_z"]["cells"]) == 25
        assert len(blocks["pole_e12_frame"]["cells"]) == 9

    @pytest.mark.parametrize("params", [(2.0, 1.0, 0.5), (1.46e5, 8.4e3, 1 - 1.6e-6)])
    def test_cells_are_the_table_derivatives(self, tmp_path, params):
        # one contraction over every cell: each layout's cells are the
        # stacked derivative of its one-pole table, bit for bit
        code, out = self.run(tmp_path, *params)
        assert code == EXIT_OK
        blocks = json.loads(out.read_text(encoding="utf-8"))["blocks"]
        structure = cli._preset_structure(*params)
        reference = split_blocks(*reference_blocks(*params, *cli._report_poles()))
        for name, (pole, _, _, cells) in reference.items():
            table = chern_rund_table(structure.osculating_gram(pole))
            computed = [cell["computed"] for cell in blocks[name]["cells"]]
            assert np.array_equal(computed, table.derivative(cells.directions, cells.arguments))

    def test_spot_closed_forms(self, tmp_path):
        code, out = self.run(tmp_path)
        document = json.loads(out.read_text(encoding="utf-8"))
        z_cells = {(c["row"], c["col"]): c for c in document["blocks"]["pole_z"]["cells"]}
        assert z_cells[("e1", "e2")]["closed_form"] == [0, 0, 0, 0, 1.0]  # (lam/2) Z
        assert z_cells[("e5", "e1")]["closed_form"] == [0, -1.0, 0, 0, 0]  # -(lam/2) e2
        frame = document["blocks"]["pole_e12_frame"]
        pole = np.asarray(frame["pole"])
        cell = next(
            c for c in frame["cells"] if (c["row"], c["col"]) == ("Wperp", "Z")
        )
        lam, xi = 2.0, 0.5
        z = np.array([0, 0, 0, 0, 1.0])
        expected = 0.25 * lam**2 * ((xi**2 - 2.0) * pole - xi * z)
        assert np.allclose(cell["closed_form"], expected, atol=1e-15)
        rows34 = {(c["row"], c["col"]): c for c in document["blocks"]["pole_e12_rows_e34"]["cells"]}
        mu = 1.0
        assert np.allclose(rows34[("e4", "W")]["closed_form"], 0.5 * mu * xi * np.eye(5)[2], atol=1e-15)

    def test_round_trip_verdict_stable(self, tmp_path):
        _, out = self.run(tmp_path, 3.0, 0.5, 0.9)
        document = json.loads(out.read_text(encoding="utf-8"))
        worst = max(
            abs(np.asarray(c["computed"]) - np.asarray(c["closed_form"])).max()
            for block in document["blocks"].values()
            for c in block["cells"]
        )
        scale = max(
            1.0,
            max(
                abs(np.asarray(c["closed_form"])).max()
                for block in document["blocks"].values()
                for c in block["cells"]
            ),
        )
        assert (worst <= 1e-10 * scale) == document["pass"]

    @pytest.mark.parametrize("params", LARGE_MODELS)
    def test_large_models_pass(self, tmp_path, params):
        code, out = self.run(tmp_path, *params)
        assert code == EXIT_OK
        document = json.loads(out.read_text(encoding="utf-8"))
        # the absolute defect is printed as it is, above 1e-10
        assert document["pass"] is True and document["max_defect"] > 1e-10

    def test_perturbed_cell_fails(self, tmp_path, monkeypatch):
        # the (Wperp, Wperp) cell, the largest, moved by 1e-6 of its size
        def perturbed(poles, cells):
            expected, (_, rows, cols, block) = _perturbed_block(poles, cells, "pole_e12_frame")
            block.expected[list(zip(rows, cols)).index(("Wperp", "Wperp"))] *= 1 + 1e-6
            return expected

        _read_blocks(monkeypatch, perturbed)
        code, out = self.run(tmp_path, *LARGE_MODELS[0])
        assert code == EXIT_VERDICT
        assert json.loads(out.read_text(encoding="utf-8"))["pass"] is False

    @pytest.mark.parametrize("params", SMALL_XI_MODELS)
    def test_small_xi_models_pass(self, tmp_path, params):
        code, out = self.run(tmp_path, *params)
        assert code == EXIT_OK
        assert json.loads(out.read_text(encoding="utf-8"))["pass"] is True

    @pytest.mark.parametrize("params", [(2.0, 1.0, 0.5), *SMALL_XI_MODELS])
    def test_each_perturbed_cell_fails(self, tmp_path, monkeypatch, params):
        # each cell in turn moved by 1e-6 of the scale its defect is judged
        # by, max(1, |direction| |argument| max|gamma| at its pole)
        structure = z_randers(*params)
        poles = reference_poles(np.random.default_rng(0))
        blocks = split_blocks(*reference_blocks(*params, *poles))
        for name, (_, rows, cols, _) in blocks.items():
            for i in range(len(rows)):

                def perturbed(poles, cells, name=name, i=i):
                    expected, (pole, _, _, cells) = _perturbed_block(poles, cells, name)
                    gamma = chern_rund_table(structure.osculating_gram(pole)).gamma
                    scale = max(
                        1.0,
                        np.linalg.norm(cells.directions[i])
                        * np.linalg.norm(cells.arguments[i])
                        * np.abs(gamma).max(),
                    )
                    cells.expected[i] += 1e-6 * scale * np.eye(5)[i % 5]
                    return expected

                _read_blocks(monkeypatch, perturbed)
                code, _ = self.run(tmp_path, *params)
                assert code == EXIT_VERDICT, (name, rows[i], cols[i])

    def test_invalid_parameters_are_usage_errors(self, tmp_path, capsys):
        code, _ = self.run(tmp_path, lam=0.5, mu=1.0)
        assert code == EXIT_USAGE
        capsys.readouterr()
        # the closed-form cells overflow: one stderr line, and no numpy
        # warning (the suite turns warnings into errors)
        code, _ = self.run(tmp_path, lam=1e160, mu=1.0)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "closed-form connection cells overflow" in err


def _emitter_presets() -> list[tuple[float, float, float]]:
    """Admissible (lam, mu, xi): the three golden presets, then 20 moderate
    ones, 20 with lam, mu over 1e-3..1e6 and 20 at lam = mu or xi within
    1e-12 of 0 or 1."""
    rng = np.random.default_rng(909)
    presets = [(2.0, 1.0, 0.5), (3.0, 0.7, 0.9), (1.3, 1.1, 0.2)]
    for _ in range(20):
        lam = float(rng.uniform(0.5, 3.0))
        presets.append((lam, lam * float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.05, 0.95))))
    for _ in range(20):
        mu, lam = sorted(float(v) for v in 10.0 ** rng.uniform(-3, 6, 2))
        presets.append((lam, mu, float(rng.uniform(0.01, 0.99))))
    for i in range(20):
        lam = float(10.0 ** rng.uniform(-3, 6))
        edge = float(rng.uniform(0, 1e-12))
        xi = (edge or 1e-12, 1 - edge, float(rng.uniform(0.05, 0.95)))[i % 3]
        presets.append((lam, lam if i % 3 == 2 else lam * float(rng.uniform(0.2, 1.0)), xi))
    return presets


class TestReportInputs:
    """``table1``'s special flags and ``connection-tables``' poles do not
    depend on the parameters: each is drawn once per process, on first use."""

    def test_read_only_and_equal_to_a_fresh_draw(self):
        flags, poles = cli._report_flags(), cli._report_poles()
        assert cli._report_flags() is flags and cli._report_poles() is poles
        assert not flags.flags.writeable and not poles.flags.writeable
        rng = np.random.default_rng(cli._REPORT_SEED)
        fresh = np.array([special_flag_vectors(case_id, rng) for case_id in SPECIAL_FLAG_CASES])
        assert flags.shape == (8, 2, 5) and flags.tobytes() == fresh.tobytes()
        fresh = reference_poles(np.random.default_rng(cli._REPORT_SEED))
        assert poles.shape == (2, 5) and poles.tobytes() == fresh.tobytes()

    def test_not_drawn_at_import(self):
        script = (
            "import randersflag.cli as cli\n"
            "print(*(draw.cache_info().currsize for draw in (cli._report_flags, cli._report_poles)))"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], env=package_env(), capture_output=True, text=True,
            check=True,
        )
        assert result.stdout == "0 0\n"

    def test_two_runs_write_identical_files(self, tmp_path):
        # table1's twin is TestTable1.test_output_bytes_deterministic
        written = []
        for run in range(2):
            out = tmp_path / f"tables-{run}.json"
            argv = ["connection-tables", "--lambda", "3.0", "--mu", "0.7", "--xi", "0.9",
                    "--out", str(out)]
            assert main(argv) == EXIT_OK
            written.append(out.read_bytes())
        assert written[0] == written[1]


def _report_argv(command, out):
    return [command, "--lambda", "2", "--mu", "1", "--xi", "0.5", "--out", str(out)]


class TestOutputFile:
    """``--out`` is rewritten in place and cut to length; targets that are
    not regular files are written as streams; an I/O error exits 3 and
    leaves an empty file."""

    @pytest.mark.parametrize(
        "first, second", [("connection-tables", "table1"), ("table1", "connection-tables")]
    )
    def test_rewrite_leaves_the_bytes_of_a_fresh_run(self, tmp_path, first, second):
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        assert run_main(_report_argv(first, shared))[0] == EXIT_OK
        assert run_main(_report_argv(second, shared))[0] == EXIT_OK
        assert run_main(_report_argv(second, fresh))[0] == EXIT_OK
        assert shared.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("command", ["table1", "connection-tables"])
    def test_dev_null_is_written_as_a_stream(self, command):
        code, out, err = run_main(_report_argv(command, os.devnull))
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith(f"{command}: wrote {os.devnull}; ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", ["table1", "connection-tables"])
    def test_full_device_is_io_error(self, command):
        code, out, err = run_main(_report_argv(command, "/dev/full"))
        assert (code, out) == (EXIT_IO, "")
        # one line that names the file
        reason = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        assert err == f"I/O error: {reason}: '/dev/full'\n"

    def test_directory_is_io_error(self, tmp_path):
        code, out, err = run_main(_report_argv("table1", tmp_path))
        assert (code, out) == (EXIT_IO, "")
        assert len(err.splitlines()) == 1

    def test_existing_file_keeps_its_permission_bits(self, tmp_path):
        out = tmp_path / "table1.csv"
        out.write_text("old\n" * 10_000)
        out.chmod(0o604)
        assert run_main(_report_argv("table1", out))[0] == EXIT_OK
        assert stat.S_IMODE(out.stat().st_mode) == 0o604

    def test_failed_write_empties_the_file(self, tmp_path, monkeypatch):
        out = tmp_path / "tables.json"
        out.write_text("old\n" * 10_000)
        write, calls = os.write, []

        def write_once_then_fail(fd, data):
            calls.append(fd)
            if len(calls) > 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write(fd, data[:100])

        monkeypatch.setattr(cli.os, "write", write_once_then_fail)
        code, stdout, err = run_main(_report_argv("connection-tables", out))
        assert (code, stdout) == (EXIT_IO, "") and len(calls) == 2
        assert len(err.splitlines()) == 1 and err.endswith(f": {str(out)!r}\n")
        assert out.read_bytes() == b""


#: ``connection-tables`` layouts, ``(name, rows, cols)`` per block, whose
#: names and labels hold ``%`` and ``{}`` (template syntax), JSON escapes,
#: non-ASCII characters and JSON words (``null``, ``NaN``, ``true``), and a
#: block without cells.
EMITTER_LAYOUTS = {
    "percent": (
        ("%s%%", ("%s", "%(x)s", "100%"), ("%", "%d", "{}")),
        ("{0}{}", ("{}", '"%s"'), ("%%", "{x}")),
    ),
    "escapes": (
        ("\u00e9\u5757", ("\u00e9", "\U0001f600", "tab\t"), ('q"', "back\\slash", "\u2028")),
        ("\x00%", (), ()),
        ("e\n", ("e1",), ("W",)),
    ),
    "json_words": (
        ("null", ("null", "NaN", "true"), ('"null"', "e\\", "%s null")),
        ("true", ("false",), ("Infinity",)),
    ),
}


def _emitter_case(blocks, width, rng, ok=True):
    """The arguments of :func:`connection_tables_json` for ``blocks``, with
    vectors of ``width`` random numbers, and the document they stand for.
    About a third of the numbers are exact zeros of either sign, and the
    rest repeat 16 values, non-finite and subnormal ones among them."""
    pool = np.concatenate((
        rng.standard_normal(12) * 10.0 ** rng.integers(-300, 300, 12),
        [math.nan, math.inf, -math.inf, 5e-324],
    ))

    def numbers(*shape):
        zeros = np.copysign(0.0, rng.standard_normal(shape))
        return np.where(rng.random(shape) < 0.35, zeros, rng.choice(pool, shape))

    cells = sum(len(rows) for _, rows, _ in blocks)
    computed, expected, defects = numbers(cells, width), numbers(cells, width), numbers(cells)
    poles, (lam, mu, xi, max_defect) = numbers(len(blocks), width), numbers(4).tolist()
    layout = tuple((name, pole, rows, cols) for pole, (name, rows, cols) in enumerate(blocks))
    args = (lam, mu, xi, layout, poles, computed, expected, defects, max_defect, ok)
    return args, tables_document(*args)


class TestConnectionTablesJson:
    """``connection-tables`` writes the text of ``json.dumps(document,
    indent=2)``, running json's indenting encoder only for a layout's first
    document."""

    @pytest.mark.parametrize("params", _emitter_presets())
    def test_file_is_indent_2_json(self, tmp_path, params):
        lam, mu, xi = params
        out = tmp_path / "tables.json"
        code = main(["connection-tables", "--lambda", repr(lam), "--mu", repr(mu),
                     "--xi", repr(xi), "--out", str(out)])
        assert code in (EXIT_OK, EXIT_VERDICT)
        text = out.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    @pytest.mark.parametrize("ok", [True, False])
    def test_non_finite_and_extreme_numbers(self, ok):
        specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-05]
        computed = np.array([specials[:3], specials[3:6], specials[4:]])
        expected = computed[::-1] * -1.0
        defects = np.array([math.nan, 0.0, 1e-05])
        rows, cols = ("e1", "Wperp", "e\u00e9"), ("W", "Z", 'q"')
        layout = (("a", 0, rows[:2], cols[:2]), ("b", 1, rows[2:], cols[2:]))
        poles = np.array([[-0.0, 1e16, math.inf], [5e-324, 0.1, -1.5]])
        lam, mu, xi = 1e16, 5e-324, 1e-05
        document = {
            "lambda": lam,
            "mu": mu,
            "xi": xi,
            "blocks": {
                "a": {"pole": [-0.0, 1e16, math.inf], "cells": []},
                "b": {"pole": [5e-324, 0.1, -1.5], "cells": []},
            },
            "max_defect": math.nan,
            "pass": ok,
        }
        for i, (row, col) in enumerate(zip(rows, cols)):
            document["blocks"]["a" if i < 2 else "b"]["cells"].append({
                "row": row,
                "col": col,
                "computed": computed[i].tolist(),
                "closed_form": expected[i].tolist(),
                "defect": float(defects[i]),
            })
        text = connection_tables_json(
            lam, mu, xi, layout, poles, computed, expected, defects, math.nan, ok
        )
        assert text == json.dumps(document, indent=2) + "\n"

    @pytest.mark.parametrize("width", [3, 5])
    @pytest.mark.parametrize("layout", list(EMITTER_LAYOUTS))
    def test_labels_are_escaped(self, layout, width):
        rng = np.random.default_rng(width)
        args, document = _emitter_case(EMITTER_LAYOUTS[layout], width, rng, ok=width == 3)
        assert connection_tables_json(*args) == json.dumps(document, indent=2) + "\n"

    def test_one_template_per_layout(self):
        # layouts that differ only in a label, in the width or in a block
        # name, filled in turn in one process, each from its own template
        rng = np.random.default_rng(5)
        blocks = EMITTER_LAYOUTS["percent"]
        layouts = [
            (blocks, 3),
            ((blocks[0], (blocks[1][0], ("%s", "{}"), ("%d", "z"))), 3),
            (blocks, 5),
            (((blocks[0][0] + "%", *blocks[0][1:]), blocks[1]), 3),
        ]
        cases = [_emitter_case(blocks, width, rng) for blocks, width in layouts * 2]
        cli._document_template.cache_clear()
        for args, document in cases:
            assert connection_tables_json(*args) == json.dumps(document, indent=2) + "\n"
        assert cli._document_template.cache_info().currsize == len(layouts)

    def test_indenting_encoder_unused(self, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("connection-tables ran json's indenting encoder")

        out = tmp_path / "tables.json"
        argv = ["connection-tables", "--lambda", "2", "--mu", "1", "--xi", "0.5",
                "--out", str(out)]
        # the first document of a layout builds its template with json
        assert main(argv) == EXIT_OK
        monkeypatch.setattr(json.encoder, "_make_iterencode", forbidden)
        code = main(argv)
        assert code == EXIT_OK
        assert json.loads(out.read_text(encoding="utf-8"))["pass"] is True


def _pool_case(layout, pool):
    """The arguments of :func:`connection_tables_json` for ``layout`` with
    vectors of width 4 whose numbers, and the scalars, are drawn from
    ``pool``."""
    rng = np.random.default_rng(11)
    args, _ = _emitter_case(EMITTER_LAYOUTS[layout], 4, rng)
    layout, poles, computed, expected, defects = args[3:8]
    pool = np.array(pool)

    def numbers(shape):
        return rng.choice(pool, shape)

    poles = np.array([numbers(pole.shape) for pole in poles])
    lam, mu, xi, max_defect = numbers(4).tolist()
    return (lam, mu, xi, layout, poles, numbers(computed.shape), numbers(expected.shape),
            numbers(defects.shape), max_defect, args[9])


def _floats(node) -> list[float]:
    """The floats of a JSON document, in document order."""
    if isinstance(node, float):
        return [node]
    if isinstance(node, dict):
        node = list(node.values())
    return [x for item in node for x in _floats(item)] if isinstance(node, list) else []


def _spelled_once(args, monkeypatch) -> tuple[str, list]:
    """The emitter's text for ``args`` and the distinct numbers it spelled,
    checked: once the layout's template is built, a document makes one
    :func:`json.dumps` call, of a list with one entry per distinct bit
    pattern of its numbers, and its bytes are those of json's indenting
    encoder."""
    document = tables_document(*args)
    # the first document of a layout builds its template with json
    connection_tables_json(*args)
    spelled, dumps = [], json.dumps
    monkeypatch.setattr(json, "dumps", lambda obj, **kw: spelled.append(obj) or dumps(obj, **kw))
    text = connection_tables_json(*args)
    monkeypatch.undo()
    assert len(spelled) == 1 and isinstance(spelled[0], list)
    patterns = sorted(np.array(spelled[0]).view(np.int64).tolist())
    assert patterns == np.unique(np.array(_floats(document)).view(np.int64)).tolist()
    assert text == json.dumps(document, indent=2) + "\n"
    return text, spelled[0]


@pytest.mark.parametrize("layout", list(EMITTER_LAYOUTS))
def test_emitter_with_only_signed_zeros(layout, monkeypatch):
    # every number an exact zero of either sign: two bit patterns, spelled
    # 0.0 and -0.0
    text, spelled = _spelled_once(_pool_case(layout, [0.0, -0.0]), monkeypatch)
    assert len(spelled) == 2
    assert "-0.0" in text


@pytest.mark.parametrize("layout", list(EMITTER_LAYOUTS))
def test_emitter_spells_each_bit_pattern_once(layout, monkeypatch):
    # signed zeros, two NaNs that differ in their payload and a repeated
    # finite value: five bit patterns, each spelled once, both NaNs as NaN
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001]).view(float)
    text, spelled = _spelled_once(_pool_case(layout, [0.0, -0.0, *nans, 1.5]), monkeypatch)
    assert len(spelled) == 5
    assert all(token in text for token in ("-0.0", "NaN", "1.5"))


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_reused_parser_repeats_help_and_usage_errors(self, capsys):
        runs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as shown_help:
                main(["--help"])
            with pytest.raises(SystemExit) as usage_error:
                main(["flag", "--config"])
            runs.append((shown_help.value.code, usage_error.value.code, capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][:2] == (0, EXIT_USAGE)
        assert runs[0][2].out.startswith("usage: randersflag")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["search", "--seed", "1.5"], "argument --seed: invalid int value: '1.5'"),
            (["search", "--seed=-1e3"], "argument --seed: invalid int value: '-1e3'"),
            (["search", "--seed", "0", "--max-samples", "2.5"],
             "argument --max-samples: invalid int value: '2.5'"),
            # a dash token that starts like a number but is none is an option
            (["search", "--seed", "-nope"], "argument --seed: expected one argument"),
            (["table1", "--lambda", "2", "--mu", "1", "--xi", "abc", "--out", "t"],
             "argument --xi: invalid float value: 'abc'"),
            (["flag", "--w", "1,0,0,0,0", "--x", "abc"],
             "argument --x: expected comma-separated floats: "
             "could not convert string to float: 'abc'"),
            (["table1", "--lambda=--", "--mu", "1", "--xi", "0.5", "--out", "t"],
             "argument --lambda: invalid float value: '--'"),
        ],
        ids=["seed-fraction", "seed-float", "max-samples-fraction", "seed-dash-word", "xi-word",
             "x-word", "dashes"],
    )
    def test_refused_value_is_one_stderr_line(self, tmp_path, argv, message):
        # argparse's usage block is not printed: only the error line
        if argv[0] != "table1":
            argv = [*argv, "--config", write_config(tmp_path, PRESET)]
        code, out, err = run_main(argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"randersflag {argv[0]}: error: {message}\n"

    @pytest.mark.parametrize("xi", ["-1e-3", "-0.001", "-1E+2", "-inf", "-nan"])
    def test_negative_numbers_in_every_spelling_are_values(self, tmp_path, xi):
        argv = ["table1", "--lambda", "2", "--mu", "1", "--xi", xi, "--out", str(tmp_path / "t")]
        code, out, err = run_main(argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert len(err.splitlines()) == 1 and "0 < xi < 1" in err

    def test_negative_vector_entries_are_values(self, tmp_path):
        config = write_config(tmp_path, PRESET)
        w, x = "-0.3,0.5,-1e-1,0,1", "-1e0,0,0.5,0,-2.5e-1"
        spaced = run_main(["flag", "--config", config, "--w", w, "--x", x])
        joined = run_main(["flag", "--config", config, f"--w={w}", f"--x={x}"])
        assert spaced == joined and spaced[0] == EXIT_OK


class TestFlag:
    def test_center_pole_value(self, tmp_path, capsys):
        config = write_config(tmp_path, PRESET)
        code = main(["flag", "--config", config, "--w", "0,0,0,0,1", "--x", "0,0,1,0,0"])
        assert code == EXIT_OK
        document = json.loads(capsys.readouterr().out)
        assert document["degenerate"] is False
        assert document["k"] == pytest.approx(0.25, abs=1e-12)

    def test_degenerate_flag_reported_with_failure_exit(self, tmp_path, capsys):
        config = write_config(tmp_path, PRESET)
        code = main(["flag", "--config", config, "--w", "1,0,0,0,0", "--x", "1,0,0,0,0"])
        assert code == EXIT_VERDICT
        document = json.loads(capsys.readouterr().out)
        assert document["degenerate"] is True
        assert document["k"] is None

    def test_flat_explicit_model(self, tmp_path, capsys):
        config = write_config(tmp_path, ABELIAN)
        code = main(["flag", "--config", config, "--w", "1,0,0,0,0", "--x", "0,1,0,0,0"])
        assert code == EXIT_OK
        document = json.loads(capsys.readouterr().out)
        assert document["k"] == pytest.approx(0.0, abs=1e-14)

    def test_zero_vector_is_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path, PRESET)
        code = main(["flag", "--config", config, "--w", "0,0,0,0,0", "--x", "1,0,0,0,0"])
        assert code == EXIT_USAGE

    def test_non_finite_vector_is_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path, PRESET)
        code = main(["flag", "--config", config, "--w", "inf,0,0,0,0", "--x", "0,1,0,0,0"])
        assert code == EXIT_USAGE
        assert "finite" in capsys.readouterr().err

    def test_nan_deformation_in_config_is_usage_error(self, tmp_path, capsys):
        document = {"explicit": {"dim": 2, "brackets": [], "x0": [float("nan"), 0]}}
        config = write_config(tmp_path, document)
        with pytest.raises(ConfigError):
            load_model_config(config)
        code = main(["flag", "--config", config, "--w", "1,0", "--x", "0,1"])
        assert code == EXIT_USAGE
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["flag", "search", "verify"])
    def test_overflowing_kernel_is_usage_error(self, tmp_path, capsys, command):
        # [e1, e2] = 1e200 e3 passes the Jacobi check, but its curvatures
        # (~1e400) overflow a double: one stderr line and no numpy warning
        # (the suite turns warnings into errors)
        brackets = [{"i": 1, "j": 2, "k": 3, "value": 1e200}]
        document = {"explicit": {"dim": 3, "brackets": brackets, "x0": [0, 0.5, 0]}}
        config = write_config(tmp_path, document)
        options = {"flag": ["--w=1,0.2,0.3", "--x=0.1,1,0.2"], "search": ["--seed", "0"], "verify": []}
        assert main([command, "--config", config, *options[command]]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the input leaves double range: overflow")
        assert len(captured.err.splitlines()) == 1

    def test_missing_config_file_is_io_error(self, tmp_path):
        code = main(["flag", "--config", str(tmp_path / "nope.json"),
                     "--w", "1,0,0,0,0", "--x", "0,1,0,0,0"])
        assert code == EXIT_IO


class TestSearch:
    def test_certificate_emitted(self, tmp_path, capsys):
        config = write_config(
            tmp_path, {"preset": {"name": "heisenberg5", "lambda": 3.0, "mu": 1.0, "xi": 0.7}}
        )
        code = main(["search", "--config", config, "--seed", "0"])
        assert code == EXIT_OK
        document = json.loads(capsys.readouterr().out)
        assert document["positive_witness"]["k"] > 0
        assert document["negative_witness"]["k"] < 0
        assert document["samples_tried"] <= 8

    def test_flat_model_fails_with_diagnostic(self, tmp_path, capsys):
        config = write_config(tmp_path, ABELIAN)
        code = main(["search", "--config", config, "--seed", "0", "--max-samples", "64"])
        assert code == EXIT_VERDICT
        captured = capsys.readouterr()
        assert "no nonzero curvature" in captured.err

    @pytest.mark.parametrize("exponent", [-530, -535])
    def test_subnormal_curvatures_fail(self, tmp_path, exponent):
        # the flat e(2) + R^2 model, [e1, e2] = s e3, [e1, e3] = -s e2, at
        # brackets whose round-off curvatures are subnormal
        s = 2.0**exponent
        brackets = [{"i": 1, "j": 2, "k": 3, "value": s}, {"i": 1, "j": 3, "k": 2, "value": -s}]
        model = {"explicit": {"dim": 5, "brackets": brackets, "x0": [0] * 5}}
        config = write_config(tmp_path, model)
        code, stdout, err = run_main(["search", "--config", config, "--seed", "0"])
        assert (code, stdout) == (EXIT_VERDICT, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("search failure: no nonzero curvature found within 512 samples; ")
        assert err.endswith("not normal doubles\n")

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path, PRESET)
        code = main(["search", "--config", config, "--seed", "-1"])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be nonnegative, got -1\n"

    def test_deterministic_output(self, tmp_path, capsys):
        config = write_config(
            tmp_path, {"preset": {"name": "heisenberg5", "lambda": 1.0, "mu": 1.0, "xi": 0.1}}
        )
        main(["search", "--config", config, "--seed", "42"])
        first = capsys.readouterr().out
        main(["search", "--config", config, "--seed", "42"])
        second = capsys.readouterr().out
        assert first == second

    def test_small_brackets_certified(self, tmp_path, capsys):
        # K(Z, e1) = 2.5e-9 and K(e1, e2) = -6.9e-9 are far below an absolute
        # 1e-8 but not below the margin relative to the brackets' scale
        config = write_config(
            tmp_path, {"preset": {"name": "heisenberg5", "lambda": 1e-4, "mu": 1e-4, "xi": 0.5}}
        )
        assert main(["search", "--config", config, "--seed", "0"]) == EXIT_OK
        document = json.loads(capsys.readouterr().out)
        assert document["samples_tried"] == 4
        assert document["positive_witness"]["k"] == pytest.approx(2.5e-9, rel=1e-12)
        assert document["negative_witness"]["k"] == pytest.approx(-6.875e-9, rel=1e-12)


class TestVerify:
    def test_preset_passes(self, tmp_path, capsys):
        config = write_config(tmp_path, PRESET)
        code = main(["verify", "--config", config])
        assert code == EXIT_OK
        document = json.loads(capsys.readouterr().out)
        assert document["pass"] is True
        names = [check["name"] for check in document["checks"]]
        assert names == [
            "osculating_fd",
            "cartan_fd",
            "torsion",
            "almost_metric",
            "levi_civita_x0_zero",
        ]
        assert all(check["pass"] for check in document["checks"])

    def test_explicit_model_passes(self, tmp_path, capsys):
        config = write_config(tmp_path, EXPLICIT_HEISENBERG)
        code = main(["verify", "--config", config])
        assert code == EXIT_OK

    @pytest.mark.parametrize(
        "params", [(2.03e4, 1.79e4, 6.8e-6), (1.46e5, 8.4e3, 1 - 1.6e-6)]
    )
    def test_large_presets_pass(self, tmp_path, capsys, params):
        # well-computed tables whose absolute round-off is above 1e-10
        lam, mu, xi = params
        preset = {"preset": {"name": "heisenberg5", "lambda": lam, "mu": mu, "xi": xi}}
        code = main(["verify", "--config", write_config(tmp_path, preset)])
        assert code == EXIT_OK
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert max(c["max_defect"] / c["tolerance"] for c in checks.values()) <= 1.0
        assert checks["levi_civita_x0_zero"]["max_defect"] > 1e-12

    @pytest.mark.parametrize("params", [(2.0, 1.0, 0.5), (1.46e5, 8.4e3, 1 - 1.6e-6)])
    def test_perturbed_table_fails(self, tmp_path, monkeypatch, capsys, params):
        # one coefficient of every table moved by 1e-6 of the table's scale
        def perturbed(frame, rows):
            table = stage_three(frame, rows)
            gamma = table.gamma.copy()
            gamma[..., 0, 1, 2] += 1e-6 * max(1.0, np.abs(gamma).max())
            return dataclasses.replace(table, gamma=gamma)

        stage_three = connection._table
        monkeypatch.setattr(connection, "_table", perturbed)
        lam, mu, xi = params
        preset = {"preset": {"name": "heisenberg5", "lambda": lam, "mu": mu, "xi": xi}}
        code = main(["verify", "--config", write_config(tmp_path, preset)])
        assert code == EXIT_VERDICT
        checks = json.loads(capsys.readouterr().out)["checks"]
        failing = {c["name"] for c in checks if not c["pass"]}
        assert {"torsion", "levi_civita_x0_zero"} <= failing
        assert all((c["max_defect"] <= c["tolerance"]) == c["pass"] for c in checks)

    @pytest.mark.parametrize(
        "arithmetic, check", [("_osculating_product", "osculating_fd"), ("_cartan", "cartan_fd")]
    )
    def test_perturbed_oracle_fails(self, tmp_path, monkeypatch, capsys, arithmetic, check):
        # verify runs the closed forms' arithmetic on its own samples: a
        # closed form off by 1e-3 of its value fails its check, and only it
        closed_form = getattr(RandersStructure, arithmetic)

        def perturbed(structure, *vectors):
            return closed_form(structure, *vectors) * (1.0 + 1e-3)

        monkeypatch.setattr(RandersStructure, arithmetic, perturbed)
        code = main(["verify", "--config", write_config(tmp_path, PRESET)])
        assert code == EXIT_VERDICT
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [c["name"] for c in checks if not c["pass"]] == [check]
        assert all((c["max_defect"] <= c["tolerance"]) == c["pass"] for c in checks)

    def test_table_checks_print_scaled_tolerance(self, tmp_path, capsys):
        code = main(["verify", "--config", write_config(tmp_path, PRESET)])
        assert code == EXIT_OK
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks["osculating_fd"]["tolerance"] == 1e-6
        assert checks["cartan_fd"]["tolerance"] == 1e-4
        # heisenberg5(2, 1) has coefficients above 1 at a generic pole
        assert checks["torsion"]["tolerance"] > 1e-10
        assert checks["torsion"]["tolerance"] == checks["almost_metric"]["tolerance"]

    def test_low_dimension_near_unit_deformation_passes(self, tmp_path, capsys):
        # dim 3, [e1, e2] = e3, |x0| = 0.999999: the thinnest cartan_fd
        # margin found over dims 1-12 (8.4e-5 against 1e-4), so a change of
        # stencil, step or sample draw that eats it fails here
        u = np.array([0.98464, 0.16601, 0.05410])
        x0 = 0.999999 * u / np.linalg.norm(u)
        model = {"explicit": {"dim": 3, "brackets": [{"i": 1, "j": 2, "k": 3, "value": 1.0}],
                              "x0": x0.tolist()}}
        code = main(["verify", "--config", write_config(tmp_path, model)])
        assert code == EXIT_OK
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks["cartan_fd"]["max_defect"] <= 1e-4

    def test_zero_xi_preset_rejected(self, tmp_path):
        config = write_config(
            tmp_path, {"preset": {"name": "heisenberg5", "lambda": 2.0, "mu": 1.0, "xi": 0.0}}
        )
        assert main(["verify", "--config", config]) == EXIT_USAGE

    def test_oversized_deformation_rejected(self, tmp_path):
        config = write_config(
            tmp_path, {"explicit": {"dim": 5, "brackets": [], "x0": [0, 0, 0, 0, 1.2]}}
        )
        assert main(["verify", "--config", config]) == EXIT_USAGE


class _SequentialVerification:
    """The per-sample loop that ``run_verification`` replaced: unit vectors
    drawn one at a time, the oracles on one quadruple at a time with the
    difference stencils in Python floats, and one table per pole."""

    def __init__(self, structure):
        rng = np.random.default_rng(0)
        dim = structure.dim

        def unit():
            v = rng.standard_normal(dim)
            return v / np.linalg.norm(v)

        self.structure = structure
        self.quadruples = [(unit(), unit(), unit(), unit()) for _ in range(60)]
        self.poles = [unit() for _ in range(25)]
        self.zero_poles = [unit() for _ in range(5)]

    def f2(self, y):
        return (math.sqrt(float(y @ y)) + float(self.structure.x0 @ y)) ** 2

    def osculating_fd(self, w, u, v, h=1e-4):
        f2 = self.f2
        stencil = (
            f2(w + h * u + h * v)
            - f2(w + h * u - h * v)
            - f2(w - h * u + h * v)
            + f2(w - h * u - h * v)
        )
        return 0.5 * stencil / (4.0 * h * h)

    def cartan_fd(self, w, u, v, x, h=5e-3):
        total = 0.0
        for su, sv, sx in itertools.product((1.0, -1.0), repeat=3):
            total += su * sv * sx * self.f2(w + su * h * u + sv * h * v + sx * h * x)
        return 0.25 * total / (8.0 * h**3)

    def defects(self):
        s = self.structure
        osculating = cartan = torsion = metric = levi_civita = 0.0
        for w, u, v, x in self.quadruples:
            osculating = max(
                osculating, abs(s.osculating_product(w, u, v) - self.osculating_fd(w, u, v))
            )
            cartan = max(cartan, abs(s.cartan(w, u, v, x) - self.cartan_fd(w, u, v, x)))
        for pole in self.poles:
            table = chern_rund_table(s.osculating_gram(pole))
            torsion = max(torsion, torsion_defect(table))
            metric = max(metric, almost_metric_defect(table))
        zero = RandersStructure(s.algebra, np.zeros(s.dim))
        reference = levi_civita_table(s.algebra).gamma
        for pole in self.zero_poles:
            gamma = chern_rund_table(zero.osculating_gram(pole)).gamma
            levi_civita = max(levi_civita, float(np.abs(gamma - reference).max()))
        return {
            "osculating_fd": osculating,
            "cartan_fd": cartan,
            "torsion": torsion,
            "almost_metric": metric,
            "levi_civita_x0_zero": levi_civita,
        }


def _fd_roundoff(structure):
    """Largest differences of the stacked osculating and Cartan stencils
    from the sequential ones: each F^2 of a stencil may differ by one unit
    in the last place (an exact square against ``pow``), F^2 is at most
    ((1 + 3h)(1 + |x0|))^2 at unit vectors, and a stencil of m terms
    multiplies their sum by c.  Twice m ulps of F^2 times c, for each."""

    def bound(h, terms, scale):
        f2_max = ((1.0 + 3.0 * h) * (1.0 + float(np.linalg.norm(structure.x0)))) ** 2
        return 2.0 * terms * float(np.spacing(f2_max)) * scale

    return bound(1e-4, 4, 0.5 / (4.0 * 1e-4**2)), bound(5e-3, 8, 0.25 / (8.0 * 5e-3**3))


def _verification_models():
    rng = np.random.default_rng(12)
    return {
        "heisenberg5": model_config_from_dict(PRESET),
        "explicit12": RandersStructure(nilpotent_algebra(rng, 12), 0.5 * unit(rng, 12)),
    }


VERIFICATION_MODELS = _verification_models()


class TestStackedVerification:
    """run_verification evaluates its samples stacked and its tables in
    blocks; the outcome must be that of the per-sample loop."""

    @pytest.mark.parametrize("name", list(VERIFICATION_MODELS))
    def test_oracles_match_sequential_loop(self, name):
        structure = VERIFICATION_MODELS[name]
        sequential = _SequentialVerification(structure)
        rng = np.random.default_rng(0)
        stacked = rng.standard_normal((60, 4, structure.dim))
        stacked /= np.sqrt(np.vecdot(stacked, stacked))[..., None]
        # the same stream as the one-at-a-time draws, vector for vector
        assert np.array_equal(stacked, np.array(sequential.quadruples))
        w, u, v, x = np.moveaxis(stacked, 1, 0)
        closed = structure.osculating_product(w, u, v), structure.cartan(w, u, v, x)
        fd = structure.osculating_product_fd(w, u, v, 1e-4), structure.cartan_fd(w, u, v, x, 5e-3)
        osculating_bound, cartan_bound = _fd_roundoff(structure)
        # closed forms: 1e-13 relative, with a floor for values near zero
        # (their terms are products of unit vectors)
        for i, (wi, ui, vi, xi) in enumerate(sequential.quadruples):
            osculating = structure.osculating_product(wi, ui, vi)
            assert closed[0][i] == pytest.approx(osculating, rel=1e-13, abs=1e-15)
            assert closed[1][i] == pytest.approx(structure.cartan(wi, ui, vi, xi), rel=1e-13, abs=1e-15)
            assert abs(fd[0][i] - sequential.osculating_fd(wi, ui, vi)) <= osculating_bound
            assert abs(fd[1][i] - sequential.cartan_fd(wi, ui, vi, xi)) <= cartan_bound

    @pytest.mark.parametrize("name", list(VERIFICATION_MODELS))
    def test_checks_pass_and_match_sequential_loop(self, name):
        structure = VERIFICATION_MODELS[name]
        expected = _SequentialVerification(structure).defects()
        checks = run_verification(structure)
        assert [check["name"] for check in checks] == list(expected)
        for check in checks:
            assert check["pass"] is True
            assert check["max_defect"] <= check["tolerance"]
            assert expected[check["name"]] <= check["tolerance"]
        got = {check["name"]: check["max_defect"] for check in checks}
        osculating_bound, cartan_bound = _fd_roundoff(structure)
        assert abs(got["osculating_fd"] - expected["osculating_fd"]) <= osculating_bound
        assert abs(got["cartan_fd"] - expected["cartan_fd"]) <= cartan_bound

    @pytest.mark.parametrize("name", list(VERIFICATION_MODELS))
    def test_oracle_checks_are_the_public_oracles_numbers(self, name, capsys):
        # verify skips the public oracles' checks on the samples it draws,
        # not their arithmetic: the printed defects are those of the public
        # methods on the same unit samples, bit for bit
        structure = VERIFICATION_MODELS[name]
        assert cli.cmd_verify(structure) == EXIT_OK
        printed = {c["name"]: c["max_defect"] for c in json.loads(capsys.readouterr().out)["checks"]}
        draws = np.random.default_rng(cli._REPORT_SEED).standard_normal((60, 4, structure.dim))
        w, u, v, x = np.moveaxis(draws / np.sqrt(np.vecdot(draws, draws))[..., None], 1, 0)
        osculating = structure.osculating_product(w, u, v) - structure.osculating_product_fd(
            w, u, v, 1e-4
        )
        cartan = structure.cartan(w, u, v, x) - structure.cartan_fd(w, u, v, x, 5e-3)
        assert printed["osculating_fd"] == float(np.abs(osculating).max())
        assert printed["cartan_fd"] == float(np.abs(cartan).max())


class TestVerifySamples:
    """``verify``'s unit samples and the difference stencils on them depend
    only on the dimension: each is built once per process and dimension, on
    first use, by ``_verify_samples`` and ``_verify_stencils``."""

    @pytest.mark.parametrize("dim", [1, 5, 12])
    def test_equal_to_a_fresh_draw(self, dim):
        samples = cli._verify_samples(dim)
        assert cli._verify_samples(dim) is samples
        (w, u, v, x), poles, zero_poles = samples
        rng = np.random.default_rng(cli._REPORT_SEED)
        fresh = [_normalized(rng.standard_normal(shape + (dim,))) for shape in ((60, 4), (25,), (5,))]
        expected = [*np.moveaxis(fresh[0], 1, 0), *fresh[1:]]
        got = [w, u, v, x, poles, zero_poles]
        assert [a.shape for a in got] == [(60, dim)] * 4 + [(25, dim), (5, dim)]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]

    def test_second_run_draws_nothing(self, monkeypatch):
        calls = []
        original = np.random.default_rng

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        structure = VERIFICATION_MODELS["heisenberg5"]
        cli._verify_samples.cache_clear()
        first = run_verification(structure)
        assert calls == [(cli._REPORT_SEED,)]
        assert run_verification(structure) == first
        assert calls == [(cli._REPORT_SEED,)]

    def test_mixed_dims_match_fresh_runs(self):
        models = [VERIFICATION_MODELS[name] for name in ("heisenberg5", "explicit12", "heisenberg5")]
        assert [s.dim for s in models] == [5, 12, 5]
        cached = [run_verification(s) for s in models]
        fresh = []
        for structure in models:
            cli._verify_samples.cache_clear()
            cli._verify_stencils.cache_clear()
            fresh.append(run_verification(structure))
        assert cached == fresh

    @pytest.mark.parametrize("dim", [1, 5, 12])
    def test_stencils_equal_fresh_ones(self, dim):
        stencils = cli._verify_stencils(dim)
        assert cli._verify_stencils(dim) is stencils
        (w, u, v, x), _, _ = cli._verify_samples(dim)
        osculating_step, cartan_step = cli._VERIFY_STEPS
        fresh = _stencil(osculating_step, w, u, v), _stencil(cartan_step, w, u, v, x)
        for got, expected, k in zip(stencils, fresh, (2, 3)):
            assert [a.shape for a in got] == [(2,) * k + (60, dim), (2,) * k + (60,)]
            assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]

    def test_second_run_builds_no_stencil(self, monkeypatch):
        calls = []
        original = cli._stencil

        def counting(h, *vectors):
            calls.append(h)
            return original(h, *vectors)

        monkeypatch.setattr(cli, "_stencil", counting)
        structure = VERIFICATION_MODELS["heisenberg5"]
        cli._verify_stencils.cache_clear()
        first = run_verification(structure)
        assert calls == list(cli._VERIFY_STEPS)
        assert run_verification(structure) == first
        assert calls == list(cli._VERIFY_STEPS)


class TestCheckBudget:
    """Each sample is checked once, by the public entry it first reaches:
    ``verify`` and ``sign_search`` only normalize the samples they draw, and
    the frames built on them make the one check.  A tracer on the checking
    primitive ``lie_algebra._checked_vector``, in every module that holds
    it, counts the checks by the shapes they see, whichever name
    (``_as_vector``, ``_checked_pole``, ``_transverse``) reached it."""

    @pytest.fixture
    def checks(self, monkeypatch):
        original = lie_algebra._checked_vector
        shapes = []

        def counting(x, dim, stacked=False):
            shapes.append(np.shape(x))
            return original(x, dim, stacked)

        for name, module in list(sys.modules.items()):
            held = getattr(module, "_checked_vector", None)
            if name.startswith("randersflag") and held is original:
                monkeypatch.setattr(module, "_checked_vector", counting)
        return shapes

    def test_verification_checks_only_its_frames_and_structures(self, checks):
        structure = VERIFICATION_MODELS["heisenberg5"]
        assert all(check["pass"] for check in run_verification(structure))
        # the frame at the 25 poles, the zero structure, the frame at the 5
        # zero-x0 poles; the Levi-Civita reference is read from the structure
        # constants, with no structure or frame of its own
        assert checks == [(25, 5), (5,), (5, 5)]

    def test_flat_search_checks_each_chunk_once(self, checks):
        flat = RandersStructure(MetricLieAlgebra(np.zeros((7, 7, 7))), np.zeros(7))
        checks.clear()
        with pytest.raises(SearchFailure):
            curvature.sign_search(flat, seed=0, max_samples=sum(curvature.SEARCH_CHUNKS[:3]))
        # one check per chunk: its frame's, of the poles
        assert checks == [(8, 7), (16, 7), (32, 7)]

    @pytest.mark.parametrize(
        "oracle, arity",
        [("osculating_product", 3), ("osculating_product_fd", 3), ("cartan", 4), ("cartan_fd", 4)],
    )
    def test_public_oracle_checks_each_argument_once(self, checks, oracle, arity):
        structure = VERIFICATION_MODELS["heisenberg5"]
        getattr(structure, oracle)(*np.eye(5)[:arity])
        assert checks == [(5,)] * arity

    def test_flag_report_checks_its_vector_once(self, checks):
        structure = VERIFICATION_MODELS["heisenberg5"]
        table = chern_rund_table(structure.osculating_gram(np.eye(5)[0]))
        checks.clear()
        curvature.flag_report(table, np.eye(5)[1])
        # the table's frame checked its pole when it was built
        assert checks == [(5,)]

    def test_curvature_operator_checks_each_argument_once(self, checks):
        structure = VERIFICATION_MODELS["heisenberg5"]
        table = chern_rund_table(structure.osculating_gram(np.eye(5)[0]))
        checks.clear()
        curvature.curvature_operator(table, *np.eye(5)[1:4])
        assert checks == [(5,)] * 3


def _private_imports(tree, module: str) -> list[str]:
    """The underscore names a module's ``from .<module> import`` takes."""
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == module and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    ]


class TestDependencies:
    def test_cli_uses_only_public_table_names(self):
        # the blocked table build lives in connection; cli reaches it only
        # through public names
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        assert _private_imports(tree, "connection") == []
        assert not any(
            isinstance(node, ast.Attribute) and node.attr == "_poles" for node in ast.walk(tree)
        )

    def test_cli_uses_only_public_curvature_names(self):
        # table1 evaluates its flags through the public flag_curvature
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        assert _private_imports(tree, "curvature") == []

    def test_stage_arithmetic_is_private(self):
        # the Koszul stages and the frame's Cartan matrix check nothing, so
        # the package exports none of them, and cli reaches them only through
        # the checked entries
        for name in ("_nabla_w_of_w", "_nabla_basis_w", "_cartan_matrix"):
            assert not hasattr(randersflag, name)
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        assert _private_imports(tree, "connection") == []

    def test_sources_parse_as_the_oldest_supported_python(self):
        # the suite runs on one interpreter; the grammar of the oldest one
        # that pyproject.toml admits refuses newer syntax such as except*
        root = Path(__file__).resolve().parent.parent
        pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
        assert 'requires-python = ">=3.10"' in pyproject
        sources = sorted([*(root / "src").rglob("*.py"), *(root / "tests").rglob("*.py")])
        assert len(sources) > 10
        for path in sources:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))

    def test_scipy_never_imported(self, tmp_path):
        config = write_config(tmp_path, PRESET)
        script = f"""
import sys
import randersflag as rf
from randersflag import cli, connection

s = rf.RandersStructure(rf.heisenberg5(2.0, 1.0), [0, 0, 0, 0, 0.5])
rf.flag_curvature(s, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0])
rf.chern_rund_table(s.osculating_gram([1, 0, 0, 0, 0]))
assert cli.main(["verify", "--config", {config!r}]) == 0
assert "scipy" not in sys.modules, "scipy was imported"
"""
        result = subprocess.run(
            [sys.executable, "-c", script], env=package_env(), capture_output=True, text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
