"""Config ingestion, the five subcommands, exit codes, and output formats."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import randersflag
from randersflag import ConfigError, RandersStructure
from randersflag.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERDICT,
    load_model_config,
    main,
    model_config_from_dict,
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
        ],
    )
    def test_invalid_configs_rejected(self, document):
        with pytest.raises(ConfigError):
            model_config_from_dict(document)

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

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_model_config(str(path))


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

    def test_round_trip_verdict_stable(self, tmp_path):
        _, out = self.run(tmp_path, 3.0, 0.5, 0.9)
        rows = list(csv.DictReader(out.read_text().splitlines()))
        recomputed = max(
            abs(float(r["k_computed"]) - float(r["k_closed_form"])) for r in rows
        )
        emitted = max(float(r["abs_err"]) for r in rows)
        assert recomputed == pytest.approx(emitted, abs=1e-15)
        assert (recomputed <= 1e-9) == (emitted <= 1e-9)


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
        assert (worst <= 1e-10) == document["pass"]

    def test_invalid_parameters_are_usage_errors(self, tmp_path):
        code, _ = self.run(tmp_path, lam=0.5, mu=1.0)
        assert code == EXIT_USAGE


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

    def test_deterministic_output(self, tmp_path, capsys):
        config = write_config(
            tmp_path, {"preset": {"name": "heisenberg5", "lambda": 1.0, "mu": 1.0, "xi": 0.1}}
        )
        main(["search", "--config", config, "--seed", "42"])
        first = capsys.readouterr().out
        main(["search", "--config", config, "--seed", "42"])
        second = capsys.readouterr().out
        assert first == second


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


class TestDependencies:
    def test_scipy_never_imported(self, tmp_path):
        config = write_config(tmp_path, PRESET)
        script = f"""
import sys
import randersflag as rf
from randersflag import cli

s = rf.RandersStructure(rf.heisenberg5(2.0, 1.0), [0, 0, 0, 0, 0.5])
rf.flag_curvature(s, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0])
rf.chern_rund_table(s.osculating_gram([1, 0, 0, 0, 0]))
assert cli.main(["verify", "--config", {config!r}]) == 0
assert "scipy" not in sys.modules, "scipy was imported"
"""
        src = os.path.dirname(os.path.dirname(randersflag.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
