"""The README's library quick start and the benchmark's self-test, each run
in a child interpreter, and the README's dotted library names, so a library
change that breaks or renames what they use fails here first."""

import importlib
import inspect
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import randersflag
from helpers import package_env

ROOT = Path(__file__).parent.parent


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library quick start\n+```python\n(.*?)^```", readme, re.S | re.M)[1]
    result = subprocess.run(
        [sys.executable, "-c", block], env=package_env(), capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    # one output line per print; a trailing comment shows the line printed
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    printed = result.stdout.splitlines()
    assert len(printed) == len(prints)
    shown = [(line.partition("#")[2].strip(), out) for line, out in zip(prints, printed)]
    assert ("-2.75", "-2.75") in shown
    assert all(out == comment for comment, out in shown if comment)


def test_readme_dotted_names_resolve():
    # each backticked `module.name` (a randersflag submodule) or `Class.name`
    # (a class of __all__) names an attribute the library has
    owners = {
        info.name: importlib.import_module(f"randersflag.{info.name}")
        for info in pkgutil.iter_modules(randersflag.__path__)
        if not info.name.startswith("_")
    }
    owners.update(
        (name, value)
        for name in randersflag.__all__
        if inspect.isclass(value := getattr(randersflag, name))
    )
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    names = [pair for pair in re.findall(r"`(\w+)\.(\w+)", readme) if pair[0] in owners]
    assert len(names) >= 5
    assert [f"{owner}.{name}" for owner, name in names if not hasattr(owners[owner], name)] == []


def test_benchmark_selftest_passes():
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")], env=package_env(),
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines()[-1] == "selftest: ok"
