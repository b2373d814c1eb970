"""The README's library quick start and the benchmark's self-test, each run
in a child interpreter, and the README's dotted library names, so a library
change that breaks or renames what they use fails here first; and the
per-process caches of ``cli``, which later runs share."""

import importlib
import inspect
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import randersflag
from helpers import package_env
from randersflag import cli

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


#: Arguments to call each cache of ``cli`` with; a cache not named here is
#: called with none, so a new cache that takes arguments must be named.
_CACHE_CALLS = {
    "_verify_samples": [(1,), (5,), (12,)],
    "_verify_stencils": [(1,), (5,), (12,)],
    "_document_template": [((("block", ("r",), ("c",)),), 5)],
}


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)


def test_cached_report_inputs_are_read_only():
    # a cached array is shared by every later run in the process, so a
    # caller that wrote into it would corrupt them: none may be writable
    caches = {name: fn for name, fn in vars(cli).items() if hasattr(fn, "cache_info")}
    arrays = {
        f"{name}{args}": list(_arrays(fn(*args)))
        for name, fn in caches.items()
        for args in _CACHE_CALLS.get(name, [()])
    }
    assert all(arrays[f"{name}()"] for name in ("_report_flags", "_report_poles"))
    assert all(len(arrays[f"_verify_samples({dim},)"]) == 6 for dim in (1, 5, 12))
    assert all(len(arrays[f"_verify_stencils({dim},)"]) == 4 for dim in (1, 5, 12))
    assert [call for call, found in arrays.items() if any(a.flags.writeable for a in found)] == []
