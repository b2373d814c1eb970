"""The README's library quick start and the benchmark's self-test, each run
in a child interpreter, the README's dotted library names and the
benchmark's traced layer names, so a library change that breaks or renames
what they use fails here first; and the per-process caches of ``cli`` and
the modules' array constants, which later runs share."""

import ast
import importlib
import inspect
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
    "_document_template": [((("block", 0, ("r",), ("c",)),), 5)],
}


#: Containers that a caller can change in place.
_MUTABLE = (list, dict, set, bytearray)


#: The ``TARGETS`` layers of ``bench/tracing.py`` that name an attribute the
#: library no longer has (ROADMAP item 13): ``OsculatingFrame.solve`` is
#: gone, and ``nabla_w_of_w`` is private.  The tracer skips such a name, so
#: its layer reads zero.
_STALE_BENCH_LAYERS = {"randers.solve", "connection.nabla_w_of_w"}


def _bench_targets() -> dict:
    """``TARGETS`` of ``bench/tracing.py``, read from its source without
    running it: per layer its module, its class or ``None``, and its
    attribute names."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    (targets,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TARGETS"
    ]
    return {
        ast.literal_eval(key): tuple(map(ast.literal_eval, value.elts[:3]))
        for key, value in zip(targets.keys, targets.values)
    }


def test_bench_layers_name_library_attributes():
    # the tracer wraps what the owner's own namespace binds, as
    # bench/tracing.py's Tracer.patch looks it up, and skips the rest
    targets = _bench_targets()
    assert "reference_tables.reference_blocks" in targets and len(targets) >= 10
    stale = set()
    for layer, (module, owner, attributes) in targets.items():
        namespace = importlib.import_module(f"randersflag.{module}")
        namespace = vars(namespace).get(owner) if owner else namespace
        if namespace is None or not all(name in vars(namespace) for name in attributes):
            stale.add(layer)
    assert stale == _STALE_BENCH_LAYERS


def _leaves(value):
    """The items of a cached result, found through its tuples (named tuples
    included)."""
    if isinstance(value, tuple):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def _shared_writable(value) -> list:
    """The parts of a cached result that a caller could write into: mutable
    containers and writable arrays."""
    return [
        leaf for leaf in _leaves(value)
        if isinstance(leaf, _MUTABLE) or isinstance(leaf, np.ndarray) and leaf.flags.writeable
    ]


def test_cached_report_inputs_are_read_only():
    # a cached result is shared by every later run in the process, so a
    # caller that wrote into it would corrupt them: no array in it may be
    # writable, and no list, dict, set or bytearray may be in it, however
    # deeply its tuples nest
    caches = {name: fn for name, fn in vars(cli).items() if hasattr(fn, "cache_info")}
    results = {
        f"{name}{args}": fn(*args)
        for name, fn in caches.items()
        for args in _CACHE_CALLS.get(name, [()])
    }
    arrays = {
        call: [leaf for leaf in _leaves(result) if isinstance(leaf, np.ndarray)]
        for call, result in results.items()
    }
    assert all(arrays[f"{name}()"] for name in ("_report_flags", "_report_poles"))
    assert all(len(arrays[f"_verify_samples({dim},)"]) == 6 for dim in (1, 5, 12))
    assert all(len(arrays[f"_verify_stencils({dim},)"]) == 4 for dim in (1, 5, 12))
    (pieces,) = (
        result for call, result in results.items() if call.startswith("_document_template")
    )
    assert type(pieces) is tuple and {type(piece) for piece in pieces} == {str}
    assert [call for call, result in results.items() if _shared_writable(result)] == []


def _module_arrays() -> list:
    """``(name, array)`` for every array that the globals of ``randersflag``
    and its public modules reach through tuples."""
    modules = [randersflag] + [
        importlib.import_module(f"randersflag.{info.name}")
        for info in pkgutil.iter_modules(randersflag.__path__)
        if not info.name.startswith("_")
    ]
    return [
        (f"{module.__name__}.{name}", leaf)
        for module in modules
        for name, value in vars(module).items()
        for leaf in _leaves(value)
        if isinstance(leaf, np.ndarray)
    ]


def test_module_constants_are_read_only():
    # a module's array constants are shared by every call in the process,
    # so a caller that wrote into one would corrupt the later calls
    arrays = _module_arrays()
    assert {"randersflag.reference_tables.POLE_OF_CELL", "randersflag.reference_tables._GATHER",
            "randersflag.reference_tables.CANONICAL_FLAGS"} <= {name for name, _ in arrays}
    assert [name for name, array in arrays if array.flags.writeable] == []


@pytest.mark.parametrize("value", [
    [1.0], {"a": 1}, {1}, bytearray(b"x"), np.zeros(2), (("a", ["b"]),),
    (1, ("a", (bytearray(b"x"),))), (np.zeros(1).view(),),
])
def test_shared_writable_finds_each_mutable_part(value):
    assert _shared_writable(value)
