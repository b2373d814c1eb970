"""Outside-in tracing: spans around calls into the library's public functions.

Nothing in the library is instrumented.  ``Tracer.patch`` replaces each
traced function with a wrapper at run time, in every ``randersflag`` module
namespace that binds it (``curvature.chern_rund_table`` and
``cli.chern_rund_table`` are two bindings of one function), and methods on
their class.  A name the library no longer has is skipped, so its layer reads
zero rather than failing.

Spans (name, start, end, parent, op id) are kept in memory and written out
when the run ends.  A layer's self time is its span time minus the time its
direct child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

import randersflag as rf


def _columns(args, kwargs, result, error) -> int:
    rhs = args[1] if len(args) > 1 else kwargs.get("rhs")
    return 1 if getattr(rhs, "ndim", 1) == 1 else int(rhs.shape[1])


def _degenerate(args, kwargs, result, error) -> int:
    return int(bool(getattr(result, "degenerate", False)))


def _samples(args, kwargs, result, error) -> int:
    if error is None:
        return int(result.samples_tried)
    bound = _SIGN_SEARCH_SIGNATURE.bind(*args, **kwargs)
    bound.apply_defaults()
    return int(bound.arguments["max_samples"])


_SIGN_SEARCH_SIGNATURE = inspect.signature(rf.sign_search)

#: layer name -> (module, class or None, attribute names, per-span count)
TARGETS = {
    "randers.osculating_gram": ("randers", "RandersStructure", ("osculating_gram",), None),
    "randers.solve": ("randers", "OsculatingFrame", ("solve",), _columns),
    "randers.oracles": (
        "randers", "RandersStructure",
        ("osculating_product", "osculating_product_fd", "cartan", "cartan_fd"), None,
    ),
    "connection.nabla_w_of_w": ("connection", None, ("nabla_w_of_w",), None),
    "connection.chern_rund_table": ("connection", None, ("chern_rund_table",), None),
    "connection.defects": ("connection", None, ("torsion_defect", "almost_metric_defect"), None),
    "connection.levi_civita_table": ("connection", None, ("levi_civita_table",), None),
    "curvature.flag_curvature": ("curvature", None, ("flag_curvature",), None),
    "curvature.flag_report": ("curvature", None, ("flag_report",), _degenerate),
    "curvature.curvature_operator": ("curvature", None, ("curvature_operator",), None),
    "curvature.sign_search": ("curvature", None, ("sign_search",), _samples),
    "lie_algebra.bracket": ("lie_algebra", "MetricLieAlgebra", ("bracket",), None),
    "lie_algebra.validate": ("lie_algebra", "MetricLieAlgebra", ("validate",), None),
    "reference_tables.reference_blocks": ("reference_tables", None, ("reference_blocks",), None),
    "cli.main": ("cli", None, ("main",), None),
    "cli.run_verification": ("cli", None, ("run_verification",), None),
}

OP = "op"


class Tracer:
    def __init__(self):
        self.names = [OP, *TARGETS]
        # one entry per span, in start order
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.op_id: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.count: list[int] = []
        self.stack: list[int] = []
        self.current_op = -1

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op_id.append(self.current_op)
        self.end.append(0)
        self.count.append(0)
        self.stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        self.stack.pop()

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op; library spans are recorded only inside one."""
        self.current_op = op_id
        index = self._open(0)
        try:
            yield
        finally:
            self._close(index)
            self.current_op = -1

    def _wrap(self, fn, name_id: int, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            index = tracer._open(name_id)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                tracer._close(index)
                if counter is not None:
                    tracer.count[index] = counter(args, kwargs, result, error)

        return wrapper

    @contextmanager
    def patch(self):
        """Install the wrappers for the duration of the block."""
        modules = [
            module for name, module in list(sys.modules.items())
            if name == "randersflag" or name.startswith("randersflag.")
        ]
        undo = []
        for name_id, (layer, (module_name, class_name, attrs, counter)) in enumerate(TARGETS.items(), 1):
            module = sys.modules.get(f"randersflag.{module_name}")
            owner = getattr(module, class_name, None) if class_name else module
            for attr in attrs:
                original = owner.__dict__.get(attr) if owner is not None else None
                if original is None:
                    continue
                wrapper = self._wrap(original, name_id, counter)
                holders = [owner] if class_name else [
                    m for m in modules if any(v is original for v in vars(m).values())
                ]
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapper)
                            undo.append((holder, key, original))
        try:
            yield
        finally:
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)

    def _child_ns(self) -> list[int]:
        child = [0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return child

    def counts(self) -> dict:
        """Per layer: calls and per-span counts, over all spans and over the
        spans nested inside a sign_search span."""
        def zero():
            return {"calls": 0, "count": 0}

        layers, within_search = defaultdict(zero), defaultdict(zero)
        search_id = self.names.index("curvature.sign_search")
        for i, name_id in enumerate(self.name_id):
            name = self.names[name_id]
            groups = [layers[name]]
            if self._has_ancestor(i, search_id):
                groups.append(within_search[name])
            for entry in groups:
                entry["calls"] += 1
                entry["count"] += self.count[i]
        return {"layers": layers, "within_search": within_search}

    def self_ns_by_op(self, n_ops: int) -> dict[str, list[int]]:
        """Self time of each layer within each op; ``OP`` maps to the op
        root's own self time and ``"total"`` to the whole op."""
        child = self._child_ns()
        by_op = {name: [0] * n_ops for name in (*self.names, "total")}
        for i, name_id in enumerate(self.name_id):
            duration = self.end[i] - self.start[i]
            by_op[self.names[name_id]][self.op_id[i]] += duration - child[i]
            if name_id == 0:
                by_op["total"][self.op_id[i]] = duration
        return by_op

    def _has_ancestor(self, i: int, name_id: int) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.name_id[p] == name_id:
                return True
            p = self.parent[p]
        return False

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\tcount\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name_id[i]]}\t{self.start[i]}\t{self.end[i]}\t"
                    f"{self.parent[i]}\t{self.op_id[i]}\t{self.count[i]}\n"
                )


class CallCounter:
    """Exact interpreter call counts under ``sys.setprofile``."""

    def __init__(self):
        self.py = 0
        self.c = 0

    def _profile(self, frame, event, arg):
        if event == "call":
            self.py += 1
        elif event == "c_call":
            self.c += 1

    @contextmanager
    def counting(self):
        sys.setprofile(self._profile)
        try:
            yield
        finally:
            sys.setprofile(None)
