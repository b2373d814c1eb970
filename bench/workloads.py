"""The four closed-loop workloads.

A workload builds its models once (this is the set-up that ``setup_s``
times), then hands out ops from a fixed interleaved cycle of op kinds.  An op
is a zero-argument call into the library plus a check of its result; the
inputs of each op are drawn from the run's seeded generator before the call,
so the timed region holds the library call only.

The cycles are fixed so that every run has the same mix, and the shares are
chosen so that no reported percentile falls on the boundary between two op
kinds of different cost (see README.md).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checks
import inputs
import randersflag as rf
from randersflag import cli


@dataclass
class Op:
    call: Callable[[], Any]
    # (result, error) -> reason or None; run untimed
    check: Callable[[Any, BaseException | None], str | None]
    # flag samples evaluated, read off the result
    samples: Callable[[Any, BaseException | None], int] = lambda result, error: 1
    # bytes emitted to stdout and files
    bytes_out: Callable[[Any], int] = lambda result: 0


class Workload:
    name = ""
    cycle: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: str):
        # models come from their own stream so that set-up is identical
        # whether or not ops are drawn afterwards
        self.model_rng = np.random.default_rng([seed, 0])
        self.workdir = workdir
        self.build()

    def build(self) -> None:
        raise NotImplementedError

    def op(self, kind: str, rng: np.random.Generator) -> Op:
        raise NotImplementedError


def _flag_with_invariance(structure, w, x, rng):
    """Op computing K(w, x); its check recomputes K(c w, a x + b w)."""
    a, b, c = inputs.mixing(rng)

    def check(report, error):
        if error is not None:
            return f"raised {error!r}"
        return checks.invariant(report, rf.flag_curvature(structure, c * w, a * x + b * w))

    return Op(lambda: rf.flag_curvature(structure, w, x), check)


class H5Flags(Workload):
    """Dim-5 overhead regime: one flag_curvature per op on heisenberg5,
    eight special-family flags then eight generic ones per cycle."""

    name = "h5_flags"
    cycle = tuple(rf.SPECIAL_FLAG_CASES) + ("generic",) * 8
    models = 32

    def build(self) -> None:
        self.pool = []
        for _ in range(self.models):
            params = inputs.heisenberg_params(self.model_rng)
            self.pool.append((params, inputs.heisenberg_model(*params)))
        self.turn = 0

    def op(self, kind, rng):
        params, structure = self.pool[self.turn % len(self.pool)]
        self.turn += 1
        if kind == "generic":
            return _flag_with_invariance(structure, *inputs.generic_flag(5, rng), rng)
        w, x = inputs.special_flag(kind, rng)

        def check(report, error):
            if error is not None:
                return f"raised {error!r}"
            return checks.special_flag(report, kind, *params)

        return Op(lambda: rf.flag_curvature(structure, w, x), check)


class H5Search(Workload):
    """sign_search per op over heisenberg5 (special-family exit, table
    cache hits), Riemannian 2-step nilpotent dims 7-9 (random-phase exit)
    and the flat abelian model (budget exhaustion, SearchFailure expected).

    Per 25 ops: 16 heisenberg5, 8 nilpotent, 1 flat.  The flat ops are the
    slowest 4%, so the p98 tail lies in the middle of them; heisenberg5
    searches cost the same every time and fill the middle of the
    distribution, so the median lies inside them.  By time the flat ops are
    about 85% of the mix.
    """

    name = "h5_search"
    cycle = ("h5", "nil", "h5") * 8 + ("flat",)

    def build(self) -> None:
        rng = self.model_rng
        self.heisenberg = []
        for _ in range(16):
            params = inputs.heisenberg_params(rng)
            self.heisenberg.append((params, inputs.heisenberg_model(*params)))
        self.nilpotent = [
            rf.RandersStructure(inputs.validated(inputs.nilpotent_constants(dim, rng)), np.zeros(dim))
            for dim in (7, 8, 9) * 4
        ]
        self.flat = inputs.flat_model(rng)
        self.turns = {"h5": 0, "nil": 0}

    def _next(self, kind, pool):
        item = pool[self.turns[kind] % len(pool)]
        self.turns[kind] += 1
        return item

    def op(self, kind, rng):
        seed = inputs.search_seed(rng)
        if kind == "flat":
            structure = self.flat
            check = checks.flat_search
        elif kind == "h5":
            params, structure = self._next(kind, self.heisenberg)

            def check(result, error):
                return checks.heisenberg_certificate(result, error, *params)
        else:
            structure = self._next(kind, self.nilpotent)

            def check(result, error):
                return checks.riemannian_certificate(result, error, structure)

        def samples(result, error):
            return checks.SEARCH_BUDGET if error is not None else result.samples_tried

        return Op(lambda: rf.sign_search(structure, seed), check, samples)


class WideFlags(Workload):
    """n^4 regime: one flag_curvature per op at dims 16/24/32/40 on random
    2-step nilpotent and rank-one solvable algebras, half with x0 = 0.

    Per 25 ops: 10 at dim 16, 8 at 24, 6 at 32, 1 at 40, so the median lies
    inside the dim-24 ops (40%-72% of the ops) and the p98 tail in the middle
    of the dim-40 ops (the slowest 4%).  By time the mix is about 8% dim
    16, 23% dim 24, 51% dim 32 and 19% dim 40.
    """

    name = "wide_flags"
    cycle = (16, 24, 32) * 6 + (16, 24, 16, 24, 16, 40, 16)

    def build(self) -> None:
        rng = self.model_rng
        self.variants = {}
        for dim in sorted(set(self.cycle)):
            nil = inputs.validated(inputs.nilpotent_constants(dim, rng))
            solv = inputs.validated(inputs.solvable_constants(dim, rng))
            self.variants[dim] = [
                rf.RandersStructure(nil, np.zeros(dim)),
                rf.RandersStructure(solv, inputs.random_x0(dim, rng)),
                rf.RandersStructure(solv, np.zeros(dim)),
                rf.RandersStructure(nil, inputs.random_x0(dim, rng)),
            ]
        self.turns = dict.fromkeys(self.variants, 0)

    def op(self, dim, rng):
        structure = self.variants[dim][self.turns[dim] % 4]
        self.turns[dim] += 1
        w, x = inputs.generic_flag(dim, rng)
        if np.any(structure.x0):
            return _flag_with_invariance(structure, w, x, rng)

        def check(report, error):
            if error is not None:
                return f"raised {error!r}"
            return checks.riemannian(report, structure, w, x)

        return Op(lambda: rf.flag_curvature(structure, w, x), check)


@dataclass
class CliResult:
    rc: int
    stdout: str


class Reports(Workload):
    """In-process ``cli.main`` per op over a fixed cycle of subcommands.

    Per 25 ops: 2 flag, 2 search, 5 table1, 10 connection-tables, 5 verify
    on a heisenberg5 preset, 1 verify on an explicit dim-12 model.  Sorted
    by cost the kinds fall roughly in that order, so the median lies inside
    the connection-tables ops (36%-76% of the ops) and the p98 tail in the
    middle of the explicit verify ops (the slowest 4%).
    """

    name = "reports"
    cycle = (
        ("flag", "table1", "connection-tables", "verify-h5", "connection-tables")
        + ("search", "table1", "connection-tables", "verify-h5", "connection-tables")
    ) * 2 + ("table1", "connection-tables", "verify-h5", "connection-tables", "verify-explicit")
    explicit_dim = 12

    def build(self) -> None:
        rng = self.model_rng
        self.explicit = []
        for _ in range(4):
            algebra = inputs.validated(inputs.nilpotent_constants(self.explicit_dim, rng))
            structure = rf.RandersStructure(algebra, inputs.random_x0(self.explicit_dim, rng, 0.1, 0.6))
            self.explicit.append(self._write(f"explicit{len(self.explicit)}.json", inputs.explicit_config(structure)))
        self.turn = 0
        self.out = os.path.join(self.workdir, "out")

    def _write(self, name: str, document: dict) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
        return path

    @staticmethod
    def _main(argv) -> Callable[[], CliResult]:
        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
            return CliResult(rc, buf.getvalue())

        return call

    def op(self, kind, rng):
        self.turn += 1
        if kind == "verify-explicit":
            config = self.explicit[self.turn % len(self.explicit)]
            return self._op(["verify", "--config", config], False, checks.verify_output)
        params = inputs.heisenberg_params(rng)
        lam, mu, xi = params
        preset_args = ["--lambda", repr(lam), "--mu", repr(mu), "--xi", repr(xi), "--out", self.out]
        if kind == "table1":
            return self._op(
                ["table1", *preset_args], True,
                lambda rc, out, doc: checks.table1_output(rc, out, doc, *params),
                samples=len(rf.SPECIAL_FLAG_CASES),
            )
        if kind == "connection-tables":
            return self._op(["connection-tables", *preset_args], True, checks.connection_tables_output)
        config = self._write("preset.json", inputs.preset_config(*params))
        if kind == "verify-h5":
            return self._op(["verify", "--config", config], False, checks.verify_output)
        if kind == "search":
            seed = inputs.search_seed(rng)
            return self._op(
                ["search", "--config", config, "--seed", str(seed)], False,
                lambda rc, out: checks.search_output(rc, out, *params),
                samples=checks.HEISENBERG_SEARCH_SAMPLES,
            )
        case_id = rf.SPECIAL_FLAG_CASES[self.turn % len(rf.SPECIAL_FLAG_CASES)]
        w, x = inputs.special_flag(case_id, rng)
        coords = [",".join(repr(float(v)) for v in vec) for vec in (w, x)]
        return self._op(
            # "=" form: a leading minus would otherwise read as an option
            ["flag", "--config", config, f"--w={coords[0]}", f"--x={coords[1]}"], False,
            lambda rc, out: checks.flag_output(rc, out, case_id, *params),
        )

    def _op(self, argv, writes, check_fields, samples=1) -> Op:
        out = self.out

        def check(result, error):
            if error is not None:
                return f"raised {error!r}"
            if writes:
                with open(out, encoding="utf-8") as fh:
                    return check_fields(result.rc, result.stdout, fh.read())
            return check_fields(result.rc, result.stdout)

        def bytes_out(result):
            written = os.path.getsize(out) if writes else 0
            return len(result.stdout.encode()) + written

        return Op(self._main(argv), check, lambda result, error: samples, bytes_out)


WORKLOADS = {cls.name: cls for cls in (H5Flags, H5Search, WideFlags, Reports)}
