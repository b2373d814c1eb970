"""Junk arguments fuzzed through the public library API.

The library's counterpart of ``test_config_fuzz.py`` and
``test_argv_fuzz.py``: every public function and method of
``randersflag.__all__`` that takes user data (coordinate vectors, structure
constants, scalar parameters, integers, case ids, generators) is called with
each junk value in turn in each of its data arguments, the others valid.
Each call must return or raise a :class:`GeometryError`, never another
exception or a warning.  The entries that take stacked flags are fuzzed
with a stacked valid call too (``STACKED``).  Arguments that are the
library's own objects (an algebra, a structure, a frame, a table) are passed
valid: they are not data.

``ENTRIES`` maps each such callable to a call with those objects bound and
its valid data arguments; ``EXEMPT`` names each public callable that takes
no user data, with the reason.  A callable added to ``__all__``, or a public
method added to one of its classes, must get a row in one of the two."""

import inspect
import math
import warnings

import numpy as np
import pytest

import randersflag as rf
from randersflag import GeometryError

E = np.eye(5)
Z = E[4]

STRUCTURE = rf.z_randers(2.0, 1.0, 0.5)
ALGEBRA = STRUCTURE.algebra
TABLE = rf.chern_rund_table(STRUCTURE.osculating_gram(E[0]))
TABLES = rf.chern_rund_table(STRUCTURE.osculating_gram(E[:2]))

#: Junk for any data argument: values of the wrong kind, shape or range.
JUNK = {
    "None": None,
    "True": True,
    "-1": -1,
    "1.5": 1.5,
    "nan": math.nan,
    "inf": math.inf,
    "str": "1",
    "complex": 1j,
    "object": object(),
    "ragged": [[1.0, 2.0], [3.0]],
    "wrong-length": np.ones(3),
    "zero-vector": np.zeros(5),
    "nan-vector": np.full(5, math.nan),
    "inf-vector": np.full(5, math.inf),
}

#: Public callable -> (call with the library objects bound, valid data
#: arguments).
ENTRIES = {
    "MetricLieAlgebra": (rf.MetricLieAlgebra, (ALGEBRA.structure,)),
    "MetricLieAlgebra.basis_vector": (ALGEBRA.basis_vector, (0,)),
    "MetricLieAlgebra.bracket": (ALGEBRA.bracket, (E[0], E[1])),
    "RandersStructure": (lambda x0: rf.RandersStructure(ALGEBRA, x0), (0.5 * Z,)),
    "RandersStructure.finsler_norm": (STRUCTURE.finsler_norm, (E[0],)),
    "RandersStructure.osculating_product": (STRUCTURE.osculating_product, (Z, E[0], E[1])),
    "RandersStructure.osculating_product_fd": (
        STRUCTURE.osculating_product_fd, (Z, E[0], E[1], 1e-4)),
    "RandersStructure.osculating_gram": (STRUCTURE.osculating_gram, (Z,)),
    "RandersStructure.cartan": (STRUCTURE.cartan, (E[0], E[1], E[2], E[3])),
    "RandersStructure.cartan_fd": (STRUCTURE.cartan_fd, (E[0], E[1], E[2], E[3], 1e-2)),
    "OsculatingFrame": (lambda w: rf.OsculatingFrame(STRUCTURE, w), (Z,)),
    "ConnectionTable.derivative": (TABLE.derivative, (E[1], E[2])),
    "curvature_operator": (
        lambda x, y, z: rf.curvature_operator(TABLE, x, y, z), (E[1], E[0], E[0])),
    "flag_curvature": (lambda w, x: rf.flag_curvature(STRUCTURE, w, x), (Z, E[0])),
    "flag_report": (lambda x: rf.flag_report(TABLE, x), (E[1],)),
    "riemannian_sectional": (lambda x, y: rf.riemannian_sectional(ALGEBRA, x, y), (E[0], E[1])),
    "sign_search": (lambda seed, n: rf.sign_search(STRUCTURE, seed, n), (0, 8)),
    "heisenberg5": (rf.heisenberg5, (2.0, 1.0)),
    "z_randers": (rf.z_randers, (2.0, 1.0, 0.5)),
    "special_flag_closed_form": (rf.special_flag_closed_form, ("1.1", 2.0, 1.0, 0.5)),
    "special_flag_vectors": (rf.special_flag_vectors, ("2.2", np.random.default_rng(0))),
    "w_perp": (lambda w: rf.w_perp(ALGEBRA, w), (E[0],)),
}

#: Entry of ``ENTRIES`` -> a call with stacked valid data arguments.
STACKED = {
    "flag_curvature": (lambda w, x: rf.flag_curvature(STRUCTURE, w, x), (E[[4, 0]], E[[0, 1]])),
    "flag_report": (lambda x: rf.flag_report(TABLES, x), (E[[1, 2]],)),
    "riemannian_sectional": (
        lambda x, y: rf.riemannian_sectional(ALGEBRA, x, y), (E[[0, 2]], E[[1, 3]])),
}

#: Every fuzzed call by its test id.
CALLS = {**ENTRIES, **{f"{name}, stacked": call for name, call in STACKED.items()}}

_RECORD = "a result record the library builds"

#: Public callables that take no user data, with the reason.
EXEMPT = {
    "BerwaldReport": _RECORD,
    "ConnectionTable": _RECORD,
    "FlagReport": _RECORD,
    "SignCertificate": _RECORD,
    "ValidationReport": _RECORD,
    "MetricLieAlgebra.validate": "takes no argument",
    "RandersStructure.is_berwald": "takes no argument",
    "chern_rund_table": "takes a frame only",
    "chern_rund_tables": "takes a frame only",
    "torsion_defect": "takes a table only",
    "almost_metric_defect": "takes a table only",
    "levi_civita_table": "takes an algebra only",
}


def public_callables():
    """The callables of ``__all__`` and the public methods of its classes,
    by dotted name; exception types, which take a message, are left out."""
    for name in rf.__all__:
        value = getattr(rf, name)
        if not callable(value) or (inspect.isclass(value) and issubclass(value, Exception)):
            continue
        yield name
        if inspect.isclass(value):
            for attribute, member in vars(value).items():
                if not attribute.startswith("_") and inspect.isfunction(member):
                    yield f"{name}.{attribute}"


def test_every_public_callable_has_a_row():
    names = set(public_callables())
    assert names - set(ENTRIES) - set(EXEMPT) == set()
    # and no row names a callable that is gone
    assert set(ENTRIES) | set(EXEMPT) <= names
    assert set(STACKED) <= set(ENTRIES)


@pytest.mark.parametrize("name", list(CALLS))
def test_valid_arguments_return(name):
    call, args = CALLS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(*args)


@pytest.mark.parametrize("name", list(CALLS))
def test_junk_returns_or_raises_geometry_error(name):
    call, args = CALLS[name]
    offenders = []
    for position in range(len(args)):
        for label, junk in JUNK.items():
            trial = list(args)
            trial[position] = junk
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    call(*trial)
            except GeometryError:
                pass
            except Exception as exc:  # anything else is a finding
                offenders.append(f"argument {position} = {label}: {type(exc).__name__}: {exc}")
    assert offenders == []
