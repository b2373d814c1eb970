"""Chern-Rund connections and flag curvatures of left-invariant Randers
metrics on metric Lie algebras, with the five-dimensional Heisenberg model
built in (:mod:`randersflag.reference_tables`)."""

from .connection import (
    ConnectionTable,
    almost_metric_defect,
    chern_rund_table,
    chern_rund_tables,
    levi_civita_table,
    torsion_defect,
)
from .curvature import (
    FlagReport,
    SignCertificate,
    curvature_operator,
    flag_curvature,
    flag_report,
    riemannian_sectional,
    sign_search,
)
from .errors import (
    ConfigError,
    DegenerateReferenceVector,
    DimensionMismatch,
    DomainError,
    GeometryError,
    InternalConsistencyError,
    ParameterError,
    SearchFailure,
)
from .lie_algebra import MetricLieAlgebra, ValidationReport
from .randers import BerwaldReport, OsculatingFrame, RandersStructure
from .reference_tables import (
    SPECIAL_FLAG_CASES,
    heisenberg5,
    special_flag_closed_form,
    special_flag_vectors,
    w_perp,
    z_randers,
)

__version__ = "0.1.0"

__all__ = [
    "BerwaldReport",
    "ConfigError",
    "ConnectionTable",
    "DegenerateReferenceVector",
    "DimensionMismatch",
    "DomainError",
    "FlagReport",
    "GeometryError",
    "InternalConsistencyError",
    "MetricLieAlgebra",
    "OsculatingFrame",
    "ParameterError",
    "RandersStructure",
    "SearchFailure",
    "SignCertificate",
    "SPECIAL_FLAG_CASES",
    "ValidationReport",
    "almost_metric_defect",
    "chern_rund_table",
    "chern_rund_tables",
    "curvature_operator",
    "flag_curvature",
    "flag_report",
    "heisenberg5",
    "levi_civita_table",
    "riemannian_sectional",
    "sign_search",
    "special_flag_closed_form",
    "special_flag_vectors",
    "torsion_defect",
    "w_perp",
    "z_randers",
]
