"""Exact evaluation of flat-surface volume polynomials.

The central object is the piecewise polynomial v on the simplex of
cone-angle weights, computed by a recursion over star graphs whose
terms are exact polytope integrals of power-series kernels.  Weights,
values, and integrals are all rational; floats appear only in the
final volume normalization and in diagnostics.
"""

from .exact import (
    MultiPoly,
    Rational,
    TruncatedSeries,
    format_rational,
    fresh_var,
    parse_rational,
)
from .graphs import (
    DomainInfo,
    FlattenState,
    OuterVertex,
    StarGraph,
    StarTree,
    WeightVector,
    domain_of,
    enumerate_k_twists,
    enumerate_star_graphs,
    flatten,
)
from .kernels import (
    ALL_CONVENTIONS,
    DEFAULT_CONVENTION,
    PRINTED_CONVENTION,
    AabTable,
    ConventionFlags,
    aab_table,
    det_factor_forms,
    kernel_A,
    q_factor,
    series_S,
)
from .polytopes import Block, CascadePolytope, integrate, lattice_sum
from .recursion import (
    FlatValue,
    RiemannRow,
    ScanRow,
    evaluate,
    genus0_oracle,
    riemann_diagnostic,
    scan,
    volhat,
    volume_normalization,
)
from .validate import ValidationReport, run_validation

__version__ = "0.1.0"

__all__ = [
    "AabTable",
    "ALL_CONVENTIONS",
    "Block",
    "CascadePolytope",
    "ConventionFlags",
    "DEFAULT_CONVENTION",
    "DomainInfo",
    "FlatValue",
    "FlattenState",
    "MultiPoly",
    "OuterVertex",
    "PRINTED_CONVENTION",
    "Rational",
    "RiemannRow",
    "ScanRow",
    "StarGraph",
    "StarTree",
    "TruncatedSeries",
    "ValidationReport",
    "WeightVector",
    "aab_table",
    "det_factor_forms",
    "domain_of",
    "enumerate_k_twists",
    "enumerate_star_graphs",
    "evaluate",
    "flatten",
    "format_rational",
    "fresh_var",
    "genus0_oracle",
    "integrate",
    "kernel_A",
    "lattice_sum",
    "parse_rational",
    "q_factor",
    "riemann_diagnostic",
    "run_validation",
    "scan",
    "series_S",
    "volhat",
    "volume_normalization",
]
