"""Weighted simplicial homology over the ring F[[pi]].

A weighted complex assigns each simplex a non-negative integer weight that
can only shrink when passing to a coface. Scaling each simplex by pi to its
weight turns the simplicial boundary map into a map of free modules over
the power series ring, and its homology picks up torsion that plain
homology cannot see. This package computes those modules two independent
ways: a fast path that never leaves the residue field, and a truncated
series verifier used for cross-checking.
"""

from .complexes import (
    BoundaryMatrix,
    WeightedComplex,
    boundary_exponent_matrix,
    build_complex,
    complete_faces,
    from_maximal,
    signed_faces,
)
from .errors import (
    ComplexError,
    DimensionOutOfRange,
    DuplicateSimplex,
    EmptyInput,
    InvalidSimplex,
    MismatchedDimensions,
    MissingFace,
    MonotonicityViolation,
    ParseError,
    PrecisionExhausted,
    ZeroChain,
)
from .fields import FieldSpec
from .fileio import (
    parse_complex_file,
    render_json_report,
    render_text_report,
    serialize_complex,
)
from .homology import (
    CycleBasis,
    HomologyModule,
    PairedSimplices,
    SimplexPairing,
    WeightedChain,
    cycle_basis,
    homology_all,
    lift_cycle,
)
from .oracle import (
    SeriesMatrix,
    TruncatedSeries,
    chain_to_series,
    choose_precision,
    homology_via_snf,
    in_column_span,
    snf_valuations,
    weighted_boundary_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryMatrix",
    "ComplexError",
    "CycleBasis",
    "DimensionOutOfRange",
    "DuplicateSimplex",
    "EmptyInput",
    "FieldSpec",
    "HomologyModule",
    "InvalidSimplex",
    "MismatchedDimensions",
    "MissingFace",
    "MonotonicityViolation",
    "PairedSimplices",
    "ParseError",
    "PrecisionExhausted",
    "SeriesMatrix",
    "SimplexPairing",
    "TruncatedSeries",
    "WeightedChain",
    "WeightedComplex",
    "ZeroChain",
    "boundary_exponent_matrix",
    "build_complex",
    "chain_to_series",
    "choose_precision",
    "complete_faces",
    "cycle_basis",
    "from_maximal",
    "homology_all",
    "homology_via_snf",
    "in_column_span",
    "lift_cycle",
    "parse_complex_file",
    "render_json_report",
    "render_text_report",
    "serialize_complex",
    "signed_faces",
    "snf_valuations",
    "weighted_boundary_matrix",
]
