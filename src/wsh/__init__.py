"""Weighted simplicial homology over the ring F[[pi]].

A weighted complex assigns each simplex a non-negative integer weight that
can only shrink when passing to a coface. Scaling each simplex by pi to its
weight turns the simplicial boundary map into a map of free modules over
the power series ring, and its homology picks up torsion that plain
homology cannot see. This package computes those modules two independent
ways: a fast path that never leaves the residue field, and a truncated
series verifier used for cross-checking. The package exports the names
of the README's Library section; the rest is imported from its module:
wsh.complexes, wsh.fields, wsh.fileio, wsh.homology, wsh.oracle, wsh.errors.
"""

from .complexes import build_complex
from .fields import FieldSpec
from .fileio import parse_complex_file
from .homology import cycle_basis, homology_all

__version__ = "0.1.0"

__all__ = ["FieldSpec", "build_complex", "cycle_basis", "homology_all", "parse_complex_file"]
