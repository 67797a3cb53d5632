"""Weighted simplicial complexes.

A weighted complex is a finite simplicial complex together with a natural
number weight per simplex that never increases when passing from a face to
a coface. A simplex is a sorted tuple of string vertex labels; every
deterministic tie-break downstream uses the lexicographic order on those
tuples.

The boundary of an edge (a, b) is b - a; in general the i-th face drops
the i-th smallest vertex and carries sign (-1)^i.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import (
    DimensionOutOfRange,
    DuplicateSimplex,
    EmptyInput,
    InvalidSimplex,
    MissingFace,
    MonotonicityViolation,
    SimplexTooLarge,
)

__all__ = [
    "WeightedComplex",
    "BoundaryMatrix",
    "build_complex",
    "from_maximal",
    "complete_faces",
    "boundary_exponent_matrix",
]


def _canonical_labels(vertices):
    labels = tuple(sorted(str(v) for v in vertices))
    if not labels:
        raise InvalidSimplex("empty simplex")
    if len(set(labels)) != len(labels):
        raise InvalidSimplex(f"repeated vertex in simplex {{{' '.join(labels)}}}")
    return labels


def _check_weight(labels, w):
    if isinstance(w, bool) or not isinstance(w, int) or w < 0:
        raise ValueError(
            f"weight of {{{' '.join(labels)}}} must be a non-negative integer, got {w!r}"
        )


class WeightedComplex:
    """Immutable weighted complex. Construct via build_complex and friends."""

    __slots__ = ("_weights", "_per_dim", "dim")

    def __init__(self, weight_by_labels):
        # weight_by_labels: {sorted label tuple: weight}, assumed validated
        self._weights = dict(weight_by_labels)
        self.dim = max(len(s) for s in self._weights) - 1
        per_dim = [[] for _ in range(self.dim + 1)]
        for s in self._weights:
            per_dim[len(s) - 1].append(s)
        self._per_dim = tuple(tuple(sorted(d)) for d in per_dim)

    def __contains__(self, simplex):
        s = tuple(simplex)
        if s in self._weights:
            return True
        try:
            return _canonical_labels(s) in self._weights
        except InvalidSimplex:
            return False

    def __len__(self):
        return len(self._weights)

    def __eq__(self, other):
        return isinstance(other, WeightedComplex) and self._weights == other._weights

    def __repr__(self):
        return f"WeightedComplex({len(self)} simplices, dim {self.dim})"

    def weight(self, simplex) -> int:
        s = tuple(simplex)
        w = self._weights.get(s)
        if w is None:
            w = self._weights[_canonical_labels(s)]
        return w

    def total_weight(self) -> int:
        return sum(self._weights.values())

    def n_simplices(self, n):
        """All n-simplices in ascending lexicographic id order."""
        if n < 0 or n > self.dim:
            return ()
        return self._per_dim[n]

    def simplices(self):
        for d in self._per_dim:
            yield from d


def _listing(pairs, canonical):
    """{labels: weight} of (vertices, weight) pairs, labelled by canonical,
    refusing a bad weight, a simplex listed twice and an empty listing."""
    weights = {}
    for vertices, w in pairs:
        labels = canonical(vertices)
        _check_weight(labels, w)
        if labels in weights:
            raise DuplicateSimplex(labels)
        weights[labels] = w
    if not weights:
        raise EmptyInput("no simplices given")
    return weights


def build_complex(pairs) -> WeightedComplex:
    """Build from (vertices, weight) pairs listing every simplex explicitly.

    Validates distinct records, face closure, and weight monotonicity
    (a face never weighs less than its cofaces).
    """
    weights = _listing(pairs, _canonical_labels)
    for labels, w in weights.items():
        if len(labels) == 1:
            continue
        # combinations drops the last vertex first, so faces are scanned in
        # ascending lexicographic order, for deterministic error reporting
        for face in combinations(labels, len(labels) - 1):
            wf = weights.get(face)
            if wf is None:
                raise MissingFace(labels, face)
            if wf < w:
                raise MonotonicityViolation(face, labels, wf, w)
    return WeightedComplex(weights)


# 2**20 - 1 = 1,048,575 faces: the most one record may make the closure list
MAX_CLOSURE_VERTICES = 20


def _closable_labels(vertices):
    """Canonical labels of a record whose faces will be filled in, refused
    before any enumeration when it has more than MAX_CLOSURE_VERTICES vertices."""
    labels = _canonical_labels(vertices)
    if len(labels) > MAX_CLOSURE_VERTICES:
        raise SimplexTooLarge(labels, MAX_CLOSURE_VERTICES)
    return labels


def _heaviest_cofaces(listed):
    """{face: weight of the heaviest listed simplex containing it} over the
    closure of the listed simplices (a listed simplex contains itself).

    Top-down, one dimension at a time: every simplex of the closure pushes
    its value to its facets once, so the work is linear in the faces.
    """
    by_size = {}
    for s, w in listed.items():
        by_size.setdefault(len(s), []).append((s, w))
    out = {}
    level = {}
    for k in range(max(by_size), 0, -1):
        for s, w in by_size.get(k, ()):
            if level.get(s, -1) < w:
                level[s] = w
        out.update(level)
        # the vertices push to the empty face, which is never read
        below = {}
        for s, w in level.items():
            for face in combinations(s, k - 1):
                if below.get(face, -1) < w:
                    below[face] = w
        level = below
    return out


def from_maximal(simplices, weight: int) -> WeightedComplex:
    """Closure of the given simplices with one uniform weight: complete_faces
    over the distinct ones, so a simplex repeated in any vertex order merges."""
    return complete_faces((s, weight) for s in dict.fromkeys(map(_closable_labels, simplices)))


def complete_faces(pairs) -> WeightedComplex:
    """Build from an incomplete listing, filling in missing faces.

    A missing face receives the maximum weight among the listed simplices
    that contain it, the least weight that keeps monotonicity possible.
    The listed simplices themselves must already be mutually monotone: the
    first listed simplex, by dimension and then listing order, that has a
    heavier listed coface raises MonotonicityViolation against the first
    such coface in the same order. A record with more than
    MAX_CLOSURE_VERTICES vertices raises SimplexTooLarge before any face is
    generated. The work is linear in the number of faces of the closure.
    """
    listed = _listing(pairs, _closable_labels)
    weights = _heaviest_cofaces(listed)
    items = sorted(listed.items(), key=lambda kv: len(kv[0]))
    for s, ws in items:
        if weights[s] > ws:
            sset = set(s)
            t, wt = next(
                (t, wt) for t, wt in items if len(t) > len(s) and ws < wt and sset.issubset(t)
            )
            raise MonotonicityViolation(s, t, ws, wt)
    # the closure holds every face, and each face weighs the most of its
    # listed cofaces, so it is monotone once the listed check has passed
    return WeightedComplex(weights)


@dataclass(frozen=True)
class BoundaryMatrix:
    """Sparse weighted boundary structure in dimension n.

    Rows are the (n-1)-simplices, columns the n-simplices, both in the
    complex's lexicographic order. Each column holds (row index, sign,
    exponent) triples; the exponent is weight(face) - weight(simplex),
    always non-negative by monotonicity. Dropping the exponents gives the
    ordinary boundary matrix over a coefficient field. In the library only
    the --check oracle (wsh.oracle) builds one: the fast path reads each
    column off the faces of its simplex instead.
    """

    n: int
    row_simplices: tuple
    col_simplices: tuple
    columns: tuple


def boundary_exponent_matrix(X: WeightedComplex, n: int) -> BoundaryMatrix:
    """The BoundaryMatrix of dimension n, for 1 <= n <= X.dim.

    Column j lists the n + 1 faces of the j-th n-simplex s by the vertex
    they drop: the i-th triple drops the i-th smallest vertex of s, has
    sign (-1)^i and exponent weight(face) - weight(s). Each face costs one
    lookup in a map of the (n-1)-simplices to their row index and weight.
    The oracle's weighted_boundary_matrix is the one caller in the library.
    """
    if n < 1 or n > X.dim:
        raise DimensionOutOfRange(n, f"boundary defined for 1 <= n <= {X.dim}, got {n}")
    rows = X.n_simplices(n - 1)
    cols = X.n_simplices(n)
    weights = X._weights
    row_of = {f: (i, weights[f]) for i, f in enumerate(rows)}
    drops = [(i, (-1) ** i) for i in range(n + 1)]
    columns = []
    for s in cols:
        ws = weights[s]
        col = []
        for i, sign in drops:
            r, wf = row_of[s[:i] + s[i + 1 :]]
            col.append((r, sign, wf - ws))
        columns.append(tuple(col))
    return BoundaryMatrix(n, rows, cols, tuple(columns))
