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

from collections import defaultdict
from itertools import chain, combinations, repeat

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
    "boundary_rows",
]


def _canonical_labels(vertices):
    labels = tuple(sorted(str(v) for v in vertices))
    if not labels:
        raise InvalidSimplex("empty simplex")
    if len(set(labels)) != len(labels):
        raise InvalidSimplex(f"repeated vertex in simplex {{{' '.join(labels)}}}")
    return labels


# the digits int() converts from a string under CPython's default limit; the
# reader refuses a longer weight and the builders a larger one, so every
# complex they accept serializes and reads back whatever the interpreter's setting
MAX_WEIGHT_DIGITS = 4300
_WEIGHT_BOUND = 10**MAX_WEIGHT_DIGITS


def _check_weight(labels, w):
    if isinstance(w, bool) or not isinstance(w, int) or w < 0:
        raise ValueError(
            f"weight of {{{' '.join(labels)}}} must be a non-negative integer, got {w!r}"
        )
    if w >= _WEIGHT_BOUND:
        raise ValueError(
            f"weight of {{{' '.join(labels)}}} has more than {MAX_WEIGHT_DIGITS} digits"
        )


def _check_labels(vertices):
    """Refuse a vertex label that the record format would not read back as
    that one vertex: it must be one whitespace-free str.split token, hold
    no ';', and not start with '#', '!' or a byte order mark (U+FEFF)."""
    for [label] in vertices:
        if label.split() != [label] or ";" in label or label[0] in "#!\ufeff":
            raise InvalidSimplex(f"label {label!r} would not read back as one vertex", label)


class WeightedComplex:
    """Immutable weighted complex. Construct via build_complex and friends.

    It keeps the validated {sorted label tuple: weight} dict it is given,
    without a copy: every builder passes a fresh one and keeps no other
    reference to it. Every builder and the reader end here, so this is
    where a vertex label the record format cannot hold is refused.
    """

    __slots__ = ("_weights", "_per_dim", "dim")

    def __init__(self, weight_by_labels):
        self._weights = weight_by_labels
        # one walk over the simplices; a list per dimension is added when
        # the first simplex of that size or larger comes
        per_dim = []
        for s in weight_by_labels:
            try:
                per_dim[len(s) - 1].append(s)
            except IndexError:
                per_dim.extend([] for _ in range(len(s) - len(per_dim)))
                per_dim[-1].append(s)
        self.dim = len(per_dim) - 1
        self._per_dim = tuple(tuple(sorted(d)) for d in per_dim)
        _check_labels(self.n_simplices(0))

    def __contains__(self, simplex):
        try:
            self.weight(simplex)
        except (KeyError, InvalidSimplex):
            return False
        return True

    def __len__(self):
        return len(self._weights)

    def __eq__(self, other):
        return isinstance(other, WeightedComplex) and self._weights == other._weights

    def __repr__(self):
        return f"WeightedComplex({len(self)} simplices, dim {self.dim})"

    def weight(self, simplex) -> int:
        # one lookup for a simplex of X in canonical order, as chains hold them;
        # any other spelling, a list included, is canonicalised and looked up again
        try:
            return self._weights[simplex]
        except (KeyError, TypeError):
            pass
        return self._weights[_canonical_labels(simplex)]

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


def _listing(pairs):
    """{canonical labels: weight} of (vertices, weight) pairs, refusing a
    bad weight, a simplex listed twice and an empty listing."""
    weights = {}
    for vertices, w in pairs:
        labels = _canonical_labels(vertices)
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
    return _closed(_listing(pairs))


def _closed(weights):
    """The complex of a canonical listing {labels: weight} that must hold
    every face, refusing a missing face and a face lighter than a coface."""
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


def _heaviest_cofaces(listed):
    """{face: weight of the heaviest listed simplex containing it} over the
    closure of the listed simplices (a listed simplex contains itself).

    Top-down, one dimension at a time: every simplex of the closure pushes
    its value to its facets once, so the work is linear in the faces. The
    simplices of a level are grouped by weight, and each group's facets are
    generated and stored in one C-level pass (itertools.combinations into
    dict.fromkeys), lightest group first: a face pushed by several cofaces
    is overwritten by each heavier one, so it keeps the heaviest weight.
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
        if k == 1:
            break
        by_weight = defaultdict(list)
        for s, w in level.items():
            by_weight[w].append(s)
        level = {}
        for w in sorted(by_weight):
            faces = chain.from_iterable(map(combinations, by_weight[w], repeat(k - 1)))
            level.update(dict.fromkeys(faces, w))
    return out


def from_maximal(simplices, weight: int) -> WeightedComplex:
    """Closure of the given simplices with one uniform weight: complete_faces
    over the distinct ones, so a simplex repeated in any vertex order merges."""
    listed = dict.fromkeys(map(_canonical_labels, simplices), weight)
    if not listed:
        raise EmptyInput("no simplices given")
    _check_weight(next(iter(listed)), weight)
    return _completed(listed)


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
    return _completed(_listing(pairs))


def _completed(listed):
    """The closure of a canonical listing {labels: weight}, each face at the
    weight of its heaviest listed coface: complete_faces after the listing.

    The size cap is checked here, in listing order, before any face is
    generated; every caller has canonicalised its records and checked their
    weights, so those errors come first.
    """
    for s in listed:
        if len(s) > MAX_CLOSURE_VERTICES:
            raise SimplexTooLarge(s, MAX_CLOSURE_VERTICES)
    weights = _heaviest_cofaces(listed)
    if any(weights[s] > ws for s, ws in listed.items()):
        # the order only names the offender, so sort once one is known to exist
        items = sorted(listed.items(), key=lambda kv: len(kv[0]))
        s, ws = next((s, ws) for s, ws in items if weights[s] > ws)
        sset = set(s)
        t, wt = next(
            (t, wt) for t, wt in items if len(t) > len(s) and ws < wt and sset.issubset(t)
        )
        raise MonotonicityViolation(s, t, ws, wt)
    # the closure holds every face, and each face weighs the most of its
    # listed cofaces, so it is monotone once the listed check has passed
    return WeightedComplex(weights)


class _Record:
    """A slotted record compared and shown by its public fields.

    The public fields are the slots without a leading underscore, in slot
    order: == holds between two records of the same class whose public
    fields are equal, and repr lists them as keyword arguments. A private
    slot is bookkeeping, left out of both. Like any class that defines ==
    without __hash__, a record is unhashable unless its class says how.
    """

    __slots__ = ()

    def _public(self):
        return tuple(getattr(self, f) for f in self.__slots__ if f[0] != "_")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._public() == other._public()

    def __repr__(self):
        fields = (f"{f}={getattr(self, f)!r}" for f in self.__slots__ if f[0] != "_")
        return f"{type(self).__qualname__}({', '.join(fields)})"


class BoundaryMatrix(_Record):
    """Sparse weighted boundary structure in dimension n.

    Rows are the (n-1)-simplices, columns the n-simplices, both in the
    complex's lexicographic order. Each column holds (row index, sign,
    exponent) triples; the exponent is weight(face) - weight(simplex),
    always non-negative by monotonicity. Dropping the exponents gives the
    ordinary boundary matrix over a coefficient field. Immutable and
    hashable. No library code builds one: the fast path (wsh.homology)
    reads each column off the faces of its simplex, and the --check oracle
    (wsh.oracle) reads boundary_rows.
    """

    __slots__ = ("n", "row_simplices", "col_simplices", "columns")

    def __init__(self, n: int, row_simplices: tuple, col_simplices: tuple, columns: tuple):
        for name, value in zip(self.__slots__, (n, row_simplices, col_simplices, columns)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._public())

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which alone may set the slots
        return BoundaryMatrix, self._public()


def boundary_rows(X: WeightedComplex, n: int, plus, minus) -> list:
    """The dimension-n boundary map as sparse rows, for 1 <= n <= X.dim.

    rows[r] is {j: (exponent, sign)} for the r-th (n-1)-simplex, over the
    n-simplices s it is a face of, s the j-th; both in lexicographic order.
    The i-th face of s drops the i-th smallest vertex, has sign plus for
    even i and minus for odd i, and exponent weight(face) - weight(s).
    Each face costs one lookup in a map of the (n-1)-simplices to their
    row index and weight. The --check oracle reads its boundary maps here.
    """
    if n < 1 or n > X.dim:
        raise DimensionOutOfRange(n, f"boundary defined for 1 <= n <= {X.dim}, got {n}")
    weights = X._weights
    row_of = {f: (i, weights[f]) for i, f in enumerate(X.n_simplices(n - 1))}
    rows = [{} for _ in row_of]
    drops = [(i, plus if i % 2 == 0 else minus) for i in range(n + 1)]
    for j, s in enumerate(X.n_simplices(n)):
        ws = weights[s]
        for i, sign in drops:
            r, wf = row_of[s[:i] + s[i + 1 :]]
            rows[r][j] = (wf - ws, sign)
    return rows


def boundary_exponent_matrix(X: WeightedComplex, n: int) -> BoundaryMatrix:
    """The BoundaryMatrix of dimension n, for 1 <= n <= X.dim.

    Column j lists the n + 1 faces of the j-th n-simplex s by the vertex
    they drop: the i-th triple drops the i-th smallest vertex of s, has
    sign (-1)^i and exponent weight(face) - weight(s). It is boundary_rows
    read by column. Nothing in the library calls it; the tests do, and
    perfbench/tracing.py looks it up through wsh.complexes, wsh.homology
    and wsh.oracle.
    """
    rows = boundary_rows(X, n, 1, -1)
    cols = X.n_simplices(n)
    columns = [[] for _ in cols]
    # dropping a later vertex gives a lexicographically smaller face, so
    # walking the rows from the last lists each column's faces in drop order
    for r in range(len(rows) - 1, -1, -1):
        for j, (e, sign) in rows[r].items():
            columns[j].append((r, sign, e))
    return BoundaryMatrix(n, X.n_simplices(n - 1), cols, tuple(map(tuple, columns)))
