"""Independent verification path over truncated power series.

Everything here works directly with matrices over F[[pi]] truncated at a
precision N, using Smith-normal-form style elimination with minimal
valuation pivots: homology is read off the invariant factors of the
weighted boundary maps. The oracle is independent of the fast path in
wsh.homology: it shares no code with it, and its pivots follow its own
rule, the entry of least valuation, first by row and then by column. A
SeriesMatrix is stored as sparse rows, {column: (exponent, scalar)},
from the boundary map to the end of its elimination, so memory grows
with the nonzero entries rather than with rows x columns, and the work
skipped is exactly the adding and multiplying of exact zeros; every
pivot and every answer is the one the dense elimination gives.

Homology from Smith forms. R = F[[pi]] is a principal ideal domain and
C_n / Z_n is isomorphic to B_(n-1), a submodule of a free module, hence
free. So Z_n is a direct summand of C_n, and C_n / B_n is H_n plus a free
module of rank rank d_n. The Smith form of d_(n+1) makes C_n / B_n
R^(m - rank d_(n+1)) plus R/(pi^v) for each invariant factor pi^v with
v >= 1, where m is the number of n-simplices. So H_n is free of rank
m - rank d_n - rank d_(n+1) with that torsion (Munkres, Elements of
Algebraic Topology, section 11), and no kernel basis is needed.

Entries are pi-monomials. Every matrix the oracle eliminates carries
weights a_i on its rows and b_j on its columns, and entry (i, j) is zero
or one term c*pi^(a_i - b_j): for the boundary map these are the weights
of the faces and of the simplices. A least-valuation pivot in row r
makes the multiplier of row i one term c'*pi^(a_i - a_r), and
a_i - a_r + a_r - b_k = a_i - b_k, so row operations and column swaps
keep the shape, and each entry is stored as one pair (exponent, nonzero
scalar). A row update that meets an entry at another exponent has met a
matrix without that shape: _add_multiple raises PrecisionExhausted
("row operation adds pi^e to an entry at pi^e'") rather than drop a term.

Precision discipline. Truncation at pi^N is a ring quotient: a product
at exponent N or more is zero and dropped, and all else below N is exact.
The multiplier (lc / pc) * pi^(le - pe) is known below pi^(N - pe) and
multiplies entries of valuation at least pe, so every product is known
below pi^N. choose_precision returns N = 1 + (sum of all weights), which
keeps every invariant factor of a weighted boundary matrix visible: a
k x k minor takes entries from k distinct rows, each entry exponent is
at most the weight of its row, so every determinantal divisor valuation
stays below N.
"""

from __future__ import annotations

import math

from .complexes import WeightedComplex, boundary_exponent_matrix
from .errors import DimensionOutOfRange, MismatchedDimensions, PrecisionExhausted
from .fields import FieldSpec

__all__ = [
    "SeriesMatrix",
    "choose_precision",
    "weighted_boundary_matrix",
    "snf_valuations",
    "homology_via_snf",
]


class SeriesMatrix:
    """Sparse matrix over F[[pi]] mod pi^N whose entries are pi-monomials.

    rows[i] is {column: (exponent, scalar)} for scalar*pi^exponent; an
    absent key is a zero entry. The constructor copies the rows, drops the
    entries that are zero mod pi^N (zero scalar, exponent >= precision) and
    rejects negative exponents and columns outside range(ncols).
    """

    __slots__ = ("field", "precision", "rows", "ncols")

    def __init__(self, field, precision, rows, ncols):
        self.field = field
        self.precision = precision
        self.ncols = ncols
        self.rows = [
            {j: x for j, x in row.items() if x[0] < precision and not field.is_zero(x[1])}
            for row in rows
        ]
        for row in self.rows:
            for j, (e, _c) in row.items():
                if not 0 <= j < ncols:
                    raise MismatchedDimensions(f"column {j} outside {ncols} columns")
                if e < 0:
                    raise ValueError("negative exponent")

    @property
    def nrows(self):
        return len(self.rows)

    def __repr__(self):
        return f"SeriesMatrix({self.nrows}x{self.ncols} mod pi^{self.precision})"


def choose_precision(X: WeightedComplex) -> int:
    """Precision that keeps every valuation of interest below the cap."""
    return 1 + X.total_weight()


def weighted_boundary_matrix(X, n, field, precision=None) -> SeriesMatrix:
    """The dimension-n weighted boundary map as a series matrix."""
    N = choose_precision(X) if precision is None else precision
    bm = boundary_exponent_matrix(X, n)
    rows = [{} for _ in bm.row_simplices]
    # sign is +-1, a nonzero scalar in every field
    scalar = {1: field.from_int(1), -1: field.from_int(-1)}
    for j, col in enumerate(bm.columns):
        for row, sign, exp in col:
            if exp >= N:
                raise PrecisionExhausted(f"exponent {exp} needs precision > {exp}, have {N}")
            rows[row][j] = (exp, scalar[sign])
    return SeriesMatrix(field, N, rows, len(bm.col_simplices))


def _add_multiple(vec, shift, g, src, field, precision):
    """vec += g * pi^shift * src, in place on sparse rows of pi-monomials.

    Products at or beyond the precision are zero and skipped. A product
    meets an entry of vec only at that entry's exponent (module notes).
    """
    for k, (e, c) in src.items():
        e += shift
        if e >= precision:
            continue
        p = field.mul(g, c)
        x = vec.get(k)
        if x is None:
            vec[k] = (e, p)
            continue
        if x[0] != e:
            raise PrecisionExhausted(
                f"row operation adds pi^{e} to an entry at pi^{x[0]}: entries are not pi-monomials"
            )
        s = field.add(x[1], p)
        if field.is_zero(s):
            del vec[k]
        else:
            vec[k] = (e, s)


def _row_least(row):
    """(least valuation, first column holding it) of a sparse row, (inf, 0) if empty."""
    return min(((e, j) for j, (e, _c) in row.items()), default=(math.inf, 0))


def _eliminate(a, nrows, ncols, field, precision):
    """Diagonalize the sparse rows a in place with minimal-valuation pivots,
    returning the pivot valuations.

    The pivot is the entry of least valuation, first by row and then by
    column. least[i] caches _row_least(a[i]); touching row i resets it to
    None, and the scan recomputes it on arrival.
    """
    vals = []
    least = [None] * nrows
    r = 0
    while r < nrows and r < ncols:
        found, v = None, math.inf
        for i in range(r, nrows):
            if least[i] is None:
                least[i] = _row_least(a[i])
            if least[i][0] < v:
                v, j = least[i]
                found = (i, j)
                if v == 0:
                    break
        if found is None:
            break
        pi, pj = found
        if pi != r:
            a[pi], a[r] = a[r], a[pi]
            least[pi], least[r] = least[r], least[pi]
        if pj != r:
            # rows above r are already {k: pivot} with k < r
            for i in range(r, nrows):
                row = a[i]
                x, y = row.pop(pj, None), row.pop(r, None)
                if x is not None:
                    row[r] = x
                if y is not None:
                    row[pj] = y
                if x is not None or y is not None:
                    least[i] = None
        row_r = a[r]
        pivot = row_r[r]
        # row i loses (lc / pc) * pi^(le - pe) times row r
        neg_inv = field.neg(field.inv(pivot[1]))
        for i in range(r + 1, nrows):
            lead = a[i].get(r)
            if lead is None:
                continue
            g = field.mul(lead[1], neg_inv)
            _add_multiple(a[i], lead[0] - pivot[0], g, row_r, field, precision)
            least[i] = None
            if r in a[i]:
                raise PrecisionExhausted("elimination left a nonzero entry below the pivot")
        # the pivot column is zero below r, so clearing the rest of the
        # pivot row is a column operation that only affects the pivot row
        a[r] = {r: pivot}
        vals.append(v)
        r += 1
    if vals != sorted(vals):
        raise PrecisionExhausted("pivot valuations are not ascending")
    return vals


def snf_valuations(matrix: SeriesMatrix):
    """Valuations of the nonzero invariant factors, ascending."""
    a = [dict(row) for row in matrix.rows]
    return _eliminate(a, matrix.nrows, matrix.ncols, matrix.field, matrix.precision)


def homology_via_snf(X: WeightedComplex, n: int, field: FieldSpec, known=None):
    """(free rank, ascending torsion exponents) of H_n, by brute force.

    Invariant factors of d_n and d_(n+1) over the series ring, read as in
    the module notes: the free rank is m - rank d_n - rank d_(n+1), and the
    torsion is the nonunit invariant factors of d_(n+1). Each map is built
    by weighted_boundary_matrix at its default precision, choose_precision.

    known, if given, is a dict owned by the caller that maps k to the
    snf_valuations of d_k for this one X and field; it is read first and
    gains every d_k eliminated here. A caller walking n = 0, 1, ... with
    one such dict eliminates each boundary map once, not twice.
    """
    if n < 0:
        raise DimensionOutOfRange(n)
    m = len(X.n_simplices(n))
    if m == 0:
        return 0, []
    known = {} if known is None else known
    for k in (n, n + 1):
        if 1 <= k <= X.dim and k not in known:
            known[k] = snf_valuations(weighted_boundary_matrix(X, k, field))
    r = len(known[n]) if n >= 1 else 0
    vals = known[n + 1] if n < X.dim else []
    return m - r - len(vals), [v for v in vals if v >= 1]
