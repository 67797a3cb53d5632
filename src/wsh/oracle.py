"""Independent verification path over the power series ring F[[pi]].

Everything here works directly and exactly with matrices over F[[pi]],
using Smith-normal-form style elimination with minimal valuation pivots:
homology is read off the invariant factors of the weighted boundary maps.
The oracle is independent of the fast path in wsh.homology: it shares no
code with it, and its pivots follow its own rule, the entry of least
valuation, first by row and then by column. A
SeriesMatrix is stored as sparse rows, {column: (exponent, scalar)},
from the boundary map, which is read off the faces of each simplex, to
the end of its elimination, so memory grows with the nonzero entries
rather than with rows x columns, and the work skipped is exactly the
adding and multiplying of exact zeros; every pivot and every answer is
the one the dense elimination gives.

The elimination follows the nonzeros and the fill-in, as the per-column
row lists of Dumas, Saunders and Villard (On efficient sparse integer
matrix Smith normal form computations, JSC 32, 2001) do. Rows and
columns keep their ids, and a swap moves them only in position<->id
permutations. Each column lists the rows that have held an entry in it,
so a pivot's row operations visit the rows under its column and no
other row below it. Each row's least valuation is cached until a row
operation; the pivot search still reads every row left, one number
each, then the pivot column off the pivot row.

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

Every exponent is a weight difference, so the arithmetic is exact.
"""

from __future__ import annotations

import math

# boundary_exponent_matrix is not called here; it stays bound for
# perfbench/tracing.py, which looks it up through this module
from .complexes import WeightedComplex, boundary_exponent_matrix, boundary_rows  # noqa: F401
from .errors import DimensionOutOfRange, MismatchedDimensions, PrecisionExhausted
from .fields import FieldSpec

__all__ = [
    "SeriesMatrix",
    "weighted_boundary_matrix",
    "snf_valuations",
    "homology_via_snf",
]


class SeriesMatrix:
    """Sparse matrix over F[[pi]] whose entries are pi-monomials.

    rows[i] is {column: (exponent, scalar)} for scalar*pi^exponent; an
    absent key is a zero entry. The constructor rejects negative exponents
    and columns outside range(ncols) among all the given entries, zero
    scalars included, in one pass that copies the rows without their zero
    scalars.
    """

    __slots__ = ("field", "rows", "ncols")

    def __init__(self, field, rows, ncols):
        is_zero = field.is_zero
        kept = []
        for row in rows:
            out = {}
            for j, x in row.items():
                e, c = x
                if not 0 <= j < ncols:
                    raise MismatchedDimensions(f"column {j} outside {ncols} columns")
                if e < 0:
                    raise ValueError("negative exponent")
                if not is_zero(c):
                    out[j] = x
            kept.append(out)
        self.field = field
        self.ncols = ncols
        self.rows = kept

    @property
    def nrows(self):
        return len(self.rows)

    def __repr__(self):
        return f"SeriesMatrix({self.nrows}x{self.ncols})"


# choose_precision is not called; it stays defined for perfbench/tracing.py,
# which looks it up through this module
def choose_precision(X: WeightedComplex) -> int:
    return 1 + X.total_weight()


def weighted_boundary_matrix(X, n, field) -> SeriesMatrix:
    """The dimension-n weighted boundary map as a series matrix, read off
    the faces of each n-simplex by wsh.complexes.boundary_rows."""
    # sign is +-1, a nonzero scalar in every field
    rows = boundary_rows(X, n, field.from_int(1), field.from_int(-1))
    return SeriesMatrix(field, rows, len(X.n_simplices(n)))


def _add_multiple(vec, shift, g, src, field):
    """vec += g * pi^shift * src, in place on sparse rows of pi-monomials.

    A product meets an entry of vec only at that entry's exponent (module
    notes).
    """
    mul, add, is_zero = field.mul, field.add, field.is_zero
    for k, (e, c) in src.items():
        e += shift
        p = mul(g, c)
        x = vec.get(k)
        if x is None:
            vec[k] = (e, p)
            continue
        if x[0] != e:
            raise PrecisionExhausted(
                f"row operation adds pi^{e} to an entry at pi^{x[0]}: entries are not pi-monomials"
            )
        s = add(x[1], p)
        if is_zero(s):
            del vec[k]
        else:
            vec[k] = (e, s)


def _row_least(row):
    """Least valuation of a sparse row, inf if empty."""
    v = math.inf
    for e, _c in row.values():
        if e < v:
            v = e
            if not v:  # no exponent is negative
                break
    return v


def _eliminate(a, nrows, ncols, field):
    """Diagonalize the sparse rows a in place with minimal-valuation pivots,
    returning the pivot valuations.

    The pivot is the entry of least valuation, first by row position and then
    by column position. Rows and columns keep their ids, the indices of a and
    the keys of its rows, and a swap exchanges two slots of the position<->id
    permutations, or none when it swaps a position with itself. under[J] lists
    the rows that have held an entry in column J: a row joins it on fill-in and
    stays when the entry cancels, so it is checked on visit, and a pivot's row
    operations reach only the rows under its column, in position order.
    least[i] caches the least valuation of row i, which no column swap changes:
    a row operation resets it to None, and the scan recomputes it on arrival;
    the pivot column is the pivot row's first position at that valuation. On
    return a is the diagonal: {k: pivot k} for each pivot k, then empty rows.
    """
    vals = []
    row_at, row_pos = list(range(nrows)), list(range(nrows))
    col_at, col_pos = list(range(ncols)), list(range(ncols))
    under = [set() for _ in range(ncols)]
    for i, row in enumerate(a):
        for j in row:
            under[j].add(i)
    least = [None] * nrows
    minus_one = field.from_int(-1)
    mul = field.mul
    r = 0
    while r < nrows and r < ncols:
        p, v = None, math.inf
        for s in range(r, nrows):
            i = row_at[s]
            m = least[i]
            if m is None:
                m = least[i] = _row_least(a[i])
            if m < v:
                v, p = m, s
                if v == 0:
                    break
        if p is None:
            break
        top = row_at[p]
        row_r = a[top]
        q = ncols
        for j, (e, _c) in row_r.items():
            if e == v and col_pos[j] < q:
                q = col_pos[j]
        J = col_at[q]
        row_at[p], row_at[r] = row_at[r], top
        row_pos[row_at[p]], row_pos[top] = p, r
        K = col_at[r]
        col_at[q], col_at[r] = K, J
        col_pos[K], col_pos[J] = q, r
        pivot = row_r[J]
        # row i loses (lc / pc) * pi^(le - pe) times row r
        neg_inv = field.div(minus_one, pivot[1])
        under[J].discard(top)
        below = [i for i in under[J] if J in a[i]]
        below.sort(key=row_pos.__getitem__)
        for i in below:
            row = a[i]
            lead = row[J]
            _add_multiple(row, lead[0] - pivot[0], mul(lead[1], neg_inv), row_r, field)
            least[i] = None
            if J in row:
                raise PrecisionExhausted("elimination left a nonzero entry below the pivot")
        # each row below has met every column of row r: filled in, kept
        # or cancelled, it is listed there
        for k in row_r:
            under[k].update(below)
        # column J is zero below r, so clearing the rest of the pivot row
        # is a column operation that only affects the pivot row
        a[top] = {J: pivot}
        under[J] = None
        vals.append(v)
        r += 1
    a[:] = [{k: a[row_at[k]][col_at[k]]} for k in range(r)] + [{} for _ in range(nrows - r)]
    if vals != sorted(vals):
        raise PrecisionExhausted("pivot valuations are not ascending")
    return vals


def snf_valuations(matrix: SeriesMatrix):
    """Valuations of the nonzero invariant factors, ascending."""
    a = [dict(row) for row in matrix.rows]
    return _eliminate(a, matrix.nrows, matrix.ncols, matrix.field)


def homology_via_snf(X: WeightedComplex, n: int, field: FieldSpec, known=None):
    """(free rank, ascending torsion exponents) of H_n, by brute force.

    Invariant factors of d_n and d_(n+1) over the series ring, read as in
    the module notes: the free rank is m - rank d_n - rank d_(n+1), and the
    torsion is the nonunit invariant factors of d_(n+1).

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
