"""Independent verification path over truncated power series.

Everything here works directly with matrices over F[[pi]] truncated at a
precision N, using Smith-normal-form style elimination with minimal
valuation pivots: homology is read off the invariant factors of the
weighted boundary maps. The oracle is independent of the fast path in
wsh.homology: it shares no code with it, and its pivots follow its own
rule, the entry of least valuation, first by row and then by column. A
SeriesMatrix is stored as sparse rows, {column: nonzero series}, from the
boundary map to the end of its elimination, so memory grows with the
nonzero entries rather than with rows x columns, and the work skipped is
exactly the adding and multiplying of exact zeros; every pivot and every
answer is the one the dense elimination gives.

Homology from Smith forms. R = F[[pi]] is a principal ideal domain and
C_n / Z_n is isomorphic to B_(n-1), a submodule of a free module, hence
free. So Z_n is a direct summand of C_n, and C_n / B_n is H_n plus a free
module of rank rank d_n. The Smith form of d_(n+1) makes C_n / B_n
R^(m - rank d_(n+1)) plus R/(pi^v) for each invariant factor pi^v with
v >= 1, where m is the number of n-simplices. So H_n is free of rank
m - rank d_n - rank d_(n+1) with that torsion (Munkres, Elements of
Algebraic Topology, section 11), and no kernel basis is needed.

Single-term invariant. Every matrix the oracle eliminates carries weights
a_i on its rows and b_j on its columns, and entry (i, j) is zero or one
term c*pi^(a_i - b_j): for the boundary map these are the weights of the
faces and of the simplices. A least-valuation pivot in row r makes the
multiplier of row i one term c'*pi^(a_i - a_r), and a_i - a_r + a_r - b_k
= a_i - b_k, so a row operation keeps the shape, and so does a column
swap. So in practice every series here has one coefficient, and the ring
operations and _add_multiple take a short path on one-term operands: a
product is one term, an exact quotient by c*pi^v is a shift by v and a
scale by 1/c. The kernels stay general, and series with several terms,
such as hand-built matrices, take the convolution and long division; both
give the same field values.

Precision discipline. Truncation at pi^N is a ring quotient, so addition,
subtraction and multiplication are exact in the quotient ring. Exact
division by a pivot of valuation v determines the quotient only below
pi^(N - v), and those divisions are the single source of uncertainty.
choose_precision returns N = 1 + (sum of all weights), which keeps every
invariant factor of a weighted boundary matrix visible: a k x k minor takes
entries from k distinct rows, each entry exponent is at most the weight of
its row, so every determinantal divisor valuation stays below N.
"""

from __future__ import annotations

import math

from .complexes import WeightedComplex, boundary_exponent_matrix
from .errors import DimensionOutOfRange, MismatchedDimensions, PrecisionExhausted
from .fields import FieldSpec

__all__ = [
    "TruncatedSeries",
    "SeriesMatrix",
    "choose_precision",
    "weighted_boundary_matrix",
    "snf_valuations",
    "homology_via_snf",
]


class TruncatedSeries:
    """Element of F[[pi]] mod pi^N.

    Conceptually one field coefficient per exponent below the precision;
    stored sparsely as {exponent: nonzero coefficient}. All operations stay
    inside one precision, and mixing precisions is an error. The
    constructor validates its coefficients; results of ring operations are
    built by _series, which trusts them.
    """

    __slots__ = ("field", "precision", "coeffs")

    def __init__(self, field, precision, coeffs=None):
        if precision < 1:
            raise ValueError("precision must be at least 1")
        self.field = field
        self.precision = precision
        self.coeffs = {}
        if coeffs:
            for e, c in coeffs.items():
                if e < 0:
                    raise ValueError("negative exponent")
                if e < precision and not field.is_zero(c):
                    self.coeffs[e] = c

    @classmethod
    def zero(cls, field, precision):
        return cls(field, precision)

    @classmethod
    def monomial(cls, field, precision, exponent, coeff=None):
        """coeff * pi^exponent. Exponents >= precision are not representable."""
        c = field.one() if coeff is None else coeff
        if field.is_zero(c):
            return cls(field, precision)
        if exponent >= precision:
            raise _unrepresentable(exponent, precision)
        return cls(field, precision, {exponent: c})

    def is_zero(self):
        return not self.coeffs

    def valuation(self):
        """Index of the lowest nonzero coefficient, None for zero."""
        return min(self.coeffs) if self.coeffs else None

    def _check(self, other):
        if self.precision != other.precision or (
            self.field is not other.field and self.field != other.field
        ):
            raise MismatchedDimensions("series contexts differ")

    def __add__(self, other):
        self._check(other)
        F = self.field
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            if e not in out:
                out[e] = c
                continue
            v = F.add(out[e], c)
            if F.is_zero(v):
                del out[e]
            else:
                out[e] = v
        return _series(F, self.precision, out)

    def __sub__(self, other):
        self._check(other)
        F = self.field
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            if e not in out:
                out[e] = F.neg(c)
                continue
            v = F.sub(out[e], c)
            if F.is_zero(v):
                del out[e]
            else:
                out[e] = v
        return _series(F, self.precision, out)

    def __mul__(self, other):
        self._check(other)
        F = self.field
        N = self.precision
        a, b = self.coeffs, other.coeffs
        if len(a) == 1 and len(b) == 1:
            # c1*pi^e1 * c2*pi^e2 is one term, or nothing at or beyond N
            [(e1, c1)] = a.items()
            [(e2, c2)] = b.items()
            e = e1 + e2
            return _series(F, N, {e: F.mul(c1, c2)} if e < N else {})
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                if e >= N:
                    continue
                # a product of nonzero field elements is nonzero
                c = F.mul(c1, c2)
                if e not in out:
                    out[e] = c
                    continue
                v = F.add(out[e], c)
                if F.is_zero(v):
                    del out[e]
                else:
                    out[e] = v
        return _series(F, N, out)

    def divide_exact(self, other):
        """Quotient by a divisor of smaller or equal valuation.

        The quotient of two series is determined only below
        pi^(precision - valuation(divisor)); coefficients beyond that are
        set to zero, which is the uncertainty discussed in the module notes.
        """
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero series")
        if self.is_zero():
            return _series(self.field, self.precision, {})
        F = self.field
        vo = other.valuation()
        if self.valuation() < vo:
            raise ValueError("dividend valuation below divisor valuation")
        if len(other.coeffs) == 1:
            # by c*pi^vo the quotient is a shift by vo and a scale by 1/c,
            # known to full precision
            inv0 = F.inv(other.coeffs[vo])
            return _series(
                F, self.precision, {e - vo: F.mul(c, inv0) for e, c in self.coeffs.items()}
            )
        limit = self.precision - vo
        num = {e - vo: c for e, c in self.coeffs.items()}
        den = {e - vo: c for e, c in other.coeffs.items()}
        inv0 = F.inv(den[0])
        tail = sorted((e, c) for e, c in den.items() if e > 0)
        q = {}
        rem = dict(num)
        while rem:
            e = min(rem)
            if e >= limit:
                break
            qc = F.mul(rem.pop(e), inv0)
            q[e] = qc
            for de, dc in tail:
                ne = e + de
                if ne >= limit:
                    continue
                c = F.mul(qc, dc)
                if ne not in rem:
                    rem[ne] = F.neg(c)
                    continue
                v = F.sub(rem[ne], c)
                if F.is_zero(v):
                    del rem[ne]
                else:
                    rem[ne] = v
        return _series(F, self.precision, q)

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.field == other.field
            and self.precision == other.precision
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        if self.is_zero():
            body = "0"
        else:
            body = " + ".join(
                f"{self.field.to_str(c)}*pi^{e}" for e, c in sorted(self.coeffs.items())
            )
        return f"({body} mod pi^{self.precision})"


def _series(field, precision, coeffs):
    """A series from coefficients already known to be nonzero and below precision."""
    s = object.__new__(TruncatedSeries)
    s.field = field
    s.precision = precision
    s.coeffs = coeffs
    return s


def _unrepresentable(exponent, precision):
    return PrecisionExhausted(f"exponent {exponent} needs precision > {exponent}, have {precision}")


class SeriesMatrix:
    """Sparse matrix of TruncatedSeries sharing one field and precision.

    rows[i] is {column: nonzero series}; an absent key is a zero entry. The
    constructor copies the rows, drops zero series and rejects columns
    outside range(ncols).
    """

    __slots__ = ("field", "precision", "rows", "ncols")

    def __init__(self, field, precision, rows, ncols):
        self.field = field
        self.precision = precision
        self.ncols = ncols
        self.rows = [{j: x for j, x in row.items() if x.coeffs} for row in rows]
        for row in self.rows:
            for j in row:
                if not 0 <= j < ncols:
                    raise MismatchedDimensions(f"column {j} outside {ncols} columns")

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
                raise _unrepresentable(exp, N)
            rows[row][j] = _series(field, N, {exp: scalar[sign]})
    return SeriesMatrix(field, N, rows, len(bm.col_simplices))


# Elimination works on sparse rows, {column: nonzero series}, so a row
# operation visits only nonzero positions.


def _add_multiple(vec, f, src):
    """vec -= f * src, in place on sparse vectors.

    Each product term is added straight into a copy of vec[k]'s
    coefficients, so every touched key costs one new series. For the usual
    one-term f (module notes) that is one pass over src[k]'s coefficients.
    """
    F, N = f.field, f.precision
    g = [(v, F.neg(c)) for v, c in f.coeffs.items()]
    for k, y in src.items():
        f._check(y)
        x = vec.get(k)
        if x is None:
            out = {}
        else:
            f._check(x)
            out = dict(x.coeffs)
        for v, gc in g:
            for e, cy in y.coeffs.items():
                e += v
                if e >= N:
                    continue
                p = F.mul(gc, cy)
                if e not in out:
                    out[e] = p
                    continue
                s = F.add(out[e], p)
                if F.is_zero(s):
                    del out[e]
                else:
                    out[e] = s
        if out:
            vec[k] = _series(F, N, out)
        else:
            vec.pop(k, None)


def _row_least(row):
    """(least valuation, first column holding it) of a sparse row, (inf, 0) if empty."""
    best = (math.inf, 0)
    for j, x in row.items():
        v = min(x.coeffs)
        if v < best[0] or (v == best[0] and j < best[1]):
            best = (v, j)
    return best


def _eliminate(a, nrows, ncols):
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
        for i in range(r + 1, nrows):
            lead = a[i].get(r)
            if lead is None:
                continue
            f = lead.divide_exact(pivot)
            _add_multiple(a[i], f, row_r)
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
    return _eliminate(a, matrix.nrows, matrix.ncols)


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
    N = choose_precision(X)
    for k in (n, n + 1):
        if 1 <= k <= X.dim and k not in known:
            known[k] = snf_valuations(weighted_boundary_matrix(X, k, field, N))
    r = len(known[n]) if n >= 1 else 0
    vals = known[n + 1] if n < X.dim else []
    return m - r - len(vals), [v for v in vals if v >= 1]
