"""Truncated-series oracle as it was before zero entries were skipped.

A verbatim copy of `wsh.oracle` from before its ring operations got a
trusted constructor and its row and column operations started touching
only nonzero positions; only the imports are absolute. The differential
tests in `tests/test_oracle_reference.py` compare the library against it.
"""

from __future__ import annotations

from wsh.complexes import WeightedComplex, boundary_exponent_matrix
from wsh.errors import DimensionOutOfRange, MismatchedDimensions, PrecisionExhausted
from wsh.fields import FieldSpec

__all__ = [
    "TruncatedSeries",
    "SeriesMatrix",
    "choose_precision",
    "weighted_boundary_matrix",
    "chain_to_series",
    "snf_valuations",
    "in_column_span",
    "homology_via_snf",
]


class TruncatedSeries:
    """Element of F[[pi]] mod pi^N.

    Conceptually one field coefficient per exponent below the precision;
    stored sparsely as {exponent: nonzero coefficient}. All operations stay
    inside one precision, and mixing precisions is an error.
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
            raise PrecisionExhausted(
                f"exponent {exponent} needs precision > {exponent}, have {precision}"
            )
        return cls(field, precision, {exponent: c})

    @classmethod
    def from_coefficients(cls, field, coefficients):
        """Dense constructor; the precision is the length of the list."""
        return cls(field, len(coefficients), dict(enumerate(coefficients)))

    def coefficient_list(self):
        z = self.field.zero()
        out = [z] * self.precision
        for e, c in self.coeffs.items():
            out[e] = c
        return out

    def is_zero(self):
        return not self.coeffs

    def valuation(self):
        """Index of the lowest nonzero coefficient, None for zero."""
        return min(self.coeffs) if self.coeffs else None

    def _check(self, other):
        if self.field != other.field or self.precision != other.precision:
            raise MismatchedDimensions("series contexts differ")

    def __add__(self, other):
        self._check(other)
        F = self.field
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            v = F.add(out.get(e, F.zero()), c)
            if F.is_zero(v):
                out.pop(e, None)
            else:
                out[e] = v
        return TruncatedSeries(F, self.precision, out)

    def __neg__(self):
        F = self.field
        return TruncatedSeries(
            F, self.precision, {e: F.neg(c) for e, c in self.coeffs.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        F = self.field
        N = self.precision
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e >= N:
                    continue
                v = F.add(out.get(e, F.zero()), F.mul(c1, c2))
                if F.is_zero(v):
                    out.pop(e, None)
                else:
                    out[e] = v
        return TruncatedSeries(F, N, out)

    def scale(self, c):
        F = self.field
        if F.is_zero(c):
            return TruncatedSeries(F, self.precision)
        return TruncatedSeries(
            F, self.precision, {e: F.mul(c, x) for e, x in self.coeffs.items()}
        )

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
            return TruncatedSeries(self.field, self.precision)
        F = self.field
        vo = other.valuation()
        if self.valuation() < vo:
            raise ValueError("dividend valuation below divisor valuation")
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
                v = F.sub(rem.get(ne, F.zero()), F.mul(qc, dc))
                if F.is_zero(v):
                    rem.pop(ne, None)
                else:
                    rem[ne] = v
        return TruncatedSeries(F, self.precision, q)

    def inverse(self):
        """Inverse of a unit (valuation zero), to full precision."""
        if self.valuation() != 0:
            raise ValueError("only valuation-zero series are invertible")
        F = self.field
        one = TruncatedSeries.monomial(F, self.precision, 0)
        return one.divide_exact(self)

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


class SeriesMatrix:
    """Dense matrix of TruncatedSeries sharing one field and precision."""

    __slots__ = ("field", "precision", "rows", "nrows", "ncols")

    def __init__(self, field, precision, rows, ncols=None):
        self.field = field
        self.precision = precision
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.nrows else (ncols or 0)
        for r in self.rows:
            if len(r) != self.ncols:
                raise MismatchedDimensions("ragged rows")

    @classmethod
    def zeros(cls, field, precision, nrows, ncols):
        z = TruncatedSeries.zero(field, precision)
        return cls(field, precision, [[z] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def identity(cls, field, precision, n):
        m = cls.zeros(field, precision, n, n)
        one = TruncatedSeries.monomial(field, precision, 0)
        for i in range(n):
            m.rows[i][i] = one
        return m

    def copy(self):
        return SeriesMatrix(self.field, self.precision, self.rows, ncols=self.ncols)

    def column(self, j):
        return [r[j] for r in self.rows]

    def mat_vec(self, vec):
        if len(vec) != self.ncols:
            raise MismatchedDimensions("vector length does not match column count")
        out = []
        for row in self.rows:
            acc = TruncatedSeries.zero(self.field, self.precision)
            for a, b in zip(row, vec):
                if not a.is_zero() and not b.is_zero():
                    acc = acc + a * b
            out.append(acc)
        return out

    def mat_mul(self, other):
        if self.ncols != other.nrows:
            raise MismatchedDimensions("inner dimensions differ")
        out = SeriesMatrix.zeros(self.field, self.precision, self.nrows, other.ncols)
        for i in range(self.nrows):
            for k in range(self.ncols):
                a = self.rows[i][k]
                if a.is_zero():
                    continue
                for j in range(other.ncols):
                    b = other.rows[k][j]
                    if not b.is_zero():
                        out.rows[i][j] = out.rows[i][j] + a * b
        return out

    def is_zero(self):
        return all(s.is_zero() for r in self.rows for s in r)

    def __repr__(self):
        return f"SeriesMatrix({self.nrows}x{self.ncols} mod pi^{self.precision})"


def choose_precision(X: WeightedComplex) -> int:
    """Precision that keeps every valuation of interest below the cap."""
    return 1 + X.total_weight()


def weighted_boundary_matrix(X, n, field, precision=None) -> SeriesMatrix:
    """The dimension-n weighted boundary map as a series matrix."""
    N = choose_precision(X) if precision is None else precision
    bm = boundary_exponent_matrix(X, n)
    out = SeriesMatrix.zeros(field, N, len(bm.row_simplices), len(bm.col_simplices))
    for j, col in enumerate(bm.columns):
        for row, sign, exp in col:
            out.rows[row][j] = TruncatedSeries.monomial(field, N, exp, field.from_int(sign))
    return out


def chain_to_series(chain, X, field, precision):
    """Coordinate vector of a WeightedChain over the n-simplex basis."""
    basis = X.n_simplices(chain.n)
    pos = {s: i for i, s in enumerate(basis)}
    out = [TruncatedSeries.zero(field, precision) for _ in basis]
    for s, terms in chain.terms.items():
        out[pos[tuple(s)]] = TruncatedSeries(field, precision, dict(terms))
        for e, _c in terms:
            if e >= precision:
                raise PrecisionExhausted(f"exponent {e} at precision {precision}")
    return out


def _min_valuation_pivot(a, start, cutoff):
    best = None
    for i in range(start, len(a)):
        row = a[i]
        for j in range(start, len(row)):
            v = row[j].valuation()
            if v is None or (cutoff is not None and v >= cutoff):
                continue
            if best is None or v < best[0]:
                best = (v, i, j)
                if v == 0:
                    return best
    return best


def _eliminate(a, nrows, ncols, track_cols=False, target=None, cutoff=None):
    """Diagonalize in place with minimal-valuation pivots.

    Row operations are mirrored onto target when given; column operations
    are mirrored onto a tracked identity when track_cols is set. Returns
    (pivot valuations, column transform rows or None). The cutoff, when
    given, shrinks by each pivot valuation and entries at or above it are
    treated as zero, per the certified-precision argument in the module
    docstring.
    """
    V = None
    if track_cols and ncols:
        sample = a[0][0]
        field, N = sample.field, sample.precision
        V = [
            [TruncatedSeries.monomial(field, N, 0) if i == j else TruncatedSeries.zero(field, N) for j in range(ncols)]
            for i in range(ncols)
        ]
    vals = []
    r = 0
    while r < nrows and r < ncols:
        found = _min_valuation_pivot(a, r, cutoff)
        if found is None:
            break
        v, pi, pj = found
        if pi != r:
            a[pi], a[r] = a[r], a[pi]
            if target is not None:
                target[pi], target[r] = target[r], target[pi]
        if pj != r:
            for row in a:
                row[pj], row[r] = row[r], row[pj]
            if V is not None:
                for row in V:
                    row[pj], row[r] = row[r], row[pj]
        pivot = a[r][r]
        for i in range(r + 1, nrows):
            lead = a[i][r]
            if lead.is_zero():
                continue
            f = lead.divide_exact(pivot)
            row_r = a[r]
            row_i = a[i]
            for j in range(r, ncols):
                if not row_r[j].is_zero():
                    row_i[j] = row_i[j] - f * row_r[j]
            if target is not None:
                target[i] = target[i] - f * target[r]
            if not row_i[r].is_zero():
                raise PrecisionExhausted("elimination left a nonzero entry below the pivot")
        for j in range(r + 1, ncols):
            entry = a[r][j]
            if entry.is_zero():
                continue
            # the pivot column is zero below r, so this column operation
            # only affects the pivot row
            if V is not None:
                f = entry.divide_exact(pivot)
                for row in V:
                    row[j] = row[j] - f * row[r]
            a[r][j] = TruncatedSeries.zero(entry.field, entry.precision)
        vals.append(v)
        if cutoff is not None:
            cutoff -= v
        r += 1
    if vals != sorted(vals):
        raise PrecisionExhausted("pivot valuations are not ascending")
    return vals, V


def snf_valuations(matrix: SeriesMatrix, _cutoff=None):
    """Valuations of the nonzero invariant factors, ascending."""
    a = [list(r) for r in matrix.rows]
    vals, _ = _eliminate(a, matrix.nrows, matrix.ncols, cutoff=_cutoff)
    return vals


def in_column_span(matrix: SeriesMatrix, target) -> bool:
    """Whether target lies in the column span over the truncated ring."""
    if len(target) != matrix.nrows:
        raise MismatchedDimensions("target length does not match row count")
    a = [list(r) for r in matrix.rows]
    t = list(target)
    vals, _ = _eliminate(a, matrix.nrows, matrix.ncols, target=t)
    for k, v in enumerate(vals):
        tv = t[k].valuation()
        if tv is not None and tv < v:
            return False
    return all(t[i].is_zero() for i in range(len(vals), len(t)))


def _solve_unit_pivots(kernel_cols, c_rows, field, precision):
    """Solve K * W = C where K has full column rank modulo pi.

    Every pivot is a unit, so no precision is lost. Rows of C outside the
    span must vanish; if they do not, the precision assumptions were
    violated and PrecisionExhausted is raised.
    """
    m = len(kernel_cols)
    f = len(kernel_cols[0]) if m else 0
    aug = [list(kernel_cols[i]) + list(c_rows[i]) for i in range(m)]
    width = len(aug[0]) if m else 0
    for j in range(f):
        pivot_row = next(
            (i for i in range(j, m) if aug[i][j].valuation() == 0), None
        )
        if pivot_row is None:
            raise PrecisionExhausted("kernel basis lost its unit structure")
        aug[j], aug[pivot_row] = aug[pivot_row], aug[j]
        inv = aug[j][j].inverse()
        aug[j] = [inv * x for x in aug[j]]
        for i in range(m):
            if i == j:
                continue
            lead = aug[i][j]
            if lead.is_zero():
                continue
            aug[i] = [x - lead * y for x, y in zip(aug[i], aug[j])]
    for i in range(f, m):
        for x in aug[i][f:]:
            if not x.is_zero():
                raise PrecisionExhausted("image does not lie in the computed kernel")
    return [row[f:] for row in aug[:f]]


def homology_via_snf(X: WeightedComplex, n: int, field: FieldSpec):
    """(free rank, ascending torsion exponents) of H_n, by brute force.

    Kernel basis of the weighted boundary over the series ring, image
    coordinates inside it, then invariant factors of the coordinate matrix.
    """
    if n < 0:
        raise DimensionOutOfRange(n)
    m = len(X.n_simplices(n))
    if m == 0:
        return 0, []
    N = choose_precision(X)
    if n == 0:
        vals_n = []
        kernel = SeriesMatrix.identity(field, N, m).rows
    else:
        A = weighted_boundary_matrix(X, n, field, N)
        a = [list(r) for r in A.rows]
        vals_n, V = _eliminate(a, A.nrows, A.ncols, track_cols=True)
        r = len(vals_n)
        kernel = [[V[i][j] for j in range(r, m)] for i in range(m)]
    free_dim = m - len(vals_n)
    if free_dim == 0:
        return 0, []
    if n + 1 > X.dim:
        return free_dim, []
    C = weighted_boundary_matrix(X, n + 1, field, N)
    w_rows = _solve_unit_pivots(kernel, C.rows, field, N)
    cutoff = N - sum(vals_n)
    vals = snf_valuations(
        SeriesMatrix(field, N, w_rows, ncols=C.ncols), _cutoff=cutoff
    )
    torsion = [v for v in vals if v >= 1]
    return free_dim - len(vals), torsion
