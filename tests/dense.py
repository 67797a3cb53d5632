"""Dense reference linear algebra over a FieldSpec, for the tests only.

A plain row-major Matrix with row_reduce and rank. It shares no code with
the sparse reductions of wsh.homology, so ranks taken here check them
independently.
"""

from wsh import FieldSpec, MismatchedDimensions


class Matrix:
    """Dense matrix with entries in one FieldSpec."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field: FieldSpec, rows, ncols=None):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        if self.nrows:
            self.ncols = len(self.rows[0])
            for r in self.rows:
                if len(r) != self.ncols:
                    raise MismatchedDimensions("ragged rows")
        else:
            self.ncols = 0 if ncols is None else ncols

    @classmethod
    def zeros(cls, field, nrows, ncols):
        z = field.zero()
        return cls(field, [[z] * ncols for _ in range(nrows)], ncols=ncols)

    def column(self, j):
        return [r[j] for r in self.rows]

    def transpose(self):
        t = Matrix.zeros(self.field, self.ncols, self.nrows)
        for i in range(self.nrows):
            for j in range(self.ncols):
                t.rows[j][i] = self.rows[i][j]
        return t

    def mat_vec(self, v):
        if len(v) != self.ncols:
            raise MismatchedDimensions("vector length does not match column count")
        F = self.field
        out = []
        for row in self.rows:
            acc = F.zero()
            for a, b in zip(row, v):
                acc = F.add(acc, F.mul(a, b))
            out.append(acc)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field.name})"


def row_reduce(matrix: Matrix):
    """Reduced row echelon form: returns (reduced, pivots), pivots as (row, col) pairs."""
    F = matrix.field
    a = [list(r) for r in matrix.rows]
    nrows, ncols = matrix.nrows, matrix.ncols
    pivots = []
    pr = 0
    for col in range(ncols):
        if pr >= nrows:
            break
        # first nonzero in column order, preferring +-1 to limit growth
        candidates = [i for i in range(pr, nrows) if not F.is_zero(a[i][col])]
        if not candidates:
            continue
        piv = next((i for i in candidates if F.is_pm_one(a[i][col])), candidates[0])
        a[piv], a[pr] = a[pr], a[piv]
        if a[pr][col] != F.one():
            c = F.inv(a[pr][col])
            a[pr] = [F.mul(c, v) for v in a[pr]]
        for i in range(nrows):
            if i != pr and not F.is_zero(a[i][col]):
                c = F.neg(a[i][col])
                a[i] = [F.add(v, F.mul(c, w)) for v, w in zip(a[i], a[pr])]
        pivots.append((pr, col))
        pr += 1
    return Matrix(F, a, ncols=ncols), pivots


def rank(matrix: Matrix) -> int:
    return len(row_reduce(matrix)[1])
